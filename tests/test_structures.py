import random

import pytest

from fourval import structures
from fourval.algebra import AlgebraError, builtin, mask_of
from fourval.structures import (
    SignatureMismatchError,
    VariableLimitError,
    eval_term,
    format_name,
    holds,
    identity_relation,
    is_model,
    parse_name,
    preset_structure,
    preset_names,
    structure,
    structure_from_json,
    structure_to_json,
)
from fourval.syntax import (
    FULL_SIG,
    UsageError,
    Var,
    apply_subst,
    formula_text,
    parse_rule,
    parse_term,
    sig,
)
from fourval.systems import system
from fourval.verify import random_rule

DM4 = builtin("DM4")
T, B, F, N = 0, 1, 2, 3


def S(unary=None, binary=None, alg=DM4):
    return structure(alg, unary or {}, binary or {})


def test_eval_term_tables():
    s = S({"T": (T, B)})
    t = parse_term(r"~x \/ y")
    # oracle: direct table lookups
    assert eval_term(s, t, {"x": T, "y": B}) == DM4.join[DM4.neg[T]][B] == B
    assert eval_term(s, Var("x"), {"x": N}) == N


def test_eval_term_constants():
    s = structure(builtin("DM4", {"#n", "#b"}), {"T": (T, B)})
    t = parse_term(r"#n /\ #b", sig({"T"}, {"#n", "#b"}))
    assert eval_term(s, t, {}) == F


def test_eval_term_missing_constant():
    s = S({"T": (T, B)})
    with pytest.raises(SignatureMismatchError):
        eval_term(s, parse_term("#t", sig({"T"}, {"#t"})), {})


def test_eval_term_uncovered_variable():
    s = S({"T": (T, B)})
    with pytest.raises(KeyError):
        eval_term(s, Var("x"), {})


def test_holds_examples():
    bde = preset_structure("BDE")
    assert holds(bde, parse_rule(r"E(x), T(~x \/ y) |- T(y)", sig({"T", "E"}))).valid

    bd3 = preset_structure("BD3-eq")
    verdict = holds(bd3, parse_rule("T(x), T(y) |- x = y", sig({"T", "eq"})))
    assert not verdict.valid
    names = {k: bd3.algebra.element_name(v) for k, v in verdict.valuation.items()}
    assert names == {"x": "t", "y": "b"}

    nf = preset_structure("NF")
    assert holds(nf, parse_rule(r"NF(x \/ y) |- NF(x) | NF(y)", sig({"NF"}))).valid


def test_holds_empty_rule_parts():
    bd = preset_structure("BD")
    # empty conclusions: valid iff the premises are unsatisfiable
    assert not holds(bd, parse_rule("T(x) |-", sig({"T"}))).valid
    bdnf = preset_structure("BDNF")
    assert holds(bdnf, parse_rule("T(~x), NF(x), T(x), NF(~x) |-", sig({"T", "NF"}))).valid
    # the empty rule |- fails everywhere (no conclusion to satisfy)
    assert not holds(bd, parse_rule("|-", sig({"T"}))).valid


def test_holds_signature_and_variable_guards():
    bd = preset_structure("BD")
    with pytest.raises(SignatureMismatchError):
        holds(bd, parse_rule("T(x), T(y) |- x = y", sig({"T", "eq"})))
    many = parse_rule("T(a), T(b), T(c), T(d), T(e), T(f), T(g), T(h), T(i) |-",
                      sig({"T"}))
    with pytest.raises(VariableLimitError):
        holds(bd, many)


def test_holds_names_the_least_missing_constant_before_evaluating(monkeypatch):
    def evaluated(*args):
        raise AssertionError("a formula was evaluated")

    monkeypatch.setattr(structures._Grid, "formula", evaluated)
    # by formula text T(#n) comes first, but #b is the least missing constant
    r = parse_rule(r"T(#n), T(x /\ #b) |- T(x)", FULL_SIG)
    with pytest.raises(SignatureMismatchError) as err:
        holds(preset_structure("BD"), r)
    assert str(err.value) == "constant #b not interpreted in the structure"


def test_failed_conclusions_sorted_by_text():
    r = parse_rule(r"T(x) |- T(z) | T(~x) | T(x /\ y)", sig({"T"}))
    verdict = holds(preset_structure("BD"), r)
    assert not verdict.valid
    assert [formula_text(c) for c in verdict.failed_conclusions] == [
        r"T(x /\ y)", "T(z)", "T(~x)"]
    assert verdict.failed_conclusions == tuple(sorted(r.conclusions, key=formula_text))


def test_counter_valuation_replays():
    rng = random.Random(5)
    tne = preset_structure("TNE")
    checked = 0
    for _ in range(300):
        r = random_rule(rng, max_vars=2, max_depth=2)
        if r.constants() or not r.predicates() <= {"T", "E", "NF"}:
            continue
        verdict = holds(tne, r)
        if verdict.valid:
            continue
        checked += 1
        v = verdict.valuation
        for p in r.premises:
            assert _sat(tne, p, v)
        for c in r.conclusions:
            assert not _sat(tne, c, v)
    assert checked > 10


def _sat(s, f, valuation):
    vals = [eval_term(s, t, valuation) for t in f.args]
    if f.pred in s.unary:
        return bool((s.unary[f.pred] >> vals[0]) & 1)
    return bool((s.binary[f.pred][vals[0]] >> vals[1]) & 1)


def test_holds_monotone_in_conclusions_antitone_in_premises():
    from fourval.syntax import Formula, Rule
    from fourval.verify import random_term

    rng = random.Random(11)
    bde = preset_structure("BDE")
    hits = 0
    for _ in range(400):
        prems = [Formula(rng.choice(("T", "E")), (random_term(rng, "xy", (), 1),))
                 for _ in range(rng.randint(0, 2))]
        concl = Formula(rng.choice(("T", "E")), (random_term(rng, "xy", (), 1),))
        r = Rule(frozenset(prems), frozenset({concl}))
        if not holds(bde, r).valid:
            continue
        extra = Formula(rng.choice(("T", "E")), (random_term(rng, "xy", (), 1),))
        hits += 1
        bigger = Rule(r.premises | {extra}, r.conclusions)
        assert holds(bde, bigger).valid
        wider = Rule(r.premises, r.conclusions | {extra})
        assert holds(bde, wider).valid
    assert hits > 10


def test_holds_invariant_under_variable_renaming():
    rng = random.Random(13)
    bde = preset_structure("BDE")
    for _ in range(100):
        r = random_rule(rng, max_vars=2, max_depth=2, max_premises=2, max_conclusions=1)
        if r.constants() or not r.predicates() <= {"T", "E"}:
            continue
        renamed = apply_subst(r, {"x": Var("p"), "y": Var("q")})
        assert holds(bde, r).valid == holds(bde, renamed).valid


def test_holds_invariant_under_isomorphism():
    # the two prime-filter structures on DM4 are isomorphic via swapping n,b
    s1 = S({"T": (T, B)})
    s2 = S({"T": (T, N)})
    rng = random.Random(17)
    for _ in range(150):
        r = random_rule(rng, max_vars=2, max_depth=2, max_premises=2, max_conclusions=1)
        if r.constants() or not r.predicates() <= {"T"}:
            continue
        assert holds(s1, r).valid == holds(s2, r).valid


def test_validity_inherited_by_substructures():
    # K3-shaped substructures of the four-valued presets
    pairs = [("BD", "LP"), ("ETL", "K3-E")]
    k3e = structure(builtin("K3"), {"E": (0,)})
    lp = preset_structure("LP")
    bd = preset_structure("BD")
    etl = preset_structure("ETL")
    rng = random.Random(23)
    for _ in range(200):
        r = random_rule(rng, max_vars=2, max_depth=1, max_premises=2, max_conclusions=2)
        if r.constants():
            continue
        if r.predicates() <= {"T"} and holds(bd, r).valid:
            assert holds(lp, r).valid
        if r.predicates() <= {"E"} and holds(etl, r).valid:
            assert holds(k3e, r).valid


def test_model_intersection_on_presets():
    # the two isomorphic copies of the truth preset intersect to exact truth
    bd_rules = system("BD-base").named_rules()
    s1 = S({"T": (T, B)})
    s2 = S({"T": (T, N)})
    inter = S({"T": (T,)})
    assert is_model(s1, bd_rules)[0] and is_model(s2, bd_rules)[0]
    assert is_model(inter, bd_rules)[0]


def test_is_model_reports_first_failure():
    bde = system("BDE")
    bad = S({"T": (T, B), "E": (T, B)})
    ok, failure = is_model(bad, bde.named_rules())
    assert not ok and failure is not None
    name, verdict = failure
    assert verdict.valuation is not None


def test_trivial_structure_models_single_conclusion_systems():
    for sys_name in ("BD-base", "BDE", "BDNF", "KE", "BD-EQ", "BDNF-EQ"):
        sysd = system(sys_name)
        alg = DM4
        unary = {p: (1 << 4) - 1 for p in sysd.signature.relations if p != "eq"}
        binary = {}
        if "eq" in sysd.signature.relations:
            binary["eq"] = tuple((1 << 4) - 1 for _ in range(4))
        trivial = structure(alg, unary, binary)
        ok, failure = is_model(trivial, sysd.named_rules())
        assert ok, failure


def test_preset_registry_contents():
    assert set(preset_names()) >= {"BD", "ETL", "K", "LP", "BDE", "BDNF", "KE",
                                   "TNE", "DM-eq", "BD-eq", "ETL-eq", "BDE-eq",
                                   "BDNF-eq", "B2-eq", "BD3-eq", "NF"}
    bd = preset_structure("BD")
    assert bd.unary["T"] == mask_of([T, B])
    bde_eq = preset_structure("BDE-eq")
    assert bde_eq.unary == {"T": mask_of([T, B]), "E": mask_of([T])}
    assert bde_eq.binary["eq"] == identity_relation(DM4)
    ke = preset_structure("KE")
    assert ke.algebra.size == 3
    assert ke.unary == {"T": mask_of([0, 1]), "E": mask_of([0])}
    expanded = preset_structure("BDE+n")
    assert expanded.algebra.constants == {"#n": N}
    with pytest.raises(KeyError):
        preset_structure("NOPE")
    with pytest.raises(KeyError):
        preset_structure("BD+q")


def test_structure_json_roundtrip():
    s = preset_structure("BDNF-eq+tn")
    data = structure_to_json(s)
    assert set(data["rels"]) == {"T", "NF", "eq"}
    back = structure_from_json(data)
    assert back == s


@pytest.mark.parametrize("rels,message", [
    ({"T": [0, 7]}, "outside the universe"),
    ({"eq": [[0, 0], [0, 9]]}, "outside the universe"),
    ({"eq": [[0, 1, 2]]}, "not a pair"),
    ({"X": [0]}, "unknown relation 'X'"),
    ({"T": 5}, "relation T: 5 is not a list"),
    ([], "rels must be an object"),
])
def test_structure_from_json_rejects_bad_relations(rels, message):
    data = structure_to_json(preset_structure("BD"))
    data["rels"] = rels
    with pytest.raises(ValueError, match=message):
        structure_from_json(data)


def test_structure_from_json_inherits_the_algebra_checks():
    data = structure_to_json(preset_structure("BD"))
    data["ops"]["neg"] = [2, 1, 0, 4]
    with pytest.raises(AlgebraError, match="ops.neg"):
        structure_from_json(data)


def test_constant_suffix_codec():
    assert parse_name("BD-eq+tnb") == ("BD-eq", frozenset({"#t", "#n", "#b"}))
    assert parse_name("BD") == parse_name("BD+") == ("BD", frozenset())
    assert parse_name("BDE+bnbt") == parse_name("BDE+tnb")
    assert format_name("BD-eq", {"#b", "#t"}) == "BD-eq+tb"
    assert format_name("BD", ()) == "BD"
    for suffix in ("", "t", "n", "b", "tn", "tb", "nb", "tnb"):
        name = "BDE+" + suffix if suffix else "BDE"
        assert format_name(*parse_name(name)) == name
    for bad in ("BD+q", "BD+t+n", "BD+T"):
        with pytest.raises(UsageError, match="bad constant suffix"):
            parse_name(bad)


def test_preset_constants_expand_the_algebra():
    st = preset_structure("BDE-eq+nt")
    assert st == preset_structure("BDE-eq+tn")
    assert st.algebra.constants == {"#t": T, "#n": N}
    assert st.binary["eq"] == identity_relation(st.algebra)
