import json
import random

import pytest

from fourval import engine, structures
from fourval.algebra import FiniteAlgebra, congruences, enumerate_dm_lattices, mask_of, quotient
from fourval.engine import (
    Derivation,
    DerivationNode,
    DeriveBudgetError,
    ModelSweep,
    RuleSpaceBounds,
    RuleSpaceBudgetError,
    _describe,
    _relation_ranges,
    canonical_rule,
    census_pool,
    check_derivation,
    classify_models,
    decide,
    derivation_to_json,
    derive,
    edge_mutations,
    translate_exact_to_eq,
)
from fourval.leibniz import quotient_structure, reduct
from fourval.structures import CompiledRules, preset_structure, structure, structure_to_json
from fourval.syntax import (Formula, Meet, Var, apply_subst, parse_rule, print_rule, sig,
                            substitute_formula, substitute_term)
from fourval.systems import system
from fourval.verify import _valid_goals, random_rule, suite_classification, suite_completeness_evidence


# -- decide -------------------------------------------------------------------

def test_decide_extension_examples():
    r = parse_rule(r"T(x /\ (~x \/ y)) |- T(y)", sig({"T"}))
    verdict = decide("BD", r)
    assert not verdict.valid
    bd = preset_structure("BD")
    assert {k: bd.algebra.element_name(v) for k, v in verdict.valuation.items()} == {
        "x": "b", "y": "f"}
    r_e = parse_rule(r"E(x /\ (~x \/ y)) |- E(y)", sig({"E"}))
    assert decide("ETL", r_e).valid


def test_decide_biconditional_with_both_constant():
    s = sig({"T", "eq"}, {"#b"})
    assert decide("BD-eq+b", parse_rule(r"T(x) |- #b /\ x = #b", s)).valid
    assert decide("BD-eq+b", parse_rule(r"#b /\ x = #b |- T(x)", s)).valid


# -- derive -------------------------------------------------------------------

def test_derive_redundant_exact_truth_rule():
    bde = system("BDE")
    r = parse_rule(r"E(x /\ (~x \/ y)) |- E(y)", bde.signature)
    d = derive(bde, r, depth=6)
    assert d is not None and d.depth <= 6
    ok, msg = check_derivation(bde, d, r)
    assert ok, msg


def test_derive_axiom_instance_is_one_step():
    bde = system("BDE")
    r = parse_rule("E(x) |- T(x)", bde.signature)
    d = derive(bde, r, depth=1)
    assert d is not None and d.depth == 1
    assert check_derivation(bde, d, r)[0]


def test_derive_premise_equals_conclusion():
    bde = system("BDE")
    r = parse_rule("E(x) |- E(x)", bde.signature)
    d = derive(bde, r, depth=1)
    assert d is not None and d.depth == 0 and len(d.nodes) == 1


def test_derive_inconclusive_on_refutable_rule():
    base = system("BD-base")
    r = parse_rule("T(x) |- T(~x)", base.signature)
    assert derive(base, r, depth=4) is None
    assert not decide("BD", r).valid


def test_derive_rejects_multi_conclusion():
    mc = system("MC-ETL")
    r = parse_rule("E(x) |- E(x) | E(~x)", mc.signature)
    with pytest.raises(ValueError):
        derive(mc, r, depth=2)
    with pytest.raises(ValueError):
        derive(system("BDE"), parse_rule("E(x) |-", sig({"T", "E"})), depth=2)


def test_derive_budget_error_distinct_from_exhaustion():
    bde = system("BDE")
    r = parse_rule(r"E(x /\ (~x \/ y)) |- E(y)", bde.signature)
    with pytest.raises(DeriveBudgetError):
        derive(bde, r, depth=6, max_facts=3)


def test_check_derivation_rejects_mutations():
    bde = system("BDE")
    r = parse_rule(r"E(x /\ (~x \/ y)) |- E(y)", bde.signature)
    d = derive(bde, r, depth=6)
    muts = edge_mutations(d)
    assert muts
    for m in muts:
        assert not check_derivation(bde, m, r)[0]


def test_check_derivation_rejects_foreign_premise():
    bde = system("BDE")
    r = parse_rule("E(x) |- T(x)", bde.signature)
    d = derive(bde, r, depth=1)
    other = parse_rule("E(y) |- T(y)", bde.signature)
    assert not check_derivation(bde, d, other)[0]


def test_check_derivation_rejects_circular_certificate():
    # a parent index of -1 would read the last node: T(x) "derived" from
    # T(x /\ x), itself "derived" from T(x), for a rule decide refutes
    bde = system("BDE")
    r = parse_rule("|- T(x)", bde.signature)
    assert not decide(bde.preset, r).valid
    x = Var("x")
    forged = Derivation((
        DerivationNode(Formula("T", (Meet(x, x),)), "T.and-intro", (("x", x), ("y", x)), (-1,)),
        DerivationNode(Formula("T", (x,)), "T.and-elim-l", (("x", x), ("y", x)), (0,)),
    ), 1)
    ok, msg = check_derivation(bde, forged, r)
    assert not ok and "node 0" in msg
    for root in (2, -1):
        assert not check_derivation(bde, Derivation(forged.nodes, root), r)[0]
    assert check_derivation(bde, Derivation((), 0), r) == (False, "root 0 is not a node index")


def rename_variables(d: Derivation, mapping: dict[str, str]) -> Derivation:
    """The certificate with its variables renamed by ``mapping``."""
    ren = {old: Var(new) for old, new in mapping.items()}
    nodes = []
    for node in d.nodes:
        subst = tuple((v, substitute_term(t, ren)) for v, t in node.subst)
        nodes.append(DerivationNode(substitute_formula(node.formula, ren),
                                    node.scheme, subst, node.parents))
    return Derivation(tuple(nodes), d.root)


def test_certificate_invariant_under_renaming():
    bde = system("BDE")
    r = parse_rule(r"E(x /\ (~x \/ y)) |- E(y)", bde.signature)
    d = derive(bde, r, depth=6)
    renamed_rule = parse_rule(r"E(p /\ (~p \/ q)) |- E(q)", bde.signature)
    renamed = rename_variables(d, {"x": "p", "y": "q"})
    assert check_derivation(bde, renamed, renamed_rule)[0]


def test_derivation_json_shape():
    bde = system("BDE")
    r = parse_rule("E(x) |- T(x)", bde.signature)
    data = derivation_to_json(derive(bde, r, depth=1))
    assert data["nodes"][0]["by"] == "premise"
    assert data["nodes"][data["root"]]["formula"] == "T(x)"


# -- translation --------------------------------------------------------------

def test_translate_examples():
    r = parse_rule("E(x) |- T(x)", sig({"T", "E"}))
    out = translate_exact_to_eq(r)
    assert print_rule(out) == "#t = x |- T(x)"
    unchanged = parse_rule(r"T(x) |- T(x \/ y)", sig({"T"}))
    assert translate_exact_to_eq(unchanged) == unchanged


def test_translation_transfers_validity_on_samples():
    rng = random.Random(3)
    hits = 0
    for _ in range(600):
        r = random_rule(rng, max_vars=2, max_depth=1, max_premises=2, max_conclusions=1)
        if r.constants() or not r.predicates() <= {"T", "E", "eq"} or not r.conclusions:
            continue
        hits += 1
        assert decide("BDE-eq", r).valid == decide("BD-eq+t", translate_exact_to_eq(r)).valid
    assert hits > 50


# -- rule space ---------------------------------------------------------------

def test_completeness_evidence_over_budget_raises():
    with pytest.raises(RuleSpaceBudgetError):
        suite_completeness_evidence("BDE-EQ")


def test_valid_goals_yield_each_renaming_class_once():
    bde = system("BDE")
    goals = _valid_goals(bde, RuleSpaceBounds(max_depth=1, max_premises=2,
                                             predicates=bde.signature.relations))
    assert len(goals) == 1831
    assert all(canonical_rule(r) == r for r in goals)
    assert len(set(goals)) == len(goals)


def test_canonical_rule_idempotent_and_invariant():
    rng = random.Random(31)
    for _ in range(100):
        r = random_rule(rng, max_vars=3, max_depth=1)
        c1 = canonical_rule(r)
        assert canonical_rule(c1) == c1
        renamed = apply_subst(r, {v: Var(n) for v, n in zip(sorted(r.variables()),
                                                            ("p", "q", "r", "s"))})
        assert canonical_rule(renamed) == c1


# -- classification -----------------------------------------------------------

def test_census_pool_is_one_shared_tuple_per_size():
    pool = census_pool(4)
    assert isinstance(pool, tuple) and census_pool(4) is pool
    assert pool == census_pool(3) + tuple(enumerate_dm_lattices(4))
    assert census_pool(0) == () == census_pool(-1)


def test_congruences_are_enumerated_once_per_algebra():
    """A classification run enumerates each census algebra's lattice once,
    however many eq systems it sweeps; the cache ignores labels, and a
    quotient through a cached congruence carries its own algebra's labels."""
    congruences.cache_clear()
    suite_classification(size=4)
    assert congruences.cache_info().misses == len(census_pool(4)) == 6
    alg = next(a for a in census_pool(4) if len(congruences(a)) > 2)
    assert congruences(alg) is congruences(alg)
    copy = FiniteAlgebra(alg.size, alg.meet, alg.join, alg.neg, labels=("a", "b", "c", "d"))
    theta = congruences(copy)[1]
    assert congruences(copy) is congruences(alg) and theta.algebra.labels is None
    q, _ = quotient(copy, theta)
    assert q.labels == tuple("|".join("abcd"[e] for e in cls) for cls in theta.classes())
    s, _ = quotient_structure(structure(copy, {"T": mask_of(theta.classes()[0])}), theta)
    assert s.algebra.labels == q.labels


def test_constant_axioms_compile_once_per_base_algebra(monkeypatch):
    """A classification compiles each census algebra's checks at most
    twice: once for the constant-free axioms and once for the axioms that
    mention a constant, whose grids cover every constant assignment."""
    calls = []
    for_algebra = CompiledRules.for_algebra

    def counted(self, alg):
        calls.append(alg)
        return for_algebra(self, alg)

    monkeypatch.setattr(CompiledRules, "for_algebra", counted)
    report = classify_models(system("BDE+tnb"), 4)
    assert report.models == 230
    assert len(calls) <= 2 * len(census_pool(4)) == 12
    assert all(not alg.constants for alg in calls)


def test_grids_and_reducts_are_built_once_per_key(monkeypatch):
    """BDE and then BDE+tnb at size 4 build one grid per algebra and
    variable tuple, and reduce each relation-value tuple once per base
    algebra and relation names, although the two systems share most of
    their axioms and the second reaches each tuple on many assignments."""
    structures._grid.cache_clear()
    engine._free_reduct.cache_clear()
    grids, reduced = [], []

    class Recorded(structures._Grid):
        def __init__(self, alg, names, memo):
            grids.append((alg, tuple(names)))
            super().__init__(alg, names, memo)

    def counted(s):
        reduced.append((s.algebra.without_constants(), tuple(s.unary), tuple(s.binary),
                        (*s.unary.values(), *s.binary.values())))
        return reduct(s)

    monkeypatch.setattr(structures, "_Grid", Recorded)
    monkeypatch.setattr(engine, "reduct", counted)
    models = classify_models(system("BDE"), 4).models + classify_models(system("BDE+tnb"), 4).models
    assert grids and len(grids) == len(set(grids))
    assert reduced and len(reduced) == len(set(reduced)) < models


def test_shared_reducts_carry_their_own_algebras_labels():
    """A relabelled copy of a census algebra gets the reducts of the
    unlabelled one, which the memo already holds, under its own labels."""
    sweep = ModelSweep(system("BDE+tnb"))
    alg = census_pool(4)[-1]
    copy = FiniteAlgebra(alg.size, alg.meet, alg.join, alg.neg, labels=("a", "b", "c", "d"))
    free = sweep.free_models(alg, _relation_ranges(sweep.names, alg))
    plain = list(sweep.reducts(alg, free))
    relabelled = list(sweep.reducts(copy, free))
    assert len(plain) == len(relabelled) > 0
    merged = 0
    for (_, red, proj, reduced), (model, red2, proj2, reduced2) in zip(plain, relabelled):
        direct, _ = reduct(model)
        assert model.algebra.labels == copy.labels and red.algebra.labels is None
        assert (red2, proj2, reduced2) == (red, proj, reduced)
        assert red2.algebra.labels == direct.algebra.labels
        assert red2.algebra.constants == direct.algebra.constants
        merged += red2.algebra.size < alg.size
    assert merged > 0


def test_memoised_reducts_share_one_algebra_per_quotient(monkeypatch):
    """After a serial size-5 classification, the reducts the memo holds
    share one algebra object per (algebra, labels), although many
    relation-value tuples reduce to equal quotients."""
    engine._free_reduct.cache_clear()
    held = []
    free_reduct = engine._free_reduct

    def recorded(*key):
        out = free_reduct(*key)
        held.append(out[0].algebra)
        return out

    monkeypatch.setattr(engine, "_free_reduct", recorded)
    assert suite_classification(size=5, jobs=1)["ok"]
    objects: dict[tuple, set[int]] = {}
    for alg in held:
        objects.setdefault((alg, alg.labels), set()).add(id(alg))
    assert len(held) > len(objects) > 1
    assert all(len(ids) == 1 for ids in objects.values())


def test_classify_bde_size_3():
    rep = classify_models(system("BDE"), 3)
    assert rep.ok and rep.models > 0


def test_classify_reports_a_violation_line_per_model(monkeypatch):
    """Every model gets its own violation lines, in sweep order, naming
    the model, even where many models share one reduct."""
    def flag_every_reduct(family, red):
        return [f"{family} flagged {json.dumps(structure_to_json(red), sort_keys=True)}"]

    monkeypatch.setattr(engine, "shape_violations", flag_every_reduct)
    sysd = system("BDE+tnb")
    sweep = ModelSweep(sysd)
    expected, reducts = [], set()
    for base in census_pool(3):
        ranges = _relation_ranges(sweep.names, base)
        for cand in sweep.expand(base, sweep.free_models(base, ranges)):
            red, _ = reduct(cand)
            reducts.add(red)
            expected.extend(f"{_describe(cand)}: {v}" for v in flag_every_reduct("BDE", red))
    rep = classify_models(sysd, 3)
    assert rep.violations == expected
    assert len(expected) == rep.models > len(reducts)


def test_classify_rejects_non_congruence_equality():
    # spot check for the documented narrowing: a non-transitive "equality"
    # fails the core axioms, so it can never be a model
    from fourval.structures import is_model, structure
    from fourval.algebra import builtin

    dm4 = builtin("DM4")
    rows = [1 << a for a in range(4)]
    rows[0] |= 1 << 1
    rows[1] |= 1 << 2  # t~b, b~f but not t~f: not transitive
    s = structure(dm4, {"T": (0, 1)}, {"eq": tuple(rows)})
    ok, failure = is_model(s, system("BD-EQ").named_rules())
    assert not ok


def test_classify_trivial_structures_excluded_only_for_mc():
    rep = classify_models(system("MC-ETL"), 2)
    assert rep.ok
