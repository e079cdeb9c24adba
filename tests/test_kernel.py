"""The valuation-bitset kernel, checked against point-by-point eval_term sweeps."""

import gc
import pickle
import random
from dataclasses import replace
from itertools import product

import pytest

from fourval import engine, structures
from fourval.algebra import AlgebraError, congruences
from fourval.engine import (
    ModelSweep,
    _congruence_rows,
    _constant_assignments,
    _relation_names,
    _relation_ranges,
    candidate_structures,
    census_pool,
    classify_models,
)
from fourval.structures import (
    CompiledRules,
    eval_term,
    holds,
    preset_names,
    preset_structure,
    structure_to_json,
)
from fourval.syntax import Formula, Rule, Var, formula_text, parse_rule, print_rule, subterms
from fourval.systems import Scheme, all_system_names, system
from fourval.verify import CLASSIFIED_FAMILIES, CLASSIFIED_VARIANTS, random_rule


def _true_at(st, f, valuation):
    args = [eval_term(st, t, valuation) for t in f.args]
    if f.pred in st.unary:
        return bool((st.unary[f.pred] >> args[0]) & 1)
    return bool((st.binary[f.pred][args[0]] >> args[1]) & 1)


def oracle(st, r):
    """(valid, least counter-valuation, failed conclusions) by visiting the
    valuations one at a time in lexicographic order."""
    names = sorted(r.variables())
    for values in product(range(st.algebra.size), repeat=len(names)):
        v = dict(zip(names, values))
        if (all(_true_at(st, f, v) for f in r.premises)
                and not any(_true_at(st, f, v) for f in r.conclusions)):
            return False, v, tuple(sorted(r.conclusions, key=formula_text))
    return True, None, None


def _rels(st):
    """A structure's relation values, as a compiled check reads them."""
    return {**st.unary, **st.binary}


def _presets():
    """Every preset, plus its largest constant expansion that exists."""
    out = []
    for base in preset_names():
        out.append(base)
        for suffix in ("+tnb", "+tb", "+t"):
            try:
                preset_structure(base + suffix)
            except AlgebraError:
                continue
            out.append(base + suffix)
            break
    return out


PRESETS = _presets()


def _corpus(st, seed, count=40, max_vars=3):
    """Seeded random_rule draws that fit the preset's signature."""
    rng = random.Random(seed)
    rels = set(st.unary) | set(st.binary)
    out = []
    for _ in range(20000):
        r = random_rule(rng, max_vars=max_vars)
        if r.predicates() <= rels and r.constants() <= set(st.algebra.constants):
            out.append(r)
            if len(out) == count:
                break
    return out


def test_presets_cover_constant_expansions():
    assert "BDNF-eq+tnb" in PRESETS and "B2-eq+t" in PRESETS


@pytest.mark.parametrize("preset", PRESETS)
def test_holds_agrees_with_eval_term_sweep(preset):
    st = preset_structure(preset)
    corpus = _corpus(st, seed=len(preset) * 1000 + sum(map(ord, preset)))
    assert len(corpus) == 40
    # a random rule is mostly invalid; widening its conclusions by its
    # premises gives a valid one whenever it has premises
    corpus += [Rule(r.premises, r.conclusions | r.premises) for r in corpus]
    outcomes = []
    for r in corpus:
        v = holds(st, r)
        assert (v.valid, v.valuation, v.failed_conclusions) == oracle(st, r), print_rule(r)
        outcomes.append(v.valid)
    assert 0 < sum(outcomes) < len(outcomes)


@pytest.mark.parametrize("block", [1, 4, 64])
def test_blocked_sweep_agrees_with_one_block(monkeypatch, block):
    rng = random.Random(block)
    for preset in ("TNE+tnb", "BDNF-eq+tnb", "KE+tb"):
        st = preset_structure(preset)
        corpus = _corpus(st, seed=rng.randrange(1 << 30), count=30, max_vars=4)
        whole = [holds(st, r) for r in corpus]
        monkeypatch.setattr(structures, "BLOCK_VALUATIONS", block)
        assert [holds(st, r) for r in corpus] == whole
        monkeypatch.undo()


def test_blocked_sweep_beyond_the_default_block(monkeypatch):
    # 4**9 grid points: four blocks of 4**8 at the default block size
    st = preset_structure("BD")
    names = "abcdefghi"
    prems = frozenset(Formula("T", (Var(v),)) for v in names[:-1])
    r = Rule(prems, frozenset({Formula("T", (Var("i"),))}))
    v = holds(st, r, var_limit=9)
    assert not v.valid
    assert v.valuation == {**{x: 0 for x in names[:-1]}, "i": 2}  # the least: i = f
    assert not st._bitsets  # a blocked grid's bitsets are not memoised
    monkeypatch.setattr(structures, "BLOCK_VALUATIONS", 4 ** 9)
    assert holds(st, r, var_limit=9) == v
    assert list(st._bitsets) == [tuple(names)]


def test_holds_memo_is_weak_and_outside_the_structure():
    st, twin = preset_structure("BDE"), preset_structure("BDE")
    r = parse_rule(r"T(x /\ ~mv), E(mv) |- E(x) | T(mv)")
    v = holds(st, r)
    memo = st._bitsets[("mv", "x")].memo
    formulas = r.premises | r.conclusions  # and their subterms: 6 nodes that are not variables
    assert 0 < len(memo) <= 6 and set(memo) <= formulas | {t for f in formulas for a in f.args
                                                           for t in subterms(a)}
    assert holds(st, r) == v == holds(twin, r)
    assert st == twin and hash(st) == hash(twin) and repr(st) == repr(twin)
    assert "_bitsets" not in repr(st) and structure_to_json(st) == structure_to_json(twin)
    copied = pickle.loads(pickle.dumps(st))
    assert copied == st and not copied._bitsets
    del r, v, formulas
    gc.collect()
    assert len(memo) == 0


@pytest.mark.parametrize("name", CLASSIFIED_FAMILIES + CLASSIFIED_VARIANTS)
def test_model_sets_agree_with_eval_term(name):
    """The models the classification sweep keeps are exactly those the
    point-by-point oracle accepts, and classify_models counts them.  The
    constant variants run at size 2, which keeps the oracle quick."""
    sysd = system(name)
    size = 3 if name in CLASSIFIED_FAMILIES else 2
    program = CompiledRules(sysd.named_rules())
    total = 0
    for base in census_pool(size):
        for alg in _constant_assignments(base, sysd.signature.constants):
            first_failure = program.for_algebra(alg)
            cands = list(candidate_structures(sysd, alg))
            kernel = {c for c in cands if first_failure(_rels(c)) is None}
            expected = {c for c in cands
                        if all(oracle(c, r)[0] for _, r in sysd.named_rules())}
            assert kernel == expected, f"{name} on |A|={alg.size} {alg.constants}"
            total += len(kernel)
    assert classify_models(sysd, size).models == total
    assert total > 0 or name == "MC-ETL+tnb"  # its two models have size 4


_SWEEP_CASES = ([pytest.param(name, 3, id=name) for name in CLASSIFIED_FAMILIES + CLASSIFIED_VARIANTS]
                + [pytest.param(name, size, id=f"{name}-size{size}")
                   for size in (4, 5) for name in CLASSIFIED_FAMILIES]
                + [pytest.param(name, 4, id=f"{name}-size4") for name in CLASSIFIED_VARIANTS])


@pytest.mark.parametrize("name, size", _SWEEP_CASES)
def test_factorised_sweep_agrees_with_full_product(name, size):
    """The factorised sweep keeps exactly the candidates of the full
    product that pass every axiom, in candidate_structures order, both on
    each constant expansion and when the constant-free axioms are swept
    once on the base algebra, and classify_models counts the whole
    product."""
    sysd = system(name)
    program = CompiledRules(sysd.named_rules())
    sweep = ModelSweep(sysd)
    full = kept = 0
    for base in census_pool(size):
        free = sweep.free_models(base, _relation_ranges(sweep.names, base))
        in_order = []
        for alg in _constant_assignments(base, sysd.signature.constants):
            first_failure = program.for_algebra(alg)
            cands = list(candidate_structures(sysd, alg))
            expected = [c for c in cands if first_failure(_rels(c)) is None]
            ranges = _relation_ranges(sweep.names, alg)
            models = [m for m in sweep.expand(base, sweep.free_models(alg, ranges)) if m.algebra == alg]
            assert models == expected, f"{name} on |A|={alg.size} {alg.constants}"
            in_order += expected
            full += len(cands)
            kept += len(models)
        assert list(sweep.expand(base, free)) == in_order, f"{name} on |A|={base.size}"
    report = classify_models(sysd, size)
    assert (report.structures, report.models) == (full, kept)
    assert kept > 0 or name == "MC-ETL+tnb"  # its two models have size 4


# a constant axiom over three variables that names only #n
_PLANTED = r"T(x), T(y) |- T(#n \/ z)"
_NEITHER_AND_BOTH = ("c-both-true", "c-neither-true-l", "c-neither-true-r",
                     "c-neither-exact-l", "c-neither-exact-r")


def _planted(dropped=(), text=_PLANTED):
    """BDE+tnb without the constant axioms named in `dropped`, plus `text`."""
    bde = system("BDE+tnb")
    rule = parse_rule(text, bde.signature)
    return replace(bde, schemes=tuple(s for s in bde.schemes if s.name not in dropped)
                   + (Scheme("planted", rule, "constant"),))


@pytest.mark.parametrize("dropped, models", [((), 228), (_NEITHER_AND_BOTH, 335)],
                         ids=["BDE+tnb", "only-planted-names-n"])
def test_constant_axiom_grids_line_up_with_assignments(dropped, models):
    """The sweep over every constant assignment at once keeps, in order,
    exactly the candidates of each expansion that pass the per-assignment
    check, at sizes <= 4 from the one-element algebra up, with a planted
    constant axiom whose grid leads with constants it does not mention.
    The second system keeps #b in its signature but in no axiom, and
    leaves the planted axiom the only one that names #n."""
    sysd = _planted(dropped)
    program = CompiledRules(sysd.named_rules())
    sweep = ModelSweep(sysd)
    kept = 0
    assert census_pool(4)[0].size == 1
    for base in census_pool(4):
        expected = []
        for alg in _constant_assignments(base, sysd.signature.constants):
            first_failure = program.for_algebra(alg)
            expected += [c for c in candidate_structures(sysd, alg) if first_failure(_rels(c)) is None]
        free = sweep.free_models(base, _relation_ranges(sweep.names, base))
        assert list(sweep.expand(base, free)) == expected, f"|A|={base.size}"
        assert [model for model, *_ in sweep.reducts(base, free)] == expected, f"|A|={base.size}"
        kept += len(expected)
    assert kept == classify_models(sysd, 4).models == models


def _clear_caches():
    """Forget what the sweep memoises per process, so that what is built
    next shares nothing with what was built before."""
    congruences.cache_clear()
    structures._compiled_grid.cache_clear()
    engine._free_reduct.cache_clear()
    engine._interned.cache_clear()


def _programs(sysd):
    """A system's axioms compiled as the sweep compiles them: those that
    mention no constant, then those that mention one."""
    named = sysd.named_rules()
    return [CompiledRules(nr for nr in named if bool(nr[1].constants()) is bound)
            for bound in (False, True)]


def _verdicts(sysd, alg):
    """Per program and relation-value tuple of the sweep's ranges on alg:
    the first failing rule and every failing rule's points."""
    names = _relation_names(sysd)
    tuples = list(product(*_relation_ranges(names, alg)))
    out = []
    for program in _programs(sysd):
        check = program.for_algebra(alg)
        for values in tuples:
            rels = dict(zip(names, values))
            out.append((check.first_failure(rels), list(check.failing_points(rels))))
    return out


def test_shared_checks_agree_with_fresh_ones():
    """Every classified system's checks on every census algebra up to size
    3, built while the other systems' checks are built, give for every
    relation-value tuple the verdicts of checks built after the memos are
    cleared."""
    shared = {(name, alg): _verdicts(system(name), alg)
              for name in CLASSIFIED_FAMILIES + CLASSIFIED_VARIANTS for alg in census_pool(3)}
    assert len(shared) == 16 * len(census_pool(3))
    for (name, alg), verdicts in shared.items():
        _clear_caches()
        assert _verdicts(system(name), alg) == verdicts, f"{name} on |A|={alg.size}"


def test_classification_does_not_depend_on_the_order_of_systems():
    """The classify workload's systems give the same reports at size 4
    whichever order they are classified in."""
    names = CLASSIFIED_FAMILIES + CLASSIFIED_VARIANTS
    _clear_caches()
    forward = [classify_models(system(name), 4).to_json() for name in names]
    _clear_caches()
    backward = [classify_models(system(name), 4).to_json() for name in reversed(names)]
    assert forward == backward[::-1]


def test_constants_read_as_grid_variables_count_toward_the_limit(monkeypatch):
    """A constant axiom whose variables and the system's constants exceed
    the variable limit is refused before any grid is built for it; with
    one variable fewer it is swept, and on an algebra that interprets the
    constants its variables alone count."""
    _clear_caches()  # a grid that an earlier test left cached is not built again
    built = []

    class Recorded(structures._Grid):
        def __init__(self, alg, names, memo):
            built.append(len(names))
            super().__init__(alg, names, memo)

    monkeypatch.setattr(structures, "_Grid", Recorded)
    limit = structures.DEFAULT_VARIABLE_LIMIT
    wide = _planted(text=r"T(a), T(b), T(c), T(d), T(e) |- T(f \/ #n)")
    with pytest.raises(structures.VariableLimitError,
                       match=f"planted has 6 variables and 3 constants .* limit is {limit}"):
        classify_models(wide, 2)
    assert built and max(built) <= limit
    base = census_pool(2)[-1]
    CompiledRules(wide.named_rules()).for_algebra(base.with_constants({"#t": 0, "#n": 1, "#b": 1}))
    assert max(built) == 6
    edge = _planted(text=r"T(a), T(b), T(c), T(d) |- T(e \/ #n)")
    assert classify_models(edge, 2).models > 0
    assert max(built) == limit


def test_relation_free_rule_rejects_every_candidate():
    """No catalogue system has a rule that mentions no relation; BDE with
    the empty rule |- added, which fails everywhere, has no models, and the
    product it sweeps is BDE's."""
    bde = system("BDE")
    absurd = replace(bde, schemes=bde.schemes + (Scheme("absurd", parse_rule("|-"), "base"),))
    report = classify_models(absurd, 3)
    assert report.models == 0 and report.structures == classify_models(bde, 3).structures > 0


def test_compiled_check_rejects_a_missing_relation():
    """A relation that a checked rule mentions and the values leave out
    raises SignatureMismatchError, not KeyError."""
    program = CompiledRules([("e-to-t", parse_rule("E(x) |- T(x)"))])
    first_failure = program.for_algebra(preset_structure("BD").algebra)
    with pytest.raises(structures.SignatureMismatchError, match="E"):
        first_failure({"T": 0b0011})
    assert first_failure({"T": 0b0011, "E": 0b0001}) is None
    assert first_failure({"T": 0b0011, "E": 0b0100}) == "e-to-t"


def test_eq_ranges_only_over_congruences():
    """candidate_structures lets eq range over congruences only.  Exhaustive
    check of the reason: in every eq-system, the constant-free axioms about
    eq alone reject every other binary relation on each census algebra of
    size <= 3, whatever the other relations and constants are."""
    checked = 0
    for name in all_system_names():
        sysd = system(name)
        if "eq" not in sysd.signature.relations:
            continue
        eq_rules = [(n, r) for n, r in sysd.named_rules()
                    if r.predicates() == {"eq"} and not r.constants()]
        program = CompiledRules(eq_rules)
        for alg in census_pool(3):
            n = alg.size
            first_failure = program.for_algebra(alg)
            congs = {_congruence_rows(c) for c in congruences(alg)}
            for rows in product(range(1 << n), repeat=n):
                if rows not in congs:
                    checked += 1
                    assert first_failure({"eq": rows}) is not None, \
                        f"{name}: eq = {rows} on |A|={n} is not rejected"
    assert checked == 33 * (1 + 14 + 510)
