"""The shared scheme grounder and derive's semi-naive rounds, against naive
oracles: the grounder's lookups over hash-consed nodes against a grounder
that builds every conclusion by substitution, derive against the naive
round loop it replaced, and the engine-soundness ground program against
brute-force substitution."""

import random
from functools import lru_cache
from itertools import product

import pytest

from fourval import engine, verify
from fourval.engine import (
    DeriveBudgetError,
    Grounder,
    RuleSpaceBounds,
    Universe,
    derivation_to_json,
    derive,
    formulas_within,
    terms_within,
)
from fourval.syntax import (
    Const,
    Formula,
    Join,
    Meet,
    Neg,
    Rule,
    Var,
    formula_text,
    formula_variables,
    parse_rule,
    substitute_formula,
)
from fourval.systems import system


# -- the Formula-level grounder, kept here as an oracle ----------------------

def _match_term(pat, t, binding):
    if isinstance(pat, Var):
        bound = binding.get(pat.name)
        if bound is None:
            out = dict(binding)
            out[pat.name] = t
            return out
        return binding if bound == t else None
    if isinstance(pat, Const):
        return binding if pat == t else None
    if isinstance(pat, Neg):
        return _match_term(pat.arg, t.arg, binding) if isinstance(t, Neg) else None
    if isinstance(pat, Meet):
        if not isinstance(t, Meet):
            return None
        b = _match_term(pat.left, t.left, binding)
        return _match_term(pat.right, t.right, b) if b is not None else None
    if not isinstance(t, Join):
        return None
    b = _match_term(pat.left, t.left, binding)
    return _match_term(pat.right, t.right, b) if b is not None else None


def _match_formula(pat, f, binding):
    if pat.pred != f.pred:
        return None
    b = binding
    for pt, t in zip(pat.args, f.args):
        b = _match_term(pt, t, b)
        if b is None:
            return None
    return b


def _formula_matches(patterns, facts_by_pred, fresh, binding, matched=()):
    if not patterns:
        if fresh is None:
            yield binding, matched
        return
    head, rest = patterns[0], patterns[1:]
    facts = facts_by_pred.get(head.pred, ())
    start = 0 if fresh is None else fresh.get(head.pred, 0)
    for i in range(0 if rest else start, len(facts)):
        b = _match_formula(head, facts[i], binding)
        if b is not None:
            yield from _formula_matches(rest, facts_by_pred, None if i >= start else fresh,
                                        b, matched + (facts[i],))


def formula_scheme_instances(sysd, facts_by_pred, universe, fresh=None):
    """Every instance, its conclusion built by substitution whether or not
    its terms lie in the universe."""
    for scheme in sysd.schemes:
        prems = sorted(scheme.rule.premises, key=formula_text)
        concl = scheme.rule.conclusion
        free = sorted(formula_variables(concl).difference(*map(formula_variables, prems)))
        for binding, matched in _formula_matches(prems, facts_by_pred, fresh, {}):
            for extra in product(universe, repeat=len(free)):
                b = dict(binding)
                b.update(zip(free, extra))
                yield scheme.name, b, matched, substitute_formula(concl, b)


def _naive_matches(patterns, facts_by_pred, binding):
    if not patterns:
        yield binding
        return
    for fact in facts_by_pred.get(patterns[0].pred, ()):
        b = _match_formula(patterns[0], fact, binding)
        if b is not None:
            yield from _naive_matches(patterns[1:], facts_by_pred, b)


def naive_derive(sysd, r, depth, term_layers=1, max_terms=120, max_facts=20000):
    """Oracle: derive with naive rounds, every scheme matched against every
    fact in every round, and premises re-instantiated by substitution."""
    goal = r.conclusion
    facts = {f: engine._FactInfo(None, (), (), 0) for f in sorted(r.premises, key=formula_text)}
    if goal in facts:
        return engine._extract(facts, goal)
    universe = engine._term_universe(r, sysd.signature, term_layers, max_terms)
    uset = set(universe)
    prepared = []
    for scheme in sysd.schemes:
        prems = sorted(scheme.rule.premises, key=formula_text)
        concl = scheme.rule.conclusion
        prem_vars = set()
        for p in prems:
            prem_vars |= formula_variables(p)
        free = sorted(formula_variables(concl) - prem_vars)
        prepared.append((scheme.name, prems, concl, free))
    for rnd in range(1, depth + 1):
        facts_by_pred = {}
        for f in facts:
            facts_by_pred.setdefault(f.pred, []).append(f)
        new = {}
        for name, prems, concl, free in prepared:
            for binding in _naive_matches(prems, facts_by_pred, {}):
                for extra in product(universe, repeat=len(free)):
                    b = dict(binding)
                    b.update(zip(free, extra))
                    inst = substitute_formula(concl, b)
                    if inst in facts or inst in new:
                        continue
                    if any(t not in uset for t in inst.args):
                        continue
                    parents = tuple(sorted({substitute_formula(p, b) for p in prems},
                                           key=formula_text))
                    new[inst] = engine._FactInfo(name, tuple(sorted(b.items())), parents, rnd)
        if not new:
            return None
        facts.update(new)
        if len(facts) > max_facts:
            raise DeriveBudgetError(f"fact budget exceeded ({len(facts)} > {max_facts})")
        if goal in facts:
            return engine._extract(facts, goal)
    return None


def _outcome(search, sysd, r, depth, **kwargs):
    try:
        d = search(sysd, r, depth, **kwargs)
    except DeriveBudgetError as exc:
        return ("budget", str(exc))
    return None if d is None else derivation_to_json(d)


# (system, goal whose universe is used, term layers): or-intro with the free
# variable on either side (BDE, K-base), premises over two predicates
# (TNE-bridge), the zero-premise De Morgan equations with three free
# variables (BD-EQ), premises that fit the 3-premise eq-compat-eq and the
# 4-premise nf-cancel and nf-sep, joined on bound terms (BDNF-EQ), and the
# constant schemes: a premise that binds no variable, a ground subterm
# under a free join, a free join over premise and constant terms (BD-EQ+tnb)
_GROUNDER_CASES = [
    ("BDE", r"E(x /\ (~x \/ y)) |- E(y)", 1),
    ("K-base", r"T(x), T(~x) |- T(y)", 1),
    ("TNE-bridge", r"T(x), NF(x) |- NF(x \/ y)", 1),
    ("BD-EQ", r"x = y |- x /\ (y \/ z) = (x /\ y) \/ (x /\ z)", 0),
    ("BDNF-EQ", r"NF(x), NF(y), T(x), T(u), T(~y \/ v), T(u \/ v), x /\ u \/ (~y \/ v) = ~y \/ v, "
                r"x /\ ~v \/ (~y \/ ~u) = ~y \/ ~u, ~y \/ v = v |- u \/ (~y \/ v) = v", 0),
    ("BD-EQ+tnb", r"T(~#t), T(#t \/ x) |- #n \/ x \/ y = #n \/ x", 0),
]


@pytest.mark.parametrize("name,text,layers", _GROUNDER_CASES)
@pytest.mark.parametrize("with_fresh", [False, True])
def test_grounder_yields_the_in_universe_formula_instances_in_order(name, text, layers,
                                                                    with_fresh):
    sysd = system(name)
    r = parse_rule(text, sysd.signature)
    universe = engine._term_universe(r, sysd.signature, layers, 120)
    rng = random.Random(f"{name} {text}")
    pool = [Formula(pred, (t,)) for pred in sorted(sysd.signature.relations - {"eq"})
            for t in universe]
    if "eq" in sysd.signature.relations:
        pool += [Formula("eq", (s, t)) for s in universe for t in universe]
    facts = sorted(r.premises, key=formula_text) + rng.sample(pool, min(40, len(pool)))
    by_pred = {}
    for f in dict.fromkeys(facts):
        by_pred.setdefault(f.pred, []).append(f)
    fresh = {pred: len(fs) // 2 for pred, fs in by_pred.items()} if with_fresh else None

    every = list(formula_scheme_instances(sysd, by_pred, universe, fresh))
    uset = set(universe)
    want = [inst for inst in every if all(t in uset for t in inst[3].args)]
    got = list(Grounder(sysd, Universe(universe)).instances(by_pred, fresh))
    assert got == want
    # what each case is chosen for
    schemes = {inst[0] for inst in want}
    if name in ("BDE", "K-base") and not with_fresh:
        assert {"T.or-intro-l", "T.or-intro-r"} <= schemes
    elif name == "BD-EQ" and not with_fresh:
        assert "eq.dm-dist" in schemes
    elif name == "BDNF-EQ":
        assert {"eq.eq-compat-eq", "nf-cancel", "nf-sep"} <= schemes
        # and a premise whose skeleton no fact fits, so its bucket is empty
        assert any(all(_match_formula(p, f, {}) is None for f in by_pred.get(p.pred, ()))
                   for scheme in sysd.schemes for p in scheme.rule.premises)
    elif name == "BD-EQ+tnb" and not with_fresh:
        # T(~#t) |- x = y: its premise binds nothing, two free variables follow;
        # |- #t = #t \/ x: no premise, and the ground #t under a free join
        assert {"c-negtop-collapse", "c-top-eq"} <= schemes
    elif name == "BD-EQ+tnb":
        # T(x) |- #n \/ x \/ y = #n \/ x, with fresh premise facts
        assert "c-neither-absorb" in schemes
    assert want and (name == "TNE-bridge" or len(want) < len(every))


@pytest.mark.parametrize("with_fresh", [False, True])
def test_grounder_rejects_constants_outside_the_universe(with_fresh):
    """derive's universes hold every constant of the signature, so only a
    smaller universe shows that an instance needing a constant outside it
    (as c-neither-exact-l, T(x) |- E(#n \\/ x), does) is dropped."""
    sysd = system("BDE+tnb")
    x, y = Var("x"), Var("y")
    universe = [x, y, Neg(x), Join(x, y), Join(y, x), Meet(x, y)]
    facts = {"T": [Formula("T", (x,)), Formula("T", (Join(x, y),))]}
    fresh = {"T": 1} if with_fresh else None
    every = list(formula_scheme_instances(sysd, facts, universe, fresh))
    want = [inst for inst in every if all(t in universe for t in inst[3].args)]
    assert any(inst[0] == "c-neither-exact-l" for inst in every)
    assert want and not any(inst[0].startswith("c-") for inst in want)
    assert list(Grounder(sysd, Universe(universe)).instances(facts, fresh)) == want


def test_grounder_indexes_follow_appended_and_replaced_fact_lists():
    """A grounder's premise indexes outlive a call: facts appended to a
    list are indexed on the next call, and a new list is indexed afresh."""
    sysd = system("BDE")
    r = parse_rule(r"E(x /\ (~x \/ y)) |- E(y)", sysd.signature)
    universe = Universe(engine._term_universe(r, sysd.signature, 1, 120))
    pool = [Formula(pred, (t,)) for t in universe.terms[:24] for pred in ("T", "E")]
    grounder = Grounder(sysd, universe)
    by_pred = {"T": pool[0:16:2], "E": pool[1:16:2]}
    assert list(grounder.instances(by_pred))
    appended = {pred: len(fs) for pred, fs in by_pred.items()}
    by_pred["T"] += pool[16::2]
    by_pred["E"] += pool[17::2]
    for facts, fresh in ((by_pred, appended), ({"T": pool[::4], "E": pool[3::4]}, None)):
        got = list(grounder.instances(facts, fresh))
        assert got and got == list(Grounder(sysd, universe).instances(facts, fresh))


@lru_cache(maxsize=None)
def _bde_space_goals():
    return verify._valid_goals(system("BDE"), RuleSpaceBounds(max_depth=1, max_premises=2,
                                                       predicates=frozenset({"T", "E"})))


@pytest.mark.parametrize("layers,max_terms,stride", [(0, 120, 1), (1, 24, 10)])
def test_derive_matches_naive_rounds_on_the_bde_space(layers, max_terms, stride):
    """Every valid goal of the space with the bare subterm universe, and
    every tenth with one layer of new terms."""
    bde = system("BDE")
    outcomes = {"derived": 0, "none": 0}
    for r in _bde_space_goals()[::stride]:
        got = _outcome(derive, bde, r, 3, term_layers=layers, max_terms=max_terms)
        want = _outcome(naive_derive, bde, r, 3, term_layers=layers, max_terms=max_terms)
        assert got == want, str(r)
        outcomes["none" if got is None else "derived"] += 1
    # both branches are exercised
    assert min(outcomes.values()) > 0, outcomes


class _OrderedPremises(frozenset):
    """A premise set that iterates in text order, or its reverse."""

    def __new__(cls, formulas, reverse):
        out = super().__new__(cls, formulas)
        out.reverse = reverse
        return out

    def __iter__(self):
        return iter(sorted(frozenset.__iter__(self), key=formula_text, reverse=self.reverse))


def test_derive_certificate_does_not_depend_on_premise_iteration_order():
    bde = system("BDE")
    goals = [parse_rule(r"E(x /\ x), E(x /\ y) |- T(x)", bde.signature)]
    goals += [r for r in _bde_space_goals()[::15] if len(r.premises) == 2]
    for r in goals:
        want = _outcome(derive, bde, r, 3)
        for reverse in (False, True):
            ordered = Rule(_OrderedPremises(r.premises, reverse), r.conclusions)
            assert _outcome(derive, bde, ordered, 3) == want, (str(r), reverse)


@pytest.mark.parametrize("name,text,depth,layers", [
    ("TNE-bridge", "T(x), NF(x) |- E(x)", 3, 1),
    ("TNE-bridge", "E(x) |- T(x)", 3, 1),
    ("TNE-bridge", "E(x) |- NF(x)", 3, 1),
    ("TNE-bridge", r"T(x), NF(x) |- NF(x \/ y)", 3, 1),
    ("BD-EQ", "x = y |- y = x", 2, 0),
    ("BD-EQ", "x = y, y = z |- z = x", 3, 0),
    ("BD-EQ", "T(x), x = y |- T(y)", 3, 0),
    ("BD-EQ", r"T(x), T(y) |- T(y /\ x)", 2, 0),
])
def test_derive_matches_naive_rounds_on_bridge_and_eq_goals(name, text, depth, layers):
    sysd = system(name)
    r = parse_rule(text, sysd.signature)
    want = _outcome(naive_derive, sysd, r, depth, term_layers=layers)
    assert _outcome(derive, sysd, r, depth, term_layers=layers) == want


@pytest.mark.parametrize("max_facts", [3, 8, 30])
def test_derive_budget_errors_match_naive_rounds(max_facts):
    bde = system("BDE")
    budget_hits = 0
    for r in _bde_space_goals()[::25]:
        got = _outcome(derive, bde, r, 3, max_terms=24, max_facts=max_facts)
        assert got == _outcome(naive_derive, bde, r, 3, max_terms=24, max_facts=max_facts)
        budget_hits += isinstance(got, tuple)
    assert budget_hits


def brute_force_ground(sysd, formulas, universe):
    """Oracle: every assignment of a scheme's variables over the universe
    whose premises and conclusion are all among the formulas."""
    findex = {f: i for i, f in enumerate(formulas)}
    ground = set()
    for scheme in sysd.schemes:
        names = sorted(scheme.rule.variables())
        for values in product(universe, repeat=len(names)):
            b = dict(zip(names, values))
            prems = [findex.get(substitute_formula(p, b)) for p in scheme.rule.premises]
            ci = findex.get(substitute_formula(scheme.rule.conclusion, b))
            if ci is None or None in prems or ci in prems:
                continue
            ground.add((tuple(sorted(set(prems))), ci))
    return sorted(ground)


@pytest.mark.parametrize("name,term_depth",
                         [(n, 0) for n in verify.CORE_SINGLE_CONCLUSION]
                         + [("BDE", 1), ("BD-EQ", 1)]
                         + [(n, 0) for n in verify.VARIANT_SMOKE])
def test_ground_program_matches_brute_force_substitution(name, term_depth):
    sysd = system(name)
    bounds = RuleSpaceBounds(max_depth=term_depth, max_premises=2,
                             predicates=sysd.signature.relations,
                             constants=sysd.signature.constants)
    formulas = formulas_within(bounds)
    universe = terms_within(bounds)
    ground = verify._ground_program(sysd, formulas, universe)
    assert ground == brute_force_ground(sysd, formulas, universe)
