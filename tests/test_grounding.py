"""The shared scheme grounder and derive's semi-naive rounds, against naive
oracles: derive against the naive round loop it replaced, and the
engine-soundness ground program against brute-force substitution."""

from functools import lru_cache
from itertools import product

import pytest

from fourval import engine, verify
from fourval.engine import (
    DeriveBudgetError,
    RuleSpaceBounds,
    decide,
    derivation_to_json,
    derive,
    enumerate_rules,
    formulas_within,
    terms_within,
)
from fourval.syntax import formula_text, formula_variables, parse_rule, substitute_formula
from fourval.systems import system


def _naive_matches(patterns, facts_by_pred, binding):
    if not patterns:
        yield binding
        return
    for fact in facts_by_pred.get(patterns[0].pred, ()):
        b = engine._match_formula(patterns[0], fact, binding)
        if b is not None:
            yield from _naive_matches(patterns[1:], facts_by_pred, b)


def naive_derive(sysd, r, depth, term_layers=1, max_terms=120, max_facts=20000):
    """Oracle: derive with naive rounds, every scheme matched against every
    fact in every round, and premises re-instantiated by substitution."""
    goal = r.conclusion
    facts = {f: engine._FactInfo(None, (), (), 0) for f in r.premises}
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


@lru_cache(maxsize=None)
def _bde_space_goals():
    bounds = RuleSpaceBounds(2, 1, 2, 1, frozenset({"T", "E"}))
    return [r for r in enumerate_rules(bounds)
            if r.is_single_conclusion and decide("BDE", r).valid]


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
                         [(n, 0) for n in verify.CORE_SINGLE_CONCLUSION] + [("BDE", 1)])
def test_ground_program_matches_brute_force_substitution(name, term_depth):
    sysd = system(name)
    bounds = RuleSpaceBounds(2, term_depth, 2, 1, sysd.signature.relations,
                             sysd.signature.constants)
    formulas = formulas_within(bounds)
    universe = terms_within(bounds)
    ground = verify._ground_program(sysd, formulas, universe)
    assert ground == brute_force_ground(sysd, formulas, universe)
