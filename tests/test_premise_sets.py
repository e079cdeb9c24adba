"""The premise-set table behind translation, extension and engine-soundness.

The oracles below are the per-(premise set, conclusion) loops the suites
ran before they shared the table; planted faults must give the same
violation lists, in the same order, both ways.
"""

import random
from itertools import combinations

import pytest

from fourval import engine, verify
from fourval.engine import RuleSpaceBounds, decide, formulas_within, translate_exact_to_eq
from fourval.structures import formula_bitmap, structure
from fourval.syntax import Const, Formula, Neg, Rule, print_rule

XY = ("x", "y")


def _oracle_translation(max_premises=2, sample=500, seed=0):
    bounds = RuleSpaceBounds(max_depth=1, max_premises=max_premises,
                             predicates=frozenset({"T", "E", "eq"}))
    formulas = formulas_within(bounds)
    src = verify.preset_structure("BDE-eq")
    tgt = verify.preset_structure("BD-eq+t")
    src_bm = [formula_bitmap(src, f, XY) for f in formulas]
    tgt_bm = [formula_bitmap(tgt, verify.translate_exact_to_eq_formula(f), XY) for f in formulas]
    all_vals = (1 << (src.algebra.size ** 2)) - 1
    violations = []
    checks = 0
    idx = range(len(formulas))
    for k in range(max_premises + 1):
        for prem in combinations(idx, k):
            pm_src = all_vals
            pm_tgt = all_vals
            for p in prem:
                pm_src &= src_bm[p]
                pm_tgt &= tgt_bm[p]
            for c in idx:
                checks += 1
                if ((pm_src & ~src_bm[c]) == 0) != ((pm_tgt & ~tgt_bm[c]) == 0):
                    r = Rule(frozenset(formulas[p] for p in prem), frozenset({formulas[c]}))
                    violations.append(f"mismatch on {print_rule(r)}")
    rng = random.Random(seed)
    for _ in range(sample):
        k = rng.randint(0, max_premises)
        prem = tuple(rng.sample(idx, k)) if k else ()
        c = rng.choice(idx)
        r = Rule(frozenset(formulas[p] for p in prem), frozenset({formulas[c]}))
        v_src = decide(src, r).valid
        v_tgt = decide(tgt, translate_exact_to_eq(r)).valid
        pm = all_vals
        for p in prem:
            pm &= src_bm[p]
        if v_src != v_tgt:
            violations.append(f"sample mismatch on {print_rule(r)}")
        if v_src != ((pm & ~src_bm[c]) == 0):
            violations.append(f"bitmap/decide disagreement on {print_rule(r)}")
    return checks, violations


def _oracle_extension(max_premises=2):
    bounds = RuleSpaceBounds(max_depth=1, max_premises=max_premises, predicates=frozenset({"T"}))
    formulas = formulas_within(bounds)
    convs = {"BD": lambda f: f, "ETL": lambda f: Formula("E", f.args),
             "K": lambda f: f, "LP": lambda f: f}
    sizes = {}
    bitmaps = {}
    for name, conv in convs.items():
        st = verify.preset_structure(name)
        sizes[name] = (1 << (st.algebra.size ** 2)) - 1
        bitmaps[name] = [formula_bitmap(st, conv(f), XY) for f in formulas]
    violations = []
    checks = 0
    idx = range(len(formulas))
    for k in range(max_premises + 1):
        for prem in combinations(idx, k):
            masks = dict(sizes)
            for p in prem:
                for name in convs:
                    masks[name] &= bitmaps[name][p]
            for c in idx:
                if (masks["BD"] & ~bitmaps["BD"][c]) == 0:
                    checks += 1
                    for name in ("ETL", "K", "LP"):
                        if (masks[name] & ~bitmaps[name][c]) != 0:
                            r = Rule(frozenset(formulas[p] for p in prem),
                                     frozenset({formulas[c]}))
                            violations.append(f"{name} loses base-valid rule {print_rule(r)}")
    return checks, violations


@pytest.mark.parametrize("n, k", [(0, 2), (5, 0), (6, 3)])
def test_premise_sets_follow_combinations_order(n, k):
    sets, seeds, full = verify._premise_sets(n, k)
    assert sets == [c for m in range(k + 1) for c in combinations(range(n), m)]
    assert full == (1 << len(sets)) - 1
    assert len(seeds) == n
    for f in range(n):
        assert seeds[f] == sum(1 << j for j, s in enumerate(sets) if f in s)


def test_check_counts_are_pinned():
    assert verify.suite_translation(max_premises=2)["checks"] == 2_385_096
    assert verify.suite_extension(max_premises=2)["checks"] == 538


def test_planted_translation_fault_matches_the_per_set_loops(monkeypatch):
    def wrong(f):  # E(u) becomes #t = ~u
        return Formula("eq", (Const("#t"), Neg(f.args[0]))) if f.pred == "E" else f

    monkeypatch.setattr(verify, "translate_exact_to_eq_formula", wrong)
    monkeypatch.setattr(engine, "translate_exact_to_eq_formula", wrong)
    report = verify.suite_translation(max_premises=2)
    checks, violations = _oracle_translation(max_premises=2)
    assert report["checks"] == checks
    assert report["violations"] == violations
    assert len(violations) == 122_090
    assert any(v.startswith("sample mismatch") for v in violations)


@pytest.mark.parametrize("broken, lost", [(("K",), 140), (("K", "LP"), 280)])
def test_planted_extension_fault_matches_the_per_set_loops(monkeypatch, broken, lost):
    preset = verify.preset_structure

    def non_filter(name):  # T = {i} on K3, which is not upward closed
        st = preset(name)
        return structure(st.algebra, {"T": 0b010}) if name in broken else st

    monkeypatch.setattr(verify, "preset_structure", non_filter)
    report = verify.suite_extension(max_premises=2)
    checks, violations = _oracle_extension(max_premises=2)
    assert report["checks"] == checks == 538
    assert report["violations"] == violations
    assert len(violations) == lost
