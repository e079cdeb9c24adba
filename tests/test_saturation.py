"""The bit-parallel Horn closure behind engine-soundness, checked against a
per-premise-set BFS and by planting an unsound ground rule."""

import json
from itertools import combinations

import pytest

from fourval import verify
from fourval.algebra import mask_iter
from fourval.engine import RuleSpaceBounds, formulas_within, terms_within
from fourval.structures import preset_structure
from fourval.syntax import Formula, Rule, Var, print_rule
from fourval.systems import system

MAX_PREMISES = 2


def _program(name: str, term_depth: int):
    """The inputs the suite builds for one run: formulas, ground rules and
    premise sets in enumeration order."""
    sysd = system(name)
    bounds = RuleSpaceBounds(max_depth=term_depth, max_premises=MAX_PREMISES,
                             predicates=sysd.signature.relations,
                             constants=sysd.signature.constants)
    formulas = formulas_within(bounds)
    ground = verify._ground_program(sysd, formulas, terms_within(bounds))
    sets = [prem for k in range(MAX_PREMISES + 1)
            for prem in combinations(range(len(formulas)), k)]
    return sysd, formulas, ground, sets


def _seeds(n_formulas: int, sets) -> list[int]:
    seeds = [0] * n_formulas
    for j, prem in enumerate(sets):
        for p in prem:
            seeds[p] |= 1 << j
    return seeds


def oracle_rounds(ground, prem, depth: int) -> dict[int, int]:
    """Oracle: saturate one premise set by breadth-first search.

    Maps each fact reached within ``depth`` rounds to the round it is first
    reached in; premises are round 0, and a rule fires the round after its
    last premise arrives.
    """
    by_premise: dict[int, list[int]] = {}
    for rid, (prems, _) in enumerate(ground):
        for p in prems:
            by_premise.setdefault(p, []).append(rid)
    missing = [len(prems) for prems, _ in ground]
    facts = {f: 0 for f in prem}
    frontier = list(prem)
    for rnd in range(1, depth + 1):
        ready = [rid for rid, m in enumerate(missing) if m == 0] if rnd == 1 else []
        for f in frontier:
            for rid in by_premise.get(f, ()):
                missing[rid] -= 1
                if missing[rid] == 0:
                    ready.append(rid)
        frontier = []
        for rid in ready:
            concl = ground[rid][1]
            if concl not in facts:
                facts[concl] = rnd
                frontier.append(concl)
        if not frontier:
            break
    return facts


@pytest.mark.parametrize("name,term_depth", [
    ("BD-base", 1), ("BDE", 1), ("KE", 1), ("TNE-bridge", 1), ("BD-EQ+tnb", 0),
])
def test_closure_matches_per_set_bfs(name, term_depth):
    _, formulas, ground, sets = _program(name, term_depth)
    seeds = _seeds(len(formulas), sets)
    full = (1 << len(sets)) - 1
    rounds = [oracle_rounds(ground, prem, 4) for prem in sets]
    for depth in range(1, 5):
        level = verify._horn_closure(ground, seeds, depth, full, MAX_PREMISES)
        got = {(j, f) for f, bits in enumerate(level) for j in mask_iter(bits)}
        want = {(j, f) for j, reached in enumerate(rounds)
                for f, rnd in reached.items() if rnd <= depth}
        assert got == want, f"{name} at depth {depth}"
        assert level.rounds == max(rnd for reached in rounds for rnd in reached.values()
                                   if rnd <= depth)
    assert any(rnd > 0 for reached in rounds for rnd in reached.values())


# Shapes the suite's programs lack: rules of 0 to 4 premises, out of order;
# two duplicated rules; two three-premise rules that share the first pair
# (3, 4); formula 0 is in no premise set and concludes no rule, so the pair
# (0, 3) ANDs to 0
SYNTHETIC = [
    ((1, 3, 5, 7), 2), ((), 1), ((3,), 4), ((2, 4), 6), ((2, 4), 6),
    ((3, 4, 5), 7), ((3, 4, 6), 8), ((0, 3, 5), 8), ((8,), 5), ((1, 7), 3),
    ((2, 3, 6, 8), 7), ((4, 6, 7), 2), ((5, 6), 2), ((1, 3, 5, 7), 2),
]


def test_closure_matches_per_set_bfs_on_a_synthetic_program():
    sets = [prem for k in range(MAX_PREMISES + 1) for prem in combinations(range(1, 9), k)]
    seeds = _seeds(9, sets)
    full = (1 << len(sets)) - 1
    rounds = [oracle_rounds(SYNTHETIC, prem, 4) for prem in sets]
    for depth in range(1, 5):
        level = verify._horn_closure(SYNTHETIC, seeds, depth, full, MAX_PREMISES)
        got = {(j, f) for f, bits in enumerate(level) for j in mask_iter(bits)}
        want = {(j, f) for j, reached in enumerate(rounds)
                for f, rnd in reached.items() if rnd <= depth}
        assert got == want, f"depth {depth}"
        assert level.rounds == depth
        assert level[0] == 0


@pytest.mark.parametrize("largest", [0, 1, 3, 4])
def test_closure_is_exact_for_every_largest_premise_set(largest):
    # round 1 leaves out the rules of three or more premises only when no
    # premise set is that large
    sets = [prem for k in range(largest + 1) for prem in combinations(range(1, 9), k)]
    seeds = _seeds(9, sets)
    full = (1 << len(sets)) - 1
    rounds = [oracle_rounds(SYNTHETIC, prem, 4) for prem in sets]
    for depth in range(1, 5):
        level = verify._horn_closure(SYNTHETIC, seeds, depth, full, largest)
        got = {(j, f) for f, bits in enumerate(level) for j in mask_iter(bits)}
        want = {(j, f) for j, reached in enumerate(rounds)
                for f, rnd in reached.items() if rnd <= depth}
        assert got == want, f"depth {depth}"
        assert level.rounds == max(rnd for reached in rounds for rnd in reached.values()
                                   if rnd <= depth)


def _oracle_violations(sysd, formulas, ground, sets, depth: int) -> list[str]:
    """The violation list of the per-set BFS, in (premise set, conclusion) order."""
    st = preset_structure(sysd.preset)
    bitmaps = [verify.formula_bitmap(st, f, ("x", "y")) for f in formulas]
    out = []
    for prem in sets:
        holds_all = (1 << st.algebra.size ** 2) - 1
        for p in prem:
            holds_all &= bitmaps[p]
        for c in sorted(oracle_rounds(ground, prem, depth)):
            if c not in prem and holds_all & ~bitmaps[c]:
                r = Rule(frozenset(formulas[p] for p in prem), frozenset({formulas[c]}))
                out.append(f"{sysd.name}: derived but invalid: {print_rule(r)}")
    return out


@pytest.mark.parametrize("premise", [True, False], ids=["T(x)|-T(y)", "|-T(x)"])
def test_planted_unsound_rule_is_reported_like_the_oracle(monkeypatch, premise):
    name, depth = "BD-base", 2
    sysd, formulas, ground, sets = _program(name, 1)
    tx = formulas.index(Formula("T", (Var("x"),)))
    ty = formulas.index(Formula("T", (Var("y"),)))
    planted = ((tx,), ty) if premise else ((), tx)
    assert planted not in ground
    expected = _oracle_violations(sysd, formulas, ground + [planted], sets, depth)
    original = verify._ground_program
    monkeypatch.setattr(verify, "_ground_program",
                        lambda *args: original(*args) + [planted])
    report = verify.suite_engine_soundness(depth=depth, systems_run=[name])
    assert expected
    assert report["violations"] == expected


def test_engine_soundness_reports_are_deterministic():
    def stripped():
        report = verify.suite_engine_soundness(depth=2, systems_run=["BDE"])
        del report["timings"]
        return json.dumps(report, sort_keys=True)

    first = stripped()
    assert first == stripped()
    report = json.loads(first)
    assert report["stats"] == {"BDE": {"ground_rules": 52, "premise_sets": 301,
                                       "closure_rounds": 2,
                                       "derived_pairs": report["checks"]}}


def test_engine_soundness_times_its_phases():
    timings = verify.suite_engine_soundness(depth=2, systems_run=["BDE"])["timings"]
    assert set(timings) == {"ground_s", "closure_s", "total_s"}
    assert min(timings.values()) >= 0
    # each is rounded to the millisecond on its own
    assert timings["ground_s"] + timings["closure_s"] <= timings["total_s"] + 0.002
