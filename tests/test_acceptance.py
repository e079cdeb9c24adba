"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every criterion is exact (zero violations); the stated runtime
budgets are asserted where one is stated.
"""

import time

import pytest

from fourval import verify
from test_golden import _digest

# sha256 of the criterion 9 report without its "timings" block
ENGINE_SOUNDNESS_DIGEST = "bae16e3409f5c5b707bcc15ae55fb16495386936ce2ce7d20f4b88c077bd8199"
# the same for the two size-5 classification reports
CLASSIFICATION_5_DIGEST = "6129b62a1cc7bc77e9c924b2e1f039306e5ec591bb58f92a509422f80e68f9e3"
MC_CLASSIFICATION_5_DIGEST = "b8dc5ccacd471fdd7c0dfdb56c7b0544ef6adf4b96d9e7395e2f620f4df623ba"


def _without_timings(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timings"}


def _criterion(number: int, description: str, report: dict, budget_s: float | None = None):
    elapsed = report["timings"]["total_s"]
    ok = report["ok"] and (budget_s is None or elapsed <= budget_s)
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {number}: {status} - {description} "
          f"({report['checks']} checks, {elapsed}s)")
    for v in report["violations"][:10]:
        print(f"  violation: {v}")
    if budget_s is not None and elapsed > budget_s:
        print(f"  runtime {elapsed}s exceeded budget {budget_s}s")
    assert report["ok"], report["violations"][:10]
    if budget_s is not None:
        assert elapsed <= budget_s, f"runtime {elapsed}s over budget {budget_s}s"


def test_criterion_1_soundness():
    report = verify.suite_soundness()
    _criterion(1, "every axiom of every registry system valid in its preset",
               report, budget_s=10.0)


def test_criterion_2_rule_ledger():
    report = verify.suite_rule_ledger()
    _criterion(2, "all displayed rules decide as stated, counterexample pinned",
               report)


def test_criterion_3_leibniz_crosscheck():
    report = verify.suite_leibniz_crosscheck(max_size=5)
    _criterion(3, "refinement and polynomial methods agree", report,
               budget_s=60.0)


def test_criterion_4_fact_suite():
    report = verify.suite_facts()
    _criterion(4, "intersection/reduct/description/embedding facts hold at size <= 5",
               report)


def test_criterion_5_subdirect_representation():
    report = verify.suite_subdirect(max_size=6)
    _criterion(5, "every De Morgan lattice of size <= 6 embeds subdirectly",
               report, budget_s=300.0)


def test_criterion_6_classification_sweeps():
    started = time.time()
    report = verify.suite_classification(size=4)
    mc = verify.suite_mc_classification(size=4)
    combined = {
        "ok": report["ok"] and mc["ok"],
        "checks": report["checks"] + mc["checks"],
        "violations": report["violations"] + mc["violations"],
        "timings": {"total_s": round(time.time() - started, 3)},
    }
    _criterion(6, "reduced models match the stated shapes at size <= 4",
               combined, budget_s=600.0)


def test_classification_sweeps_at_size_5():
    """Criterion 6 one size further: 1,836,456 candidate structures, of
    which the factorised sweep checks in full only those whose every
    relation passes its own axioms."""
    report = verify.suite_classification(size=5)
    mc = verify.suite_mc_classification(size=5)
    assert (report["checks"], mc["checks"]) == (1_829_040, 7_416)
    assert report["violations"] == [] and mc["violations"] == []
    assert report["ok"] and mc["ok"]
    assert _digest(_without_timings(report)) == CLASSIFICATION_5_DIGEST
    assert _digest(_without_timings(mc)) == MC_CLASSIFICATION_5_DIGEST


def test_criterion_7_derivability_ledger():
    report = verify.suite_derivability(depth=8)
    assert report["mutations_rejected"] == 100
    _criterion(7, "documented derivations found; 100/100 mutations rejected",
               report)


def test_criterion_8_translation_transfer():
    report = verify.suite_translation(max_premises=2)
    _criterion(8, "exact-truth-to-equation translation preserves validity "
                  "over the full bounded space", report)


def test_criterion_9_engine_soundness():
    report = verify.suite_engine_soundness(depth=4)
    _criterion(9, "every rule derived at depth <= 4 is semantically valid",
               report)
    assert report["checks"] == 1_438_135
    assert _digest(_without_timings(report)) == ENGINE_SOUNDNESS_DIGEST


def test_criterion_10_parser_roundtrip():
    report = verify.suite_roundtrip(seed=0)
    _criterion(10, "parse/print identity on 10000 rules; idempotent on corpus",
               report)
