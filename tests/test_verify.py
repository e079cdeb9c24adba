import pytest

from fourval import verify
from fourval.syntax import parse_rule, print_rule
from fourval.systems import system


def test_run_suite_dispatch_and_unknown():
    report = verify.run_suite("soundness", systems=["BDE"])
    assert report["ok"] and report["suite"] == "soundness"
    with pytest.raises(KeyError):
        verify.run_suite("nope")


def test_every_named_suite_exists():
    for name in ("soundness", "leibniz-crosscheck", "classification", "subdirect",
                 "mc-classification", "translation"):
        assert name in verify.SUITES


def test_mc_classification_small():
    report = verify.suite_mc_classification(size=3)
    assert report["ok"]
    assert report["systems"]["MC-ETL"]["models"] > 0


def test_extension_suite():
    report = verify.suite_extension(max_premises=1)
    assert report["ok"] and report["checks"] > 0


def test_completeness_evidence_logs_gaps_without_failing():
    report = verify.suite_completeness_evidence("BDE", max_depth_terms=1,
                                                max_premises=1, derive_depth=4,
                                                max_terms=30)
    assert report["ok"]  # gaps never fail the suite
    assert report["confirmed"] > 0
    assert report["confirmed"] + len(report["known_gaps"]) == report["checks"]
    # every logged gap is still semantically valid (that is what a gap means)
    from fourval.engine import decide

    sysd = system("BDE")
    for text in report["known_gaps"][:20]:
        assert decide(sysd.preset, parse_rule(text, sysd.signature)).valid


def test_golden_corpus_nonempty_and_canonical():
    corpus = verify.golden_corpus()
    assert len(corpus) > 100
    for text in corpus[:100]:
        assert print_rule(parse_rule(text)) == text


def test_translation_suite_small():
    report = verify.suite_translation(max_premises=1, sample=100)
    assert report["ok"]


def test_classification_parallel_matches_sequential():
    seq = verify.suite_classification(size=3, jobs=1)
    par = verify.suite_classification(size=3, jobs=2)
    assert seq["ok"] and par["ok"]
    assert seq["systems"] == par["systems"]
    assert seq["checks"] == par["checks"]
    assert seq["violations"] == par["violations"]


def test_classification_pool_is_capped_at_the_task_count(monkeypatch):
    import multiprocessing

    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    report = verify.suite_mc_classification(size=2, jobs=64)
    assert sizes == [2]
    assert report["ok"] and report["config"]["jobs"] == 64


def test_engine_soundness_single_system():
    report = verify.suite_engine_soundness(systems_run=["BDE"])
    assert report["ok"] and report["checks"] > 1000


def test_classification_violation_reporting():
    # a deliberately wrong "classification": claim KE shapes for BD-EQ models
    from fourval.engine import shape_violations
    from fourval.leibniz import reduct
    from fourval.structures import structure
    from fourval.algebra import builtin

    dm4 = builtin("DM4")
    s = structure(dm4, {"T": (0, 1), "E": (0, 1)})  # E too big for the BDE shape
    red, _ = reduct(s)
    assert shape_violations("BDE", red)
