"""Tests of the benchmark itself: the tracing shim, and that tracing leaves
every output of every workload unchanged.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from layers import PROBES, per_layer_metrics  # noqa: E402
from tracer import ROOT, Probe, Tracer  # noqa: E402


# -- the shim ----------------------------------------------------------------

@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.mod defines f (calls g) and gen; fakepkg.other imports g by name."""
    now = [0.0]
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    other = types.ModuleType("fakepkg.other")

    def g(x):
        now[0] += 5
        return x + 1

    def f(x):
        now[0] += 2
        y = mod.g(x)
        now[0] += 1
        return y

    def gen(n):
        for i in range(n):
            now[0] += 1
            yield mod.g(i)

    mod.f, mod.g, mod.gen = f, g, gen
    other.g = g
    for name, m in (("fakepkg", pkg), ("fakepkg.mod", mod), ("fakepkg.other", other)):
        monkeypatch.setitem(sys.modules, name, m)
    return now, mod, other, (f, g, gen)


def test_self_time_comes_from_the_parent_stack(fake_package):
    now, mod, other, (f, g, gen) = fake_package
    tr = Tracer("fakepkg", clock=lambda: now[0])
    tr.install([Probe("mod.f"), Probe("mod.g")])
    try:
        assert mod.f(1) == 2
        assert other.g(1) == 2  # bound by name in another module: wrapped too
    finally:
        tr.restore()
    assert tr.spans[("mod.f", ROOT)] == [1, 8.0, 3.0]
    assert tr.spans[("mod.g", "mod.f")] == [1, 5.0, 5.0]
    assert tr.spans[("mod.g", ROOT)] == [1, 5.0, 5.0]
    assert tr.span_totals("mod.g") == (2, 10.0, 10.0)
    assert (mod.f, mod.g, other.g) == (f, g, g)  # originals restored


def test_generators_counters_hooks_and_absent_names(fake_package):
    now, mod, _, (f, g, gen) = fake_package
    seen = []
    tr = Tracer("fakepkg", clock=lambda: now[0])
    tr.install([Probe("mod.gen", kind="generator"), Probe("mod.g", kind="counter"),
                Probe("mod.f", hook=lambda t, a, k, r: seen.append((a, r))),
                Probe("mod.deleted")])
    try:
        assert list(mod.gen(3)) == [1, 2, 3]
        mod.f(10)
    finally:
        tr.restore()
    assert tr.counts["mod.gen.yielded"] == 3
    assert tr.counts["mod.g.calls"] == 4
    # four resumptions (the last one ends the generator), 6 time units each
    assert tr.span_totals("mod.gen") == (4, 18.0, 18.0)
    assert seen == [((10,), 11)]
    assert tr.absent == ["mod.deleted"]
    assert mod.gen is gen


def test_absent_functions_are_reported_not_raised(monkeypatch):
    from fourval import verify

    monkeypatch.delattr(verify, "_horn_closure")
    tr = Tracer()
    tr.install(PROBES)
    tr.restore()
    metrics, absent = per_layer_metrics(tr)
    assert "verify._horn_closure.self_s" in absent
    assert "verify.closure_facts" in absent
    assert metrics["verify._horn_closure.calls"] == (0, "count")


# -- tracing changes no output -------------------------------------------------

def _classify_small(wl):
    wl.order = ["MC-ETL", "BDE", "BD-EQ"]


def _query_small(wl):
    derive = [q for q in wl.requests if q.kind == "derive"][:3]
    wl.requests = [q for q in wl.requests if q.kind == "decide"][:300] + derive
    wl._oracle_sample = list(range(len(wl.requests)))


@pytest.mark.parametrize("name, shrink", [("classify", _classify_small),
                                          ("query", _query_small)])
def test_tracing_changes_no_output(name, shrink):
    results = []
    for traced in (False, True):
        wl = workloads.WORKLOADS[name]()
        wl.prepare()
        wl.generate(7)
        shrink(wl)
        tr = Tracer()
        if traced:
            tr.install(PROBES)
        try:
            result = wl.run_pass()
        finally:
            tr.restore()
        assert wl.check(result) == []
        results.append(result)
    plain, traced = results
    assert plain.ops == traced.ops
    assert plain.digest() == traced.digest()


def test_tracing_changes_no_saturation_output(monkeypatch):
    monkeypatch.setattr(workloads, "SATURATE_SYSTEM", "BD-base")
    outputs = []
    for traced in (False, True):
        wl = workloads.Saturate()
        wl.prepare()
        tr = Tracer()
        if traced:
            tr.install(PROBES)
        try:
            result = wl.run_pass()
        finally:
            tr.restore()
        assert result.failures == []
        outputs.append(result.outputs)
        if traced:
            assert tr.span_totals("verify._horn_closure")[0] > 0
    assert outputs[0] == outputs[1]
    [(_, checks, violations)] = outputs[0]
    assert checks > 0 and violations == []


def test_gate_rejects_a_wrong_output():
    wl = workloads.Query()
    wl.prepare()
    wl.generate(3)
    _query_small(wl)
    result = wl.run_pass()
    i = next(rec[1] for rec in result.outputs if rec[0] == "decide" and rec[2])
    rec = next(rec for rec in result.outputs if rec[1] == i)
    rec[2] = False  # claim a valid rule is invalid, with no counter-valuation
    assert [op for op, _ in wl.check(result)] == [i, i]


def test_same_seed_same_inputs():
    a, b, c = workloads.Query(), workloads.Query(), workloads.Query()
    for wl, seed in ((a, 5), (b, 5), (c, 6)):
        wl.prepare()
        wl.generate(seed)
    assert [q.text for q in a.requests] == [q.text for q in b.requests]
    assert [q.text for q in a.requests] != [q.text for q in c.requests]


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(cmd + ["--workload", "query", "--seed", "1", "--seconds", "1",
                                 "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
