"""fourval benchmark: one workload, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload {classify,saturate,query} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.

Every pass runs in a fresh worker process, which builds the workload's
systems, generates its inputs from the seed, runs the timed pass and then
the output gate.  A pass therefore starts with the program's caches empty,
as a command-line user's would be, and no pass profits from the one before.

With ``--trace 0`` passes are repeated while another one fits in S seconds
(at least one) and the end-to-end metrics are printed.  With ``--trace 1``
one untraced and one traced pass run on the same inputs; their outputs
must agree, and the per-layer metrics of the traced pass (set-up included)
are printed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable report: environment, sample counts, the failed share,
latency percentiles and the trace table.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 4  # before the passes, and again after them
WORKER_TIMEOUT_S = 170
LATENCY_CUTS = {"decide": (50, 99), "derive": (50, 90)}
# the layers each workload is meant to load; the traced report prints the
# share of the traced pass their self time accounts for
LOADED = {
    "classify": ("structures.holds", "structures.is_model"),
    "saturate": ("verify._horn_closure", "verify._ground_program"),
    "query": ("engine.derive", "syntax.substitute_formula", "structures.holds",
              "syntax.parse_rule"),
}


# -- environment ------------------------------------------------------------

def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _git_commit() -> str:
    """Read the commit from .git inside the checkout, if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# -- worker: one pass in this process ---------------------------------------

def run_pass(workload: str, seed: int, traced: bool) -> dict:
    """Set up, generate, run one pass (traced or not) and gate its outputs."""
    from layers import PROBES, per_layer_metrics
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]()
    tracer = Tracer()
    if traced:
        tracer.install(PROBES)
    try:
        wl.prepare()
    finally:
        tracer.restore()
    wl.generate(seed)
    # the inputs are the harness's, not the program's: keep the collector
    # from re-scanning them during the pass
    gc.collect()
    gc.freeze()
    if traced:
        tracer.install(PROBES)
    try:
        result = wl.run_pass()
    finally:
        tracer.restore()
    found = wl.check(result)
    out = {
        "seconds": result.seconds,
        "ops": result.ops,
        "units": wl.units_per_pass,
        "unit": wl.unit,
        "failed_ops": len({op for op, _ in found}),
        "messages": [f"{op}: {msg}" for op, msg in found[:20]],
        "digest": result.digest(),
        "latencies_ms": result.latencies_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        metrics, absent = per_layer_metrics(tracer)
        out["per_layer"] = metrics
        out["absent"] = absent
        out["spans"] = [[span, parent, *rec] for (span, parent), rec in tracer.spans.items()]
    return out


def spawn_pass(workload: str, seed: int, traced: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--worker", "traced" if traced else "plain"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- orchestration ----------------------------------------------------------

def measure_setup(workload: str, probes: int = SETUP_PROBES) -> list[float]:
    """Set-up seconds of `probes` fresh processes, one after another."""
    from workloads import WORKLOADS

    systems_, presets = WORKLOADS[workload]().setup_targets()
    targets = [f"system:{n}" for n in systems_] + [f"preset:{n}" for n in presets]
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)] + targets
    out = []
    for _ in range(probes):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_untraced(workload: str, seed: int, seconds: float) -> list[dict]:
    """Whole passes while another one fits in `seconds`; at least one."""
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(spawn_pass(workload, seed, traced=False))
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(p["seconds"] for p in passes) > seconds:
            return passes


def gate(passes: list[dict]) -> tuple[int, int, list[str]]:
    """(operations attempted, operations failed, failure messages)."""
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed_ops"] for p in passes)
    messages = [m for p in passes for m in p["messages"]]
    if len({p["digest"] for p in passes}) > 1:
        messages.append("passes over the same inputs gave different outputs")
        failed = max(failed, 1)
    return attempted, failed, messages


def percentile_lines(passes: list[dict]) -> list[str]:
    """Latency percentiles per request kind, each with its sample count."""
    lines = []
    for kind, cuts in LATENCY_CUTS.items():
        samples = [ms for p in passes for ms in p["latencies_ms"].get(kind, ())]
        if len(samples) < 2:
            continue
        q = statistics.quantiles(samples, n=100, method="inclusive")
        for c in cuts:
            lines.append(f"{kind + '_ms.p' + str(c):14} {q[c - 1]:12.4f} ms      (n={len(samples)})")
    return lines


def trace_table(spans: list) -> list[str]:
    lines = [f"{'span':34} {'parent':34} {'calls':>10} {'total_s':>10} {'self_s':>10}"]
    for span, parent, calls, total, own in sorted(spans, key=lambda row: -row[4]):
        lines.append(f"{span:34} {parent:34} {calls:10d} {total:10.4f} {own:10.4f}")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("classify", "saturate", "query"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", choices=("plain", "traced"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "fourval" / "__init__.py").is_file():
        print(f"benchmark: no fourval sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import fourval

    if Path(fourval.__file__).resolve().parent != SRC / "fourval":
        print(f"benchmark: imported fourval from {fourval.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.worker:
        print(json.dumps(run_pass(args.workload, args.seed, args.worker == "traced")))
        return 0

    load_start = _loadavg()
    report = [f"fourval benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}"]
    if args.trace:
        plain = spawn_pass(args.workload, args.seed, traced=False)
        traced = spawn_pass(args.workload, args.seed, traced=True)
        passes = [plain, traced]
        metrics = dict(traced["per_layer"])
        metrics["trace.overhead_s"] = (traced["seconds"] - plain["seconds"], "s")
        report.append(f"untraced pass {plain['seconds']:.4f} s, traced pass "
                      f"{traced['seconds']:.4f} s, output digests "
                      f"{'equal' if plain['digest'] == traced['digest'] else 'DIFFER'}")
        report += trace_table(traced["spans"])
        loaded = sum(metrics[name + ".self_s"][0] for name in LOADED[args.workload])
        report.append(f"self time of {' + '.join(LOADED[args.workload])}: {loaded:.4f} s, "
                      f"{loaded / traced['seconds']:.1%} of the traced pass")
        for name, (value, unit) in metrics.items():
            report.append(f"{name:44} {value:16.6g} {unit}"
                          + ("   (absent)" if name in traced["absent"] else ""))
    else:
        # set-up is sampled on both sides of the passes, so that a slow spell
        # of a shared machine does not cover every sample
        setup = measure_setup(args.workload)
        passes = run_untraced(args.workload, args.seed, args.seconds)
        setup += measure_setup(args.workload)
        walls = [p["seconds"] for p in passes]
        units, unit = passes[0]["units"], passes[0]["unit"]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "work_per_s": (units * len(passes) / sum(walls), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        }
        report += [
            f"wall_s         {metrics['wall_s'][0]:12.4f} s       (median of {len(passes)} passes: "
            + ", ".join(f"{w:.4f}" for w in walls) + ")",
            f"work_per_s     {metrics['work_per_s'][0]:12.4f} 1/s     "
            f"({units} {unit} per pass, {len(passes)} passes)",
            f"setup_s        {metrics['setup_s'][0]:12.4f} s       "
            f"(median of {len(setup)} fresh processes, {min(setup):.4f} to {max(setup):.4f})",
            f"peak_rss_mb    {metrics['peak_rss_mb'][0]:12.4f} MB      (largest of {len(passes)} passes)",
        ]
        report += percentile_lines(passes)
    attempted, failed, messages = gate(passes)
    report.append(f"failed_share   {failed / attempted:12.4f}         "
                  f"({failed} of {attempted} operations)")
    env = {"nproc": _nproc(), "python": platform.python_version(), "commit": _git_commit(),
           "loadavg_start": load_start, "loadavg_end": _loadavg()}
    report.append("env " + json.dumps(env))
    report += [f"FAILED {m}" for m in messages[:20]]
    print("\n".join(report))
    print(json.dumps({
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
