"""Which fourval functions the traced run wraps, and the per-layer metrics
read from them.  The layers are the package's modules; ``cli`` is argument
plumbing and is not measured.

Each metric names the end-to-end figure it should move:

* ``structures.*``: classify ``wall_s`` and query decide latency; no
  change on saturate, which never calls ``holds``.
* ``verify.*``: saturate ``wall_s`` and ``work_per_s``.
* ``engine.derive``, ``engine.check_derivation``, ``syntax.substitute_formula``:
  query derive latency (``substitute_formula`` also saturate ``wall_s``).
* ``engine.decide``, ``syntax.parse_rule``: query decide latency.
* ``engine.candidate_structures``, ``engine.models``, ``leibniz.*``,
  ``algebra.*``: classify ``wall_s``.
* ``systems.system``: ``setup_s``.
"""

from __future__ import annotations

from tracer import Probe, Tracer


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _grid_points(tr: Tracer, args, kwargs, result) -> None:
    # computed from the arguments, not reported by the program: |A| ** vars
    s, r = _arg(args, kwargs, 0, "s"), _arg(args, kwargs, 1, "r")
    tr.add("structures.holds.grid_points", s.algebra.size ** len(r.variables()))


def _ground_rules(tr: Tracer, args, kwargs, result) -> None:
    tr.add("verify.ground_rules", len(result))


def _closure_facts(tr: Tracer, args, kwargs, result) -> None:
    tr.add("verify.closure_facts", len(result))


def _derive_result(tr: Tracer, args, kwargs, result) -> None:
    if result is None:
        tr.add("engine.derive.inconclusive")
    else:
        tr.add("engine.derive.cert_nodes", len(result.nodes))


def _models(tr: Tracer, args, kwargs, result) -> None:
    tr.add("engine.models", result.models)


PROBES = [
    Probe("structures.holds", hook=_grid_points),
    Probe("structures.is_model"),
    Probe("structures.compile_formula", kind="counter"),
    Probe("verify.suite_engine_soundness"),
    Probe("verify._ground_program", hook=_ground_rules),
    Probe("verify._horn_closure", hook=_closure_facts),
    Probe("verify._formula_bitmap"),
    Probe("engine.classify_models", hook=_models),
    Probe("engine.candidate_structures", kind="generator"),
    Probe("engine.decide"),
    Probe("engine.derive", hook=_derive_result),
    Probe("engine.check_derivation"),
    Probe("syntax.parse_rule"),
    Probe("syntax.substitute_formula"),
    Probe("leibniz.leibniz_structure"),
    Probe("leibniz.quotient_structure"),
    Probe("algebra.congruences"),
    Probe("algebra.enumerate_dm_lattices"),
    Probe("systems.system"),
]

# spans reported as <name>.calls and <name>.self_s
TIMED = [
    "structures.holds", "structures.is_model",
    "verify._ground_program", "verify._horn_closure", "verify._formula_bitmap",
    "engine.derive", "engine.check_derivation", "engine.decide",
    "syntax.parse_rule", "syntax.substitute_formula",
    "leibniz.leibniz_structure", "leibniz.quotient_structure",
    "algebra.congruences", "algebra.enumerate_dm_lattices", "systems.system",
]
# work counts, with their units
COUNTS = {
    "structures.holds.grid_points": "valuations",
    "structures.compile_formula.calls": "count",
    "verify.ground_rules": "rules",
    "verify.closure_facts": "facts",
    "engine.derive.cert_nodes": "nodes",
    "engine.derive.inconclusive": "count",
    "engine.candidate_structures.yielded": "count",
    "engine.models": "count",
}
# the probe each metric is read from, to mark a metric absent with its probe
_SOURCE = {
    "structures.holds.grid_points": "structures.holds",
    "structures.compile_formula.calls": "structures.compile_formula",
    "verify.ground_rules": "verify._ground_program",
    "verify.closure_facts": "verify._horn_closure",
    "engine.derive.cert_nodes": "engine.derive",
    "engine.derive.inconclusive": "engine.derive",
    "engine.candidate_structures.yielded": "engine.candidate_structures",
    "engine.models": "engine.classify_models",
}


def per_layer_metrics(tr: Tracer) -> tuple[dict, list[str]]:
    """Every per-layer metric as {name: (value, unit)}, and the absent ones.

    A metric whose function no longer exists reads 0 and is listed absent.
    ``trace.overhead_s`` needs an untraced pass too and is added by the caller.
    """
    metrics: dict[str, tuple[float, str]] = {}
    absent: list[str] = []
    for name in TIMED:
        calls, _, own = tr.span_totals(name)
        metrics[name + ".calls"] = (calls, "count")
        metrics[name + ".self_s"] = (own, "s")
        if name in tr.absent:
            absent += [name + ".calls", name + ".self_s"]
    for name, unit in COUNTS.items():
        metrics[name] = (tr.counts.get(name, 0), unit)
        if _SOURCE[name] in tr.absent:
            absent.append(name)
    _, _, gen_self = tr.span_totals("engine.candidate_structures")
    metrics["engine.candidate_structures.self_s"] = (gen_self, "s")
    yielded = tr.counts.get("engine.candidate_structures.yielded", 0)
    models = tr.counts.get("engine.models", 0)
    metrics["engine.model_yield"] = (models / yielded if yielded else 0.0, "ratio")
    if "engine.candidate_structures" in tr.absent:
        absent += ["engine.candidate_structures.self_s", "engine.model_yield"]
    return metrics, absent
