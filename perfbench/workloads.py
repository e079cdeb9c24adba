"""The benchmark's workloads: seeded inputs, one timed pass, an output gate.

Every workload drives fourval from outside, through module attributes
looked up at call time (``engine.decide(...)``), so that the tracing shim
sees the calls.  A workload is used in this order:

    wl = WORKLOADS[name]()
    wl.prepare()         # build systems and presets (the set-up cost)
    wl.generate(seed)    # make the inputs; the program receives only these
    result = wl.run_pass()          # the timed phase
    failures = wl.check(result)     # the output gate: [(operation, message)]
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from itertools import combinations, product

from fourval import engine, structures, syntax, systems, verify
from fourval.syntax import Const, Formula, Join, Meet, Neg, Rule, Var


@dataclass
class PassResult:
    seconds: float
    ops: int
    outputs: list = field(default_factory=list)  # one comparable record per operation
    failures: list = field(default_factory=list)  # (operation, message) for those that raised
    latencies_ms: dict = field(default_factory=dict)  # request kind -> list of ms
    parsed: dict = field(default_factory=dict)  # request index -> parsed rule

    def digest(self) -> str:
        text = json.dumps(self.outputs, sort_keys=True, default=str)
        return hashlib.sha256(text.encode()).hexdigest()


def _describe_exception(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# classify: criterion 6 at its acceptance configuration.

CLASSIFY_SIZE = 4
# system -> (candidate structures of the full product, models), as measured at
# the commit that introduced this benchmark.  The gate checks models only:
# candidate generation may legitimately shrink the first column.
CLASSIFY_EXPECTED = {
    "BDE": (852, 43), "BDNF": (852, 64), "KE": (852, 27), "BD-EQ": (186, 35),
    "ETL-EQ": (186, 30), "BDNF-EQ": (2724, 90), "BDE-EQ": (2724, 55),
    "BDE+tnb": (51012, 230), "BDNF+tnb": (51012, 230), "KE+tb": (12932, 65),
    "BD-EQ+tnb": (10738, 230), "ETL-EQ+tnb": (10738, 230),
    "BDNF-EQ+tnb": (167556, 230), "BDE-EQ+tnb": (167556, 230),
    "MC-ETL": (62, 19), "MC-ETL+tnb": (3322, 2),
}


class Classify:
    """Many candidate structures checked against a few axioms each."""

    name = "classify"
    unit = "candidate structures"
    units_per_pass = sum(s for s, _ in CLASSIFY_EXPECTED.values())  # 483,304

    def __init__(self):
        self.order = sorted(CLASSIFY_EXPECTED)

    def setup_targets(self) -> tuple[list[str], list[str]]:
        return sorted(CLASSIFY_EXPECTED), []

    def prepare(self) -> None:
        for name in sorted(CLASSIFY_EXPECTED):
            systems.system(name)

    def generate(self, seed: int) -> None:
        # the systems are fixed by the acceptance configuration; the seed
        # sets the order in which they are classified
        random.Random(seed).shuffle(self.order)

    def run_pass(self) -> PassResult:
        result = PassResult(0.0, 0)
        started = time.perf_counter()
        for name in self.order:
            result.ops += 1
            try:
                rep = engine.classify_models(systems.system(name), CLASSIFY_SIZE)
            except Exception as exc:  # a failed operation, counted by the gate
                result.failures.append((name, _describe_exception(exc)))
                continue
            result.outputs.append([name, rep.structures, rep.models, list(rep.violations)])
        result.seconds = time.perf_counter() - started
        return result

    def check(self, result: PassResult) -> list[tuple]:
        failures = list(result.failures)
        for name, _, models, violations in result.outputs:
            if violations:
                failures.append((name, f"{len(violations)} violations, first: {violations[0]}"))
            expected = CLASSIFY_EXPECTED[name][1]
            if models != expected:
                failures.append((name, f"{models} models, expected {expected}"))
        return failures


# ---------------------------------------------------------------------------
# saturate: engine soundness over every saturated premise set of one system.

SATURATE_SYSTEM = "BDNF-EQ"
SATURATE_DEPTH = 4
SATURATE_CHECKS = 315_382
SATURATE_PREMISE_SETS = 14_197  # 1 + 168 + C(168, 2) premise sets of <= 2 formulas


class Saturate:
    """Grounding and Horn saturation; never calls holds."""

    name = "saturate"
    unit = "premise sets"
    units_per_pass = SATURATE_PREMISE_SETS

    def setup_targets(self) -> tuple[list[str], list[str]]:
        return [SATURATE_SYSTEM], []

    def prepare(self) -> None:
        structures.preset_structure(systems.system(SATURATE_SYSTEM).preset)

    def generate(self, seed: int) -> None:
        # the premise-set space is fixed by the acceptance configuration;
        # there is nothing for the seed to vary
        pass

    def run_pass(self) -> PassResult:
        result = PassResult(0.0, 1)
        started = time.perf_counter()
        try:
            rep = verify.suite_engine_soundness(depth=SATURATE_DEPTH,
                                                systems_run=[SATURATE_SYSTEM])
        except Exception as exc:  # a failed operation, counted by the gate
            result.failures.append((SATURATE_SYSTEM, _describe_exception(exc)))
        else:
            result.outputs.append([SATURATE_SYSTEM, rep["checks"], list(rep["violations"])])
        result.seconds = time.perf_counter() - started
        return result

    def check(self, result: PassResult) -> list[tuple]:
        failures = list(result.failures)
        for name, checks, violations in result.outputs:
            if violations:
                failures.append((name, f"{len(violations)} violations, first: {violations[0]}"))
            if checks != SATURATE_CHECKS:
                failures.append((name, f"{checks} checks, expected {SATURATE_CHECKS}"))
        return failures


# ---------------------------------------------------------------------------
# query: a closed-loop stream of decide and derive requests, one client.

DECIDE_PRESETS = ("TNE+tnb", "BDE-eq+tnb", "BDNF-eq+tnb")
DECIDE_REQUESTS = 40_000
DECIDE_ORACLE_SAMPLE = 2_000  # decide verdicts re-derived by a full eval_term sweep
DERIVE_SYSTEM = "BDE"
DERIVE_DEPTH = 6
# every valid 1-premise goal, and every DERIVE_STRIDE-th valid 2-premise goal
DERIVE_STRIDE = 30


def _term_text(t, top: bool = True) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.symbol
    if isinstance(t, Neg):
        if t.arg == Const("#t"):
            return "#f"
        return "~" + _term_text(t.arg, top=False)
    op = " /\\ " if isinstance(t, Meet) else " \\/ "
    text = _term_text(t.left, top=False) + op + _term_text(t.right, top=False)
    return text if top else "(" + text + ")"


def _formula_text(f: Formula) -> str:
    if f.pred == "eq":
        left, right = f.args
        if isinstance(left, Join) and left.right == right and syntax.term_depth(right) == 0:
            return _term_text(left.left) + " <= " + _term_text(right)
        return _term_text(left) + " = " + _term_text(right)
    return f"{f.pred}({_term_text(f.args[0])})"


def _rule_text(prems: list[Formula], concs: list[Formula]) -> str:
    left = ", ".join(_formula_text(f) for f in prems)
    right = " | ".join(_formula_text(f) for f in concs)
    return (left + " |- " + right).strip()


def _random_term(rng: random.Random, variables, constants, depth: int):
    if depth == 0 or rng.random() < 0.35:
        if constants and rng.random() < 0.2:
            c = rng.choice(constants)
            return Neg(Const("#t")) if c == "#f" else Const(c)
        return Var(rng.choice(variables))
    op = rng.randrange(3)
    if op == 0:
        return Neg(_random_term(rng, variables, constants, depth - 1))
    left = _random_term(rng, variables, constants, depth - 1)
    right = _random_term(rng, variables, constants, depth - 1)
    return Meet(left, right) if op == 1 else Join(left, right)


def _random_formula(rng: random.Random, preds, variables, constants) -> Formula:
    pred = rng.choice(preds)
    depth = rng.randint(0, 2)
    if pred == "eq":
        left = _random_term(rng, variables, constants, depth)
        right = _random_term(rng, variables, constants, depth)
        if rng.random() < 0.2:  # written as the "<=" sugar
            right = Var(rng.choice(variables))
            left = Join(left, right)
        return Formula("eq", (left, right))
    return Formula(pred, (_random_term(rng, variables, constants, depth),))


def _true_at(st, f: Formula, valuation: dict[str, int]) -> bool:
    args = [structures.eval_term(st, t, valuation) for t in f.args]
    if f.pred in st.unary:
        return bool((st.unary[f.pred] >> args[0]) & 1)
    return bool((st.binary[f.pred][args[0]] >> args[1]) & 1)


def _truth_bitmap(st, f: Formula, names: tuple[str, ...]) -> int:
    """Bit i is set when f is true at the i-th valuation in lexicographic order."""
    bits = 0
    for i, vals in enumerate(product(range(st.algebra.size), repeat=len(names))):
        if _true_at(st, f, dict(zip(names, vals))):
            bits |= 1 << i
    return bits


def _least_counter_valuation(st, r: Rule) -> dict[str, int] | None:
    """The oracle: a full eval_term sweep, independent of holds."""
    names = tuple(sorted(r.variables()))
    sat = (1 << st.algebra.size ** len(names)) - 1
    for f in r.premises:
        sat &= _truth_bitmap(st, f, names)
    for f in r.conclusions:
        sat &= ~_truth_bitmap(st, f, names)
    if not sat:
        return None
    index = (sat & -sat).bit_length() - 1
    vals = list(product(range(st.algebra.size), repeat=len(names)))[index]
    return dict(zip(names, vals))


def _is_counterexample(st, r: Rule, valuation) -> bool:
    if not isinstance(valuation, dict) or set(valuation) != r.variables():
        return False
    if not all(isinstance(v, int) and 0 <= v < st.algebra.size for v in valuation.values()):
        return False
    return (all(_true_at(st, f, valuation) for f in r.premises)
            and not any(_true_at(st, f, valuation) for f in r.conclusions))


def derive_goal_pool() -> list[tuple[list[Formula], Formula]]:
    """The fixed sample of derive goals: valid single-conclusion BDE rules
    over x, y with term depth <= 1 and one or two premises, one per
    renaming class.  Per-goal derive cost spans three orders of magnitude,
    so a seeded sample of this size moves the total by about a quarter
    between seeds.  The sample is therefore fixed, and the seed sets only
    the order of the requests and of each goal's premises."""
    st = structures.preset_structure(systems.system(DERIVE_SYSTEM).preset)
    x, y = Var("x"), Var("y")
    atoms = [x, y]
    terms = atoms + [Neg(a) for a in atoms]
    terms += [Meet(a, b) for a in atoms for b in atoms] + [Join(a, b) for a in atoms for b in atoms]
    formulas = [Formula(p, (t,)) for p in ("T", "E") for t in terms]
    names = ("x", "y")
    bitmap = {f: _truth_bitmap(st, f, names) for f in formulas}
    swap = {"x": y, "y": x}
    seen: set = set()
    pools: dict[int, list] = {1: [], 2: []}
    for k in (1, 2):
        for prems in combinations(formulas, k):
            sat = (1 << 16) - 1
            for p in prems:
                sat &= bitmap[p]
            for concl in formulas:
                if concl in prems or sat & ~bitmap[concl]:
                    continue
                r = Rule(frozenset(prems), frozenset({concl}))
                if r in seen:
                    continue
                seen.add(r)
                seen.add(syntax.apply_subst(r, swap))
                pools[k].append((list(prems), concl))
    return pools[1] + pools[2][::DERIVE_STRIDE]


@dataclass
class _Request:
    kind: str  # "decide" or "derive"
    preset: str  # decide: preset name; derive: system name
    text: str
    expected: Rule  # the rule the text denotes, built without the parser


class Query:
    """Many distinct rules, each decided once; a few derive requests."""

    name = "query"
    unit = "requests"

    def __init__(self):
        self.requests: list[_Request] = []
        self.units_per_pass = 0
        self._oracle_sample: list[int] = []

    def setup_targets(self) -> tuple[list[str], list[str]]:
        return [DERIVE_SYSTEM], list(DECIDE_PRESETS)

    def prepare(self) -> None:
        self.presets = {name: structures.preset_structure(name) for name in DECIDE_PRESETS}
        self.sigspecs = {name: st.signature() for name, st in self.presets.items()}
        self.derive_system = systems.system(DERIVE_SYSTEM)
        self.derive_preset = structures.preset_structure(self.derive_system.preset)

    def generate(self, seed: int) -> None:
        rng = random.Random(seed)
        requests = []
        for _ in range(DECIDE_REQUESTS):
            preset = rng.choice(DECIDE_PRESETS)
            sigspec = self.sigspecs[preset]
            preds = sorted(sigspec.relations)
            variables = rng.sample(("x", "y", "z"), rng.randint(1, 3))
            constants = sorted(sigspec.constants) + ["#f"]
            prems = [_random_formula(rng, preds, variables, constants)
                     for _ in range(rng.randint(0, 3))]
            concs = [_random_formula(rng, preds, variables, constants)
                     for _ in range(rng.randint(0, 2))]
            requests.append(_Request("decide", preset, _rule_text(prems, concs),
                                     Rule(frozenset(prems), frozenset(concs))))
        for prems, concl in derive_goal_pool():
            prems = list(prems)
            rng.shuffle(prems)
            requests.append(_Request("derive", DERIVE_SYSTEM, _rule_text(prems, [concl]),
                                     Rule(frozenset(prems), frozenset({concl}))))
        rng.shuffle(requests)
        self.requests = requests
        self.units_per_pass = len(requests)
        decide_ids = [i for i, q in enumerate(requests) if q.kind == "decide"]
        self._oracle_sample = sorted(rng.sample(decide_ids, min(DECIDE_ORACLE_SAMPLE,
                                                               len(decide_ids))))

    def run_pass(self) -> PassResult:
        result = PassResult(0.0, 0, latencies_ms={"decide": [], "derive": []})
        decide_ms, derive_ms = result.latencies_ms["decide"], result.latencies_ms["derive"]
        clock = time.perf_counter
        sysd = self.derive_system
        started = clock()
        for i, q in enumerate(self.requests):
            result.ops += 1
            t0 = clock()
            try:
                if q.kind == "decide":
                    r = syntax.parse_rule(q.text, self.sigspecs[q.preset])
                    verdict = engine.decide(self.presets[q.preset], r)
                    out = ["decide", i, r, verdict]
                else:
                    r = syntax.parse_rule(q.text, sysd.signature)
                    verdict = engine.decide(sysd.preset, r)
                    d = ok = None
                    if verdict.valid:
                        d = engine.derive(sysd, r, DERIVE_DEPTH)
                        if d is not None:
                            ok = engine.check_derivation(sysd, d, r)
                    out = ["derive", i, r, verdict, d, ok]
            except Exception as exc:  # a failed request, counted by the gate
                result.failures.append((i, f"{q.text!r}: {_describe_exception(exc)}"))
                out = None
            (decide_ms if q.kind == "decide" else derive_ms).append((clock() - t0) * 1000)
            if out is not None:
                result.outputs.append(out)
        result.seconds = clock() - started
        outputs, result.outputs = result.outputs, []
        for out in outputs:
            result.parsed[out[1]] = out[2]
            result.outputs.append(self._comparable(out))
        return result

    @staticmethod
    def _comparable(out: list) -> list:
        """Plain-data form of a request's output, for the gate and the digest."""
        kind, i, _, verdict = out[:4]
        rec = [kind, i, verdict.valid, verdict.valuation,
               [syntax.formula_text(c) for c in verdict.failed_conclusions or ()]]
        if kind == "derive":
            d, ok = out[4], out[5]
            rec.append(None if d is None else engine.derivation_to_json(d))
            rec.append(ok)
        return rec

    def check(self, result: PassResult) -> list[tuple]:
        failures = list(result.failures)
        sample = set(self._oracle_sample)
        for rec in result.outputs:
            kind, i, valid, valuation = rec[:4]
            q = self.requests[i]
            r = result.parsed[i]
            if r != q.expected:
                failures.append((i, f"{q.text!r} parsed to {syntax.print_rule(r)!r}"))
                continue
            st = self.presets[q.preset] if kind == "decide" else self.derive_preset
            if not valid and not _is_counterexample(st, r, valuation):
                failures.append((i, f"{valuation} is not a counterexample to {q.text!r}"))
            if kind == "decide" and i in sample:
                least = _least_counter_valuation(st, r)
                if (least is None) != valid or (least is not None and least != valuation):
                    failures.append((i, f"decide says {valid} {valuation}, "
                                        f"the eval_term sweep says {least} for {q.text!r}"))
            if kind == "derive":
                if not valid:
                    failures.append((i, f"valid goal {q.text!r} decided invalid"))
                cert, checked = rec[5], rec[6]
                if cert is not None and not checked[0]:
                    failures.append((i, f"certificate rejected: {checked[1]}"))
        return failures


WORKLOADS = {w.name: w for w in (Classify, Saturate, Query)}
