"""Named verification suites wiring the whole library together.

Each suite returns a JSON-friendly report:

    {"suite": ..., "config": {...}, "checks": int, "violations": [...],
     "ok": bool, "timings": {...}}

A suite passes when its violation list is empty.  A report with no checks
also carries "empty": true, since passing it says nothing.  The known-gaps output
of the completeness-evidence suite is not a violation: syntactic search
is one-sided, so gaps are logged rather than failed.
"""

from __future__ import annotations

import random
import time
from itertools import combinations, product as iproduct
from math import comb
from typing import Callable, Sequence

from .algebra import (
    FiniteAlgebra,
    builtin,
    canonical_key,
    congruences,
    enumerate_dm_lattices,
    enumerate_filters,
    is_prime_filter,
    mask_iter,
    subalgebra,
    subdirect_embedding,
)
from .engine import (
    SPACE_VARIABLES,
    Grounder,
    ModelSweep,
    RuleSpaceBounds,
    RuleSpaceBudgetError,
    Universe,
    _congruence_rows,
    _embeds_into,
    candidate_structures,
    canonical_rule,
    census_pool,
    classify_models,
    check_derivation,
    decide,
    derive,
    edge_mutations,
    formulas_over,
    formulas_within,
    terms_within,
    translate_exact_to_eq,
    translate_exact_to_eq_formula,
)
from .leibniz import (
    leibniz_binary,
    leibniz_binary_poly,
    leibniz_structure,
    leibniz_unary,
    leibniz_unary_poly,
    quotient_structure,
    reduct,
)
from .structures import Structure, formula_bitmap, holds, is_model, preset_structure, structure
from .syntax import (
    Const,
    Formula,
    Join,
    Meet,
    Neg,
    Rule,
    UsageError,
    Var,
    parse_rule,
    print_rule,
)
from .systems import AxiomSystem, all_system_names, soundness_check, system

CLASSIFIED_FAMILIES = ("BDE", "BDNF", "KE", "BD-EQ", "ETL-EQ", "BDNF-EQ", "BDE-EQ", "MC-ETL")
CLASSIFIED_VARIANTS = ("BDE+tnb", "BDNF+tnb", "KE+tb", "BD-EQ+tnb", "ETL-EQ+tnb",
                       "BDNF-EQ+tnb", "BDE-EQ+tnb", "MC-ETL+tnb")
CORE_SINGLE_CONCLUSION = ("BD-base", "ETL-base", "K-base", "LP-base", "BDE", "BDNF",
                          "KE", "TNE-bridge", "EQ-core", "BD-EQ", "ETL-EQ", "BDE-EQ",
                          "BDNF-EQ")
VARIANT_SMOKE = ("BDE+tnb", "BDNF+tnb", "KE+tb", "BD-EQ+tnb", "ETL-EQ+tnb",
                 "BDE-EQ+tnb", "BDNF-EQ+tnb")


def _report(suite: str, config: dict, checks: int, violations: list[str],
            started: float, extra: dict | None = None,
            phases: dict[str, float] | None = None) -> dict:
    out = {
        "suite": suite,
        "config": config,
        "checks": checks,
        "violations": violations,
        "ok": not violations,
    }
    if checks == 0:  # ok, but it says nothing
        out["empty"] = True
    if extra:
        out.update(extra)
    out["timings"] = {**{name: round(secs, 3) for name, secs in (phases or {}).items()},
                      "total_s": round(time.perf_counter() - started, 3)}
    return out


# ---------------------------------------------------------------------------
# Suite: soundness.  Every axiom of every registry system is valid in its
# defining preset structure.

def suite_soundness(systems: Sequence[str] | None = None) -> dict:
    started = time.perf_counter()
    names = list(systems) if systems else all_system_names()
    violations = []
    checks = 0
    for name in names:
        rep = soundness_check(system(name))
        for axname, verdict in rep["axioms"]:
            checks += 1
            if not verdict.valid:
                violations.append(f"{name}/{axname}: fails in {rep['preset']} at {verdict.valuation}")
    return _report("soundness", {"systems": len(names)}, checks, violations, started)


# ---------------------------------------------------------------------------
# Suite: rule-ledger.  A golden ledger of inference rules with their
# expected verdicts (and, where pinned, the exact counter-valuation).
# Entries: (rule text, preset, expected validity, pinned counter-valuation).

LEDGER_RULES: list[tuple[str, str, bool, dict | None]] = [
    # introductory examples
    (r"E(x), T(~x \/ y) |- T(y)", "BDE", True, None),
    (r"T(x), NF(~x \/ y) |- NF(y)", "BDNF", True, None),
    (r"T(x), T(y) |- ~x \/ y = y", "BD-eq", True, None),
    (r"T(x) |- #b /\ x = #b", "BD-eq+b", True, None),
    (r"#b /\ x = #b |- T(x)", "BD-eq+b", True, None),
    # two- and three-element structures for T(x), T(y) |- x = y
    ("T(x), T(y) |- x = y", "B2-eq", True, None),
    ("T(x), T(y) |- x = y", "BD3-eq", False, {"x": "t", "y": "b"}),
    # constant equations for the expanded variety
    (r"|- #t = x \/ #t", "DM-eq+t", True, None),
    ("|- #n = ~#n", "DM-eq+n", True, None),
    ("|- #b = ~#b", "DM-eq+b", True, None),
    (r"|- #n \/ #b = x \/ #n \/ #b", "DM-eq+nb", True, None),
    # characteristic rules of the four base logics
    (r"T(x /\ (~x \/ y)) |- T(y)", "BD", False, {"x": "b", "y": "f"}),
    (r"E(x /\ (~x \/ y)) |- E(y)", "ETL", True, None),
    (r"T((x /\ ~x) \/ y) |- T(y)", "K", True, None),
    (r"T((x /\ ~x) \/ y) |- T(y)", "BD", False, None),
    (r"|- T(x \/ ~x)", "LP", True, None),
    (r"|- T(x \/ ~x)", "BD", False, None),
    # combined truth / exact truth
    ("E(x) |- T(x)", "BDE", True, None),
    (r"E(x), T(~x \/ y) |- T(y)", "BDE", True, None),
    (r"T(x), T(y), E(~x \/ y) |- E(y)", "BDE", True, None),
    (r"E(x /\ (~x \/ y)) |- E(y)", "BDE", True, None),
    # constants for truth / exact truth
    ("|- E(#t)", "BDE+t", True, None),
    (r"|- T(#b /\ ~#b)", "BDE+b", True, None),
    (r"T(#n \/ x) |- T(x)", "BDE+n", True, None),
    (r"T(~#n \/ x) |- T(x)", "BDE+n", True, None),
    (r"T(x) |- E(#n \/ x)", "BDE+n", True, None),
    (r"T(x) |- E(~#n \/ x)", "BDE+n", True, None),
    # combined truth / non-falsity
    (r"T(x), NF(~x \/ y) |- NF(y)", "BDNF", True, None),
    (r"NF(x), T(~x \/ y) |- T(y)", "BDNF", True, None),
    ("|- T(#t)", "BDNF+t", True, None),
    ("|- NF(#t)", "BDNF+t", True, None),
    ("|- T(#b)", "BDNF+b", True, None),
    ("|- T(~#b)", "BDNF+b", True, None),
    ("|- NF(#n)", "BDNF+n", True, None),
    ("|- NF(~#n)", "BDNF+n", True, None),
    # three-valued truth / exact truth
    (r"|- T(x \/ ~x)", "KE", True, None),
    ("E(x) |- T(x)", "KE", True, None),
    (r"E(x), T(~x \/ y) |- T(y)", "KE", True, None),
    (r"T(x), E(~x \/ y) |- E(y)", "KE", True, None),
    ("|- E(#t)", "KE+t", True, None),
    ("|- T(#b)", "KE+b", True, None),
    ("|- T(~#b)", "KE+b", True, None),
    # definability of E from T and NF
    ("T(x), NF(x) |- E(x)", "TNE", True, None),
    ("E(x) |- T(x)", "TNE", True, None),
    ("E(x) |- NF(x)", "TNE", True, None),
    # equality core displayed in the equality section
    ("|- x = x", "DM-eq", True, None),
    ("x = y |- y = x", "DM-eq", True, None),
    ("x = y, y = z |- x = z", "DM-eq", True, None),
    (r"x = y, z = u |- x /\ z = y /\ u", "DM-eq", True, None),
    (r"x = y, z = u |- x \/ z = y \/ u", "DM-eq", True, None),
    ("x = y |- ~x = ~y", "DM-eq", True, None),
    ("x = y, x = z, y = u |- z = u", "DM-eq", True, None),
    ("T(x), x = y |- T(y)", "BD-eq", True, None),
    ("E(x), x = y |- E(y)", "ETL-eq", True, None),
    ("NF(x), x = y |- NF(y)", "BDNF-eq", True, None),
    ("|- ~~x = x", "DM-eq", True, None),
    (r"|- ~(x \/ y) = ~x /\ ~y", "DM-eq", True, None),
    (r"|- ~(x /\ y) = ~x \/ ~y", "DM-eq", True, None),
    # truth with equality
    (r"T(x), T(y) |- T(x /\ y)", "BD-eq", True, None),
    (r"T(x), T(y) |- ~x \/ y = y", "BD-eq", True, None),
    (r"T(z), x /\ z = y /\ z, ~y /\ z = ~x /\ z |- x = y", "BD-eq", True, None),
    (r"|- #t = #t \/ x", "BD-eq+t", True, None),
    ("|- #n = ~#n", "BD-eq+n", True, None),
    (r"|- #b \/ #n = #t", "BD-eq+tnb", True, None),
    ("|- T(#t)", "BD-eq+t", True, None),
    ("|- T(#b)", "BD-eq+b", True, None),
    (r"T(#n \/ x) |- T(x)", "BD-eq+n", True, None),
    ("T(~#t) |- x = y", "BD-eq+t", True, None),
    ("|- T(~#b)", "BD-eq+b", True, None),
    (r"T(x) |- #n \/ x \/ y = #n \/ x", "BD-eq+n", True, None),
    # exact truth with equality
    (r"E(x) |- x \/ y = x", "ETL-eq", True, None),
    ("|- E(#t)", "ETL-eq+t", True, None),
    (r"|- E(#n \/ #b)", "ETL-eq+nb", True, None),
    ("|- #b = ~#b", "ETL-eq+b", True, None),
    ("|- #n = ~#n", "ETL-eq+n", True, None),
    # truth and exact truth with equality
    (r"E(x) |- x \/ y = x", "BDE-eq", True, None),
    ("E(x) |- T(x)", "BDE-eq", True, None),
    ("|- E(#t)", "BDE-eq+t", True, None),
    (r"|- E(#n \/ #b)", "BDE-eq+nb", True, None),
    ("|- #n = ~#n", "BDE-eq+n", True, None),
    (r"|- T(#b /\ ~#b)", "BDE-eq+b", True, None),
    (r"T(#n \/ x) |- T(x)", "BDE-eq+n", True, None),
    (r"T(x) |- E(#n \/ x)", "BDE-eq+n", True, None),
    # truth and non-falsity with equality (fifth rule as corrected; see notes)
    (r"T(x), T(y) |- ~x \/ y = y", "BDNF-eq", True, None),
    (r"NF(x), T(~x \/ y) |- T(y)", "BDNF-eq", True, None),
    (r"T(x), NF(~x \/ y) |- NF(y)", "BDNF-eq", True, None),
    (r"NF(x), T(y), T(z), x /\ y <= z |- y <= z", "BDNF-eq", True, None),
    (r"T(x), NF(y), x /\ u <= ~y \/ v, x /\ ~v <= ~y \/ ~u |- u <= v", "BDNF-eq", True, None),
    ("|- T(#t)", "BDNF-eq+t", True, None),
    ("|- NF(#t)", "BDNF-eq+t", True, None),
    ("|- T(#b)", "BDNF-eq+b", True, None),
    ("|- T(~#b)", "BDNF-eq+b", True, None),
    ("|- NF(#n)", "BDNF-eq+n", True, None),
    ("|- NF(~#n)", "BDNF-eq+n", True, None),
    # definability of the predicates from equality with a constant
    (r"NF(x) |- x /\ #n = #n", "BDNF-eq+n", True, None),
    (r"x /\ #n = #n |- NF(x)", "BDNF-eq+n", True, None),
    # multiple-conclusion section
    (r"NF(x \/ y) |- NF(x) | NF(y)", "NF", True, None),
    ("T(~x), NF(x) |-", "BDNF", True, None),
    ("E(x) |- T(x)", "TNE", True, None),
    ("T(~x), E(x) |-", "TNE", True, None),
    ("T(x) |- E(x) | T(~x)", "TNE", True, None),
    ("|- T(x) | NF(~x)", "TNE", True, None),
    ("T(x), NF(~x) |-", "TNE", True, None),
    (r"T(x \/ y) |- T(x) | T(y)", "BD", True, None),
    (r"E(x \/ y) |- E(~x \/ ~y) | E(x) | E(y)", "ETL", True, None),
    (r"E(x \/ y) |- E(~x \/ y) | E(x) | E(y)", "ETL", True, None),
    (r"E((u /\ ~u) \/ x), E((u /\ ~u) \/ y), E(v \/ x) |- E(v \/ y) | E(x) | E(y)", "ETL", True, None),
    (r"E((u /\ ~u) \/ x), E((u /\ ~u) \/ y), E(v \/ ~x) |- E(v \/ ~y) | E(x) | E(y)", "ETL", True, None),
    (r"x \/ y = #t, x = x /\ ~x, y = y /\ ~y |- x = x \/ ~x", "DM-eq+t", True, None),
    ("|- E(#t)", "ETL+t", True, None),
    (r"|- E(#n \/ #b)", "ETL+nb", True, None),
    ("E(#n) |-", "ETL+n", True, None),
    ("E(~#n) |-", "ETL+n", True, None),
    ("E(#b) |-", "ETL+b", True, None),
    ("E(~#b) |-", "ETL+b", True, None),
]


def suite_rule_ledger() -> dict:
    started = time.perf_counter()
    violations = []
    for text, preset, expected, pinned in LEDGER_RULES:
        st = preset_structure(preset)
        r = parse_rule(text, st.signature())
        verdict = holds(st, r)
        if verdict.valid != expected:
            violations.append(f"{preset}: {text!r} decided {verdict.valid}, stated {expected}")
            continue
        if pinned is not None:
            got = {k: st.algebra.element_name(v) for k, v in verdict.valuation.items()}
            if got != pinned:
                violations.append(f"{preset}: {text!r} counter-valuation {got}, stated {pinned}")
    return _report("rule-ledger", {"rules": len(LEDGER_RULES)}, len(LEDGER_RULES),
                   violations, started)


# ---------------------------------------------------------------------------
# Suite: leibniz-crosscheck.

def _binary_relation_family(alg: FiniteAlgebra) -> list[tuple[str, tuple[int, ...]]]:
    n = alg.size
    full = (1 << n) - 1
    fams: list[tuple[str, tuple[int, ...]]] = [
        ("identity", tuple(1 << a for a in range(n))),
        ("total", tuple(full for _ in range(n))),
        ("leq", tuple(sum(1 << b for b in range(n) if alg.leq(a, b)) for a in range(n))),
    ]
    for i, cong in enumerate(congruences(alg)):
        fams.append((f"congruence{i}", _congruence_rows(cong)))
    for f in enumerate_filters(alg):
        rows = tuple((full & f) if (f >> a) & 1 else 0 for a in range(n))
        fams.append((f"square{f}", rows))
    return fams


BINARY_MAX_SIZE = 4  # binary relations are cross-checked on algebras up to this size


def suite_leibniz_crosscheck(max_size: int = 5) -> dict:
    started = time.perf_counter()
    violations = []
    checks = 0
    algebras: list[tuple[str, FiniteAlgebra]] = [(name, builtin(name)) for name in ("B2", "K3", "DM4")]
    for n in range(1, max_size + 1):
        algebras += [(f"census{n}.{i}", a) for i, a in enumerate(enumerate_dm_lattices(n))]
    for name, alg in algebras:
        for f in enumerate_filters(alg):
            checks += 1
            a, b = leibniz_unary(alg, f), leibniz_unary_poly(alg, f)
            if a.rep != b.rep:
                violations.append(f"unary {name} F={f:#x}: by-refinement {a.rep}"
                                  f" vs by-polynomials {b.rep}")
        if alg.size <= BINARY_MAX_SIZE:
            for relname, rows in _binary_relation_family(alg):
                checks += 1
                a, b = leibniz_binary(alg, rows), leibniz_binary_poly(alg, rows)
                if a.rep != b.rep:
                    violations.append(f"binary {name} {relname}: by-refinement {a.rep}"
                                      f" vs by-polynomials {b.rep}")
    return _report("leibniz-crosscheck",
                   {"max_size": max_size, "binary_max_size": BINARY_MAX_SIZE},
                   checks, violations, started)


# ---------------------------------------------------------------------------
# Suite: facts.  The finitely checkable content of the structural facts.

FACTS_MAX_SIZE = 5  # the facts are checked on census algebras up to this size
PAIR_SIZE = 4  # two-relation model intersections are checked up to this size


def suite_facts() -> dict:
    started = time.perf_counter()
    violations = []
    checks = 0
    bd_rules = system("BD-base").named_rules()

    # model intersection: filters are exactly the truth-base models, and
    # intersections of models stay models
    bd_sweep = ModelSweep(system("BD-base"))
    for alg in census_pool(FACTS_MAX_SIZE):
        filters = enumerate_filters(alg)
        models = {t for (t,) in bd_sweep.free_models(alg, [range(1 << alg.size)])}
        if sorted(models) != sorted(filters):
            violations.append(f"|A|={alg.size}: truth-base models differ from lattice filters")
        for f1, f2 in iproduct(filters, repeat=2):
            checks += 1
            if f1 & f2 not in models:
                violations.append(f"|A|={alg.size}: intersection {f1:#x}&{f2:#x} not a model")

    # intersection for two-relation models (truth / exact truth); the sweep
    # orders the relations E, T, the pairs here are (T, E)
    bde_sweep = ModelSweep(system("BDE"))
    for alg in census_pool(PAIR_SIZE):
        models = sorted((t, e) for e, t in bde_sweep.free_models(alg, [range(1 << alg.size)] * 2))
        model_set = set(models)
        for (t1, e1), (t2, e2) in combinations(models, 2):
            checks += 1
            if (t1 & t2, e1 & e2) not in model_set:
                violations.append(f"|A|={alg.size}: BDE model intersection fails")

    # reduct invariance: S is a model iff S/theta is, for theta below the
    # Leibniz congruence; and the reduct is reduced
    for alg in census_pool(FACTS_MAX_SIZE):
        congs = congruences(alg)
        for t in range(1 << alg.size):
            s = structure(alg, {"T": t})
            theta_l = leibniz_structure(s)
            was_model = is_model(s, bd_rules)[0]
            for theta in congs:
                if not theta.refines(theta_l):
                    continue
                checks += 1
                q, _ = quotient_structure(s, theta)
                if is_model(q, bd_rules)[0] != was_model:
                    violations.append(f"|A|={alg.size} T={t:#x}: model status changes under quotient")
            red, _ = quotient_structure(s, theta_l)
            if not leibniz_structure(red).is_identity:
                violations.append(f"|A|={alg.size} T={t:#x}: reduct not reduced")
            red2, _ = reduct(red)
            if red2 != red:
                violations.append(f"|A|={alg.size} T={t:#x}: reduct not idempotent")

    # explicit description of the Leibniz congruence of a truth-filter model
    for alg in census_pool(FACTS_MAX_SIZE):
        for t in enumerate_filters(alg):
            checks += 1
            omega = leibniz_unary(alg, t)
            n = alg.size
            for a in range(n):
                for b in range(n):
                    described = all(
                        (((t >> alg.join[a][c]) & 1) == ((t >> alg.join[b][c]) & 1))
                        and (((t >> alg.join[alg.neg[a]][c]) & 1)
                             == ((t >> alg.join[alg.neg[b]][c]) & 1))
                        for c in range(n))
                    if described != omega.relates(a, b):
                        violations.append(
                            f"|A|={n} T={t:#x}: join/negation description differs at ({a},{b})")

    # model invariance under reducts, for every core catalogued system
    for sys_name in CORE_SINGLE_CONCLUSION + ("MC-BD", "MC-bridges", "MC-ETL"):
        sysd = system(sys_name)
        rules = sysd.named_rules()
        for alg in census_pool(3):
            for cand in candidate_structures(sysd, alg):
                checks += 1
                was_model = is_model(cand, rules)[0]
                red, _ = reduct(cand)
                if is_model(red, rules)[0] != was_model:
                    violations.append(
                        f"{sys_name} on |A|={alg.size}: reduct changes model status")

    # prime-filter reducts embed into the four-element targets
    dm4_t = structure(builtin("DM4"), {"T": (0, 1)})
    dm4_tnf = structure(builtin("DM4"), {"T": (0, 1), "NF": (0, 3)})
    for alg in census_pool(FACTS_MAX_SIZE):
        full = (1 << alg.size) - 1
        for t in enumerate_filters(alg, prime_only=True):
            checks += 1
            s = structure(alg, {"T": t})
            red, _ = reduct(s)
            if not _embeds_into(red, dm4_t):
                violations.append(f"|A|={alg.size} prime T={t:#x}: reduct does not embed")
            nf = full & ~sum(1 << alg.neg[a] for a in mask_iter(t))
            if not is_prime_filter(alg, nf):
                violations.append(f"|A|={alg.size} prime T={t:#x}: complement of ~[T] not prime")
                continue
            if leibniz_unary(alg, t).rep != leibniz_unary(alg, nf).rep:
                violations.append(f"|A|={alg.size} prime T={t:#x}: Leibniz of T and NF differ")
            s2 = structure(alg, {"T": t, "NF": nf})
            red2, _ = reduct(s2)
            if not _embeds_into(red2, dm4_tnf):
                violations.append(f"|A|={alg.size} prime T={t:#x}: two-predicate reduct does not embed")

    return _report("facts", {"max_size": FACTS_MAX_SIZE, "pair_size": PAIR_SIZE},
                   checks, violations, started)


# ---------------------------------------------------------------------------
# Suite: subdirect.

def suite_subdirect(max_size: int = 6) -> dict:
    started = time.perf_counter()
    violations = []
    checks = 0
    targets = {canonical_key(builtin(name)) for name in ("B2", "K3", "DM4")}
    for n in range(1, max_size + 1):
        for i, alg in enumerate(enumerate_dm_lattices(n)):
            checks += 1
            emb = subdirect_embedding(alg)
            if not emb.is_injective:
                violations.append(f"census{n}.{i}: embedding not injective")
            for hom in emb.homs:
                ok, witness = hom.check(include_constants=False)
                if not ok:
                    violations.append(f"census{n}.{i}: coordinate not a homomorphism ({witness})")
                image = hom.image()
                sub, _ = subalgebra(builtin("DM4"), image)
                if canonical_key(sub) not in targets:
                    violations.append(
                        f"census{n}.{i}: coordinate image {image} not one of the three generators")
    return _report("subdirect", {"max_size": max_size}, checks, violations, started)


# ---------------------------------------------------------------------------
# Suites: classification and mc-classification.

def _classify_one(args: tuple[str, int]) -> dict:
    name, size = args
    return classify_models(system(name), size).to_json()


def _classification(names: Sequence[str], size: int, suite: str, jobs: int = 1) -> dict:
    started = time.perf_counter()
    violations = []
    checks = 0
    details = {}
    tasks = [(name, size) for name in names]
    workers = min(jobs, len(tasks))
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            reports = pool.map(_classify_one, tasks)
    else:
        reports = [_classify_one(t) for t in tasks]
    for rep in reports:  # pool.map preserves task order, so merging is deterministic
        checks += rep["structures"]
        violations.extend(f"{rep['system']}: {v}" for v in rep["violations"])
        details[rep["system"]] = {"structures": rep["structures"], "models": rep["models"]}
    return _report(suite, {"systems": list(names), "size": size, "jobs": jobs},
                   checks, violations, started, {"systems": details})


def _classified(kind: str) -> list[str]:
    return [n for n in CLASSIFIED_FAMILIES + CLASSIFIED_VARIANTS if system(n).kind == kind]


def suite_classification(size: int = 4, jobs: int = 1) -> dict:
    return _classification(_classified("single-conclusion"), size, "classification", jobs)


def suite_mc_classification(size: int = 4, jobs: int = 1) -> dict:
    return _classification(_classified("multiple-conclusion"), size, "mc-classification", jobs)


# ---------------------------------------------------------------------------
# Premise-set tables.  Translation, extension, engine-soundness and
# completeness-evidence decide "premise set j entails conclusion c" over a
# bounded rule space for every pair at once: each formula holds an int
# bitset over the premise sets, and a structure is evaluated on the grid of
# the space's variables (``SPACE_VARIABLES``).

def _premise_sets(n_formulas: int, max_premises: int) -> tuple[list[tuple[int, ...]], list[int], int]:
    """Premise set j is the j-th ``combinations(range(n_formulas), k)`` item
    for k = 0..max_premises; bit j of ``seeds[f]`` says formula f is in set
    j, and ``full`` has one bit per set."""
    sets = [prem for k in range(max_premises + 1) for prem in combinations(range(n_formulas), k)]
    # set bits in bytearrays: OR-ing 1 << j into an int copies the whole int
    seeds = [bytearray(len(sets) // 8 + 1) for _ in range(n_formulas)]
    for j, prem in enumerate(sets):
        for p in prem:
            seeds[p][j >> 3] |= 1 << (j & 7)
    return sets, [int.from_bytes(b, "little") for b in seeds], (1 << len(sets)) - 1


class _Table:
    """The premise-set table over a bounded rule space's formulas: its
    premise sets, seeds and ``full`` as ``_premise_sets`` gives them."""

    def __init__(self, formulas: list[Formula], max_premises: int):
        self.formulas = formulas
        self.sets, self.seeds, self.full = _premise_sets(len(formulas), max_premises)

    def refuted(self, st: Structure, formulas: Sequence[Formula] | None = None) -> list[int]:
        """Per conclusion c, the premise sets j for which ``sets[j] |- c``
        fails in st, reading formula i as ``formulas[i]`` if given: the OR,
        over the grid points where c fails, of the sets all of whose
        members hold there."""
        bitmaps = [formula_bitmap(st, f, SPACE_VARIABLES) for f in formulas or self.formulas]
        refuted = [0] * len(bitmaps)
        for v in range(st.algebra.size ** len(SPACE_VARIABLES)):
            fails = [f for f, bm in enumerate(bitmaps) if not (bm >> v) & 1]
            sat = self.full  # the premise sets all of whose members hold at v
            for f in fails:
                sat &= ~self.seeds[f]
            for c in fails:
                refuted[c] |= sat
        return refuted

    def rule(self, j: int, c: int) -> Rule:
        return Rule(frozenset(self.formulas[p] for p in self.sets[j]), frozenset({self.formulas[c]}))


def _pairs(per_conclusion) -> list[tuple[int, int]]:
    """The (premise set, conclusion) pairs set in a per-conclusion table, in order."""
    return sorted((j, c) for c, bits in enumerate(per_conclusion) for j in mask_iter(bits))


RULE_SPACE_BUDGET = 2_000_000  # raw rules a goal sweep may cover: premise sets x (formulas + 1)


def _valid_goals(sysd: AxiomSystem, bounds: RuleSpaceBounds) -> list[Rule]:
    """The single-conclusion rules of the bounded space valid in the
    system's preset, one per renaming class (its ``canonical_rule``), in the
    order in which each class first appears in the premise-set table.

    Validity does not change under renaming, so a class is valid or not as
    a whole and its first valid pair is its first pair.  A space larger
    than ``RULE_SPACE_BUDGET`` raises ``RuleSpaceBudgetError``.
    """
    formulas = formulas_within(bounds)
    f = len(formulas)
    if sum(comb(f, k) for k in range(bounds.max_premises + 1)) * (f + 1) > RULE_SPACE_BUDGET:
        raise RuleSpaceBudgetError("rule space exceeds the configured budget")
    table = _Table(formulas, bounds.max_premises)
    refuted = table.refuted(preset_structure(sysd.preset))
    goals: dict[Rule, None] = {}
    for j, c in _pairs(table.full & ~r for r in refuted):
        goals.setdefault(canonical_rule(table.rule(j, c)))
    return list(goals)


# ---------------------------------------------------------------------------
# Suite: translation.  The exact-truth-to-equation device preserves and
# reflects validity between its two presets, over the full bounded rule
# space (a superset of the renaming-deduplicated stream, which can only
# make the check stronger).

def suite_translation(max_premises: int = 2, sample: int = 500, seed: int = 0) -> dict:
    started = time.perf_counter()
    bounds = RuleSpaceBounds(max_depth=1, max_premises=max_premises,
                             predicates=frozenset({"T", "E", "eq"}))
    table = _Table(formulas_within(bounds), max_premises)
    src = preset_structure("BDE-eq")
    tgt = preset_structure("BD-eq+t")
    src_ref = table.refuted(src)
    tgt_ref = table.refuted(tgt, [translate_exact_to_eq_formula(f) for f in table.formulas])
    violations = [f"mismatch on {print_rule(table.rule(j, c))}"
                  for j, c in _pairs(s ^ t for s, t in zip(src_ref, tgt_ref))]
    # bind the table to decide() on a seeded sample
    findex = {f: i for i, f in enumerate(table.formulas)}
    for r in _rule_sample(table.formulas, max_premises, random.Random(seed), sample):
        containing = table.full  # the premise sets containing r's premises; the least is r's own
        for p in r.premises:
            containing &= table.seeds[findex[p]]
        j = (containing & -containing).bit_length() - 1
        v_src = decide(src, r).valid
        v_tgt = decide(tgt, translate_exact_to_eq(r)).valid
        if v_src != v_tgt:
            violations.append(f"sample mismatch on {print_rule(r)}")
        if v_src == bool((src_ref[findex[r.conclusion]] >> j) & 1):
            violations.append(f"bitmap/decide disagreement on {print_rule(r)}")
    return _report("translation", {"max_premises": max_premises, "sample": sample, "seed": seed},
                   len(table.sets) * len(table.formulas), violations, started)


# ---------------------------------------------------------------------------
# Suite: derivability (certificates for the documented derivations, plus
# certificate-checker mutation coverage).

MUTATIONS_NEEDED = 100  # single-edge certificate mutations that must be rejected


def suite_derivability(depth: int = 8, seed: int = 0) -> dict:
    started = time.perf_counter()
    violations = []
    checks = 0
    goals = [
        ("BDE", r"E(x /\ (~x \/ y)) |- E(y)"),
        ("TNE-bridge", "T(x), NF(x) |- E(x)"),
        ("TNE-bridge", "E(x) |- T(x)"),
        ("TNE-bridge", "E(x) |- NF(x)"),
    ]
    certificates = []
    for sys_name, text in goals:
        sysd = system(sys_name)
        r = parse_rule(text, sysd.signature)
        d = derive(sysd, r, depth)
        checks += 1
        if d is None or d.depth > depth:
            violations.append(f"{sys_name}: no certificate for {text!r} within depth {depth}")
            continue
        ok, msg = check_derivation(sysd, d, r)
        if not ok:
            violations.append(f"{sys_name}: emitted certificate rejected: {msg}")
        certificates.append((sysd, d, r))

    # harvest further certificates until at least MUTATIONS_NEEDED edges exist
    rng = random.Random(seed)
    bde = system("BDE")
    bounds = RuleSpaceBounds(max_depth=1, max_premises=2, predicates=frozenset({"T", "E"}))
    pool = [r for r in _rule_sample(formulas_within(bounds), bounds.max_premises, rng, 400)
            if decide("BDE", r).valid]
    edges = sum(len(edge_mutations(d)) for _, d, _ in certificates)
    for r in pool:
        if edges >= MUTATIONS_NEEDED:
            break
        d = derive(bde, r, 4)
        if d is not None and check_derivation(bde, d, r)[0]:
            certificates.append((bde, d, r))
            edges += len(edge_mutations(d))

    mutated = 0
    for sysd, d, r in certificates:
        for m in edge_mutations(d):
            if mutated >= MUTATIONS_NEEDED:
                break
            mutated += 1
            checks += 1
            if check_derivation(sysd, m, r)[0]:
                violations.append(f"{sysd.name}: a single-edge mutation was accepted")
    if mutated < MUTATIONS_NEEDED:
        violations.append(f"only {mutated} mutations available, needed {MUTATIONS_NEEDED}")
    return _report("derivability", {"depth": depth, "mutations": MUTATIONS_NEEDED},
                   checks, violations, started, {"mutations_rejected": mutated})


def _rule_sample(formulas: Sequence[Formula], max_premises: int, rng: random.Random,
                 count: int) -> list[Rule]:
    out = []
    for _ in range(count):
        k = rng.randint(0, max_premises)
        prem = rng.sample(formulas, k) if k else []
        conc = rng.choice(formulas)
        out.append(Rule(frozenset(prem), frozenset({conc})))
    return out


# ---------------------------------------------------------------------------
# Suite: engine-soundness.  Saturate every bounded premise set with the
# ground scheme instances over the formulas and terms of the bounded rule
# space (term depth 1, or 0 for the constant variants); every fact reached
# within the depth must be semantically valid.  The instances come from
# derive's Grounder over the space's terms as hash-consed nodes, mapped
# to formula indices, so this checks the shared grounder and the closure on
# that space.  It does not cover every derive() call: derive's universe
# for a goal can leave the space (for E(x /\ (~x \/ y)) |- E(y) in BDE,
# 81 of its 89 terms lie outside the space's 12).

def _ground_program(sysd: AxiomSystem, formulas: list[Formula], universe) -> list[tuple[tuple[int, ...], int]]:
    findex = {f: i for i, f in enumerate(formulas)}
    lookup, index = findex.get, findex.__getitem__
    by_pred: dict[str, list[Formula]] = {}
    for f in findex:
        by_pred.setdefault(f.pred, []).append(f)
    ground: set[tuple[tuple[int, ...], int]] = set()
    for _, _, matched, concl in Grounder(sysd, Universe(universe)).instances(by_pred):
        ci = lookup(concl)
        if ci is not None:
            prems = tuple(sorted(set(map(index, matched))))
            if ci not in prems:
                ground.add((prems, ci))
    # the order of sorted(ground), read from one int per rule: the premises
    # as base-(n + 1) digits one above their indices, padded with zeros to
    # the widest scheme (so a tuple sorts before its extensions), then the
    # conclusion as the last digit
    base = len(formulas) + 1
    width = max((len(s.rule.premises) for s in sysd.schemes), default=0)
    scale = [base ** (width + 1 - k) for k in range(width + 1)]

    def key(rule: tuple[tuple[int, ...], int]) -> int:
        prems, concl = rule
        k = 0
        for p in prems:
            k = k * base + p + 1
        return k * scale[len(prems)] + concl
    program = list(ground)
    del ground  # so the set's table and the sort keys are never held at once
    program.sort(key=key)
    return program


class _Levels(list):
    """Per formula, the bitset of premise sets reaching it; ``rounds``
    counts the rounds that changed it."""
    rounds = 0


def _horn_closure(ground, seeds: Sequence[int], depth: int, full: int) -> _Levels:
    """Saturate every premise set at once (Dowling & Gallier 1984): bit j of
    ``seeds[f]``, and of the result's entry f, says formula f is in, or is
    reached from, premise set j.  Rounds are synchronous, so a fact's round
    is one past its latest premise; zero-premise rules fire for all (``full``).

    The program is split once.  A rule of one to three premises joins a
    group headed by its first two premises, whose tail holds the third
    premise and the conclusion of each of its rules as two ints; a rule (a)
    reads as (a, a, a) and a rule (a, b) as (a, b, a).  A rule whose first
    two premises differ from the last group's heads a new group, so each
    pair in ``_ground_program``'s sorted output heads one group.  A round
    ANDs each group's pair once, skips the group when that is 0, and ORs
    the pair ANDed with each third premise into its conclusion, skipping a
    0.  This is exact in any order: AND is associative, commutative and
    idempotent, so the grouped AND is the rule's, and OR is idempotent and
    commutative, so the order of the ORs, and leaving out ``| 0``, change
    no entry.  Rules of no premise or of more than three AND their
    premises from ``full``.
    """
    wide: list[tuple[tuple[int, ...], int]] = []
    heads: list[int] = []  # a, b of each group in turn
    tails: list[list[int]] = []
    head = None
    for prems, concl in ground:
        if 0 < len(prems) <= 3:
            a, b, c = prems if len(prems) == 3 else (prems * 3)[:3]
            if (a, b) != head:
                head, tail = (a, b), []
                heads += head
                tails.append(tail)
            tail += (c, concl)
        else:
            wide.append((prems, concl))
    level = _Levels(seeds)
    for _ in range(depth):
        nxt = level[:]
        for prems, concl in wide:
            reach = full
            for p in prems:
                reach &= level[p]
            nxt[concl] |= reach
        pairs = iter(heads)
        for a, b, tail in zip(pairs, pairs, tails):
            pair = level[a] & level[b]
            if pair:
                thirds = iter(tail)
                for c, concl in zip(thirds, thirds):
                    reach = pair & level[c]
                    if reach:
                        nxt[concl] |= reach
        if nxt == level:
            break
        level[:] = nxt
        level.rounds += 1
    return level


def suite_engine_soundness(depth: int = 4, systems_run: Sequence[str] | None = None) -> dict:
    started = time.perf_counter()
    violations = []
    checks = 0
    stats = {}
    phases = {"ground_s": 0.0, "closure_s": 0.0}
    # (system, term depth), at most two premises; constant variants run at
    # term depth 0, where the space stays desk-scale but constants are exercised
    runs: list[tuple[str, int]] = [(n, 1) for n in (systems_run or CORE_SINGLE_CONCLUSION)]
    if systems_run is None:
        runs += [(n, 0) for n in VARIANT_SMOKE]
    for sys_name, term_depth in runs:
        sysd = system(sys_name)
        bounds = RuleSpaceBounds(max_depth=term_depth, max_premises=2,
                                 predicates=sysd.signature.relations,
                                 constants=sysd.signature.constants)
        terms = terms_within(bounds)
        formulas = formulas_over(bounds.predicates, terms)
        clock = time.perf_counter()
        ground = _ground_program(sysd, formulas, terms)
        phases["ground_s"] += time.perf_counter() - clock
        # built after grounding, so the premise sets are not held while it peaks
        table = _Table(formulas, bounds.max_premises)
        clock = time.perf_counter()
        level = _horn_closure(ground, table.seeds, depth, table.full)
        phases["closure_s"] += time.perf_counter() - clock
        reached = [lv & ~s for lv, s in zip(level, table.seeds)]
        refuted = table.refuted(preset_structure(sysd.preset))
        for j, c in _pairs(a & b for a, b in zip(reached, refuted)):
            violations.append(f"{sys_name}: derived but invalid: {print_rule(table.rule(j, c))}")
        derived = sum(r.bit_count() for r in reached)
        checks += derived
        stats[sys_name] = {"ground_rules": len(ground), "premise_sets": len(table.sets),
                           "closure_rounds": level.rounds, "derived_pairs": derived}
    return _report("engine-soundness", {"depth": depth, "runs": [r[0] for r in runs]},
                   checks, violations, started, {"stats": stats}, phases)


# ---------------------------------------------------------------------------
# Suite: extension.  Every truth rule valid in the four-valued base logic
# stays valid in its three catalogued extensions.

def suite_extension(max_premises: int = 2) -> dict:
    started = time.perf_counter()
    bounds = RuleSpaceBounds(max_depth=1, max_premises=max_premises, predicates=frozenset({"T"}))
    table = _Table(formulas_within(bounds), max_premises)

    def refuted(preset: str, pred: str = "T") -> list[int]:
        return table.refuted(preset_structure(preset), [Formula(pred, f.args) for f in table.formulas])

    base = refuted("BD")
    extensions = {"ETL": refuted("ETL", "E"), "K": refuted("K"), "LP": refuted("LP")}
    checks = sum((table.full & ~b).bit_count() for b in base)
    # a pair's lines follow the presets' order above, which is also name order
    lost = sorted((j, c, name) for name, ext in extensions.items()
                  for j, c in _pairs(x & ~b for x, b in zip(ext, base)))
    violations = [f"{name} loses base-valid rule {print_rule(table.rule(j, c))}"
                  for j, c, name in lost]
    return _report("extension", {"max_premises": max_premises}, checks, violations, started)


# ---------------------------------------------------------------------------
# Suite: completeness-evidence (bounded; gaps are logged, never failed).

def suite_completeness_evidence(system_name: str = "BDE", max_depth_terms: int = 1,
                                max_premises: int = 2, derive_depth: int = 6,
                                max_terms: int = 120) -> dict:
    """Try to re-derive every semantically valid rule in a bounded space.

    One-sided by construction: a miss lands in known_gaps, never in the
    violation list.  The default space (two variables, term depth 1, up
    to two premises) sweeps in seconds; term depth 2 is feasible with
    max_premises=1 and is exposed through the parameters.  The goals are
    the space's valid rules as read from the premise-set table
    (``_valid_goals``); ``derive`` is tried on each.
    """
    started = time.perf_counter()
    sysd = system(system_name)
    bounds = RuleSpaceBounds(max_depth=max_depth_terms, max_premises=max_premises,
                             predicates=sysd.signature.relations,
                             constants=sysd.signature.constants)
    goals = _valid_goals(sysd, bounds)
    gaps = [print_rule(r) for r in goals
            if derive(sysd, r, derive_depth, max_terms=max_terms) is None]
    return _report("completeness-evidence",
                   {"system": system_name, "term_depth": max_depth_terms,
                    "max_premises": max_premises, "derive_depth": derive_depth,
                    "max_terms": max_terms},
                   len(goals), [], started,
                   {"confirmed": len(goals) - len(gaps), "known_gaps": gaps})


# ---------------------------------------------------------------------------
# Suite: roundtrip.

def random_term(rng: random.Random, variables: Sequence[str], constants: Sequence[str],
                depth: int):
    if depth == 0 or rng.random() < 0.3:
        if constants and rng.random() < 0.2:
            return Const(rng.choice(constants))
        return Var(rng.choice(variables))
    op = rng.randrange(3)
    if op == 0:
        return Neg(random_term(rng, variables, constants, depth - 1))
    left = random_term(rng, variables, constants, depth - 1)
    right = random_term(rng, variables, constants, depth - 1)
    return Meet(left, right) if op == 1 else Join(left, right)


def random_formula(rng: random.Random, preds: Sequence[str], variables, constants, depth):
    pred = rng.choice(preds)
    if pred == "eq":
        return Formula("eq", (random_term(rng, variables, constants, depth),
                              random_term(rng, variables, constants, depth)))
    return Formula(pred, (random_term(rng, variables, constants, depth),))


def random_rule(rng: random.Random, max_vars: int = 3, max_depth: int = 3,
                max_premises: int = 3, max_conclusions: int = 2) -> Rule:
    variables = ["x", "y", "z", "w"][:max(1, max_vars)]
    constants = ["#t", "#n", "#b"]
    preds = ["T", "E", "NF", "eq"]
    prems = [random_formula(rng, preds, variables, constants, rng.randint(0, max_depth))
             for _ in range(rng.randint(0, max_premises))]
    concs = [random_formula(rng, preds, variables, constants, rng.randint(0, max_depth))
             for _ in range(rng.randint(0, max_conclusions))]
    return Rule(frozenset(prems), frozenset(concs))


def golden_corpus() -> list[str]:
    """Canonical texts of every catalogued axiom plus the displayed rules."""
    texts = []
    for name in all_system_names():
        for _, r in system(name).named_rules():
            texts.append(print_rule(r))
    for text, preset, _, _ in LEDGER_RULES:
        st = preset_structure(preset)
        texts.append(print_rule(parse_rule(text, st.signature())))
    return sorted(set(texts))


ROUNDTRIP_COUNT = 10000  # generated rules per round trip run


def suite_roundtrip(seed: int = 0) -> dict:
    started = time.perf_counter()
    rng = random.Random(seed)
    violations = []
    checks = 0
    for i in range(ROUNDTRIP_COUNT):
        r = random_rule(rng)
        checks += 1
        text = print_rule(r)
        back = parse_rule(text)
        if back != r:
            violations.append(f"parse(print) changed rule #{i}: {text!r}")
    for text in golden_corpus():
        checks += 1
        again = print_rule(parse_rule(text))
        if again != text:
            violations.append(f"print(parse) not idempotent on {text!r} -> {again!r}")
    return _report("roundtrip", {"count": ROUNDTRIP_COUNT, "seed": seed}, checks, violations, started)


# ---------------------------------------------------------------------------
# Registry and runner.

SUITES: dict[str, Callable[..., dict]] = {
    "soundness": suite_soundness,
    "rule-ledger": suite_rule_ledger,
    "leibniz-crosscheck": suite_leibniz_crosscheck,
    "facts": suite_facts,
    "subdirect": suite_subdirect,
    "classification": suite_classification,
    "mc-classification": suite_mc_classification,
    "translation": suite_translation,
    "derivability": suite_derivability,
    "engine-soundness": suite_engine_soundness,
    "extension": suite_extension,
    "completeness-evidence": suite_completeness_evidence,
    "roundtrip": suite_roundtrip,
}


def run_suite(name: str, **kwargs) -> dict:
    fn = SUITES.get(name)
    if fn is None:
        raise UsageError(f"unknown verification suite {name!r}")
    return fn(**kwargs)
