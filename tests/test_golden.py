"""Golden digests: outputs pinned byte for byte.

Each digest is the sha256 of a canonical JSON text of one family of
outputs: decide verdicts, derivation certificates, the `leibniz` command's
JSON reports and suite reports without their "timings" block.  Each was
computed before the change it guards (the first ones before terms and
formulas were hash-consed), so a change that alters any of these outputs,
even only their order, fails here.  A change meant to alter them
recomputes the digest with `_digest` and says why.
"""

import hashlib
import json
import random
from itertools import combinations

import pytest

from fourval import cli, engine, structures, systems, verify
from fourval.syntax import (Formula, Join, Meet, Neg, Rule, Var, apply_subst, formula_text,
                            print_rule)

DECIDE_PRESETS = ("TNE+tnb", "BDE-eq+tnb", "BDNF-eq+tnb")
DECIDE_RULES = 1000  # per preset
DECIDE_DIGEST = "b9c3215afbc8daf7af48cdc5bfe1862149e2cadf30de914990cc3b6ec683fa01"

DERIVE_SYSTEM = "BDE"
DERIVE_DEPTH = 6
DERIVE_STRIDE = 30  # every 1-premise goal, every 30th 2-premise goal
DERIVE_GOALS = 122
DERIVE_DIGEST = "52eb292370db3f5140fe6f6c9650e7be269dab3cc280ab066f1329ffaba5f107"

# the suites that take about a second or less at their defaults; the
# engine-soundness report is pinned in tests/test_acceptance.py (criterion
# 9), as are the size-5 classification reports, and completeness-evidence
# is pinned below at three configurations that take a second or less
SUITE_DIGESTS = {
    "soundness": "971182a5cd726a77715ea539f5eb693a7b3637c8d21aa09ca26617d174b462c9",
    "rule-ledger": "b93a7d69568974b2f08bbc7d1229a262fd4b4a1cf375604a86f6bbb3eb7bcc2e",
    "leibniz-crosscheck": "65cbddff8dff12f53dc02a73946f56d100d9f0c178e8f4c6e970f3f1201c1836",
    "facts": "73e2286b62c8019ef5db8e9de271c1eee7d635c97637ceb5300ab506b12ff815",
    "subdirect": "2e0f555c648c9cb03fc42d13f09ba5a452ffb69e521aa5f3e0fbca8311ceccf2",
    "classification": "4dd277668ccc1f8f1ff087978ec450b1680737d5adc2ee8d27dafce26f8b02f3",
    "mc-classification": "55d6118e17ada382ad8ab9f6e5f6bc29e03ec6b2835eb1bbab640bfc288110e5",
    "translation": "4ca5d6c91b886dc015962275e923dce83608aadfb0011a47ef91a613e486a0dc",
    "derivability": "ddef3aceebee5476f419d8446db0258c0c981e683d7538a64adaf902ebafb4e3",
    "extension": "a871f9b43857c3d777b9994270622354a8c01dcc5605d4dab9b79810193a7f58",
    "roundtrip": "95e134d1bedcd0cdfdc56fba79bca97552c04d9313d9cfb0dcc6b2499fb94397",
}

# the classification and mc-classification reports at size 6, one size past
# the acceptance pins: 52,876,464 and 62,968 checks
CLASSIFICATION_6_DIGESTS = {
    "classification": "28c3a94d98316cf7970694a4d2c7f31df3809ec69931c1c31b9a28e693c85b28",
    "mc-classification": "25cc0d88f9e089eddcb66570422343707e6b43b34056b2761ad20aa4b2590eaa",
}

# the same reports at size 7, with their check counts; no violations
CLASSIFICATION_7_PINS = {
    "classification": (213_382_320, "60fe9dc3b5575635d8182a0ca1f3144c1ce2132d5c263ae4c29f1515f25877a6"),
    "mc-classification": (151_032, "dbb932927067fbc23db21532d8cc7681be0d73a77920bbe4ee0484b39b55e081"),
}

# [system, term depth, ground rules] of every engine-soundness run's ground
# program, each rule as [premise formula indices, conclusion index]
GROUND_PROGRAMS_DIGEST = "f020d00c3ab454de02025442f5f2abc1580153e31eebe94d2ca1872c950819f7"

# [preset, exit code, report] of `fourval --output json leibniz --preset P`
# for every preset name
LEIBNIZ_DIGEST = "12e6285b4c288ccf2a4e12c3f4ebb9f4747e054240d81eafd21a80530b73c427"
# the same for every preset with the constants t, n, b added (`P+t`), whose
# reducts quotient the constants too
LEIBNIZ_CONSTANTS_DIGEST = "03b43dd389e907db577cdf549416a63da3448e29a86150829f1face258270f03"

# (system, arguments, checks, known gaps, digest); the ETL-base gaps pin
# the gap texts and their order
COMPLETENESS_RUNS = [
    ("BDE", {"max_depth_terms": 1, "max_premises": 1, "derive_depth": 4, "max_terms": 30}, 84, 0,
     "7a2f5d4a62d7acd06bf25de902bc51a7926ae2fedbbfd9f78f957f2221f806c9"),
    ("ETL-base", {}, 295, 26, "4a5b6acbeef2208590541db0c24f5483654ddc066f532e86303a0f914838227f"),
    ("BDE+tnb", {"max_depth_terms": 0}, 257, 39,
     "b07d4dda68fb1eebf87239ca7c5ad25e9c4e3cf2bb2654e52012027af843912e"),
]


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def decide_records() -> list:
    """[preset, rule text, valid, counter-valuation, failed conclusions] of
    a seeded set of rules over each preset's own signature."""
    rng = random.Random(11)
    out = []
    for preset in DECIDE_PRESETS:
        st = structures.preset_structure(preset)
        sigspec = st.signature()
        preds, constants = sorted(sigspec.relations), sorted(sigspec.constants)
        for _ in range(DECIDE_RULES):
            variables = rng.sample(("x", "y", "z"), rng.randint(1, 3))
            prems = [verify.random_formula(rng, preds, variables, constants, rng.randint(0, 2))
                     for _ in range(rng.randint(0, 3))]
            concs = [verify.random_formula(rng, preds, variables, constants, rng.randint(0, 2))
                     for _ in range(rng.randint(0, 2))]
            r = Rule(frozenset(prems), frozenset(concs))
            v = engine.decide(st, r)
            out.append([preset, print_rule(r), v.valid, v.valuation,
                        [formula_text(c) for c in v.failed_conclusions or ()]])
    return out


def derive_goals() -> list[Rule]:
    """Valid single-conclusion BDE rules over x and y with term depth <= 1
    and one or two premises, one per renaming class."""
    st = structures.preset_structure(systems.system(DERIVE_SYSTEM).preset)
    x, y = Var("x"), Var("y")
    atoms = [x, y]
    terms = atoms + [Neg(a) for a in atoms]
    terms += [Meet(a, b) for a in atoms for b in atoms] + [Join(a, b) for a in atoms for b in atoms]
    formulas = [Formula(p, (t,)) for p in ("T", "E") for t in terms]
    swap = {"x": y, "y": x}
    seen: set[Rule] = set()
    pools: dict[int, list[Rule]] = {1: [], 2: []}
    for k in (1, 2):
        for prems in combinations(formulas, k):
            for concl in formulas:
                r = Rule(frozenset(prems), frozenset({concl}))
                if concl in prems or r in seen or not engine.decide(st, r).valid:
                    continue
                seen.add(r)
                seen.add(apply_subst(r, swap))
                pools[k].append(r)
    return pools[1] + pools[2][::DERIVE_STRIDE]


def derive_records() -> list:
    """[goal text, certificate or None] per goal."""
    sysd = systems.system(DERIVE_SYSTEM)
    out = []
    for r in derive_goals():
        d = engine.derive(sysd, r, DERIVE_DEPTH)
        out.append([print_rule(r), None if d is None else engine.derivation_to_json(d)])
    return out


def ground_program_records() -> list:
    """[system, term depth, ground program] of the engine-soundness runs:
    the core systems at term depth 1, the constant variants at depth 0."""
    runs = [(n, 1) for n in verify.CORE_SINGLE_CONCLUSION]
    runs += [(n, 0) for n in verify.VARIANT_SMOKE]
    out = []
    for name, term_depth in runs:
        sysd = systems.system(name)
        bounds = engine.RuleSpaceBounds(max_depth=term_depth, max_premises=2,
                                        predicates=sysd.signature.relations,
                                        constants=sysd.signature.constants)
        terms = engine.terms_within(bounds)
        formulas = engine.formulas_over(bounds.predicates, terms)
        out.append([name, term_depth, verify._ground_program(sysd, formulas, terms)])
    return out


def suite_record(name: str, **kwargs) -> dict:
    report = verify.run_suite(name, **kwargs)
    report.pop("timings")
    return report


def test_decide_verdicts_are_pinned():
    records = decide_records()
    assert len(records) == len(DECIDE_PRESETS) * DECIDE_RULES
    assert _digest(records) == DECIDE_DIGEST


def test_derivation_certificates_are_pinned():
    records = derive_records()
    assert len(records) == DERIVE_GOALS
    assert all(cert is not None for _, cert in records)
    assert _digest(records) == DERIVE_DIGEST


def test_engine_soundness_ground_programs_are_pinned():
    records = ground_program_records()
    assert len(records) == 20
    assert _digest(records) == GROUND_PROGRAMS_DIGEST


def leibniz_records(capsys, suffix: str) -> list:
    records = []
    for preset in structures.preset_names():
        code = cli.main(["--output", "json", "leibniz", "--preset", preset + suffix])
        records.append([preset + suffix, code, json.loads(capsys.readouterr().out)])
    assert len(records) == 16
    return records


def test_leibniz_reports_are_pinned(capsys):
    assert _digest(leibniz_records(capsys, "")) == LEIBNIZ_DIGEST


def test_leibniz_reports_with_constants_are_pinned(capsys):
    assert _digest(leibniz_records(capsys, "+t")) == LEIBNIZ_CONSTANTS_DIGEST


@pytest.mark.parametrize("name", sorted(SUITE_DIGESTS))
def test_suite_reports_are_pinned(name):
    assert _digest(suite_record(name)) == SUITE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CLASSIFICATION_6_DIGESTS))
def test_classification_reports_at_size_6_are_pinned(name):
    assert _digest(suite_record(name, size=6)) == CLASSIFICATION_6_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CLASSIFICATION_7_PINS))
def test_classification_reports_at_size_7_are_pinned(name):
    report = suite_record(name, size=7)
    assert (report["checks"], report["violations"]) == (CLASSIFICATION_7_PINS[name][0], [])
    assert _digest(report) == CLASSIFICATION_7_PINS[name][1]


@pytest.mark.parametrize("name,kwargs,checks,gaps,digest", COMPLETENESS_RUNS,
                         ids=[run[0] for run in COMPLETENESS_RUNS])
def test_completeness_evidence_reports_are_pinned(name, kwargs, checks, gaps, digest):
    report = verify.suite_completeness_evidence(name, **kwargs)
    report.pop("timings")
    assert (report["checks"], len(report["known_gaps"])) == (checks, gaps)
    assert _digest(report) == digest
