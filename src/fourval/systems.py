"""The catalogue of axiom systems, as named, versioned rule sets.

Each system pairs a rule list with the finite structure that defines the
logic it is meant to axiomatize.  Constant expansions are separate
registry entries: "BDE+n" is BDE plus the #n rules, "BD-EQ+tnb" adds all
three constants, and so on; a listed constant rule is included exactly
when every constant it mentions is present.

The truth-predicate base presentation (used for "the rules of BD" for a
predicate) is a concrete finite Hilbert-style system: lattice rules for
meet/join, distribution, and double negation / De Morgan rules stated
under a disjunctive context.  Its soundness is machine-checked; its
completeness is only tested empirically (bounded sweeps), never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .structures import holds, preset_structure
from .syntax import Rule, SigSpec, UsageError, parse_rule, sig

SCHEME_ROLES = ("base", "interaction", "constant")


@dataclass(frozen=True)
class Scheme:
    name: str
    rule: Rule
    role: str  # one of SCHEME_ROLES


@dataclass(frozen=True)
class AxiomSystem:
    name: str
    signature: SigSpec
    schemes: tuple[Scheme, ...]
    kind: str  # "single-conclusion" | "multiple-conclusion"
    preset: str
    notes: str = ""

    def named_rules(self) -> list[tuple[str, Rule]]:
        return [(s.name, s.rule) for s in self.schemes]

    def rules_by_role(self, role: str) -> list[Scheme]:
        return [s for s in self.schemes if s.role == role]

    def scheme(self, name: str) -> Scheme:
        for s in self.schemes:
            if s.name == name:
                return s
        raise KeyError(f"no scheme named {name!r} in system {self.name}")


# ---------------------------------------------------------------------------
# Rule tables.  `P` is replaced by a concrete truth predicate.

_TRUTH_BASE = [
    ("and-elim-l", r"P(x /\ y) |- P(x)"),
    ("and-elim-r", r"P(x /\ y) |- P(y)"),
    ("and-intro", r"P(x), P(y) |- P(x /\ y)"),
    ("or-intro-l", r"P(x) |- P(x \/ y)"),
    ("or-intro-r", r"P(y) |- P(x \/ y)"),
    ("or-comm", r"P(x \/ y) |- P(y \/ x)"),
    ("or-idem", r"P(x \/ x) |- P(x)"),
    ("or-assoc-l", r"P(x \/ (y \/ z)) |- P((x \/ y) \/ z)"),
    ("or-assoc-r", r"P((x \/ y) \/ z) |- P(x \/ (y \/ z))"),
    ("dist-l", r"P(x \/ (y /\ z)) |- P((x \/ y) /\ (x \/ z))"),
    ("dist-r", r"P((x \/ y) /\ (x \/ z)) |- P(x \/ (y /\ z))"),
    ("dneg-intro", r"P(x \/ z) |- P(~~x \/ z)"),
    ("dneg-elim", r"P(~~x \/ z) |- P(x \/ z)"),
    ("neg-or-l", r"P(~(x \/ y) \/ z) |- P((~x /\ ~y) \/ z)"),
    ("neg-or-r", r"P((~x /\ ~y) \/ z) |- P(~(x \/ y) \/ z)"),
    ("neg-and-l", r"P(~(x /\ y) \/ z) |- P((~x \/ ~y) \/ z)"),
    ("neg-and-r", r"P((~x \/ ~y) \/ z) |- P(~(x /\ y) \/ z)"),
]

_ETL_CHAR = ("exact-mp", r"P(x /\ (~x \/ y)) |- P(y)")
_K_CHAR = ("k-contradiction", r"P((x /\ ~x) \/ y) |- P(y)")
_LP_CHAR = ("lp-excluded-middle", r"|- P(x \/ ~x)")

# Equality core: equivalence + congruence + compatibility with every
# relation symbol in the signature, plus the De Morgan variety equations.
_EQ_EQUIV = [
    ("eq-refl", "|- x = x"),
    ("eq-sym", "x = y |- y = x"),
    ("eq-trans", "x = y, y = z |- x = z"),
    ("eq-cong-and", r"x = y, z = u |- x /\ z = y /\ u"),
    ("eq-cong-or", r"x = y, z = u |- x \/ z = y \/ u"),
    ("eq-cong-neg", "x = y |- ~x = ~y"),
    ("eq-compat-eq", "x = y, x = z, y = u |- z = u"),
]

_DM_EQUATIONS = [
    ("dm-and-comm", r"|- x /\ y = y /\ x"),
    ("dm-or-comm", r"|- x \/ y = y \/ x"),
    ("dm-and-assoc", r"|- x /\ (y /\ z) = (x /\ y) /\ z"),
    ("dm-or-assoc", r"|- x \/ (y \/ z) = (x \/ y) \/ z"),
    ("dm-absorb-and", r"|- x /\ (x \/ y) = x"),
    ("dm-absorb-or", r"|- x \/ (x /\ y) = x"),
    ("dm-dist", r"|- x /\ (y \/ z) = (x /\ y) \/ (x /\ z)"),
    ("dm-dneg", "|- ~~x = x"),
    ("dm-neg-and", r"|- ~(x /\ y) = ~x \/ ~y"),
]

# Constant rules per family: (required constants, name, text).
_BDE_CONST = [
    (("#t",), "c-exact-top", "|- E(#t)"),
    (("#b",), "c-both-true", r"|- T(#b /\ ~#b)"),
    (("#n",), "c-neither-true-l", r"T(#n \/ x) |- T(x)"),
    (("#n",), "c-neither-true-r", r"T(~#n \/ x) |- T(x)"),
    (("#n",), "c-neither-exact-l", r"T(x) |- E(#n \/ x)"),
    (("#n",), "c-neither-exact-r", r"T(x) |- E(~#n \/ x)"),
]

_BDNF_CONST = [
    (("#t",), "c-top-true", "|- T(#t)"),
    (("#t",), "c-top-nonfalse", "|- NF(#t)"),
    (("#b",), "c-both-true", "|- T(#b)"),
    (("#b",), "c-negboth-true", "|- T(~#b)"),
    (("#n",), "c-neither-nonfalse", "|- NF(#n)"),
    (("#n",), "c-negneither-nonfalse", "|- NF(~#n)"),
]

_KE_CONST = [
    (("#t",), "c-exact-top", "|- E(#t)"),
    (("#b",), "c-both-true", "|- T(#b)"),
    (("#b",), "c-negboth-true", "|- T(~#b)"),
]

_BD_EQ_CONST = [
    (("#t",), "c-top-eq", r"|- #t = #t \/ x"),
    (("#t",), "c-top-true", "|- T(#t)"),
    (("#t",), "c-negtop-collapse", "T(~#t) |- x = y"),
    (("#n",), "c-neither-fix", "|- #n = ~#n"),
    (("#n",), "c-neither-true", r"T(#n \/ x) |- T(x)"),
    (("#n",), "c-neither-absorb", r"T(x) |- #n \/ x \/ y = #n \/ x"),
    (("#b",), "c-both-true", "|- T(#b)"),
    (("#b",), "c-negboth-true", "|- T(~#b)"),
    (("#t", "#n", "#b"), "c-both-neither-top", r"|- #b \/ #n = #t"),
]

_ETL_EQ_CONST = [
    (("#t",), "c-exact-top", "|- E(#t)"),
    (("#n", "#b"), "c-exact-join", r"|- E(#n \/ #b)"),
    (("#b",), "c-both-fix", "|- #b = ~#b"),
    (("#n",), "c-neither-fix", "|- #n = ~#n"),
]

_BDE_EQ_CONST = [
    (("#t",), "c-exact-top", "|- E(#t)"),
    (("#n", "#b"), "c-exact-join", r"|- E(#n \/ #b)"),
    (("#n",), "c-neither-fix", "|- #n = ~#n"),
    (("#b",), "c-both-true", r"|- T(#b /\ ~#b)"),
    (("#n",), "c-neither-true", r"T(#n \/ x) |- T(x)"),
    (("#n",), "c-neither-exact", r"T(x) |- E(#n \/ x)"),
]

_BDNF_EQ_CONST = _BDNF_CONST

_MC_ETL_CONST = [
    (("#t",), "c-exact-top", "|- E(#t)"),
    (("#n", "#b"), "c-exact-join", r"|- E(#n \/ #b)"),
    (("#n",), "c-neither-not-exact", "E(#n) |-"),
    (("#n",), "c-negneither-not-exact", "E(~#n) |-"),
    (("#b",), "c-both-not-exact", "E(#b) |-"),
    (("#b",), "c-negboth-not-exact", "E(~#b) |-"),
]

# Which constants each family supports at all.
_FAMILY_CONSTANTS = {
    "BD-base": (), "ETL-base": (), "K-base": (), "LP-base": (),
    "BDE": ("#t", "#n", "#b"),
    "BDNF": ("#t", "#n", "#b"),
    "KE": ("#t", "#b"),
    "TNE-bridge": (),
    "EQ-core": (),
    "BD-EQ": ("#t", "#n", "#b"),
    "ETL-EQ": ("#t", "#n", "#b"),
    "BDE-EQ": ("#t", "#n", "#b"),
    "BDNF-EQ": ("#t", "#n", "#b"),
    "MC-BD": (),
    "MC-bridges": (),
    "MC-ETL": ("#t", "#n", "#b"),
}

_CONST_TABLES = {
    "BDE": _BDE_CONST,
    "BDNF": _BDNF_CONST,
    "KE": _KE_CONST,
    "BD-EQ": _BD_EQ_CONST,
    "ETL-EQ": _ETL_EQ_CONST,
    "BDE-EQ": _BDE_EQ_CONST,
    "BDNF-EQ": _BDNF_EQ_CONST,
    "MC-ETL": _MC_ETL_CONST,
}

_FAMILY_PRESETS = {
    "BD-base": "BD", "ETL-base": "ETL", "K-base": "K", "LP-base": "LP",
    "BDE": "BDE", "BDNF": "BDNF", "KE": "KE", "TNE-bridge": "TNE",
    "EQ-core": "DM-eq", "BD-EQ": "BD-eq", "ETL-EQ": "ETL-eq",
    "BDE-EQ": "BDE-eq", "BDNF-EQ": "BDNF-eq",
    "MC-BD": "BD", "MC-bridges": "TNE", "MC-ETL": "ETL",
}


def _schemes(sigspec: SigSpec, role: str, items: Iterable[tuple[str, str]],
             prefix: str = "") -> list[Scheme]:
    out = []
    for name, text in items:
        out.append(Scheme(prefix + name, parse_rule(text, sigspec), role))
    return out


def _truth_base(sigspec: SigSpec, pred: str) -> list[Scheme]:
    items = [(name, text.replace("P(", f"{pred}(")) for name, text in _TRUTH_BASE]
    return _schemes(sigspec, "base", items, prefix=f"{pred}.")


def _char(sigspec: SigSpec, pred: str, item: tuple[str, str]) -> Scheme:
    name, text = item
    return Scheme(f"{pred}.{name}", parse_rule(text.replace("P(", f"{pred}("), sigspec), "base")


def _eq_core(sigspec: SigSpec) -> list[Scheme]:
    out = _schemes(sigspec, "base", _EQ_EQUIV, prefix="eq.")
    for pred in sorted(sigspec.relations - {"eq"}):
        out.append(Scheme(f"eq.compat-{pred}",
                          parse_rule(f"{pred}(x), x = y |- {pred}(y)", sigspec), "base"))
    out.extend(_schemes(sigspec, "base", _DM_EQUATIONS, prefix="eq."))
    return out


def _const_schemes(family: str, sigspec: SigSpec, consts: frozenset[str]) -> list[Scheme]:
    table = _CONST_TABLES.get(family, [])
    out = []
    for required, name, text in table:
        if set(required) <= consts:
            out.append(Scheme(name, parse_rule(text, sigspec), "constant"))
    return out


def _build_family(family: str, consts: frozenset[str]) -> AxiomSystem:
    allowed = set(_FAMILY_CONSTANTS[family])
    if not consts <= allowed:
        raise UsageError(f"system family {family} does not support constants {sorted(consts - allowed)}")

    if family == "BD-base":
        s = sig({"T"}, consts)
        schemes = _truth_base(s, "T")
        kind = "single-conclusion"
        notes = "truth-predicate base presentation"
    elif family == "ETL-base":
        s = sig({"E"}, consts)
        schemes = _truth_base(s, "E") + [_char(s, "E", _ETL_CHAR)]
        kind = "single-conclusion"
        notes = "exact-truth base: truth base plus the conjunctive modus ponens rule"
    elif family == "K-base":
        s = sig({"T"}, consts)
        schemes = _truth_base(s, "T") + [_char(s, "T", _K_CHAR)]
        kind = "single-conclusion"
        notes = "strong three-valued base"
    elif family == "LP-base":
        s = sig({"T"}, consts)
        schemes = _truth_base(s, "T") + [_char(s, "T", _LP_CHAR)]
        kind = "single-conclusion"
        notes = "paraconsistent three-valued base"
    elif family == "BDE":
        s = sig({"T", "E"}, consts)
        # The E side only needs the truth base: the conjunctive modus
        # ponens rule for E is derivable from the interaction rules.
        schemes = _truth_base(s, "T") + _truth_base(s, "E")
        schemes += _schemes(s, "interaction", [
            ("exact-true", "E(x) |- T(x)"),
            ("exact-mp-true", r"E(x), T(~x \/ y) |- T(y)"),
            ("true-mp-exact", r"T(x), T(y), E(~x \/ y) |- E(y)"),
        ])
        kind = "single-conclusion"
        notes = "combined truth / exact-truth logic"
    elif family == "BDNF":
        s = sig({"T", "NF"}, consts)
        schemes = _truth_base(s, "T") + _truth_base(s, "NF")
        schemes += _schemes(s, "interaction", [
            ("true-mp-nonfalse", r"T(x), NF(~x \/ y) |- NF(y)"),
            ("nonfalse-mp-true", r"NF(x), T(~x \/ y) |- T(y)"),
        ])
        kind = "single-conclusion"
        notes = "combined truth / non-falsity logic"
    elif family == "KE":
        s = sig({"T", "E"}, consts)
        schemes = _truth_base(s, "T") + _truth_base(s, "E") + [_char(s, "E", _ETL_CHAR)]
        schemes += _schemes(s, "interaction", [
            ("excluded-middle", r"|- T(x \/ ~x)"),
            ("exact-true", "E(x) |- T(x)"),
            ("exact-mp-true", r"E(x), T(~x \/ y) |- T(y)"),
            ("true-mp-exact", r"T(x), E(~x \/ y) |- E(y)"),
        ])
        kind = "single-conclusion"
        notes = "three-valued truth / exact-truth logic"
    elif family == "TNE-bridge":
        s = sig({"T", "E", "NF"})
        schemes = _schemes(s, "interaction", [
            ("exact-def", "T(x), NF(x) |- E(x)"),
            ("exact-true", "E(x) |- T(x)"),
            ("exact-nonfalse", "E(x) |- NF(x)"),
        ])
        kind = "single-conclusion"
        notes = "definability of exact truth from truth and non-falsity"
    elif family == "EQ-core":
        s = sig({"eq"}, consts)
        schemes = _eq_core(s)
        kind = "single-conclusion"
        notes = "material equivalence: equivalence, congruence, compatibility, variety equations"
    elif family == "BD-EQ":
        s = sig({"T", "eq"}, consts)
        schemes = _truth_base(s, "T") + _eq_core(s)
        schemes += _schemes(s, "interaction", [
            ("true-and", r"T(x), T(y) |- T(x /\ y)"),
            ("true-order", r"T(x), T(y) |- ~x \/ y = y"),
            ("true-sep", r"T(z), x /\ z = y /\ z, ~y /\ z = ~x /\ z |- x = y"),
        ])
        kind = "single-conclusion"
        notes = "truth with material equivalence"
    elif family == "ETL-EQ":
        s = sig({"E", "eq"}, consts)
        schemes = _eq_core(s)
        schemes += _schemes(s, "interaction", [
            ("exact-top", r"E(x) |- x \/ y = x"),
        ])
        kind = "single-conclusion"
        notes = "exact truth with material equivalence"
    elif family == "BDE-EQ":
        s = sig({"T", "E", "eq"}, consts)
        schemes = _truth_base(s, "T") + _eq_core(s)
        schemes += _schemes(s, "interaction", [
            ("true-and", r"T(x), T(y) |- T(x /\ y)"),
            ("true-order", r"T(x), T(y) |- ~x \/ y = y"),
            ("true-sep", r"T(z), x /\ z = y /\ z, ~y /\ z = ~x /\ z |- x = y"),
            ("exact-top", r"E(x) |- x \/ y = x"),
            ("exact-true", "E(x) |- T(x)"),
        ])
        kind = "single-conclusion"
        notes = "truth and exact truth with material equivalence"
    elif family == "BDNF-EQ":
        s = sig({"T", "NF", "eq"}, consts)
        schemes = _truth_base(s, "T") + _truth_base(s, "NF") + _eq_core(s)
        schemes += _schemes(s, "interaction", [
            ("true-order", r"T(x), T(y) |- ~x \/ y = y"),
            ("nonfalse-mp-true", r"NF(x), T(~x \/ y) |- T(y)"),
            ("true-mp-nonfalse", r"T(x), NF(~x \/ y) |- NF(y)"),
            ("nf-cancel", r"NF(x), T(y), T(z), x /\ y <= z |- y <= z"),
            ("nf-sep", r"T(x), NF(y), x /\ u <= ~y \/ v, x /\ ~v <= ~y \/ ~u |- u <= v"),
        ])
        kind = "single-conclusion"
        notes = "truth and non-falsity with material equivalence"
    elif family == "MC-BD":
        s = sig({"T"})
        schemes = _truth_base(s, "T")
        schemes += _schemes(s, "interaction", [
            ("or-split", r"T(x \/ y) |- T(x) | T(y)"),
        ])
        kind = "multiple-conclusion"
        notes = "multiple-conclusion truth logic"
    elif family == "MC-bridges":
        s = sig({"T", "E", "NF"})
        schemes = _schemes(s, "interaction", [
            ("exact-true", "E(x) |- T(x)"),
            ("exact-consistent", "T(~x), E(x) |-"),
            ("true-split", "T(x) |- E(x) | T(~x)"),
            ("true-or-negnonfalse", "|- T(x) | NF(~x)"),
            ("nonfalse-consistent", "T(x), NF(~x) |-"),
        ])
        kind = "multiple-conclusion"
        notes = "definability bridges for E and NF over the truth predicate"
    elif family == "MC-ETL":
        s = sig({"E"}, consts)
        schemes = _truth_base(s, "E") + [_char(s, "E", _ETL_CHAR)]
        schemes += _schemes(s, "interaction", [
            ("mc-neg-both", r"E(x \/ y) |- E(~x \/ ~y) | E(x) | E(y)"),
            ("mc-neg-one", r"E(x \/ y) |- E(~x \/ y) | E(x) | E(y)"),
            ("mc-sep-pos", r"E((u /\ ~u) \/ x), E((u /\ ~u) \/ y), E(v \/ x) |- E(v \/ y) | E(x) | E(y)"),
            ("mc-sep-neg", r"E((u /\ ~u) \/ x), E((u /\ ~u) \/ y), E(v \/ ~x) |- E(v \/ ~y) | E(x) | E(y)"),
        ])
        kind = "multiple-conclusion"
        notes = "multiple-conclusion exact-truth logic"
    else:
        raise KeyError(f"unknown system family {family!r}")

    schemes += _const_schemes(family, s, consts)
    preset = _FAMILY_PRESETS[family]
    if consts:
        preset += "+" + "".join(ch for ch in "tnb" if f"#{ch}" in consts)
    name = family
    if consts:
        name += "+" + "".join(ch for ch in "tnb" if f"#{ch}" in consts)
    return AxiomSystem(name, s, tuple(schemes), kind, preset,
                       notes=_build_notes(family, notes, consts))


def _build_notes(family: str, notes: str, consts: frozenset[str]) -> str:
    if consts:
        return notes + " expanded by " + ", ".join(sorted(consts))
    return notes


@lru_cache(maxsize=None)
def system(name: str) -> AxiomSystem:
    """Look up a registry entry, e.g. system("BDE") or system("BD-EQ+tn")."""
    base, _, suffix = name.partition("+")
    if base not in _FAMILY_CONSTANTS:
        raise UsageError(f"unknown axiom system {name!r}")
    consts = set()
    for ch in suffix:
        if ch not in "tnb":
            raise UsageError(f"bad constant suffix in {name!r}")
        consts.add(f"#{ch}")
    return _build_family(base, frozenset(consts))


def all_system_names() -> list[str]:
    """Every registry entry: each family with each supported constant set."""
    out = []
    for family, allowed in _FAMILY_CONSTANTS.items():
        subsets = [""]
        letters = [c[1] for c in ("#t", "#n", "#b") if c in allowed]
        for r in range(1, len(letters) + 1):
            from itertools import combinations

            subsets += ["".join(c) for c in combinations(letters, r)]
        for suffix in subsets:
            out.append(family + ("+" + suffix if suffix else ""))
    return out


def soundness_check(sys: AxiomSystem) -> dict:
    """Check every axiom against the system's defining preset structure."""
    st = preset_structure(sys.preset)
    results = []
    ok = True
    for scheme in sys.schemes:
        verdict = holds(st, scheme.rule)
        results.append((scheme.name, verdict))
        ok = ok and verdict.valid
    return {"system": sys.name, "preset": sys.preset, "ok": ok, "axioms": results}


def export_rule_text(sys: AxiomSystem) -> str:
    """One rule per line, in the concrete grammar, with name comments."""
    from .syntax import print_rule

    lines = [f"# {sys.name}: {sys.notes}"]
    for scheme in sys.schemes:
        lines.append(f"{print_rule(scheme.rule)}  # {scheme.role}: {scheme.name}")
    return "\n".join(lines) + "\n"
