"""The catalogue of axiom systems, as named, versioned rule sets.

Each system pairs a rule list with the finite structure that defines the
logic it is meant to axiomatize.  A family is one row of `_FAMILIES`: its
relation symbols, the predicates that get the truth base, an optional
characteristic rule, its interaction rules, kind, preset, notes and its
constant-rule table.  The equality core is included exactly when `eq` is
a relation symbol.  Constant expansions are separate registry entries:
"BDE+n" is BDE plus the #n rules, "BD-EQ+tnb" adds all three constants,
and so on; a listed constant rule is included exactly when every constant
it mentions is present, and a family supports the constants its table
mentions.  `system` is the only builder.

The truth-predicate base presentation (used for "the rules of BD" for a
predicate) is a concrete finite Hilbert-style system: lattice rules for
meet/join, distribution, and double negation / De Morgan rules stated
under a disjunctive context.  Its soundness is machine-checked; its
completeness is only tested empirically (bounded sweeps), never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .structures import format_name, holds, parse_name, preset_structure
from .syntax import (CONSTANT_SYMBOLS, FULL_SIG, Rule, SigSpec, UsageError, parse_rule, print_rule,
                     sig)


@dataclass(frozen=True)
class Scheme:
    name: str
    rule: Rule
    role: str  # "base" | "interaction" | "constant"


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

# Constant rules, one table per family.  A rule is included exactly when
# every constant it mentions is present, and a family supports exactly the
# constants its table mentions.
_BDE_CONST = [
    ("c-exact-top", "|- E(#t)"),
    ("c-both-true", r"|- T(#b /\ ~#b)"),
    ("c-neither-true-l", r"T(#n \/ x) |- T(x)"),
    ("c-neither-true-r", r"T(~#n \/ x) |- T(x)"),
    ("c-neither-exact-l", r"T(x) |- E(#n \/ x)"),
    ("c-neither-exact-r", r"T(x) |- E(~#n \/ x)"),
]

_BDNF_CONST = [
    ("c-top-true", "|- T(#t)"),
    ("c-top-nonfalse", "|- NF(#t)"),
    ("c-both-true", "|- T(#b)"),
    ("c-negboth-true", "|- T(~#b)"),
    ("c-neither-nonfalse", "|- NF(#n)"),
    ("c-negneither-nonfalse", "|- NF(~#n)"),
]

_KE_CONST = [
    ("c-exact-top", "|- E(#t)"),
    ("c-both-true", "|- T(#b)"),
    ("c-negboth-true", "|- T(~#b)"),
]

_BD_EQ_CONST = [
    ("c-top-eq", r"|- #t = #t \/ x"),
    ("c-top-true", "|- T(#t)"),
    ("c-negtop-collapse", "T(~#t) |- x = y"),
    ("c-neither-fix", "|- #n = ~#n"),
    ("c-neither-true", r"T(#n \/ x) |- T(x)"),
    ("c-neither-absorb", r"T(x) |- #n \/ x \/ y = #n \/ x"),
    ("c-both-true", "|- T(#b)"),
    ("c-negboth-true", "|- T(~#b)"),
    ("c-both-neither-top", r"|- #b \/ #n = #t"),
]

_ETL_EQ_CONST = [
    ("c-exact-top", "|- E(#t)"),
    ("c-exact-join", r"|- E(#n \/ #b)"),
    ("c-both-fix", "|- #b = ~#b"),
    ("c-neither-fix", "|- #n = ~#n"),
]

_BDE_EQ_CONST = [
    ("c-exact-top", "|- E(#t)"),
    ("c-exact-join", r"|- E(#n \/ #b)"),
    ("c-neither-fix", "|- #n = ~#n"),
    ("c-both-true", r"|- T(#b /\ ~#b)"),
    ("c-neither-true", r"T(#n \/ x) |- T(x)"),
    ("c-neither-exact", r"T(x) |- E(#n \/ x)"),
]

_MC_ETL_CONST = [
    ("c-exact-top", "|- E(#t)"),
    ("c-exact-join", r"|- E(#n \/ #b)"),
    ("c-neither-not-exact", "E(#n) |-"),
    ("c-negneither-not-exact", "E(~#n) |-"),
    ("c-both-not-exact", "E(#b) |-"),
    ("c-negboth-not-exact", "E(~#b) |-"),
]

# Interaction rules shared by the truth-with-equality families.
_TRUE_EQ = [
    ("true-and", r"T(x), T(y) |- T(x /\ y)"),
    ("true-order", r"T(x), T(y) |- ~x \/ y = y"),
    ("true-sep", r"T(z), x /\ z = y /\ z, ~y /\ z = ~x /\ z |- x = y"),
]
_EXACT_TOP = ("exact-top", r"E(x) |- x \/ y = x")


@dataclass(frozen=True)
class _Family:
    relations: str  # relation symbols, space-separated
    truth_bases: str  # the predicates that get the truth base, in order
    preset: str
    notes: str
    char: tuple[str, tuple[str, str]] | None = None  # (predicate, rule)
    interactions: Sequence[tuple[str, str]] = ()
    constants: Sequence[tuple[str, str]] = ()
    kind: str = "single-conclusion"


_FAMILIES = {
    "BD-base": _Family("T", "T", "BD", "truth-predicate base presentation"),
    "ETL-base": _Family(
        "E", "E", "ETL", "exact-truth base: truth base plus the conjunctive modus ponens rule",
        char=("E", _ETL_CHAR)),
    "K-base": _Family("T", "T", "K", "strong three-valued base", char=("T", _K_CHAR)),
    "LP-base": _Family("T", "T", "LP", "paraconsistent three-valued base",
                       char=("T", _LP_CHAR)),
    # The E side only needs the truth base: the conjunctive modus ponens
    # rule for E is derivable from the interaction rules.
    "BDE": _Family(
        "T E", "T E", "BDE", "combined truth / exact-truth logic",
        interactions=[
            ("exact-true", "E(x) |- T(x)"),
            ("exact-mp-true", r"E(x), T(~x \/ y) |- T(y)"),
            ("true-mp-exact", r"T(x), T(y), E(~x \/ y) |- E(y)"),
        ],
        constants=_BDE_CONST),
    "BDNF": _Family(
        "T NF", "T NF", "BDNF", "combined truth / non-falsity logic",
        interactions=[
            ("true-mp-nonfalse", r"T(x), NF(~x \/ y) |- NF(y)"),
            ("nonfalse-mp-true", r"NF(x), T(~x \/ y) |- T(y)"),
        ],
        constants=_BDNF_CONST),
    "KE": _Family(
        "T E", "T E", "KE", "three-valued truth / exact-truth logic",
        char=("E", _ETL_CHAR),
        interactions=[
            ("excluded-middle", r"|- T(x \/ ~x)"),
            ("exact-true", "E(x) |- T(x)"),
            ("exact-mp-true", r"E(x), T(~x \/ y) |- T(y)"),
            ("true-mp-exact", r"T(x), E(~x \/ y) |- E(y)"),
        ],
        constants=_KE_CONST),
    "TNE-bridge": _Family(
        "T E NF", "", "TNE", "definability of exact truth from truth and non-falsity",
        interactions=[
            ("exact-def", "T(x), NF(x) |- E(x)"),
            ("exact-true", "E(x) |- T(x)"),
            ("exact-nonfalse", "E(x) |- NF(x)"),
        ]),
    "EQ-core": _Family(
        "eq", "", "DM-eq",
        "material equivalence: equivalence, congruence, compatibility, variety equations"),
    "BD-EQ": _Family(
        "T eq", "T", "BD-eq", "truth with material equivalence",
        interactions=_TRUE_EQ,
        constants=_BD_EQ_CONST),
    "ETL-EQ": _Family(
        "E eq", "", "ETL-eq", "exact truth with material equivalence",
        interactions=[_EXACT_TOP],
        constants=_ETL_EQ_CONST),
    "BDE-EQ": _Family(
        "T E eq", "T", "BDE-eq", "truth and exact truth with material equivalence",
        interactions=_TRUE_EQ + [_EXACT_TOP, ("exact-true", "E(x) |- T(x)")],
        constants=_BDE_EQ_CONST),
    "BDNF-EQ": _Family(
        "T NF eq", "T NF", "BDNF-eq", "truth and non-falsity with material equivalence",
        interactions=[
            ("true-order", r"T(x), T(y) |- ~x \/ y = y"),
            ("nonfalse-mp-true", r"NF(x), T(~x \/ y) |- T(y)"),
            ("true-mp-nonfalse", r"T(x), NF(~x \/ y) |- NF(y)"),
            ("nf-cancel", r"NF(x), T(y), T(z), x /\ y <= z |- y <= z"),
            ("nf-sep", r"T(x), NF(y), x /\ u <= ~y \/ v, x /\ ~v <= ~y \/ ~u |- u <= v"),
        ],
        constants=_BDNF_CONST),
    "MC-BD": _Family(
        "T", "T", "BD", "multiple-conclusion truth logic",
        interactions=[("or-split", r"T(x \/ y) |- T(x) | T(y)")],
        kind="multiple-conclusion"),
    "MC-bridges": _Family(
        "T E NF", "", "TNE", "definability bridges for E and NF over the truth predicate",
        interactions=[
            ("exact-true", "E(x) |- T(x)"),
            ("exact-consistent", "T(~x), E(x) |-"),
            ("true-split", "T(x) |- E(x) | T(~x)"),
            ("true-or-negnonfalse", "|- T(x) | NF(~x)"),
            ("nonfalse-consistent", "T(x), NF(~x) |-"),
        ],
        kind="multiple-conclusion"),
    "MC-ETL": _Family(
        "E", "E", "ETL", "multiple-conclusion exact-truth logic",
        char=("E", _ETL_CHAR),
        interactions=[
            ("mc-neg-both", r"E(x \/ y) |- E(~x \/ ~y) | E(x) | E(y)"),
            ("mc-neg-one", r"E(x \/ y) |- E(~x \/ y) | E(x) | E(y)"),
            ("mc-sep-pos",
             r"E((u /\ ~u) \/ x), E((u /\ ~u) \/ y), E(v \/ x) |- E(v \/ y) | E(x) | E(y)"),
            ("mc-sep-neg",
             r"E((u /\ ~u) \/ x), E((u /\ ~u) \/ y), E(v \/ ~x) |- E(v \/ ~y) | E(x) | E(y)"),
        ],
        constants=_MC_ETL_CONST,
        kind="multiple-conclusion"),
}


def _schemes(sigspec: SigSpec, role: str, items: Iterable[tuple[str, str]],
             prefix: str = "") -> list[Scheme]:
    return [Scheme(prefix + name, parse_rule(text, sigspec), role) for name, text in items]


def _base_for(sigspec: SigSpec, pred: str, items: Iterable[tuple[str, str]]) -> list[Scheme]:
    """Base schemes stated for `P`, instantiated at the predicate `pred`."""
    return _schemes(sigspec, "base", [(name, text.replace("P(", f"{pred}("))
                                      for name, text in items], prefix=f"{pred}.")


def _eq_core(sigspec: SigSpec) -> list[Scheme]:
    out = _schemes(sigspec, "base", _EQ_EQUIV, prefix="eq.")
    for pred in sorted(sigspec.relations - {"eq"}):
        out.append(Scheme(f"eq.compat-{pred}",
                          parse_rule(f"{pred}(x), x = y |- {pred}(y)", sigspec), "base"))
    out.extend(_schemes(sigspec, "base", _DM_EQUATIONS, prefix="eq."))
    return out


@lru_cache(maxsize=None)
def _mentioned(text: str) -> frozenset[str]:
    return frozenset(parse_rule(text, FULL_SIG).constants())


def _supported(fam: _Family) -> frozenset[str]:
    return frozenset().union(*(_mentioned(text) for _, text in fam.constants))


@lru_cache(maxsize=None)
def system(name: str) -> AxiomSystem:
    """Look up a registry entry, e.g. system("BDE") or system("BD-EQ+tn").

    The schemes come in a fixed order: the truth bases, the characteristic
    rule, the equality core, the interaction rules, the constant rules."""
    family, consts = parse_name(name)
    fam = _FAMILIES.get(family)
    if fam is None:
        raise UsageError(f"unknown axiom system {name!r}")
    if not consts <= _supported(fam):
        raise UsageError(f"axiom system {name!r}: family {family} does not support "
                         f"constants {sorted(consts - _supported(fam))}")
    s = sig(fam.relations.split(), consts)
    schemes = []
    for pred in fam.truth_bases.split():
        schemes += _base_for(s, pred, _TRUTH_BASE)
    if fam.char:
        pred, item = fam.char
        schemes += _base_for(s, pred, [item])
    if "eq" in s.relations:
        schemes += _eq_core(s)
    schemes += _schemes(s, "interaction", fam.interactions)
    schemes += _schemes(s, "constant", [(n, t) for n, t in fam.constants
                                        if _mentioned(t) <= consts])
    notes = fam.notes + (" expanded by " + ", ".join(sorted(consts)) if consts else "")
    return AxiomSystem(format_name(family, consts), s, tuple(schemes), fam.kind,
                       format_name(fam.preset, consts), notes=notes)


def all_system_names() -> list[str]:
    """Every registry entry: each family with each supported constant set."""
    out = []
    for family, fam in _FAMILIES.items():
        supported = [c for c in CONSTANT_SYMBOLS if c in _supported(fam)]
        for r in range(len(supported) + 1):
            out += [format_name(family, subset) for subset in combinations(supported, r)]
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
    lines = [f"# {sys.name}: {sys.notes}"]
    for scheme in sys.schemes:
        lines.append(f"{print_rule(scheme.rule)}  # {scheme.role}: {scheme.name}")
    return "\n".join(lines) + "\n"
