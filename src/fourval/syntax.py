"""Terms, formulas, rules, substitutions, and the concrete rule grammar.

Grammar (ASCII):

    rule     := premlist "|-" conclist
    premlist := <empty> | formula ("," formula)*
    conclist := <empty> | formula ("|" formula)*
    formula  := PRED "(" term ")" | term "=" term | term "<=" term
    term     := tj
    tj       := tm ("\\/" tm)*          (left associative)
    tm       := tn ("/\\" tn)*          (left associative)
    tn       := "~" tn | "(" term ")" | VAR | "#t" | "#n" | "#b" | "#f"

PRED is one of T, E, NF; those names are reserved and cannot be variables.
`#f` is sugar for `~#t`, and `s <= t` is sugar for `s \\/ t = t`; neither
survives parsing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Union

FUNCTION_ARITIES = {"meet": 2, "join": 2, "neg": 1}
RELATION_ARITIES = {"T": 1, "E": 1, "NF": 1, "eq": 2}
PREDICATE_NAMES = ("T", "E", "NF")
CONSTANT_SYMBOLS = ("#t", "#n", "#b")


class ParseError(ValueError):
    """Lex/parse failure, with the offending position in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SignatureError(ParseError):
    """Symbol not available, or used at the wrong arity, in a signature."""


class UsageError(KeyError):
    """User input that names nothing usable: an unknown preset, system,
    suite or constant suffix, an unreadable rule file, or a system the
    command cannot serve."""

    def __str__(self) -> str:
        return str(self.args[0]) if self.args else ""


@dataclass(frozen=True, slots=True)
class SigSpec:
    """Which relation symbols and constants a logic's language provides.

    The function symbols meet/join/neg are always present.
    """

    relations: frozenset[str]
    constants: frozenset[str] = frozenset()

    def __post_init__(self):
        if not self.relations:
            raise ValueError("signature needs at least one relation symbol")
        bad = self.relations - set(RELATION_ARITIES)
        if bad:
            raise ValueError(f"unknown relation symbols: {sorted(bad)}")
        bad = self.constants - set(CONSTANT_SYMBOLS)
        if bad:
            raise ValueError(f"unknown constants: {sorted(bad)}")


def sig(relations: Iterable[str], constants: Iterable[str] = ()) -> SigSpec:
    return SigSpec(frozenset(relations), frozenset(constants))


FULL_SIG = sig(RELATION_ARITIES, CONSTANT_SYMBOLS)


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Const:
    symbol: str


@dataclass(frozen=True, slots=True)
class Neg:
    arg: "Term"


@dataclass(frozen=True, slots=True)
class Meet:
    left: "Term"
    right: "Term"


@dataclass(frozen=True, slots=True)
class Join:
    left: "Term"
    right: "Term"


Term = Union[Var, Const, Neg, Meet, Join]


def term_variables(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Const):
        return set()
    if isinstance(t, Neg):
        return term_variables(t.arg)
    return term_variables(t.left) | term_variables(t.right)


def term_constants(t: Term) -> set[str]:
    if isinstance(t, Var):
        return set()
    if isinstance(t, Const):
        return {t.symbol}
    if isinstance(t, Neg):
        return term_constants(t.arg)
    return term_constants(t.left) | term_constants(t.right)


def subterms(t: Term) -> set[Term]:
    """All subterms of t, including t itself."""
    out = {t}
    if isinstance(t, Neg):
        out |= subterms(t.arg)
    elif isinstance(t, (Meet, Join)):
        out |= subterms(t.left) | subterms(t.right)
    return out


def substitute_term(t: Term, mapping: Mapping[str, Term]) -> Term:
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, Const):
        return t
    if isinstance(t, Neg):
        return Neg(substitute_term(t.arg, mapping))
    if isinstance(t, Meet):
        return Meet(substitute_term(t.left, mapping), substitute_term(t.right, mapping))
    return Join(substitute_term(t.left, mapping), substitute_term(t.right, mapping))


def term_depth(t: Term) -> int:
    if isinstance(t, (Var, Const)):
        return 0
    if isinstance(t, Neg):
        return 1 + term_depth(t.arg)
    return 1 + max(term_depth(t.left), term_depth(t.right))


@dataclass(frozen=True, slots=True)
class Formula:
    pred: str
    args: tuple[Term, ...]

    def __post_init__(self):
        arity = RELATION_ARITIES.get(self.pred)
        if arity is None:
            raise ValueError(f"unknown predicate {self.pred!r}")
        if len(self.args) != arity:
            raise ValueError(f"{self.pred} expects {arity} argument(s), got {len(self.args)}")


def atom(pred: str, *args: Term) -> Formula:
    return Formula(pred, tuple(args))


def formula_variables(f: Formula) -> set[str]:
    out: set[str] = set()
    for t in f.args:
        out |= term_variables(t)
    return out


def formula_constants(f: Formula) -> set[str]:
    out: set[str] = set()
    for t in f.args:
        out |= term_constants(t)
    return out


def substitute_formula(f: Formula, mapping: Mapping[str, Term]) -> Formula:
    return Formula(f.pred, tuple(substitute_term(t, mapping) for t in f.args))


@dataclass(frozen=True, slots=True)
class Rule:
    """A rule with a set of premises and a set of conclusions.

    Premises read conjunctively, conclusions disjunctively.  A
    single-conclusion rule is the one-conclusion case; the conclusion set
    may also be empty.
    """

    premises: frozenset[Formula]
    conclusions: frozenset[Formula]

    def variables(self) -> set[str]:
        out: set[str] = set()
        for f in self.premises | self.conclusions:
            out |= formula_variables(f)
        return out

    def constants(self) -> set[str]:
        out: set[str] = set()
        for f in self.premises | self.conclusions:
            out |= formula_constants(f)
        return out

    def predicates(self) -> set[str]:
        return {f.pred for f in self.premises | self.conclusions}

    def terms(self) -> set[Term]:
        out: set[Term] = set()
        for f in self.premises | self.conclusions:
            out.update(f.args)
        return out

    @property
    def is_single_conclusion(self) -> bool:
        return len(self.conclusions) == 1

    @property
    def conclusion(self) -> Formula:
        if len(self.conclusions) != 1:
            raise ValueError("rule does not have exactly one conclusion")
        return next(iter(self.conclusions))


def rule(premises: Iterable[Formula], conclusions: Iterable[Formula]) -> Rule:
    return Rule(frozenset(premises), frozenset(conclusions))


def apply_subst(r: Rule, s: Mapping[str, Term]) -> Rule:
    """Simultaneous substitution; premise/conclusion sets re-deduplicate."""
    return Rule(
        frozenset(substitute_formula(f, s) for f in r.premises),
        frozenset(substitute_formula(f, s) for f in r.conclusions),
    )


# ---------------------------------------------------------------------------
# Printing.  Precedence: ~ binds tightest, then /\, then \/.  Binary
# operators print left associatively with minimal parentheses, so that
# parse(print(t)) reproduces the tree exactly.

_PREC_JOIN, _PREC_MEET, _PREC_NEG = 1, 2, 3


def _render(t: Term, min_prec: int) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.symbol
    if isinstance(t, Neg):
        return "~" + _render(t.arg, _PREC_NEG)
    if isinstance(t, Meet):
        s = _render(t.left, _PREC_MEET) + " /\\ " + _render(t.right, _PREC_MEET + 1)
        return "(" + s + ")" if _PREC_MEET < min_prec else s
    s = _render(t.left, _PREC_JOIN) + " \\/ " + _render(t.right, _PREC_JOIN + 1)
    return "(" + s + ")" if _PREC_JOIN < min_prec else s


@lru_cache(maxsize=None)
def term_text(t: Term) -> str:
    return _render(t, 0)


def formula_text(f: Formula) -> str:
    if f.pred == "eq":
        return f"{term_text(f.args[0])} = {term_text(f.args[1])}"
    return f"{f.pred}({term_text(f.args[0])})"


def print_rule(r: Rule) -> str:
    """Canonical text: premises and conclusions sorted lexicographically."""
    prems = sorted(formula_text(f) for f in r.premises)
    concs = sorted(formula_text(f) for f in r.conclusions)
    left = ", ".join(prems) + " " if prems else ""
    right = " " + " | ".join(concs) if concs else ""
    return f"{left}|-{right}"


# ---------------------------------------------------------------------------
# Parsing.

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<turnstile>\|-)
  | (?P<bar>\|)
  | (?P<comma>,)
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<join>\\/)
  | (?P<meet>/\\)
  | (?P<neg>~)
  | (?P<le><=)
  | (?P<eq>=)
  | (?P<const>\#[tnbf])
  | (?P<ident>[A-Za-z][A-Za-z0-9]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            out.append((kind, m.group(), pos))
        pos = m.end()
    out.append(("eof", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str, sigspec: SigSpec):
        self.tokens = _tokenize(text)
        self.ix = 0
        self.sig = sigspec

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.ix]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.ix]
        self.ix += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def parse_rule(self) -> Rule:
        premises: list[Formula] = []
        if self.peek()[0] not in ("turnstile",):
            premises.append(self.parse_formula())
            while self.peek()[0] == "comma":
                self.next()
                premises.append(self.parse_formula())
        self.expect("turnstile")
        conclusions: list[Formula] = []
        if self.peek()[0] != "eof":
            conclusions.append(self.parse_formula())
            while self.peek()[0] == "bar":
                self.next()
                conclusions.append(self.parse_formula())
        self.expect("eof")
        return Rule(frozenset(premises), frozenset(conclusions))

    def parse_formula(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "ident" and value in PREDICATE_NAMES:
            self.next()
            if value not in self.sig.relations:
                raise SignatureError(f"predicate {value} is not in the signature", pos)
            self.expect("lpar")
            t = self.parse_term()
            self.expect("rpar")
            return Formula(value, (t,))
        left = self.parse_term()
        kind, value, pos = self.next()
        if kind == "eq":
            right = self.parse_term()
        elif kind == "le":
            # s <= t abbreviates s \/ t = t
            right = self.parse_term()
            left = Join(left, right)
        else:
            raise ParseError(f"expected '=' or '<=', found {value or 'end of input'!r}", pos)
        if "eq" not in self.sig.relations:
            raise SignatureError("predicate eq is not in the signature", pos)
        return Formula("eq", (left, right))

    def parse_term(self) -> Term:
        t = self.parse_meet()
        while self.peek()[0] == "join":
            self.next()
            t = Join(t, self.parse_meet())
        return t

    def parse_meet(self) -> Term:
        t = self.parse_neg()
        while self.peek()[0] == "meet":
            self.next()
            t = Meet(t, self.parse_neg())
        return t

    def parse_neg(self) -> Term:
        kind, value, pos = self.peek()
        if kind == "neg":
            self.next()
            return Neg(self.parse_neg())
        if kind == "lpar":
            self.next()
            t = self.parse_term()
            self.expect("rpar")
            return t
        if kind == "const":
            self.next()
            if value == "#f":
                if "#t" not in self.sig.constants:
                    raise SignatureError("constant #t is not in the signature (needed for #f)", pos)
                return Neg(Const("#t"))
            if value not in self.sig.constants:
                raise SignatureError(f"constant {value} is not in the signature", pos)
            return Const(value)
        if kind == "ident":
            self.next()
            if value in PREDICATE_NAMES:
                raise ParseError(f"{value} is a reserved predicate name, not a variable", pos)
            return Var(value)
        raise ParseError(f"expected a term, found {value or 'end of input'!r}", pos)


def parse_rule(text: str, sigspec: SigSpec = FULL_SIG) -> Rule:
    """Parse a rule in the concrete grammar against the given signature."""
    return _Parser(text, sigspec).parse_rule()


def parse_term(text: str, sigspec: SigSpec = FULL_SIG) -> Term:
    p = _Parser(text, sigspec)
    t = p.parse_term()
    p.expect("eof")
    return t


def parse_rule_lines(text: str, sigspec: SigSpec = FULL_SIG) -> list[Rule]:
    """Parse a rule file: one rule per line, '#'-to-end-of-line comments.

    A '#' starts a comment only when it is not part of a constant token.
    """
    rules = []
    for line in text.splitlines():
        stripped = _strip_comment(line).strip()
        if stripped:
            rules.append(parse_rule(stripped, sigspec))
    return rules


def _strip_comment(line: str) -> str:
    i = 0
    while i < len(line):
        if line[i] == "#":
            if i + 1 < len(line) and line[i + 1] in "tnbf":
                i += 2
                continue
            return line[:i]
        i += 1
    return line
