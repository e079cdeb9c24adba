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

Terms and formulas are hash-consed (Filliâtre & Conchon, "Type-safe
modular hash-consing", ML Workshop 2006).  Each constructor looks up its
class and fields in one module store and returns the stored node if there
is one, so equal terms and formulas are the same object: `==` is identity
and `hash` reads no more than the object's address, however deep the
tree.  The store holds its nodes through weak references, and a node's
entry is dropped when the node is collected, so the store is bounded by
the nodes the program still references and has no size to set.  Nodes
are immutable, since every holder shares them; pickling and copying call
the constructor again and so return the stored node.
"""

from __future__ import annotations

import re
import threading
import weakref
from dataclasses import FrozenInstanceError, dataclass
from itertools import chain
from typing import Iterable, Mapping, Union

RELATION_ARITIES = {"T": 1, "E": 1, "NF": 1, "eq": 2}
PREDICATE_NAMES = ("T", "E", "NF")
CONSTANT_SYMBOLS = ("#t", "#n", "#b")


class ParseError(ValueError):
    """Lex/parse failure, with the offending position in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
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


# ---------------------------------------------------------------------------
# Hash-consed nodes; see the module docstring.

_store: dict[tuple, weakref.KeyedRef] = {}  # (class, *fields) -> the node
_store_lock = threading.RLock()  # held on a miss, so threads never build two equal nodes


def _forget(ref: weakref.KeyedRef, store=_store, lock=_store_lock) -> None:
    """Callback of a node's weak reference: drop its entry, unless a new
    node for the same key has replaced it.  The store and lock are bound
    as defaults, so nodes freed while the module is torn down at exit
    still find them."""
    with lock:
        if store.get(ref.key) is ref:
            del store[ref.key]


def _intern(key: tuple):
    """The node of key, (class, *fields), built if it is not stored.  The
    constructors look the key up first, without the lock."""
    with _store_lock:
        ref = _store.get(key)
        node = ref and ref()
        if node is None:
            cls = key[0]
            node = object.__new__(cls)
            for name, value in zip(cls._fields, key[1:]):
                object.__setattr__(node, name, value)
            _store[key] = weakref.KeyedRef(node, _forget, key)
        return node


class _Node:
    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # unpickling and copying call the constructor, which re-interns
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class _Term(_Node):
    __slots__ = ("_text", "_symbols")  # term_text, term_symbols: filled on first use


class _OneField(_Term):
    """The constructor of the terms with one field: look the key up
    without the lock, and intern it on a miss."""

    __slots__ = ()

    def __new__(cls, field):
        key = (cls, field)
        ref = _store.get(key)
        node = ref and ref()
        return _intern(key) if node is None else node


class _TwoFields(_Term):
    """The same for the terms with two fields."""

    __slots__ = ()

    def __new__(cls, left: Term, right: Term):
        key = (cls, left, right)
        ref = _store.get(key)
        node = ref and ref()
        return _intern(key) if node is None else node


class Var(_OneField):
    __slots__ = _fields = ("name",)


class Const(_OneField):
    __slots__ = _fields = ("symbol",)


class Neg(_OneField):
    __slots__ = _fields = ("arg",)


class Meet(_TwoFields):
    __slots__ = _fields = ("left", "right")


class Join(_TwoFields):
    __slots__ = _fields = ("left", "right")


Term = Union[Var, Const, Neg, Meet, Join]


# Each distinct (variables, constants) pair once, shared by every node that
# caches it: a program meets few distinct name sets, so this stays small.
# It holds strings only, so it keeps no node alive.
_symbol_pairs: dict[tuple[frozenset[str], frozenset[str]], tuple[frozenset[str], frozenset[str]]] = {}


def term_symbols(t: Term) -> tuple[frozenset[str], frozenset[str]]:
    """(variable names, constants) of t, cached in each node on first use."""
    try:
        return t._symbols
    except AttributeError:  # not collected yet
        kind = type(t)
        if kind is Var:
            pair = frozenset((t.name,)), frozenset()
        elif kind is Const:
            pair = frozenset(), frozenset((t.symbol,))
        elif kind is Neg:
            pair = term_symbols(t.arg)
        else:
            (lv, lc), (rv, rc) = term_symbols(t.left), term_symbols(t.right)
            pair = lv | rv, lc | rc
        pair = _symbol_pairs.setdefault(pair, pair)
        object.__setattr__(t, "_symbols", pair)  # a cache in the node, not a field
        return pair


def term_variables(t: Term) -> set[str]:
    return set(term_symbols(t)[0])


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


class Formula(_Node):
    __slots__ = _fields = ("pred", "args")

    def __new__(cls, pred: str, args: tuple[Term, ...]):
        key = (cls, pred, args)
        ref = _store.get(key)
        node = ref and ref()
        if node is None:  # validated before it is stored, so a stored formula is valid
            arity = RELATION_ARITIES.get(pred)
            if arity is None:
                raise ValueError(f"unknown predicate {pred!r}")
            if len(args) != arity:
                raise ValueError(f"{pred} expects {arity} argument(s), got {len(args)}")
            node = _intern(key)
        return node


def formula_variables(f: Formula) -> set[str]:
    out: set[str] = set()
    for t in f.args:
        out |= term_symbols(t)[0]
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

    def symbols(self) -> tuple[set[str], set[str], set[str]]:
        """(variables, constants, predicates): the union of the sets each
        term caches (see ``term_symbols``)."""
        variables: set[str] = set()
        constants: set[str] = set()
        predicates: set[str] = set()
        for f in chain(self.premises, self.conclusions):
            predicates.add(f.pred)
            for t in f.args:
                v, c = term_symbols(t)
                variables |= v
                constants |= c
        return variables, constants, predicates

    def variables(self) -> set[str]:
        return self.symbols()[0]

    def constants(self) -> set[str]:
        return self.symbols()[1]

    def predicates(self) -> set[str]:
        return {f.pred for f in chain(self.premises, self.conclusions)}

    def terms(self) -> set[Term]:
        out: set[Term] = set()
        for f in chain(self.premises, self.conclusions):
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


def term_text(t: Term) -> str:
    try:
        return t._text
    except AttributeError:  # not printed yet
        text = _render(t, 0)
        object.__setattr__(t, "_text", text)  # a cache in the node, not a field
        return text


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

# One findall lexes a rule: every token is one match of _TOKEN_RE, whose
# alternatives put "|-" before "|" and "<=" before "=".  A token's kind is
# read from its text.  findall skips what no alternative matches, so the
# tokens must cover the text without its whitespace; otherwise the first
# uncovered character is reported.  Positions are computed only for errors.

_TOKEN_RE = re.compile(r"\|-|<=|#[tnbf]|[A-Za-z][A-Za-z0-9]*|\\/|/\\|[|,()~=]")
_EOF = ""  # the token after the last one


def _tokens(text: str) -> list[str]:
    """The tokens of text, last first, on top of an end-of-input token."""
    tokens = _TOKEN_RE.findall(text)
    if "".join(tokens) != "".join(text.split()):
        pos = 0
        for m in _TOKEN_RE.finditer(text):
            if text[pos:m.start()].strip():
                break
            pos = m.end()
        while text[pos].isspace():
            pos += 1
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    tokens.append(_EOF)
    tokens.reverse()
    return tokens


class _Failure(Exception):
    """A parse error found at a token, raised as `cls` with its position
    once the parser has unwound; `left` counts the tokens from the
    offending one to the end of input, both included."""

    def __init__(self, cls: type[ParseError], message: str, left: int):
        super().__init__(message)
        self.cls, self.left = cls, left


def _found(token: str) -> str:
    return repr(token or "end of input")


def _expect(tokens: list[str], token: str, kind: str) -> None:
    got = tokens.pop()
    if got != token:
        raise _Failure(ParseError, f"expected {kind}, found {_found(got)}", len(tokens) + 1)


def _rule(tokens: list[str], sigspec: SigSpec) -> Rule:
    premises: list[Formula] = []
    if tokens[-1] != "|-":
        premises.append(_formula(tokens, sigspec))
        while tokens[-1] == ",":
            tokens.pop()
            premises.append(_formula(tokens, sigspec))
    _expect(tokens, "|-", "turnstile")
    conclusions: list[Formula] = []
    if tokens[-1] != _EOF:
        conclusions.append(_formula(tokens, sigspec))
        while tokens[-1] == "|":
            tokens.pop()
            conclusions.append(_formula(tokens, sigspec))
    _expect(tokens, _EOF, "eof")
    return Rule(frozenset(premises), frozenset(conclusions))


def _formula(tokens: list[str], sigspec: SigSpec) -> Formula:
    token = tokens[-1]
    if token in PREDICATE_NAMES:
        tokens.pop()
        if token not in sigspec.relations:
            raise _Failure(SignatureError, f"predicate {token} is not in the signature",
                           len(tokens) + 1)
        _expect(tokens, "(", "lpar")
        t = _term(tokens, sigspec)
        _expect(tokens, ")", "rpar")
        return Formula(token, (t,))
    left = _term(tokens, sigspec)
    token = tokens.pop()
    left_at = len(tokens) + 1
    if token == "=":
        right = _term(tokens, sigspec)
    elif token == "<=":
        # s <= t abbreviates s \/ t = t
        right = _term(tokens, sigspec)
        left = Join(left, right)
    else:
        raise _Failure(ParseError, f"expected '=' or '<=', found {_found(token)}", left_at)
    if "eq" not in sigspec.relations:
        raise _Failure(SignatureError, "predicate eq is not in the signature", left_at)
    return Formula("eq", (left, right))


def _term(tokens: list[str], sigspec: SigSpec) -> Term:
    """Joins of meets of negated atoms, both left associative."""
    joined = None
    while True:
        t = _atom(tokens, sigspec)
        while tokens[-1] == "/\\":
            tokens.pop()
            t = Meet(t, _atom(tokens, sigspec))
        joined = t if joined is None else Join(joined, t)
        if tokens[-1] != "\\/":
            return joined
        tokens.pop()


def _atom(tokens: list[str], sigspec: SigSpec) -> Term:
    token = tokens.pop()
    if token.isalnum():  # of all tokens, only identifiers are alphanumeric
        if token in PREDICATE_NAMES:
            raise _Failure(ParseError, f"{token} is a reserved predicate name, not a variable",
                           len(tokens) + 1)
        return Var(token)
    if token == "~":
        return Neg(_atom(tokens, sigspec))
    if token == "(":
        t = _term(tokens, sigspec)
        _expect(tokens, ")", "rpar")
        return t
    if token[:1] == "#":
        if token == "#f":
            if "#t" not in sigspec.constants:
                raise _Failure(SignatureError,
                               "constant #t is not in the signature (needed for #f)",
                               len(tokens) + 1)
            return Neg(Const("#t"))
        if token not in sigspec.constants:
            raise _Failure(SignatureError, f"constant {token} is not in the signature",
                           len(tokens) + 1)
        return Const(token)
    raise _Failure(ParseError, f"expected a term, found {_found(token)}", len(tokens) + 1)


def _parse(text: str, sigspec: SigSpec, parser):
    tokens = _tokens(text)
    count = len(tokens)
    try:
        return parser(tokens, sigspec)
    except _Failure as failure:
        cls, message, left = failure.cls, str(failure), failure.left
    except RecursionError:
        # the parser recurses once per "~" and per parenthesis, so input
        # nested deeper than the interpreter's stack allows is refused here
        cls, message, left = ParseError, "nested too deeply", len(tokens) + 1
    index = count - left  # of the offending token
    starts = [m.start() for m in _TOKEN_RE.finditer(text)] + [len(text)]
    raise cls(message, starts[index]) from None


def _whole_term(tokens: list[str], sigspec: SigSpec) -> Term:
    t = _term(tokens, sigspec)
    _expect(tokens, _EOF, "eof")
    return t


def parse_rule(text: str, sigspec: SigSpec = FULL_SIG) -> Rule:
    """Parse a rule in the concrete grammar against the given signature.

    A rule nested deeper than the interpreter's recursion limit lets the
    parser follow raises ParseError ("nested too deeply")."""
    return _parse(text, sigspec, _rule)


def parse_term(text: str, sigspec: SigSpec = FULL_SIG) -> Term:
    return _parse(text, sigspec, _whole_term)


def parse_rule_lines(text: str, sigspec: SigSpec = FULL_SIG) -> list[Rule]:
    """Parse a rule file: one rule per line, '#'-to-end-of-line comments.

    A '#' starts a comment only when it is not part of a constant token.
    A parse error is re-raised as the same class with its message prefixed
    by the 1-based line number; its position, counted from the line's
    first non-blank character, is kept.
    """
    rules = []
    for number, line in enumerate(text.splitlines(), 1):
        stripped = _strip_comment(line).strip()
        if stripped:
            try:
                rules.append(parse_rule(stripped, sigspec))
            except ParseError as exc:
                raise type(exc)(f"line {number}: {exc.message}", exc.position) from None
    return rules


_COMMENT_RE = re.compile(r"#(?![tnbf])")  # a '#' that does not start a constant


def _strip_comment(line: str) -> str:
    m = _COMMENT_RE.search(line)
    return line[:m.start()] if m else line
