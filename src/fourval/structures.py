"""Structures, valuation semantics, and rule validity.

A structure is a finite algebra plus an interpretation of each relation
symbol: unary relations are bitmasks over the universe, binary relations
are tuples of row bitmasks (row a, bit b set iff (a,b) is in the relation).

Validity is decided by one kernel over valuation bitsets.

* The grid.  The valuations of variables v0 < v1 < ... < v(k-1)
  (alphabetical order) over an n-element algebra are the n**k points of a
  grid in lexicographic order: point i gives v_j the j-th base-n digit of
  i, most significant first, so v0 varies slowest and elements go in
  index order.
* Terms.  A term's bitset is a tuple of n ints; bit i of entry a is set
  iff the term evaluates to a at point i.  A `_Grid` computes it by
  recursion over the term and memoises it by node: a variable's entries
  are fixed runs of the grid, a constant's is all-ones at its value, and
  an operation ORs the AND of each pair of argument entries into the
  entry of their result.
* Formulas.  P(t) is the OR of t's entries for the elements of P.
  s = t is the OR, over a, of s's entry a ANDed with the OR of t's
  entries for the elements b related to a.
* Rules.  A rule fails at the points of AND(premises) & ~OR(conclusions).
  Bit order is grid order, so the lowest set bit of that int is the
  lexicographically least counter-valuation, which is the one reported.

The bitsets live in one store: `_grid(alg, names)` keeps one `_Grid` per
process for each algebra and variable tuple (constants read as variables
included).  Its memo maps a term node to its bitsets and a formula node to
a dict from the value of its relation to its bitset.  All of these depend
only on the algebra's tables and constants, the names, the node and the
value, never on a structure, so structures built apart over one algebra
share them, and so do systems that share an axiom.  Terms and formulas
are hash-consed (see `syntax`), so a node met again in another rule or
structure is one dict lookup.  The memo's keys are weak: an entry goes
when its node does, so the store is bounded by the nodes the program
still references.  The key, algebra equality, ignores labels, which no
bitset reads.

`holds` decides one rule.  It reads the rule's variables, predicates and
constants once (each term caches its own sets), and rejects a symbol the
structure does not interpret before it evaluates anything.  Premises are
ANDed in set order, since AND commutes, and evaluation stops at the first zero;
conclusions are sorted by text only to report a failure.  A grid of at
most BLOCK_VALUATIONS points is swept whole, on the store's grid, and
`formula_bitmap` reads the same grids.  Larger grids are swept in blocks
that fix the leading variables, block by block in lexicographic order,
each with a fresh `_Grid` outside the store, so memory stays bounded
however many variables a rule has; the first block with a failing point
holds the least counter-valuation.
`CompiledRules` serves sweeps that check many relation values over one
algebra: a literal reads its formula's dict in the store's grid, and
`_Grid.formula` fills it on a miss, as it does for `holds`.  On an
algebra that leaves some of the rules' constants uninterpreted, those
constants lead every grid as variables, so one check covers every
assignment of them: the j-th assignment is the j-th run of each grid,
and `RuleCheck.failing_points` gives a rule's failing points over all of
them.
`eval_term` evaluates one term at one valuation; it is the independent
oracle the tests compare the kernel against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product as iproduct
from typing import Iterable, Iterator, Mapping, Sequence
from weakref import WeakKeyDictionary

from .algebra import FiniteAlgebra, algebra_from_json, algebra_to_json, builtin, mask_iter, mask_of
from .syntax import (
    RELATION_ARITIES,
    Const,
    Formula,
    Meet,
    Neg,
    Rule,
    SigSpec,
    Term,
    UsageError,
    Var,
    formula_text,
)

DEFAULT_VARIABLE_LIMIT = 8
BLOCK_VALUATIONS = 1 << 16  # grid points swept per block


class SignatureMismatchError(ValueError):
    pass


class VariableLimitError(ValueError):
    pass


@dataclass(frozen=True)
class Structure:
    algebra: FiniteAlgebra
    unary: dict[str, int]
    binary: dict[str, tuple[int, ...]]

    def signature(self) -> SigSpec:
        return SigSpec(frozenset(self.unary) | frozenset(self.binary),
                       frozenset(self.algebra.constants))

    def is_trivial(self) -> bool:
        full = (1 << self.algebra.size) - 1
        return (all(m == full for m in self.unary.values())
                and all(all(r == full for r in rows) for rows in self.binary.values()))

    def __hash__(self):
        return hash((self.algebra, tuple(sorted(self.unary.items())),
                     tuple(sorted(self.binary.items()))))

    def __eq__(self, other):
        return (isinstance(other, Structure) and self.algebra == other.algebra
                and self.unary == other.unary and self.binary == other.binary)


def structure(algebra: FiniteAlgebra, unary: Mapping[str, Iterable[int] | int] | None = None,
              binary: Mapping[str, Iterable[tuple[int, int]] | Sequence[int]] | None = None) -> Structure:
    """Convenience constructor accepting element sets / pair sets."""
    un: dict[str, int] = {}
    for name, val in (unary or {}).items():
        un[name] = val if isinstance(val, int) else mask_of(val)
    bi: dict[str, tuple[int, ...]] = {}
    for name, val in (binary or {}).items():
        if isinstance(val, (list, tuple)) and val and isinstance(val[0], int):
            bi[name] = tuple(val)
        else:
            rows = [0] * algebra.size
            for (a, b) in val:
                rows[a] |= 1 << b
            bi[name] = tuple(rows)
    return Structure(algebra, un, bi)


def identity_relation(algebra: FiniteAlgebra) -> tuple[int, ...]:
    return tuple(1 << i for i in range(algebra.size))


@dataclass(frozen=True, slots=True)
class Verdict:
    valid: bool
    valuation: dict[str, int] | None = None
    failed_conclusions: tuple[Formula, ...] | None = None

    def __bool__(self) -> bool:
        return self.valid


def eval_term(s: Structure, t: Term, valuation: Mapping[str, int]) -> int:
    """Value of t at one valuation: the oracle the kernel is tested against."""
    alg = s.algebra
    if isinstance(t, Var):
        if t.name not in valuation:
            raise KeyError(f"valuation does not cover variable {t.name}")
        return valuation[t.name]
    if isinstance(t, Const):
        if t.symbol not in alg.constants:
            raise SignatureMismatchError(f"constant {t.symbol} not interpreted in the structure")
        return alg.constants[t.symbol]
    if isinstance(t, Neg):
        return alg.neg[eval_term(s, t.arg, valuation)]
    if isinstance(t, Meet):
        return alg.meet[eval_term(s, t.left, valuation)][eval_term(s, t.right, valuation)]
    return alg.join[eval_term(s, t.left, valuation)][eval_term(s, t.right, valuation)]


# ---------------------------------------------------------------------------
# The valuation-bitset kernel; see the module docstring.

@lru_cache(maxsize=128)
def _variable_bits(n: int, k: int, i: int) -> tuple[int, ...]:
    """Bitsets of the i-th of k variables on their grid over n elements."""
    run = n ** (k - 1 - i)  # consecutive points sharing variable i's value
    period = run * n
    starts = ((1 << period * n ** i) - 1) // ((1 << period) - 1)  # bit at each period start
    ones = (1 << run) - 1
    return tuple((ones << a * run) * starts for a in range(n))


def _constant_bits(alg: FiniteAlgebra, symbol: str, full: int) -> tuple[int, ...]:
    c = alg.constants.get(symbol)
    if c is None:
        raise SignatureMismatchError(f"constant {symbol} not interpreted in the structure")
    return tuple(full if a == c else 0 for a in range(alg.size))


def _negate(neg: Sequence[int], arg: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(arg)
    for a, bits in enumerate(arg):
        out[neg[a]] |= bits
    return tuple(out)


def _combine(table, left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(left)
    for a, lbits in enumerate(left):
        if lbits:
            row = table[a]
            for b, rbits in enumerate(right):
                both = lbits & rbits
                if both:
                    out[row[b]] |= both
    return tuple(out)


def _unary_bits(mask: int, arg: tuple[int, ...]) -> int:
    out = 0
    for a in mask_iter(mask):
        out |= arg[a]
    return out


def _binary_bits(rows: Sequence[int], left: tuple[int, ...], right: tuple[int, ...]) -> int:
    out = 0
    for a, lbits in enumerate(left):
        if lbits:
            related = 0
            for b in mask_iter(rows[a]):
                related |= right[b]
            out |= lbits & related
    return out


def _relation_bits(value, args: Sequence[tuple[int, ...]]) -> int:
    """Bitset of R(args) for the value of R: a mask if R is unary (one
    argument), a tuple of row masks if it is binary (two)."""
    if len(args) == 1:
        return _unary_bits(value, args[0])
    return _binary_bits(value, args[0], args[1])


class _Grid:
    """The points of one grid, or of one block of it, over an algebra: the
    variables' bitsets, the all-ones, and a memo keyed by node, of a
    term's bitsets and of a formula's bitset per relation value, so each
    is computed once per grid."""

    __slots__ = ("alg", "env", "full", "memo")

    def __init__(self, alg: FiniteAlgebra, names: Sequence[str], memo):
        n, k = alg.size, len(names)
        self.alg, self.memo = alg, memo
        self.env = {v: _variable_bits(n, k, i) for i, v in enumerate(names)}
        self.full = (1 << n ** k) - 1

    def term(self, t: Term) -> tuple[int, ...]:
        kind = type(t)
        if kind is Var:
            return self.env[t.name]
        bits = self.memo.get(t)
        if bits is None:
            alg = self.alg
            if kind is Const:  # a leading grid variable, or the constant's value
                bits = self.env.get(t.symbol) or _constant_bits(alg, t.symbol, self.full)
            elif kind is Neg:
                bits = _negate(alg.neg, self.term(t.arg))
            else:
                bits = _combine(alg.meet if kind is Meet else alg.join,
                                self.term(t.left), self.term(t.right))
            self.memo[t] = bits
        return bits

    def values(self, f: Formula) -> dict:
        """f's memo: the value of f's relation -> f's bitset."""
        memo = self.memo.get(f)
        if memo is None:
            memo = self.memo[f] = {}
        return memo

    def formula(self, f: Formula, value) -> int:
        """Bitset of f when its relation takes `value`."""
        memo = self.values(f)
        bits = memo.get(value)
        if bits is None:
            bits = memo[value] = _relation_bits(value, [self.term(t) for t in f.args])
        return bits


def _relation(s: Structure, f: Formula):
    """The value in s of f's relation."""
    value = (s.unary if len(f.args) == 1 else s.binary).get(f.pred)
    if value is None:
        raise SignatureMismatchError(f"predicate {f.pred} not interpreted in the structure")
    return value


@lru_cache(maxsize=None)
def _grid(alg: FiniteAlgebra, names: tuple[str, ...]) -> _Grid:
    """The store's grid of `names` over alg; see the module docstring."""
    return _Grid(alg, names, WeakKeyDictionary())


def formula_bitmap(s: Structure, f: Formula, names: Sequence[str]) -> int:
    """Bit i is set iff f is true at point i of the grid of `names`.

    The whole grid comes back as one int, so this is for the small grids
    the verification suites sweep rule spaces over.
    """
    return _grid(s.algebra, tuple(names)).formula(f, _relation(s, f))


def _blocks(alg: FiniteAlgebra, names: Sequence[str]) -> Iterator[tuple[int, _Grid]]:
    """(first grid point, a fresh grid of the block) per block, in grid order."""
    n, k = alg.size, len(names)
    lead = 0
    while n ** (k - lead) > BLOCK_VALUATIONS:
        lead += 1
    size = n ** (k - lead)
    for block, prefix in enumerate(iproduct(range(n), repeat=lead)):
        grid = _Grid(alg, names[lead:], {})
        for name, value in zip(names, prefix):
            grid.env[name] = tuple(grid.full if a == value else 0 for a in range(n))
        yield block * size, grid


def _grid_point(names: Sequence[str], n: int, index: int) -> dict[str, int]:
    digits = []
    for _ in names:
        index, d = divmod(index, n)
        digits.append(d)
    return dict(zip(names, reversed(digits)))


def holds(s: Structure, r: Rule, var_limit: int = DEFAULT_VARIABLE_LIMIT) -> Verdict:
    """Validity of r in s, with the least counter-valuation when it fails."""
    variables, constants, predicates = r.symbols()
    if len(variables) > var_limit:
        raise VariableLimitError(f"rule has {len(variables)} variables, limit is {var_limit}")
    missing = predicates - s.unary.keys() - s.binary.keys()
    if missing:
        raise SignatureMismatchError(f"predicates not in structure: {sorted(missing)}")
    missing = constants - s.algebra.constants.keys()
    if missing:
        raise SignatureMismatchError(f"constant {min(missing)} not interpreted in the structure")
    names = tuple(sorted(variables))
    n, k = s.algebra.size, len(names)
    blocks = ([(0, _grid(s.algebra, names))] if n ** k <= BLOCK_VALUATIONS
              else _blocks(s.algebra, names))
    for first, grid in blocks:
        fail = grid.full
        for f in r.premises:
            if not fail:
                break
            fail &= grid.formula(f, _relation(s, f))
        for f in r.conclusions:
            if not fail:
                break
            fail &= ~grid.formula(f, _relation(s, f))
        if fail:
            point = first + (fail & -fail).bit_length() - 1
            return Verdict(False, _grid_point(names, n, point),
                           tuple(sorted(r.conclusions, key=formula_text)))
    return Verdict(True)


def is_model(s: Structure,
             named_rules: Iterable[tuple[str, Rule]]) -> tuple[bool, tuple[str, Verdict] | None]:
    """Conjunction of holds(); reports the first failing axiom."""
    for name, r in named_rules:
        verdict = holds(s, r)
        if not verdict.valid:
            return False, (name, verdict)
    return True, None


class CompiledRules:
    """Named rules compiled once, for model checks of many relation values.

    `for_algebra` takes one grid per variable tuple on an algebra from
    the store (`_grid`), so rules over the same variables share their
    terms' bitsets, also with every other `CompiledRules` and with
    `holds`, and returns a `RuleCheck` of relation values over that
    algebra.  The check reads and fills each formula's dict of bitsets per
    value of its relation, kept in the store, so a formula that several
    systems' axioms share is evaluated once per algebra and value.

    A constant that the rules mention and the algebra does not interpret
    is read as one more grid variable.  Those constants, in sorted order,
    lead the grid of every rule, also of a rule that mentions only some
    of them or none, so on an n-element algebra the j-th run of n**k
    points of a grid with k variables is the j-th valuation of the
    constants (the first varies slowest) in every grid.  Each grid is
    swept whole, in one block, so a rule's variables and those constants
    are held to the default variable limit together, checked for every
    rule before any grid is built.
    """

    def __init__(self, named_rules: Iterable[tuple[str, Rule]]):
        # (name, sorted variables, literals); a literal's bitset is XORed
        # with its flip: 0 keeps a premise, -1 complements a conclusion
        self.rules: list[tuple[str, tuple[str, ...], list[tuple[Formula, int]]]] = []
        constants: set[str] = set()
        for name, r in named_rules:
            constants |= r.constants()
            self.rules.append((name, tuple(sorted(r.variables())),
                               [(f, 0) for f in sorted(r.premises, key=formula_text)]
                               + [(f, -1) for f in sorted(r.conclusions, key=formula_text)]))
        self.constants = frozenset(constants)

    def for_algebra(self, alg: FiniteAlgebra) -> RuleCheck:
        """The check of relation values against the rules on alg."""
        lead = tuple(sorted(self.constants - alg.constants.keys()))
        for name, names, _ in self.rules:
            if len(lead) + len(names) > DEFAULT_VARIABLE_LIMIT:
                raise VariableLimitError(
                    f"rule {name} has {len(names)} variables and {len(lead)} constants read as "
                    f"variables, limit is {DEFAULT_VARIABLE_LIMIT}")
        rules = []
        for name, names, literals in self.rules:
            names = lead + names
            grid = _grid(alg, names)
            # per literal: (relation, f's bitsets by relation value, f's bitset on a miss, flip)
            slots = [(f.pred, grid.values(f), partial(grid.formula, f), flip)
                     for f, flip in literals]
            rules.append((name, grid.full, slots, alg.size ** (len(names) - len(lead))))
        return RuleCheck(rules)


class RuleCheck:
    """Compiled rules on one algebra, built by `CompiledRules.for_algebra`.

    `first_failure(rels, group)`, also the check called as a function,
    gives the name of the first rule, of those indexed by `group` (all of
    them by default), that fails at some point of its grid when each
    relation takes its value in `rels`, or None.  `failing_points` gives
    every failing rule's points.  Each repeats the loop over a rule's
    literals: `first_failure` runs once per relation value in a sweep,
    and a helper called per rule slowed that sweep by about 5%.
    """

    __slots__ = ("rules",)

    def __init__(self, rules: list[tuple[str, int, list, int]]):
        self.rules = rules  # (name, all-ones of the grid, literal slots, run)

    def first_failure(self, rels: Mapping[str, object], group: Iterable[int] | None = None) -> str | None:
        rules = self.rules
        try:
            for i in range(len(rules)) if group is None else group:
                name, fail, slots, _ = rules[i]
                for pred, memo, fill, flip in slots:
                    value = rels[pred]
                    f_bits = memo.get(value)
                    if f_bits is None:
                        f_bits = fill(value)
                    fail &= f_bits ^ flip
                    if not fail:
                        break
                else:
                    return name
        except KeyError as missing:
            raise SignatureMismatchError(f"predicate {missing} not in structure") from None
        return None

    __call__ = first_failure

    def failing_points(self, rels: Mapping[str, object]) -> Iterator[tuple[int, int]]:
        """(run, points) per rule that fails somewhere, in rule order: the
        grid bitset of the points where it fails, and the number of points
        per valuation of the leading constants (1 if there are none)."""
        try:
            for _, fail, slots, run in self.rules:
                for pred, memo, fill, flip in slots:
                    value = rels[pred]
                    f_bits = memo.get(value)
                    if f_bits is None:
                        f_bits = fill(value)
                    fail &= f_bits ^ flip
                    if not fail:
                        break
                else:
                    yield run, fail
        except KeyError as missing:
            raise SignatureMismatchError(f"predicate {missing} not in structure") from None


# ---------------------------------------------------------------------------
# Names with a constant suffix.  Preset and axiom-system names take a
# "+tnb"-style suffix naming the constants that expand the algebra, e.g.
# "BDE+n" or "BD-eq+tnb"; the letter c stands for the constant #c.  This
# parser/formatter pair is the only code that reads or writes suffixes.

_SUFFIX_LETTERS = "tnb"  # also the order format_name writes them in


def parse_name(name: str) -> tuple[str, frozenset[str]]:
    """Split a name into its base and the constants its suffix names; the
    letters may come in any order and repeat."""
    base, _, suffix = name.partition("+")
    if not set(suffix) <= set(_SUFFIX_LETTERS):
        raise UsageError(f"bad constant suffix {suffix!r} in {name!r}; "
                         f"expected letters from {_SUFFIX_LETTERS!r}")
    return base, frozenset(f"#{ch}" for ch in suffix)


def format_name(base: str, constants: Iterable[str]) -> str:
    """The canonical name of `base` expanded by `constants`."""
    suffix = "".join(ch for ch in _SUFFIX_LETTERS if f"#{ch}" in constants)
    return f"{base}+{suffix}" if suffix else base


# Preset structures: one row per base name, covering every defining
# structure in scope: (builtin algebra, K3 middle label, unary relations,
# whether eq is the identity).  Every preset takes a constant suffix.

_T_TB = (0, 1)  # {t, b} in DM4
_E_T = (0,)  # {t}
_NF_TN = (0, 3)  # {t, n} in DM4

_PRESETS: dict[str, tuple[str, str | None, dict[str, tuple[int, ...]], bool]] = {
    "BD": ("DM4", None, {"T": _T_TB}, False),
    "ETL": ("DM4", None, {"E": _E_T}, False),
    "NF": ("DM4", None, {"NF": _NF_TN}, False),
    "K": ("K3", "i", {"T": (0,)}, False),
    "LP": ("K3", "i", {"T": (0, 1)}, False),
    "BDE": ("DM4", None, {"T": _T_TB, "E": _E_T}, False),
    "BDNF": ("DM4", None, {"T": _T_TB, "NF": _NF_TN}, False),
    "KE": ("K3", "i", {"T": (0, 1), "E": (0,)}, False),
    "TNE": ("DM4", None, {"T": _T_TB, "NF": _NF_TN, "E": _E_T}, False),
    "DM-eq": ("DM4", None, {}, True),
    "BD-eq": ("DM4", None, {"T": _T_TB}, True),
    "ETL-eq": ("DM4", None, {"E": _E_T}, True),
    "BDE-eq": ("DM4", None, {"T": _T_TB, "E": _E_T}, True),
    "BDNF-eq": ("DM4", None, {"T": _T_TB, "NF": _NF_TN}, True),
    "B2-eq": ("B2", None, {"T": (0,)}, True),
    "BD3-eq": ("K3", "b", {"T": (0, 1)}, True),
}


def preset_structure(name: str) -> Structure:
    base, consts = parse_name(name)
    row = _PRESETS.get(base)
    if row is None:
        raise UsageError(f"unknown preset {name!r}")
    algebra_name, middle, unary, eq_is_identity = row
    alg = builtin(algebra_name, consts, middle_label=middle)
    return structure(alg, unary, {"eq": identity_relation(alg)} if eq_is_identity else {})


def preset_names() -> list[str]:
    return sorted(_PRESETS)


# ---------------------------------------------------------------------------
# Interchange format: extends the algebra JSON with a "rels" block.

def structure_to_json(s: Structure) -> dict:
    rels: dict = {}
    for name, mask in sorted(s.unary.items()):
        rels[name] = [i for i in range(s.algebra.size) if (mask >> i) & 1]
    for name, rows in sorted(s.binary.items()):
        rels[name] = [[a, b] for a in range(s.algebra.size)
                      for b in range(s.algebra.size) if (rows[a] >> b) & 1]
    data = algebra_to_json(s.algebra)
    data["rels"] = rels
    return data


def structure_from_json(data: dict) -> Structure:
    """Read the interchange format; reject unknown relation names and
    elements outside the universe with a ValueError."""
    alg = algebra_from_json(data)

    def element(name: str, e) -> int:
        if type(e) is not int or not 0 <= e < alg.size:
            raise ValueError(f"relation {name}: element {e!r} outside the universe 0..{alg.size - 1}")
        return e

    unary: dict[str, Iterable[int]] = {}
    binary: dict[str, list[tuple[int, int]]] = {}
    rels = data.get("rels", {})
    if not isinstance(rels, dict):
        raise ValueError("rels must be an object mapping relation names to lists")
    for name, val in rels.items():
        arity = RELATION_ARITIES.get(name)
        if arity is None:
            raise ValueError(f"unknown relation {name!r}; expected one of {sorted(RELATION_ARITIES)}")
        if not isinstance(val, list):
            raise ValueError(f"relation {name}: {val!r} is not a list")
        if arity == 2:
            for p in val:
                if not isinstance(p, (list, tuple)) or len(p) != 2:
                    raise ValueError(f"relation {name}: {p!r} is not a pair")
            binary[name] = [(element(name, a), element(name, b)) for a, b in val]
        else:
            unary[name] = [element(name, e) for e in val]
    return structure(alg, unary, binary)
