"""Finite algebras in the lattice signature (meet, join, neg, constants).

Elements are integer indices 0..n-1; subsets of the universe are int
bitmasks (bit i = element i).  The builtin algebras index their elements
top-first:

    B2:  t=0, f=1
    K3:  t=0, i=1, f=2       (middle element relabelled n/b on request)
    DM4: t=0, b=1, f=2, n=3

This fixed order is what makes "first in increasing bitset order" and
"lexicographically least valuation" reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Iterator, Sequence

from .syntax import CONSTANT_SYMBOLS


class AlgebraError(ValueError):
    pass


class BoundExceededError(AlgebraError):
    """An enumeration was requested above its configured size bound."""


class FiniteAlgebra:
    """Universe {0..n-1} with full operation tables; immutable by convention.

    The constructor trusts its arguments: n x n meet and join tables, n
    negation entries, constants and entries in 0..n-1, n labels or none.
    The library's own algebras are so by construction, which the tests
    check; `algebra_from_json` checks data from outside.
    """

    __slots__ = ("size", "meet", "join", "neg", "constants", "labels", "_key", "_hash")

    def __init__(self, size, meet, join, neg, constants=None, labels=None):
        self.size = size
        self.meet = tuple(tuple(row) for row in meet)
        self.join = tuple(tuple(row) for row in join)
        self.neg = tuple(neg)
        self.constants = dict(constants or {})
        self.labels = tuple(labels) if labels else None
        self._key = (self.size, self.meet, self.join, self.neg,
                     tuple(sorted(self.constants.items())))

    def leq(self, a: int, b: int) -> bool:
        return self.meet[a][b] == a

    def element_name(self, i: int) -> str:
        return self.labels[i] if self.labels else str(i)

    def with_constants(self, constants: dict[str, int]) -> "FiniteAlgebra":
        return self._expanded({**self.constants, **constants})

    def without_constants(self) -> "FiniteAlgebra":
        return self._expanded({})

    def _expanded(self, constants: dict[str, int]) -> "FiniteAlgebra":
        """This algebra with `constants` in place of its own, sharing its
        immutable tables and labels instead of copying them."""
        alg = object.__new__(FiniteAlgebra)
        alg.size, alg.meet, alg.join, alg.neg = self.size, self.meet, self.join, self.neg
        alg.constants, alg.labels = constants, self.labels
        alg._key = (*self._key[:4], tuple(sorted(constants.items())))
        return alg

    def __eq__(self, other):
        return isinstance(other, FiniteAlgebra) and self._key == other._key

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # not hashed yet
            self._hash = hash(self._key)
            return self._hash

    def __reduce__(self):
        # rebuilt from its fields, so a copy in another process hashes there
        return FiniteAlgebra, (self.size, self.meet, self.join, self.neg, self.constants,
                               self.labels)

    def __repr__(self):
        names = ",".join(self.element_name(i) for i in range(self.size))
        return f"FiniteAlgebra({names})"


# ---------------------------------------------------------------------------
# Builtins.

# Per builtin: meet, join, neg, labels, and the element each supported
# constant names, in the order the algebra's constant map lists them.
_BUILTINS = {
    "B2": ([[0, 1], [1, 1]], [[0, 0], [0, 1]], [1, 0], ("t", "f"), {"#t": 0}),
    "K3": ([[0, 1, 2], [1, 1, 2], [2, 2, 2]], [[0, 0, 0], [0, 1, 1], [0, 1, 2]], [2, 1, 0],
           ("t", "i", "f"), {"#t": 0, "#n": 1, "#b": 1}),
    "DM4": ([[0, 1, 2, 3], [1, 1, 2, 2], [2, 2, 2, 2], [3, 2, 2, 3]],
            [[0, 0, 0, 0], [0, 1, 1, 0], [0, 1, 2, 3], [0, 0, 3, 3]], [2, 1, 0, 3],
            ("t", "b", "f", "n"), {"#t": 0, "#b": 1, "#n": 3}),
}


def builtin(name: str, constants: Iterable[str] = (), middle_label: str | None = None) -> FiniteAlgebra:
    """One of B2, K3, DM4, optionally expanded by constants #t/#n/#b.

    On K3 the single middle element can interpret either #n or #b (but not
    both); `middle_label` relabels it without adding a constant.
    """
    constants = set(constants)
    bad = constants - {"#t", "#n", "#b"}
    if bad:
        raise AlgebraError(f"unknown constants {sorted(bad)}")
    if name not in _BUILTINS:
        raise AlgebraError(f"unknown builtin algebra {name!r}")
    meet, join, neg, labels, named = _BUILTINS[name]
    if constants - named.keys():
        raise AlgebraError(f"{name} only supports the constant {', '.join(named)}")
    if name == "K3":
        if {"#n", "#b"} <= constants:
            raise AlgebraError("K3 has a single middle element; request #n or #b, not both")
        middle = middle_label or ("n" if "#n" in constants else "b" if "#b" in constants else "i")
        labels = ("t", middle, "f")
    return FiniteAlgebra(len(neg), meet, join, neg,
                         {c: v for c, v in named.items() if c in constants}, labels)


# ---------------------------------------------------------------------------
# Equational checks.

def check_demorgan(alg: FiniteAlgebra) -> tuple[bool, str | None]:
    """Distributive lattice + involutive order-inverting negation.

    Returns (True, None) or (False, first violated instance).
    """
    n = alg.size
    meet, join, neg = alg.meet, alg.join, alg.neg
    for x in range(n):
        if neg[neg[x]] != x:
            return False, f"~~{x} = {neg[neg[x]]} != {x}"
        for y in range(n):
            if meet[x][y] != meet[y][x]:
                return False, f"{x}/\\{y} != {y}/\\{x}"
            if join[x][y] != join[y][x]:
                return False, f"{x}\\/{y} != {y}\\/{x}"
            if meet[x][join[x][y]] != x:
                return False, f"absorption fails at {x},{y}"
            if join[x][meet[x][y]] != x:
                return False, f"dual absorption fails at {x},{y}"
            if neg[meet[x][y]] != join[neg[x]][neg[y]]:
                return False, f"~({x}/\\{y}) != ~{x}\\/~{y}"
            for z in range(n):
                if meet[x][meet[y][z]] != meet[meet[x][y]][z]:
                    return False, f"/\\ not associative at {x},{y},{z}"
                if join[x][join[y][z]] != join[join[x][y]][z]:
                    return False, f"\\/ not associative at {x},{y},{z}"
                if meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]:
                    return False, f"distributivity fails at {x},{y},{z}"
    return True, None


def check_kleene(alg: FiniteAlgebra) -> tuple[bool, str | None]:
    """De Morgan plus x /\\ ~x <= y \\/ ~y."""
    ok, witness = check_demorgan(alg)
    if not ok:
        return ok, witness
    meet, join, neg = alg.meet, alg.join, alg.neg
    for x in range(alg.size):
        lo = meet[x][neg[x]]
        for y in range(alg.size):
            hi = join[y][neg[y]]
            if meet[lo][hi] != lo:
                return False, f"x/\\~x <= y\\/~y fails at x={x}, y={y}"
    return True, None


# ---------------------------------------------------------------------------
# Congruences.

@dataclass(frozen=True, slots=True)
class Congruence:
    """Partition of the universe, stored as its least-representative map:
    ``rep[a]`` is the least member of a's class.  Any labelling of the
    classes (a sequence of hashables, equal labels for one class) is
    canonicalised to that map on construction, so equal partitions are
    equal values and every method may index by ``rep``."""

    algebra: FiniteAlgebra
    rep: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rep", _canon(self.rep))

    def relates(self, a: int, b: int) -> bool:
        return self.rep[a] == self.rep[b]

    @property
    def is_identity(self) -> bool:
        return self.rep == tuple(range(self.algebra.size))

    def classes(self) -> tuple[tuple[int, ...], ...]:
        byrep: dict[int, list[int]] = {}
        for i, r in enumerate(self.rep):
            byrep.setdefault(r, []).append(i)
        return tuple(tuple(v) for _, v in sorted(byrep.items()))

    def refines(self, other: "Congruence") -> bool:
        """True when every class of self is contained in a class of other."""
        return all(other.rep[a] == other.rep[self.rep[a]] for a in range(len(self.rep)))


def _canon(rep: Sequence[int]) -> tuple[int, ...]:
    least: dict[int, int] = {}
    for i, r in enumerate(rep):
        if r not in least:
            least[r] = i
    return tuple(least[r] for r in rep)


def split_by_operations(alg: FiniteAlgebra, rep: Sequence[int]) -> tuple[int, ...]:
    """The partition rep with each class split by the classes of ``~a``,
    ``a /\\ c`` and ``a \\/ c`` for every c, as a least-representative map."""
    meet, join, neg = alg.meet, alg.join, alg.neg
    return _canon([(rep[a], rep[neg[a]], tuple(rep[v] for v in meet[a]),
                    tuple(rep[v] for v in join[a])) for a in range(alg.size)])


def is_congruence_partition(alg: FiniteAlgebra, rep: Sequence[int]) -> bool:
    """A partition is a congruence iff splitting by the operations splits
    nothing: varying one argument at a time suffices, by transitivity."""
    return split_by_operations(alg, rep) == _canon(rep)


def _merge_pairs(alg: FiniteAlgebra, pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Smallest congruence relating all given pairs (union-find closure)."""
    n = alg.size
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = list(pairs)
    while work:
        a, b = work.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        if ra > rb:
            ra, rb = rb, ra
        parent[rb] = ra
        for c in range(n):
            work.append((alg.meet[a][c], alg.meet[b][c]))
            work.append((alg.join[a][c], alg.join[b][c]))
        work.append((alg.neg[a], alg.neg[b]))
    return _canon([find(i) for i in range(n)])


CONGRUENCE_BOUND = 10


@lru_cache(maxsize=None)
def congruences(alg: FiniteAlgebra) -> tuple[Congruence, ...]:
    """The full congruence lattice, sorted by least-representative map.

    Every congruence is the join of the principal congruences it
    contains, so the lattice is the closure of the identity and the
    principal congruences under joins with a principal one.  The tests
    check it against a filter over all partitions, the oracle, on every
    census algebra up to size 7.

    Cached, so each algebra's lattice is enumerated once per process; the
    tuple and its congruences are immutable and shared by every caller.
    The key, algebra equality, ignores labels: a relabelled copy gets the
    congruences of the first copy asked for, and ``quotient`` and
    ``quotient_structure`` take labels from the algebra they are given.
    """
    n = alg.size
    if n > CONGRUENCE_BOUND:
        raise BoundExceededError(f"|A| = {n} exceeds congruence bound {CONGRUENCE_BOUND}")
    principals = {_merge_pairs(alg, [(a, b)]) for a in range(n) for b in range(a + 1, n)}
    known = {tuple(range(n))} | principals
    frontier = list(known)
    while frontier:
        rep = frontier.pop()
        for p in principals:
            joined = _merge_pairs(alg, [(i, rep[i]) for i in range(n)] +
                                  [(i, p[i]) for i in range(n)])
            if joined not in known:
                known.add(joined)
                frontier.append(joined)
    return tuple(Congruence(alg, rep) for rep in sorted(known))


# ---------------------------------------------------------------------------
# Subalgebras, quotients.

def subalgebra(alg: FiniteAlgebra, gens: Iterable[int]) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """Closure of gens (plus constants) under the operations.

    Returns the subalgebra and the embedding new-index -> old-element.
    """
    closure = set(gens) | set(alg.constants.values())
    if not closure:
        raise AlgebraError("subalgebra needs at least one generator or constant")
    frontier = list(closure)
    while frontier:
        a = frontier.pop()
        candidates = [alg.neg[a]]
        for b in list(closure):
            candidates += [alg.meet[a][b], alg.join[a][b]]
        for c in candidates:
            if c not in closure:
                closure.add(c)
                frontier.append(c)
    elems = sorted(closure)
    back = {e: i for i, e in enumerate(elems)}
    meet = [[back[alg.meet[a][b]] for b in elems] for a in elems]
    join = [[back[alg.join[a][b]] for b in elems] for a in elems]
    neg = [back[alg.neg[a]] for a in elems]
    constants = {c: back[v] for c, v in alg.constants.items()}
    labels = [alg.element_name(e) for e in elems] if alg.labels else None
    return FiniteAlgebra(len(elems), meet, join, neg, constants, labels), tuple(elems)


def quotient(alg: FiniteAlgebra, cong: Congruence) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """Quotient by a congruence; returns (algebra, projection old -> new)."""
    if cong.algebra is not alg and cong.algebra != alg:
        raise AlgebraError("congruence belongs to a different algebra")
    if not is_congruence_partition(alg, cong.rep):
        raise AlgebraError("partition is not a congruence")
    return _quotient(alg, cong)


def _quotient(alg: FiniteAlgebra, cong: Congruence) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """`quotient`'s tables, for a partition of alg already known to be a
    congruence."""
    reps = sorted(set(cong.rep))
    back = {r: i for i, r in enumerate(reps)}
    proj = tuple(back[cong.rep[a]] for a in range(alg.size))
    meet = [[proj[alg.meet[a][b]] for b in reps] for a in reps]
    join = [[proj[alg.join[a][b]] for b in reps] for a in reps]
    neg = [proj[alg.neg[a]] for a in reps]
    constants = {c: proj[v] for c, v in alg.constants.items()}
    if alg.labels:
        classes = cong.classes()
        labels = ["|".join(alg.element_name(e) for e in cls) for cls in classes]
    else:
        labels = None
    return FiniteAlgebra(len(reps), meet, join, neg, constants, labels), proj


# ---------------------------------------------------------------------------
# Filters and ideals (as bitmasks).  Empty and full sets are admitted, and
# count as prime.  Ideals are read as the filters of the order dual.

def mask_of(elems: Iterable[int]) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def mask_iter(mask: int) -> Iterator[int]:
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def is_filter(alg: FiniteAlgebra, mask: int) -> bool:
    for a in mask_iter(mask):
        for b in range(alg.size):
            if alg.leq(a, b) and not (mask >> b) & 1:
                return False
            if (mask >> b) & 1 and not (mask >> alg.meet[a][b]) & 1:
                return False
    return True


def is_prime_filter(alg: FiniteAlgebra, mask: int) -> bool:
    if not is_filter(alg, mask):
        return False
    for a in range(alg.size):
        for b in range(alg.size):
            if (mask >> alg.join[a][b]) & 1 and not ((mask >> a) & 1 or (mask >> b) & 1):
                return False
    return True


def enumerate_filters(alg: FiniteAlgebra, prime_only: bool = False) -> list[int]:
    check = is_prime_filter if prime_only else is_filter
    return [m for m in range(1 << alg.size) if check(alg, m)]


def _dual(alg: FiniteAlgebra) -> FiniteAlgebra:
    """The order dual, meet and join swapped: its filters and prime filters
    are the ideals and prime ideals of alg."""
    return FiniteAlgebra(alg.size, alg.join, alg.meet, alg.neg)


def enumerate_ideals(alg: FiniteAlgebra, prime_only: bool = False) -> list[int]:
    return enumerate_filters(_dual(alg), prime_only)


def pair_extension(alg: FiniteAlgebra, filter_mask: int, ideal_mask: int) -> tuple[int, int]:
    """Extend a disjoint filter/ideal pair to a complementary prime pair.

    Scans prime filters in increasing bitset order and returns the first G
    with F <= G and G disjoint from I, together with J = complement(G).
    """
    if not is_filter(alg, filter_mask):
        raise AlgebraError("first argument is not a filter")
    if not is_filter(_dual(alg), ideal_mask):
        raise AlgebraError("second argument is not an ideal")
    if filter_mask & ideal_mask:
        raise AlgebraError("filter and ideal are not disjoint")
    full = (1 << alg.size) - 1
    for g in range(1 << alg.size):
        if g & filter_mask == filter_mask and g & ideal_mask == 0 and is_prime_filter(alg, g):
            j = full & ~g
            if not is_prime_filter(_dual(alg), j):
                raise AlgebraError("internal error: complement of prime filter not a prime ideal")
            return g, j
    raise AlgebraError("internal error: no prime extension found on a finite distributive lattice")


# ---------------------------------------------------------------------------
# Homomorphisms.

@dataclass(frozen=True, slots=True)
class Homomorphism:
    source: FiniteAlgebra
    target: FiniteAlgebra
    mapping: tuple[int, ...]

    def check(self) -> tuple[bool, str | None]:
        h = self.mapping
        s, t = self.source, self.target
        for a in range(s.size):
            if t.neg[h[a]] != h[s.neg[a]]:
                return False, f"neg not preserved at {a}"
            for b in range(s.size):
                if t.meet[h[a]][h[b]] != h[s.meet[a][b]]:
                    return False, f"meet not preserved at {a},{b}"
                if t.join[h[a]][h[b]] != h[s.join[a][b]]:
                    return False, f"join not preserved at {a},{b}"
        for c in set(s.constants) & set(t.constants):
            if h[s.constants[c]] != t.constants[c]:
                return False, f"constant {c} not preserved"
        return True, None

    @property
    def is_injective(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.mapping)))


def hom_to_dm4(alg: FiniteAlgebra, prime_filter_mask: int) -> Homomorphism:
    """The four-case membership-pattern map into DM4 induced by a prime filter.

    a maps to t/b/n/f according to whether a and ~a lie in the filter.
    """
    if not is_prime_filter(alg, prime_filter_mask):
        raise AlgebraError("mask is not a prime filter")
    dm4 = builtin("DM4")
    mapping = []
    for a in range(alg.size):
        in_t = (prime_filter_mask >> a) & 1
        neg_in_t = (prime_filter_mask >> alg.neg[a]) & 1
        if in_t and not neg_in_t:
            mapping.append(0)  # t
        elif in_t and neg_in_t:
            mapping.append(1)  # b
        elif not in_t and neg_in_t:
            mapping.append(2)  # f
        else:
            mapping.append(3)  # n
    hom = Homomorphism(alg.without_constants(), dm4, tuple(mapping))
    ok, witness = hom.check()
    if not ok:
        raise AlgebraError(f"internal error: induced map is not a homomorphism ({witness})")
    return hom


@dataclass(frozen=True, slots=True)
class SubdirectEmbedding:
    algebra: FiniteAlgebra
    filters: tuple[int, ...]
    homs: tuple[Homomorphism, ...]

    def vector(self, a: int) -> tuple[int, ...]:
        return tuple(h.mapping[a] for h in self.homs)

    @property
    def is_injective(self) -> bool:
        vecs = {self.vector(a) for a in range(self.algebra.size)}
        return len(vecs) == self.algebra.size


def subdirect_embedding(alg: FiniteAlgebra) -> SubdirectEmbedding:
    """A separating prime-filter family embedding alg into a power of DM4.

    Filters are scanned in increasing bitset order; one is kept whenever it
    separates a still-unseparated pair.
    """
    pairs = {(a, b) for a in range(alg.size) for b in range(a + 1, alg.size)}
    chosen: list[int] = []
    homs: list[Homomorphism] = []
    for g in range(1 << alg.size):
        if not pairs:
            break
        if not is_prime_filter(alg, g):
            continue
        hom = hom_to_dm4(alg, g)
        separated = {(a, b) for (a, b) in pairs if hom.mapping[a] != hom.mapping[b]}
        if separated:
            chosen.append(g)
            homs.append(hom)
            pairs -= separated
    if pairs:
        raise AlgebraError("internal error: no separating family; input is not a De Morgan lattice?")
    return SubdirectEmbedding(alg, tuple(chosen), tuple(homs))


# ---------------------------------------------------------------------------
# Isomorphism and canonical forms.

def _conjugate_key(alg: FiniteAlgebra, inv: Sequence[int]) -> tuple:
    """The tables of alg relabelled so that element inv[i] gets label i."""
    perm = [0] * alg.size
    for i, a in enumerate(inv):
        perm[a] = i
    meet = tuple(tuple(perm[alg.meet[inv[a]][inv[b]]] for b in range(alg.size))
                 for a in range(alg.size))
    join = tuple(tuple(perm[alg.join[inv[a]][inv[b]]] for b in range(alg.size))
                 for a in range(alg.size))
    neg = tuple(perm[alg.neg[inv[a]]] for a in range(alg.size))
    consts = tuple(sorted((c, perm[v]) for c, v in alg.constants.items()))
    return (meet, join, neg, consts)


def canonical_key(alg: FiniteAlgebra) -> tuple:
    """The least relabelled table encoding; equal keys iff isomorphic.

    When some element a has a /\\ b = a for every b, only relabellings that
    give such an element label 0 are tried: the least key's meet row 0 is
    then all zeros, and only such an element gives that row.
    """
    elems = range(alg.size)
    bottoms = [a for a in elems if all(alg.meet[a][b] == a for b in elems)]
    if not bottoms:
        return min(_conjugate_key(alg, inv) for inv in permutations(elems))
    return min(_conjugate_key(alg, (a, *rest)) for a in bottoms
               for rest in permutations([b for b in elems if b != a]))


# ---------------------------------------------------------------------------
# Census of De Morgan lattices up to isomorphism, by Birkhoff duality.
#
# A finite distributive lattice is the lattice of downsets of its poset J of
# join-irreducibles, with meet = intersection and join = union (Birkhoff
# 1937).  Its De Morgan negations are exactly D -> J \ s[D] for the
# order-reversing involutions s of J (Cornish & Fowler 1977).  So the census
# enumerates the posets J with exactly n downsets and the order-reversing
# involutions of each; distributivity and the De Morgan laws then hold by
# construction, and `canonical_key` removes the labelled duplicates.
#
# Posets are naturally labelled: each new point is maximal, so its strict
# downset is one of the downsets built so far.  Adding a point keeps every
# downset and adds at least one, so a branch stops once it reaches n.

CENSUS_BOUND = 8


def _posets_with_downsets(n: int) -> Iterator[tuple[list[int], list[int]]]:
    """(below, downsets) per naturally labelled poset with exactly n downsets.

    below[j] is the mask of the points strictly below j; downsets are masks.
    """

    def rec(below: list[int], downs: list[int]):
        if len(downs) == n:
            yield below, downs
            return
        p = 1 << len(below)
        for strict in downs:
            grown = downs + [d | p for d in downs if d & strict == strict]
            if len(grown) <= n:
                yield from rec(below + [strict], grown)

    yield from rec([], [0])


def _order_reversing_involutions(below: list[int]) -> Iterator[list[int]]:
    """Involutions s of the poset with x < y iff s(y) < s(x)."""
    m = len(below)

    def rec(s: list[int | None]):
        if None not in s:
            if all((below[y] >> x & 1) == (below[s[x]] >> s[y] & 1)
                   for x in range(m) for y in range(m)):
                yield s
            return
        a = s.index(None)
        for b in range(a, m):
            if s[b] is None:
                t = s.copy()
                t[a], t[b] = b, a
                yield from rec(t)

    yield from rec([None] * m)


def enumerate_dm_lattices(n: int, kleene_only: bool = False) -> list[FiniteAlgebra]:
    """All De Morgan (or Kleene) lattices of exactly size n, up to isomorphism.

    Each is the downset lattice of a poset J of join-irreducibles, negated
    through an order-reversing involution of J (see the comment above).
    Each member is the canonical form of its class, with the tables of its
    `canonical_key`, and members are sorted by that key.  Sizes 1..8.
    """
    if n < 1:
        raise BoundExceededError("size must be at least 1")
    if n > CENSUS_BOUND:
        raise BoundExceededError(f"size {n} above census bound {CENSUS_BOUND}")
    keys = set()
    for below, downs in _posets_with_downsets(n):
        index = {d: i for i, d in enumerate(downs)}
        full = (1 << len(below)) - 1
        meet = [[index[a & b] for b in downs] for a in downs]
        join = [[index[a | b] for b in downs] for a in downs]
        for s in _order_reversing_involutions(below):
            neg = [index[full & ~mask_of(s[j] for j in mask_iter(d))] for d in downs]
            alg = FiniteAlgebra(n, meet, join, neg)
            if not kleene_only or check_kleene(alg)[0]:
                keys.add(canonical_key(alg))
    return [FiniteAlgebra(n, meet, join, neg) for meet, join, neg, _ in sorted(keys)]


# ---------------------------------------------------------------------------
# Interchange format.

def algebra_to_json(alg: FiniteAlgebra) -> dict:
    out = {
        "size": alg.size,
        "labels": list(alg.labels) if alg.labels else [str(i) for i in range(alg.size)],
        "ops": {
            "meet": [list(row) for row in alg.meet],
            "join": [list(row) for row in alg.join],
            "neg": list(alg.neg),
            "const": dict(sorted(alg.constants.items())),
        },
    }
    return out


def _check(ok: bool, field: str, expected: str) -> None:
    if not ok:
        raise AlgebraError(f"{field} must be {expected}")


def _elements(value, n: int) -> bool:
    """value is a list of n integers in 0..n-1."""
    return (isinstance(value, list) and len(value) == n
            and all(type(v) is int and 0 <= v < n for v in value))


def algebra_from_json(data: dict) -> FiniteAlgebra:
    """Read the interchange format, where algebra tables come from outside.

    Rejects, with an AlgebraError that names the field: data that is not
    an object; a size that is not a positive integer (a lattice has at
    least one element); missing ``ops``;
    a meet or join table that is not size rows of size entries; a neg that
    is not size entries; an entry or constant value that is not an integer
    in 0..size-1; a constant other than #t, #n, #b; labels that are not
    size strings.  An empty or missing label list means no labels.
    """
    _check(isinstance(data, dict), "algebra JSON", "an object")
    n = data.get("size")
    _check(type(n) is int and n >= 1, "size", "a positive integer")
    ops = data.get("ops")
    _check(isinstance(ops, dict), "ops", "an object")
    within = f"integers in 0..{n - 1}"
    for op in ("meet", "join"):
        _check(isinstance(ops.get(op), list) and len(ops[op]) == n
               and all(_elements(row, n) for row in ops[op]),
               f"ops.{op}", f"{n} rows of {n} {within}")
    _check(_elements(ops.get("neg"), n), "ops.neg", f"a list of {n} {within}")
    const = ops.get("const", {})
    _check(isinstance(const, dict) and all(c in CONSTANT_SYMBOLS and type(v) is int and 0 <= v < n
                                           for c, v in const.items()),
           "ops.const", f"a map from {list(CONSTANT_SYMBOLS)} to {within}")
    labels = data.get("labels")
    _check(labels is None or isinstance(labels, list) and len(labels) in (0, n)
           and all(isinstance(x, str) for x in labels),
           "labels", f"a list of {n} strings")
    return FiniteAlgebra(n, ops["meet"], ops["join"], ops["neg"], const, labels)
