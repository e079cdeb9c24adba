"""Leibniz congruences of relations and structures, reducedness, reducts.

Two independent algorithms are implemented and cross-checked:

* congruence search: the largest congruence compatible with the relation.
  The compatible congruences are closed under join: the join of two
  congruences is the transitive closure of their union, and a relation
  closed under each of them is closed under that closure.  So the join of
  all compatible congruences is itself compatible and every compatible
  congruence refines it: it is the compatible congruence with the fewest
  classes, picked by one scan of the lattice with no join computed;
* polynomial test: a ~ b iff every unary polynomial (pointwise closure of
  the identity and all constant functions under meet/join/neg) agrees on
  membership at a and b.

The search method is the primary one; the polynomial method is retained
purely as an oracle.
"""

from __future__ import annotations

from operator import attrgetter, methodcaller
from typing import Callable, Sequence

from .algebra import (
    Congruence,
    FiniteAlgebra,
    _canon,
    congruences,
    identity_congruence,
    quotient,
)
from .structures import Structure


# ---------------------------------------------------------------------------
# Congruence-search method.

def leibniz_unary(alg: FiniteAlgebra, mask: int, bound: int = 10) -> Congruence:
    """Largest congruence theta with a in F and (a,b) in theta => b in F."""
    return _largest_compatible(alg, congruences(alg, bound),
                               methodcaller("compatible_with_unary", mask))


def leibniz_binary(alg: FiniteAlgebra, rows: Sequence[int], bound: int = 10) -> Congruence:
    """Largest congruence compatible with a binary relation (two-sided)."""
    return _largest_compatible(alg, congruences(alg, bound),
                               methodcaller("compatible_with_binary", rows))


def _largest_compatible(alg: FiniteAlgebra, congs: Sequence[Congruence],
                        compatible: Callable[[Congruence], bool]) -> Congruence:
    """Join of the congruences in ``congs`` that pass ``compatible``.

    Compatibility is closed under join, so the join is the compatible
    congruence with the fewest classes, and that one is returned without
    computing any join.  Every compatible congruence must refine it; the
    check raises if one does not, which would mean ``congs`` is not the
    whole lattice or ``compatible`` is not a compatibility test.  The
    identity, compatible with every relation, is the answer when no
    congruence passes.
    """
    passing = [cong for cong in congs if compatible(cong)]
    if not passing:
        return identity_congruence(alg)
    best = min(passing, key=attrgetter("num_classes"))
    for cong in passing:
        if not cong.refines(best):
            raise AssertionError(
                f"compatible congruence {cong.rep} does not refine the largest {best.rep}")
    return best


# ---------------------------------------------------------------------------
# Polynomial method.

def unary_polynomials(alg: FiniteAlgebra) -> list[tuple[int, ...]]:
    """Value tables of all unary polynomials, via pointwise closure.

    Every term function t(x, c1..ck) decomposes into pointwise meet/join/neg
    of the identity and constant functions, so the pointwise closure is
    exactly the set of unary polynomials.
    """
    n = alg.size
    funcs: set[tuple[int, ...]] = {tuple(range(n))}
    funcs.update(tuple(c for _ in range(n)) for c in range(n))
    frontier = list(funcs)
    while frontier:
        f = frontier.pop()
        candidates = [tuple(alg.neg[v] for v in f)]
        for g in list(funcs):
            candidates.append(tuple(alg.meet[f[i]][g[i]] for i in range(n)))
            candidates.append(tuple(alg.join[f[i]][g[i]] for i in range(n)))
            candidates.append(tuple(alg.meet[g[i]][f[i]] for i in range(n)))
            candidates.append(tuple(alg.join[g[i]][f[i]] for i in range(n)))
        for h in candidates:
            if h not in funcs:
                funcs.add(h)
                frontier.append(h)
    return sorted(funcs)


def leibniz_unary_poly(alg: FiniteAlgebra, mask: int) -> Congruence:
    polys = unary_polynomials(alg)
    signature = [tuple((mask >> p[a]) & 1 for p in polys) for a in range(alg.size)]
    return _partition_from_signature(alg, signature)


def leibniz_binary_poly(alg: FiniteAlgebra, rows: Sequence[int]) -> Congruence:
    """a ~ b iff R(p(a),q(a)) <=> R(p(b),q(b)) for all polynomial pairs.

    Only the value pairs (p(a), p(b)) matter, so the quantifier over the
    polynomial set collapses to its image in A x A.
    """
    polys = unary_polynomials(alg)
    n = alg.size
    rep = list(range(n))
    for a in range(n):
        for b in range(a + 1, n):
            if rep[b] != b:
                continue
            pairs = {(p[a], p[b]) for p in polys}
            if _binary_agrees(rows, pairs):
                rep[b] = rep[a]
    return Congruence(alg, _canon(rep))


def _binary_agrees(rows: Sequence[int], pairs: set[tuple[int, int]]) -> bool:
    for (u, u2) in pairs:
        for (v, v2) in pairs:
            if ((rows[u] >> v) & 1) != ((rows[u2] >> v2) & 1):
                return False
    return True


def _partition_from_signature(alg: FiniteAlgebra, signature: list) -> Congruence:
    first: dict = {}
    rep = []
    for a in range(alg.size):
        rep.append(first.setdefault(signature[a], a))
    return Congruence(alg, _canon(rep))


# ---------------------------------------------------------------------------
# Whole structures.

def leibniz_structure(s: Structure, bound: int = 10,
                      lattice: Sequence[Congruence] | None = None) -> Congruence:
    """Intersection of the Leibniz congruences of all relations.

    A congruence that refines a compatible one is compatible too, so the
    intersection is the largest congruence compatible with every relation,
    found in one scan of the lattice.  ``lattice`` is the congruence
    lattice of ``s.algebra`` when the caller already has it; otherwise it
    is enumerated here.
    """
    tests = [methodcaller("compatible_with_unary", mask) for _, mask in sorted(s.unary.items())]
    tests += [methodcaller("compatible_with_binary", rows) for _, rows in sorted(s.binary.items())]
    if not tests:
        raise ValueError("structure has no relations")
    if lattice is None:
        lattice = congruences(s.algebra, bound)
    return _largest_compatible(s.algebra, lattice, lambda cong: all(t(cong) for t in tests))


def is_reduced(s: Structure, bound: int = 10) -> bool:
    return leibniz_structure(s, bound).is_identity


def reduct(s: Structure, bound: int = 10) -> tuple[Structure, tuple[int, ...]]:
    """Quotient the algebra and all relations by the Leibniz congruence."""
    theta = leibniz_structure(s, bound)
    return quotient_structure(s, theta)


def quotient_structure(s: Structure, theta: Congruence) -> tuple[Structure, tuple[int, ...]]:
    """Quotient by any congruence compatible with all relations."""
    alg2, proj = quotient(s.algebra, theta)
    unary = {}
    for name, mask in s.unary.items():
        if not theta.compatible_with_unary(mask):
            raise ValueError(f"congruence not compatible with relation {name}")
        m2 = 0
        for a in range(s.algebra.size):
            if (mask >> a) & 1:
                m2 |= 1 << proj[a]
        unary[name] = m2
    binary = {}
    for name, rows in s.binary.items():
        if not theta.compatible_with_binary(rows):
            raise ValueError(f"congruence not compatible with relation {name}")
        rows2 = [0] * alg2.size
        for a in range(s.algebra.size):
            for b in range(s.algebra.size):
                if (rows[a] >> b) & 1:
                    rows2[proj[a]] |= 1 << proj[b]
        binary[name] = tuple(rows2)
    return Structure(alg2, unary, binary), proj
