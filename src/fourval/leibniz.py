"""Leibniz congruences of relations and structures, reducedness, reducts.

Two independent algorithms are implemented and cross-checked:

* partition refinement: the largest congruence compatible with the
  relations.  A congruence is compatible with a unary relation iff it
  relates only elements with the same membership, and with a binary
  relation iff it relates only elements with the same row and the same
  column: so the compatible congruences are exactly those inside the
  agreement partition.  Splitting its classes until the partition is
  stable under neg, meet and join gives a congruence inside it, and every
  congruence inside it stays inside each split, so the fixed point is the
  largest: the Leibniz congruence.  No congruence lattice is enumerated;
* polynomial test: a ~ b iff every unary polynomial (pointwise closure of
  the identity and all constant functions under meet/join/neg) agrees on
  membership at a and b.

The refinement is the primary method; the polynomial method is retained
purely as an oracle.
"""

from __future__ import annotations

from typing import Collection, Sequence

from .algebra import Congruence, FiniteAlgebra, _canon, quotient
from .structures import Structure


# ---------------------------------------------------------------------------
# Partition refinement.

def leibniz_unary(alg: FiniteAlgebra, mask: int) -> Congruence:
    """Largest congruence theta with a in F and (a,b) in theta => b in F."""
    return _leibniz(alg, [mask], [])


def leibniz_binary(alg: FiniteAlgebra, rows: Sequence[int]) -> Congruence:
    """Largest congruence compatible with a binary relation (two-sided)."""
    return _leibniz(alg, [], [rows])


def _leibniz(alg: FiniteAlgebra, masks: Collection[int],
             relations: Collection[Sequence[int]]) -> Congruence:
    """Largest congruence inside the agreement partition of the relations.

    Elements agree when they have the same membership in each unary
    relation and the same row and column in each binary one.  Each round
    splits the classes by the classes of ``~a``, ``a /\\ c`` and
    ``a \\/ c`` for every c, the condition ``is_congruence_partition``
    checks; a round that splits nothing ends the refinement.
    """
    n = alg.size
    columns = [[sum(((rows[x] >> a) & 1) << x for x in range(n)) for a in range(n)]
               for rows in relations]
    rep = _canon([(tuple((m >> a) & 1 for m in masks), tuple(rows[a] for rows in relations),
                   tuple(col[a] for col in columns)) for a in range(n)])
    meet, join, neg = alg.meet, alg.join, alg.neg
    while True:
        split = _canon([(rep[a], rep[neg[a]], tuple(rep[v] for v in meet[a]),
                         tuple(rep[v] for v in join[a])) for a in range(n)])
        if split == rep:
            return Congruence(alg, rep)
        rep = split


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

def leibniz_structure(s: Structure) -> Congruence:
    """Largest congruence compatible with every relation of ``s``.

    It is the intersection of the relations' Leibniz congruences, found by
    one refinement from the partition on which all the relations agree.
    """
    if not s.unary and not s.binary:
        raise ValueError("structure has no relations")
    return _leibniz(s.algebra, s.unary.values(), s.binary.values())


def is_reduced(s: Structure) -> bool:
    return leibniz_structure(s).is_identity


def reduct(s: Structure) -> tuple[Structure, tuple[int, ...]]:
    """Quotient the algebra and all relations by the Leibniz congruence."""
    theta = leibniz_structure(s)
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
