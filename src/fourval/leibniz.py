"""Leibniz congruences of relations and structures, reducedness, reducts.

Two conditions decide every quotient, and each is stated once:

* a partition is a congruence iff ``algebra.split_by_operations`` splits
  none of its classes (``algebra.is_congruence_partition``);
* a congruence is compatible with a unary relation iff it relates only
  elements with the same membership, and with a binary relation iff it
  relates only elements with the same row and the same column: iff no
  class holds two different ``agreement_signatures`` entries for the
  relation.  ``quotient_structure`` checks this, comparing each element
  with its class's least member ``theta.rep[a]``.

Every ``Congruence`` canonicalises its own labels on construction, so
the polynomial method hands it each element's signature as its label.
Only the refinement canonicalises by itself, since each round compares
its map with the last.

``reduct`` checks neither condition again.  The refinement starts from
the agreement partition and only splits classes, so its θ lies inside
that partition and is compatible with every relation; it stops only when
``split_by_operations`` splits nothing, so θ is a congruence.  ``reduct``
therefore builds the quotient with the unchecked builders behind
``quotient`` and ``quotient_structure`` (``algebra._quotient`` and
``_project``); both public functions keep their checks for congruences
that callers supply.

Two independent algorithms for the Leibniz congruence are implemented and
cross-checked:

* partition refinement: the compatible congruences are exactly those
  inside the agreement partition.  Splitting its classes by the
  operations until nothing splits gives a congruence inside it, and every
  congruence inside it stays inside each split, so the fixed point is the
  largest: the Leibniz congruence.  No congruence lattice is enumerated;
* polynomial test: a ~ b iff every unary polynomial (pointwise closure of
  the identity and all constant functions under meet/join/neg) agrees on
  membership at a and b.

The refinement is the primary method; the polynomial method is retained
purely as an oracle.  The pair loops that state both conditions from
their definitions are oracles too, in the tests, which compare the
library's checks against them exhaustively.
"""

from __future__ import annotations

from typing import Collection, Sequence

from .algebra import (Congruence, FiniteAlgebra, _canon, _quotient, mask_iter, mask_of,
                      quotient, split_by_operations)
from .structures import Structure


# ---------------------------------------------------------------------------
# Partition refinement.

def leibniz_unary(alg: FiniteAlgebra, mask: int) -> Congruence:
    """Largest congruence theta with a in F and (a,b) in theta => b in F."""
    return _leibniz(alg, [mask], [])


def leibniz_binary(alg: FiniteAlgebra, rows: Sequence[int]) -> Congruence:
    """Largest congruence compatible with a binary relation (two-sided)."""
    return _leibniz(alg, [], [rows])


def agreement_signatures(size: int, masks: Collection[int],
                         relations: Collection[Sequence[int]]) -> list[tuple]:
    """Per element a, one entry per relation, unary ones first: a's
    membership in each unary relation, then a's row and column in each
    binary one.  A congruence is compatible with a relation iff no class
    holds two different entries for it."""
    columns = [[sum(((rows[x] >> a) & 1) << x for x in range(size)) for a in range(size)]
               for rows in relations]
    return [tuple((m >> a) & 1 for m in masks)
            + tuple((rows[a], col[a]) for rows, col in zip(relations, columns))
            for a in range(size)]


def _leibniz(alg: FiniteAlgebra, masks: Collection[int],
             relations: Collection[Sequence[int]]) -> Congruence:
    """Largest congruence inside the agreement partition of the relations.

    Each round is ``split_by_operations``; a round that splits nothing
    ends the refinement, at a congruence (``is_congruence_partition``).
    """
    rep = _canon(agreement_signatures(alg.size, masks, relations))
    while True:
        split = split_by_operations(alg, rep)
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
    return Congruence(alg, [tuple((mask >> p[a]) & 1 for p in polys) for a in range(alg.size)])


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
    return Congruence(alg, rep)


def _binary_agrees(rows: Sequence[int], pairs: set[tuple[int, int]]) -> bool:
    for (u, u2) in pairs:
        for (v, v2) in pairs:
            if ((rows[u] >> v) & 1) != ((rows[u2] >> v2) & 1):
                return False
    return True


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
    """Quotient the algebra and all relations by the Leibniz congruence,
    which the refinement proves a compatible congruence (module docstring)."""
    theta = leibniz_structure(s)
    alg2, proj = _quotient(s.algebra, theta)
    return _project(s, alg2, proj), proj


def quotient_structure(s: Structure, theta: Congruence) -> tuple[Structure, tuple[int, ...]]:
    """Quotient by any congruence compatible with all relations; raise
    ValueError naming the first relation it is not compatible with.

    θ is compatible iff every element agrees, relation by relation, with
    its class's least member ``theta.rep[a]``; ``Congruence`` keeps that
    map canonical whatever labels θ was built from."""
    alg2, proj = quotient(s.algebra, theta)
    signatures = agreement_signatures(s.algebra.size, s.unary.values(), s.binary.values())
    for i, name in enumerate([*s.unary, *s.binary]):
        if any(sig[i] != signatures[r][i] for sig, r in zip(signatures, theta.rep)):
            raise ValueError(f"congruence not compatible with relation {name}")
    return _project(s, alg2, proj), proj


def _project(s: Structure, alg2: FiniteAlgebra, proj: Sequence[int]) -> Structure:
    """The relations of s carried along proj onto alg2."""
    unary = {name: mask_of(proj[a] for a in mask_iter(mask)) for name, mask in s.unary.items()}
    binary = {}
    for name, rows in s.binary.items():
        rows2 = [0] * alg2.size
        for a, row in enumerate(rows):
            rows2[proj[a]] |= mask_of(proj[b] for b in mask_iter(row))
        binary[name] = tuple(rows2)
    return Structure(alg2, unary, binary)
