from functools import cache, partial, reduce
from itertools import product as iproduct

import pytest

from fourval.algebra import (
    AlgebraError,
    Congruence,
    builtin,
    congruences,
    enumerate_dm_lattices,
    enumerate_filters,
    mask_of,
)
from fourval.engine import ModelSweep, _relation_ranges, census_pool
from fourval.leibniz import (
    is_reduced,
    leibniz_binary,
    leibniz_binary_poly,
    leibniz_structure,
    leibniz_unary,
    leibniz_unary_poly,
    quotient_structure,
    reduct,
    unary_polynomials,
)
from fourval.structures import (identity_relation, preset_names, preset_structure, structure,
                                structure_to_json)
from fourval.systems import system
from fourval.verify import CLASSIFIED_FAMILIES, CLASSIFIED_VARIANTS
from test_algebra import congruence_join, is_congruence_by_definition, iter_partitions, product
from test_golden import _digest

DM4 = builtin("DM4")
B2 = builtin("B2")
K3 = builtin("K3")
T, B, F, N = 0, 1, 2, 3


def brute_force_largest_compatible(alg, mask):
    """Oracle: scan every congruence partition, keep the largest compatible."""
    best = tuple(range(alg.size))
    best_classes = alg.size
    for rep in iter_partitions(alg.size):
        if not is_congruence_by_definition(alg, rep):
            continue
        if all(((mask >> a) & 1) == ((mask >> rep[a]) & 1) for a in range(alg.size)):
            classes = len(set(rep))
            if classes < best_classes:
                best, best_classes = rep, classes
    return best


def test_leibniz_unary_examples():
    assert leibniz_unary(DM4, mask_of([T])).is_identity
    assert leibniz_unary(DM4, mask_of([T, B])).is_identity
    assert len(leibniz_unary(B2, mask_of([0, 1])).classes()) == 1
    # oracle comparison
    for mask in range(16):
        assert leibniz_unary(DM4, mask).rep == brute_force_largest_compatible(DM4, mask)


def test_leibniz_unary_poly_agrees():
    cases = [(DM4, mask_of([T, B])), (K3, mask_of([0])),
             (product([B2, B2]), mask_of([0]))]
    for alg, mask in cases:
        assert leibniz_unary(alg, mask).rep == leibniz_unary_poly(alg, mask).rep
        assert leibniz_unary_poly(alg, mask).is_identity


def test_polynomial_closure_contains_constants_and_identity():
    polys = set(unary_polynomials(DM4))
    assert tuple(range(4)) in polys
    for c in range(4):
        assert tuple(c for _ in range(4)) in polys
    # closed under pointwise negation
    for p in polys:
        assert tuple(DM4.neg[v] for v in p) in polys


def test_leibniz_binary_examples():
    assert leibniz_binary(DM4, identity_relation(DM4)).is_identity
    assert len(leibniz_binary(DM4, tuple(15 for _ in range(4))).classes()) == 1
    p = product([B2, B2])
    kernel = tuple(sum(1 << b for b in range(4) if b // 2 == a // 2) for a in range(4))
    out = leibniz_binary(p, kernel)
    assert out.rep == (0, 0, 2, 2)
    assert leibniz_binary_poly(p, kernel).rep == (0, 0, 2, 2)


def test_leibniz_structure_and_reducts():
    assert is_reduced(preset_structure("BDE"))
    assert is_reduced(preset_structure("BDNF"))
    assert is_reduced(preset_structure("KE"))

    s = structure(B2, {"T": (0, 1)})
    theta = leibniz_structure(s)
    assert len(theta.classes()) == 1
    red, proj = reduct(s)
    assert red.algebra.size == 1 and red.unary["T"] == 1

    # product structure whose relations only see the first coordinate: the
    # Leibniz congruence collapses the second one
    p = product([DM4, DM4])
    t_mask = mask_of(i for i, (a, b) in enumerate(iproduct(range(4), repeat=2))
                     if a in (T, B))
    kernel = tuple(sum(1 << j for j in range(16) if j // 4 == i // 4) for i in range(16))
    s2 = structure(p, {"T": t_mask}, {"eq": kernel})
    theta = leibniz_structure(s2)
    assert len(theta.classes()) == 4
    assert all(theta.relates(i, j) == (i // 4 == j // 4) for i in range(16) for j in range(16))
    # with T = {t,b} x {t,b} instead, both relation congruences are the
    # identity already (brute force over Con(DM4^2)), so the structure is
    # reduced and nothing collapses
    s3 = structure(p, {"T": mask_of(i for i, (a, b) in enumerate(iproduct(range(4), repeat=2))
                                    if a in (T, B) and b in (T, B))}, {"eq": kernel})
    assert leibniz_structure(s3).is_identity


def test_reduct_idempotent():
    for t_mask in range(16):
        s = structure(DM4, {"T": t_mask})
        red, _ = reduct(s)
        red2, _ = reduct(red)
        assert red2 == red


def test_leibniz_intersection_inclusion_on_builtins():
    # meet of the relation-wise congruences is below the congruence of the meet
    for alg in (B2, K3, DM4):
        filters = enumerate_filters(alg)
        for f1 in filters:
            for f2 in filters:
                c1, c2 = leibniz_unary(alg, f1), leibniz_unary(alg, f2)
                lhs = Congruence(alg, tuple(zip(c1.rep, c2.rep)))
                rhs = leibniz_unary(alg, f1 & f2)
                assert lhs.refines(rhs)


def test_crosscheck_all_builtins_and_census():
    for alg in (B2, K3, DM4):
        for mask in range(1 << alg.size):
            assert leibniz_unary(alg, mask).rep == leibniz_unary_poly(alg, mask).rep
    for n in range(1, 6):
        for alg in enumerate_dm_lattices(n):
            for mask in enumerate_filters(alg):
                assert leibniz_unary(alg, mask).rep == leibniz_unary_poly(alg, mask).rep


def test_binary_crosscheck_on_congruence_relations():
    for alg in (B2, K3, DM4, product([B2, B2])):
        for cong in congruences(alg):
            rows = tuple(sum(1 << b for b in range(alg.size)
                             if cong.rep[a] == cong.rep[b]) for a in range(alg.size))
            assert leibniz_binary(alg, rows).rep == leibniz_binary_poly(alg, rows).rep


def test_quotient_structure_requires_compatibility():
    s = structure(DM4, {"T": mask_of([T])})
    with pytest.raises(ValueError, match="relation T"):
        quotient_structure(s, Congruence(DM4, (0,) * 4))


def test_quotient_structure_names_the_incompatible_binary_relation():
    s = structure(DM4, {}, {"eq": identity_relation(DM4)})
    with pytest.raises(ValueError, match="not compatible with relation eq"):
        quotient_structure(s, Congruence(DM4, (0,) * 4))


# ---------------------------------------------------------------------------
# Compatibility of a congruence with a relation, stated from the
# definitions with pair loops.  These are the oracles: the library decides
# compatibility by comparing agreement signatures within each class
# (`quotient_structure`), and the tests below compare the two.

def compatible_with_unary(theta, mask):
    """a in F and a ~ b imply b in F."""
    n = theta.algebra.size
    return all((mask >> b) & 1 for a in range(n) if (mask >> a) & 1
               for b in range(n) if theta.relates(a, b))


def compatible_with_binary(theta, rows):
    """(a, b) in R, a ~ c and b ~ d imply (c, d) in R."""
    n = theta.algebra.size
    return all((rows[c] >> d) & 1 for a in range(n) for b in range(n) if (rows[a] >> b) & 1
               for c in range(n) if theta.relates(a, c) for d in range(n) if theta.relates(b, d))


# ---------------------------------------------------------------------------
# The Leibniz congruence by refinement, checked exhaustively against the
# join of every compatible congruence in the lattice, kept here as the
# oracle.

def joined_largest_compatible(alg, congs, compatible):
    """Join every compatible congruence into the identity, one by one."""
    best = Congruence(alg, range(alg.size))
    for cong in congs:
        if compatible(cong):
            best = congruence_join(best, cong)
    assert compatible(best)
    return best


def joined_leibniz_structure(s):
    """Meet of the relations' Leibniz congruences, each found by joins."""
    congs = congruences(s.algebra)
    tests = [partial(compatible_with_unary, mask=m) for _, m in sorted(s.unary.items())]
    tests += [partial(compatible_with_binary, rows=r) for _, r in sorted(s.binary.items())]
    return reduce(lambda c1, c2: Congruence(s.algebra, tuple(zip(c1.rep, c2.rep))),
                  (joined_largest_compatible(s.algebra, congs, t) for t in tests))


def test_leibniz_unary_is_the_join_on_every_census_mask():
    checked = 0
    for alg in census_pool(5):
        congs = congruences(alg)
        for mask in range(1 << alg.size):
            oracle = joined_largest_compatible(
                alg, congs, partial(compatible_with_unary, mask=mask))
            assert leibniz_unary(alg, mask) == oracle, (alg, mask)
            checked += 1
    assert checked == 2 + 4 + 8 + 3 * 16 + 32  # census sizes 1, 2, 3, 4 (three), 5


def test_leibniz_binary_is_the_join_on_every_relation():
    checked = 0
    for alg in census_pool(3):
        n = alg.size
        congs = congruences(alg)
        for rows in iproduct(range(1 << n), repeat=n):
            oracle = joined_largest_compatible(
                alg, congs, partial(compatible_with_binary, rows=rows))
            assert leibniz_binary(alg, rows) == oracle, (alg, rows)
            checked += 1
    assert checked == 2 + 16 + 512  # census sizes 1, 2, 3


# Models per classified system at size 4, as the classification suite
# counts them: 1,810 in all.
CLASSIFIED_MODELS_AT_4 = {
    "BDE": 43, "BDNF": 64, "KE": 27, "BD-EQ": 35, "ETL-EQ": 30, "BDNF-EQ": 90,
    "BDE-EQ": 55, "MC-ETL": 19, "BDE+tnb": 230, "BDNF+tnb": 230, "KE+tb": 65,
    "BD-EQ+tnb": 230, "ETL-EQ+tnb": 230, "BDNF-EQ+tnb": 230, "BDE-EQ+tnb": 230,
    "MC-ETL+tnb": 2,
}


# [system, model, reduct, projection] of every size-4 model of every
# classified system, in `ModelSweep` order, models and reducts as
# `structure_to_json`
CLASSIFIED_REDUCTS_AT_4_DIGEST = "40ffc9a733f39b781f7884c65e9f7a94c01c5dccb7d108a4154e7e72da126024"


@cache
def classified_models_at_4(name):
    sysd = system(name)
    sweep = ModelSweep(sysd)
    models = []
    for base in census_pool(4):
        ranges = _relation_ranges(sweep.names, base)
        models.extend(sweep.expand(base, sweep.free_models(base, ranges)))
    return models


@pytest.mark.parametrize("name", CLASSIFIED_FAMILIES + CLASSIFIED_VARIANTS)
def test_leibniz_structure_is_the_join_on_classified_models(name):
    models = classified_models_at_4(name)
    for s in models:
        assert leibniz_structure(s) == joined_leibniz_structure(s), (name, s)
    assert len(models) == CLASSIFIED_MODELS_AT_4[name]


def test_reducts_of_classified_models_are_pinned():
    records = []
    for name in CLASSIFIED_FAMILIES + CLASSIFIED_VARIANTS:
        for s in classified_models_at_4(name):
            red, proj = reduct(s)
            records.append([name, structure_to_json(s), structure_to_json(red), proj])
    assert len(records) == sum(CLASSIFIED_MODELS_AT_4.values()) == 1810
    assert _digest(records) == CLASSIFIED_REDUCTS_AT_4_DIGEST


def reduct_stream(name, size):
    """`ModelSweep.reducts` over the census, as `classify_models` runs it."""
    sysd = system(name)
    sweep = ModelSweep(sysd)
    for base in census_pool(size):
        ranges = _relation_ranges(sweep.names, base)
        yield from sweep.reducts(base, sweep.free_models(base, ranges))


def test_reduct_stream_gives_the_pinned_reducts():
    records = []
    for name in CLASSIFIED_FAMILIES + CLASSIFIED_VARIANTS:
        for s, red, proj, reduced in reduct_stream(name, 4):
            assert reduced, (name, s)
            records.append([name, structure_to_json(s), structure_to_json(red), proj])
    assert len(records) == 1810
    assert _digest(records) == CLASSIFIED_REDUCTS_AT_4_DIGEST


@pytest.mark.parametrize("name", CLASSIFIED_FAMILIES + CLASSIFIED_VARIANTS)
def test_reduct_stream_matches_reduct_per_model_at_size_5(name):
    """The stream computes θ once per relation-value tuple and rebinds
    only the constants; `reduct` on each model, labels included, is the
    reference."""
    models = 0
    for s, red, proj, reduced in reduct_stream(name, 5):
        expected, expected_proj = reduct(s)
        assert (structure_to_json(red), proj) == (structure_to_json(expected), expected_proj), s
        assert red == expected and reduced == is_reduced(expected), s
        models += 1
    assert models > 0 or name == "MC-ETL+tnb"


def _presets_and_expansions():
    for base in preset_names():
        for suffix in ("", "+t", "+tnb", "+tb"):
            try:
                yield preset_structure(base + suffix)
            except AlgebraError:  # B2 takes only #t; K3 not both #n and #b
                pass


def test_reduct_matches_the_validating_quotient():
    """`reduct` trusts the refinement's θ; `quotient_structure` checks it.
    Both must build the same quotient, projection and labels."""
    presets = list(_presets_and_expansions())
    t_structures = [structure(alg, {"T": mask}) for alg in census_pool(5)
                    for mask in range(1 << alg.size)]
    models = [s for name in CLASSIFIED_FAMILIES + CLASSIFIED_VARIANTS
              for s in classified_models_at_4(name)]
    assert (len(presets), len(t_structures), len(models)) == (58, 94, 1810)
    for s in presets + t_structures + models:
        red, proj = reduct(s)
        checked, checked_proj = quotient_structure(s, leibniz_structure(s))
        assert (red, proj, red.algebra.labels) == (checked, checked_proj, checked.algebra.labels), s


# ---------------------------------------------------------------------------
# The argument the refinement rests on: a congruence is compatible with a
# relation iff it lies inside the relation's agreement partition (same
# membership for a unary relation, same row and column for a binary one).
# `quotient_structure` accepts a congruence by that test; here it is
# compared with the definitions.  A congruence canonicalises its labels
# (tests/test_algebra.py), so one labelling of each suffices.

def accepted(s, theta):
    try:
        quotient_structure(s, theta)
    except ValueError as e:
        assert "not compatible" in str(e)
        return False
    return True


def test_unary_compatibility_is_inside_the_agreement_partition():
    checked = 0
    for alg in census_pool(4):
        for theta in congruences(alg):
            for mask in range(1 << alg.size):
                s = structure(alg, {"T": mask})
                assert accepted(s, theta) == compatible_with_unary(theta, mask)
                checked += 1
    assert checked == 2 * 1 + 4 * 2 + 8 * 2 + 16 * (2 + 4 + 4)  # masks x congruences, per member


def test_binary_compatibility_is_inside_the_agreement_partition():
    checked = 0
    for alg in census_pool(3):
        n = alg.size
        for theta in congruences(alg):
            for rows in iproduct(range(1 << n), repeat=n):
                s = structure(alg, {}, {"eq": rows})
                assert accepted(s, theta) == compatible_with_binary(theta, rows)
                checked += 1
    assert checked == 2 * 1 + 16 * 2 + 512 * 2  # relations x congruences, per member
