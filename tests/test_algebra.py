import hashlib
import itertools
import json
import random

import pytest

from fourval.algebra import (
    AlgebraError,
    BoundExceededError,
    Congruence,
    FiniteAlgebra,
    Homomorphism,
    algebra_from_json,
    algebra_to_json,
    builtin,
    canonical_key,
    check_demorgan,
    check_kleene,
    congruences,
    enumerate_dm_lattices,
    enumerate_filters,
    enumerate_ideals,
    _dual,
    _merge_pairs,
    hom_to_dm4,
    is_congruence_partition,
    is_filter,
    is_prime_filter,
    mask_of,
    pair_extension,
    quotient,
    subalgebra,
    subdirect_embedding,
)

DM4 = builtin("DM4")
K3 = builtin("K3")
B2 = builtin("B2")
T, B, F, N = 0, 1, 2, 3  # DM4 element indices


# -- fixtures and oracles -----------------------------------------------------
# The library never builds a product, lists every partition or joins two
# congruences; the tests do, so these live here.  Other test modules
# import them from this one.

def _same_constant_names(algs):
    names = {frozenset(a.constants) for a in algs}
    if len(names) > 1:
        raise AlgebraError("signature mismatch: factors declare different constants")


def product(algs):
    """Fixture: the componentwise product; element i encodes a tuple in
    mixed radix."""
    if not algs:
        raise AlgebraError("empty product not supported")
    _same_constant_names(algs)
    tuples = list(itertools.product(*[range(a.size) for a in algs]))
    index = {t: i for i, t in enumerate(tuples)}
    n = len(tuples)

    def lift(op):
        return [[index[tuple(op(a)[x[k]][y[k]] for k, a in enumerate(algs))]
                 for y in tuples] for x in tuples]

    meet = lift(lambda a: a.meet)
    join = lift(lambda a: a.join)
    neg = [index[tuple(a.neg[x[k]] for k, a in enumerate(algs))] for x in tuples]
    constants = {c: index[tuple(a.constants[c] for a in algs)] for c in algs[0].constants}
    labels = ["(" + ",".join(a.element_name(x[k]) for k, a in enumerate(algs)) + ")"
              for x in tuples]
    return FiniteAlgebra(n, meet, join, neg, constants, labels)


def iter_partitions(n):
    """Oracle: all partitions of {0..n-1} as least-representative maps."""
    rep = [0] * n

    def rec(i, blocks):
        if i == n:
            yield tuple(rep)
            return
        for b in blocks:
            rep[i] = b
            yield from rec(i + 1, blocks)
        rep[i] = i
        yield from rec(i + 1, blocks + [i])

    if n == 0:
        yield ()
        return
    yield from rec(1, [0])


def find_isomorphism(a, b):
    """Oracle: an isomorphism a -> b respecting shared constants, or None,
    by trying every bijection."""
    if a.size != b.size:
        return None
    for perm in itertools.permutations(range(a.size)):
        ok, _ = Homomorphism(a, b, perm).check()
        if ok:
            return perm
    return None


def well_formed(alg):
    """Oracle: n x n meet and join tables, n negation entries, constants
    and entries in 0..n-1, and n labels or none.  The constructor trusts
    these; `algebra_from_json` checks them on outside data."""
    n = alg.size
    universe = range(n)
    return (len(alg.meet) == len(alg.join) == len(alg.neg) == n
            and all(len(row) == n and all(v in universe for v in row)
                    for table in (alg.meet, alg.join) for row in table)
            and all(v in universe for v in alg.neg)
            and all(v in universe for v in alg.constants.values())
            and (alg.labels is None or len(alg.labels) == n))


def congruence_join(c1, c2):
    """Oracle: the least congruence containing both, by closing their
    pairs under the operations."""
    pairs = [(i, c1.rep[i]) for i in range(len(c1.rep))]
    pairs += [(i, c2.rep[i]) for i in range(len(c2.rep))]
    return Congruence(c1.algebra, _merge_pairs(c1.algebra, pairs))


def test_dm4_tables():
    assert DM4.neg[N] == N and DM4.neg[B] == B
    assert DM4.meet[N][B] == F
    assert DM4.join[N][B] == T
    assert DM4.neg[T] == F and DM4.neg[F] == T


def test_builtin_constants():
    alg = builtin("DM4", {"#t", "#n", "#b"})
    assert alg.constants == {"#t": T, "#n": N, "#b": B}
    assert builtin("B2", {"#t"}).constants == {"#t": 0}
    assert builtin("K3", {"#n"}).labels[1] == "n"
    assert builtin("K3", {"#b"}).labels[1] == "b"
    with pytest.raises(AlgebraError):
        builtin("K3", {"#n", "#b"})
    with pytest.raises(AlgebraError):
        builtin("B2", {"#n"})
    with pytest.raises(AlgebraError):
        builtin("DM5")


def _builtin_outcomes():
    """Per name, constant subset (with one unknown constant) and middle
    label: the builtin's JSON and constant order, or its error text."""
    out = []
    for name in ("B2", "K3", "DM4", "DM5"):
        for k in range(5):
            for consts in itertools.combinations(("#t", "#n", "#b", "#q"), k):
                for middle in (None, "m"):
                    try:
                        alg = builtin(name, consts, middle)
                        got = [algebra_to_json(alg), list(alg.constants)]
                    except AlgebraError as exc:
                        got = str(exc)
                    out.append([name, list(consts), middle, got])
    return out


def test_builtin_outcomes_are_pinned():
    """Every combination the builtins accept gives the same tables, labels
    and constants in the same order; every one they reject, the same error."""
    outcomes = _builtin_outcomes()
    assert sum(isinstance(got, list) for *_, got in outcomes) == 2 * (2 + 6 + 8)
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == "7fb90adbb83702a4bed82c63e15ef891fbc3c76535a7919db236d00e1f4482d7"
    assert list(builtin("K3", ["#n", "#t"]).constants) == ["#t", "#n"]
    assert list(builtin("K3", {"#b", "#t"}).constants) == ["#t", "#b"]
    assert list(builtin("DM4", {"#n", "#b", "#t"}).constants) == ["#t", "#b", "#n"]
    assert builtin("K3", {"#n"}, "m").labels == ("t", "m", "f")
    rejected = {
        ("B2", "#n"): "B2 only supports the constant #t",
        ("B2", "#b"): "B2 only supports the constant #t",
        ("K3", "#n", "#b"): "K3 has a single middle element; request #n or #b, not both",
        ("DM4", "#q"): "unknown constants ['#q']",
        ("DM5",): "unknown builtin algebra 'DM5'",
    }
    for (name, *consts), message in rejected.items():
        with pytest.raises(AlgebraError) as exc:
            builtin(name, consts)
        assert str(exc.value) == message


def test_check_demorgan_builtins():
    for name in ("B2", "K3", "DM4"):
        ok, witness = check_demorgan(builtin(name))
        assert ok, witness


def test_kleene_check():
    assert check_kleene(DM4)[0] is False
    assert check_kleene(K3)[0] is True
    assert check_kleene(B2)[0] is True


def test_check_demorgan_detects_corruption():
    neg = list(DM4.neg)
    neg[T] = T  # break the involution/order-reversal
    bad = FiniteAlgebra(4, DM4.meet, DM4.join, neg)
    ok, witness = check_demorgan(bad)
    assert not ok and witness


# -- constructions -----------------------------------------------------------

def test_product_b2_b2_not_isomorphic_to_dm4():
    p = product([B2, B2])
    assert p.size == 4
    assert check_demorgan(p)[0]
    # oracle: isomorphism search fails (no negation fixpoint in B2xB2)
    assert find_isomorphism(p, DM4) is None
    assert find_isomorphism(p, p) is not None


def test_subalgebra_closure_of_neither_is_singleton():
    sub, embed = subalgebra(DM4, {N})
    assert embed == (N,)
    assert sub.size == 1
    # oracle: closure by exhaustive fixpoint over the op tables
    closure = {N}
    changed = True
    while changed:
        changed = False
        for a in list(closure):
            for b in list(closure):
                for v in (DM4.meet[a][b], DM4.join[a][b], DM4.neg[a]):
                    if v not in closure:
                        closure.add(v)
                        changed = True
    assert closure == {N}


def test_subalgebra_generates():
    sub, embed = subalgebra(DM4, {B})
    assert set(embed) == {B}
    sub2, embed2 = subalgebra(DM4, {T})
    assert set(embed2) == {T, F}


def test_quotient_by_identity_is_isomorphic():
    q, proj = quotient(DM4, Congruence(DM4, range(4)))
    assert q.size == 4 and proj == (0, 1, 2, 3)
    assert find_isomorphism(q, DM4) is not None


def test_internal_constructions_are_well_formed():
    """The constructor checks nothing, so this is what catches a malformed
    table that the library builds itself."""
    checked = []
    for name in ("B2", "K3", "DM4"):
        for k in range(4):
            for consts in itertools.combinations(("#t", "#n", "#b"), k):
                try:
                    checked.append(builtin(name, consts))
                except AlgebraError:  # B2 takes only #t; K3 not both #n and #b
                    pass
    bases = [a for n in range(1, 7) for a in enumerate_dm_lattices(n)] + [B2, K3, DM4]
    for alg in bases:
        checked += [alg, _dual(alg)]
        checked += [quotient(alg, cong)[0] for cong in congruences(alg)]
        checked += [subalgebra(alg, {a})[0] for a in range(alg.size)]
    for alg in (a for n in range(1, 4) for a in enumerate_dm_lattices(n)):
        for values in itertools.product([None, *range(alg.size)], repeat=3):
            expanded = alg.with_constants({c: v for c, v in zip(("#t", "#n", "#b"), values)
                                           if v is not None})
            checked += [expanded, expanded.without_constants()]
    for alg in checked:
        assert well_formed(alg), alg
    assert len(checked) == 16 + 133 + 2 * (2 ** 3 + 3 ** 3 + 4 ** 3)  # builtins, bases, expansions


def test_quotient_rejects_a_partition_that_is_not_a_congruence():
    with pytest.raises(AlgebraError, match="not a congruence"):
        quotient(DM4, Congruence(DM4, (0, 0, 2, 3)))


def test_quotient_counts_classes_and_projection_is_hom():
    p = product([B2, B2])
    for cong in congruences(p):
        q, proj = quotient(p, cong)
        assert q.size == len(cong.classes())
        assert set(proj) == set(range(q.size))  # surjective
        for a in range(p.size):
            for b in range(p.size):
                assert proj[p.meet[a][b]] == q.meet[proj[a]][proj[b]]
                assert proj[p.join[a][b]] == q.join[proj[a]][proj[b]]
                # kernel of the projection is the congruence itself
                assert (proj[a] == proj[b]) == cong.relates(a, b)
            assert proj[p.neg[a]] == q.neg[proj[a]]


# A congruence may be built from any labelling of its classes; it holds
# the least-representative map whatever the labels, so its quotient, its
# predicates and its classes do not depend on them.  Each congruence of
# the census up to size 6 is relabelled by each class's greatest member
# and by shifting every label out of the universe (r + n).

def relabelled(theta):
    n = theta.algebra.size
    greatest = {r: a for a, r in enumerate(theta.rep)}
    return [tuple(greatest[r] for r in theta.rep), tuple(r + n for r in theta.rep)]


def assert_labels_do_not_matter(alg, theta, labels):
    cong = Congruence(alg, labels)
    assert cong == theta, (alg, labels)
    q, proj = quotient(alg, cong)
    assert (q, proj) == quotient(alg, theta), (alg, labels)
    assert Homomorphism(alg, q, proj).check() == (True, None), (alg, labels)
    assert (cong.is_identity, cong.classes()) == (theta.is_identity, theta.classes()), (alg, labels)


def test_congruences_canonicalise_any_labelling():
    cases = 0
    for n in range(1, 7):
        for alg in enumerate_dm_lattices(n):
            for theta in congruences(alg):
                for labels in relabelled(theta):
                    assert_labels_do_not_matter(alg, theta, labels)
                    cases += 1
    assert cases == 2 * 43
    p = product([B2, B2])
    assert_labels_do_not_matter(p, Congruence(p, (0, 0, 2, 2)), (2, 2, 0, 0))


# -- congruences -------------------------------------------------------------
# The oracle states the definition with a pair loop: a partition is a
# congruence iff a ~ b and c ~ d imply ~a ~ ~b, a /\ c ~ b /\ d and
# a \/ c ~ b \/ d.  The library decides it by splitting the classes once
# (`is_congruence_partition`); the two are compared on every partition of
# every census algebra up to size 7, and the partition filter below, the
# oracle for the congruence lattice, uses the definition.

def is_congruence_by_definition(alg, rep):
    related = [(a, b) for a in range(alg.size) for b in range(alg.size) if rep[a] == rep[b]]
    return all(rep[alg.neg[a]] == rep[alg.neg[b]]
               and all(rep[alg.meet[a][c]] == rep[alg.meet[b][d]]
                       and rep[alg.join[a][c]] == rep[alg.join[b][d]] for c, d in related)
               for a, b in related)


def brute_force_congruences(alg):
    """Oracle: filter every partition of the universe."""
    return sorted(rep for rep in iter_partitions(alg.size)
                  if is_congruence_by_definition(alg, rep))


def test_is_congruence_partition_matches_the_definition_on_the_census():
    partitions = congruent = 0
    for n in range(1, 8):
        for alg in enumerate_dm_lattices(n):
            for rep in iter_partitions(n):
                expected = is_congruence_by_definition(alg, rep)
                assert is_congruence_partition(alg, rep) == expected, (alg, rep)
                partitions += 1
                congruent += expected
    assert (partitions, congruent) == (2_671, 55)


def test_congruences_dm4_simple():
    assert [c.rep for c in congruences(DM4)] == [(0, 0, 0, 0), (0, 1, 2, 3)]
    # oracle agrees: brute force over all 15 partitions of a 4-set
    assert len(list(iter_partitions(4))) == 15
    assert brute_force_congruences(DM4) == [(0, 0, 0, 0), (0, 1, 2, 3)]


def test_congruences_k3_simple():
    assert len(list(iter_partitions(3))) == 5
    assert [c.rep for c in congruences(K3)] == brute_force_congruences(K3) == [
        (0, 0, 0), (0, 1, 2)]


def test_congruences_product_has_projection_kernels():
    p = product([B2, B2])
    reps = {c.rep for c in congruences(p)}
    assert reps == set(brute_force_congruences(p))
    # kernels of the two projections: first coordinate, second coordinate
    first = tuple(0 if a < 2 else 2 for a in range(4))
    second = tuple(a % 2 for a in range(4))
    assert first in reps and second in reps


def test_congruence_lattice_closure_properties():
    for alg in (B2, K3, DM4, product([B2, B2]), product([B2, K3])):
        congs = congruences(alg)
        reps = {c.rep for c in congs}
        for c1 in congs:
            for c2 in congs:
                assert Congruence(alg, tuple(zip(c1.rep, c2.rep))).rep in reps
                assert congruence_join(c1, c2).rep in reps


def test_congruences_match_brute_force_on_the_census():
    """The join closure is the only path; the partition filter is its
    oracle, in the same order, on every census member up to size 7."""
    members = 0
    for n in range(1, 8):
        for alg in enumerate_dm_lattices(n):
            assert [c.rep for c in congruences(alg)] == brute_force_congruences(alg), alg
            members += 1
    assert members == 1 + 1 + 1 + 3 + 1 + 4 + 2


def test_principal_closure_agrees_with_brute_force_on_size_8():
    big = product([B2, B2, K3])  # 12 elements is over CONGRUENCE_BOUND
    with pytest.raises(BoundExceededError):
        congruences(big)
    mid = product([B2, product([B2, B2])])  # 8 elements: principal-closure path
    fast = {c.rep for c in congruences(mid)}
    slow = set(brute_force_congruences(mid))
    assert fast == slow


def test_constants_do_not_change_the_congruence_lattice():
    """Constants are nullary operations and impose no compatibility
    condition, so every constant expansion of a census algebra has the
    base algebra's congruences, in the same order; the classification
    sweep enumerates the lattice once per base algebra on this argument."""
    expansions = 0
    for n in range(1, 6):
        for alg in enumerate_dm_lattices(n):
            base = [c.rep for c in congruences(alg)]
            for values in itertools.product(range(n), repeat=3):
                expanded = alg.with_constants(dict(zip(("#t", "#n", "#b"), values)))
                assert [c.rep for c in congruences(expanded)] == base, (alg, values)
                expansions += 1
    assert expansions == 1 + 8 + 27 + 3 * 64 + 125  # census sizes 1..5: 1, 1, 1, 3, 1 algebras


def test_congruence_bound_exceeded():
    with pytest.raises(BoundExceededError):
        congruences(product([DM4, K3]))  # 12 elements


# -- filters, ideals, pair extension ----------------------------------------

def test_filter_enumeration_dm4():
    prime = {frozenset(i for i in range(4) if (m >> i) & 1)
             for m in enumerate_filters(DM4, prime_only=True)}
    assert prime == {frozenset(), frozenset({T, B}), frozenset({T, N}),
                     frozenset({T, B, F, N})}
    allf = {frozenset(i for i in range(4) if (m >> i) & 1)
            for m in enumerate_filters(DM4)}
    assert allf == prime | {frozenset({T})}
    # oracle: exhaustive subset check straight from the definitions
    for m in range(16):
        up = all(DM4.meet[a][b] != a or (m >> b) & 1
                 for a in range(4) if (m >> a) & 1 for b in range(4))
        closed = all(not ((m >> a) & 1 and (m >> b) & 1) or (m >> DM4.meet[a][b]) & 1
                     for a in range(4) for b in range(4))
        assert is_filter(DM4, m) == (up and closed)


def test_filter_enumeration_b2():
    assert [sorted(i for i in range(2) if (m >> i) & 1)
            for m in enumerate_filters(B2, prime_only=True)] == [[], [0], [0, 1]]


def test_ideals_dual_to_filters():
    """Oracle from the definition: an ideal is downward closed and closed
    under join, and a prime ideal also holds a or b whenever it holds
    a /\\ b (empty and full sets count).  The negation image of an ideal is
    a filter."""
    algs = [B2, K3, DM4] + [alg for n in range(1, 7) for alg in enumerate_dm_lattices(n)]
    for alg in algs:
        pairs = list(itertools.product(range(alg.size), repeat=2))
        ideals, primes = [], []
        for m in range(1 << alg.size):
            def has(a):
                return (m >> a) & 1
            down = all(has(b) for a, b in pairs if has(a) and alg.leq(b, a))
            joined = all(has(alg.join[a][b]) for a, b in pairs if has(a) and has(b))
            if down and joined:
                ideals.append(m)
                if all(has(a) or has(b) for a, b in pairs if has(alg.meet[a][b])):
                    primes.append(m)
        assert enumerate_ideals(alg) == ideals
        assert enumerate_ideals(alg, prime_only=True) == primes
        for m in ideals:
            image = mask_of(alg.neg[a] for a in range(alg.size) if (m >> a) & 1)
            assert is_filter(alg, image)


def test_pair_extension_examples():
    # least solution in increasing bitset order
    g, j = pair_extension(DM4, mask_of([T]), mask_of([F]))
    assert g == mask_of([T, B]) and j == mask_of([F, N])
    g, j = pair_extension(B2, mask_of([0]), mask_of([1]))
    assert g == mask_of([0]) and j == mask_of([1])
    g, j = pair_extension(DM4, 0, 0)
    assert g == 0 and j == mask_of([T, B, F, N])
    # oracle: exhaustive search over all prime pairs
    for alg in (B2, K3, DM4):
        full = (1 << alg.size) - 1
        for fm in enumerate_filters(alg):
            for im in enumerate_ideals(alg):
                if fm & im:
                    with pytest.raises(AlgebraError):
                        pair_extension(alg, fm, im)
                    continue
                g, j = pair_extension(alg, fm, im)
                assert is_prime_filter(alg, g) and fm & ~g == 0
                assert g & j == 0 and g | j == full and im & ~j == 0
                firsts = [g2 for g2 in range(1 << alg.size)
                          if is_prime_filter(alg, g2) and fm & ~g2 == 0 and g2 & im == 0]
                assert g == firsts[0]


def test_pair_extension_properties_on_census():
    for alg in enumerate_dm_lattices(5):
        for fm in enumerate_filters(alg):
            for im in enumerate_ideals(alg):
                if fm & im:
                    continue
                g, j = pair_extension(alg, fm, im)
                assert is_prime_filter(alg, g)
                assert fm & ~g == 0 and im & ~j == 0 and g & j == 0


# -- homomorphisms into DM4 --------------------------------------------------

def test_hom_to_dm4_cases():
    assert hom_to_dm4(DM4, mask_of([T, B])).mapping == (0, 1, 2, 3)
    assert hom_to_dm4(DM4, mask_of([T, N])).mapping == (0, 3, 2, 1)
    assert hom_to_dm4(K3, mask_of([0])).mapping == (0, 3, 2)  # t, n, f
    with pytest.raises(AlgebraError):
        hom_to_dm4(DM4, mask_of([T]))  # {t} is not prime


def test_hom_to_dm4_always_homomorphism_on_census():
    for n in range(1, 6):
        for alg in enumerate_dm_lattices(n):
            for t in enumerate_filters(alg, prime_only=True):
                hom = hom_to_dm4(alg, t)
                ok, witness = hom.check(include_constants=False)
                assert ok, witness


def test_subdirect_embedding_examples():
    emb = subdirect_embedding(DM4)
    assert list(emb.filters) == [mask_of([T, B])]
    p = product([B2, K3])
    emb = subdirect_embedding(p)
    assert emb.is_injective and len(emb.filters) <= 2


# -- census ------------------------------------------------------------------

def naive_census(n):
    """Oracle: all posets on n labelled points, then involutions, then dedupe."""
    import itertools

    found = {}
    elems = range(n)
    pairs = [(a, b) for a in elems for b in elems if a != b]
    for bits in itertools.product((False, True), repeat=len(pairs)):
        rel = {(a, a) for a in elems}
        rel.update(p for p, keep in zip(pairs, bits) if keep)
        if any((a, b) in rel and (b, a) in rel and a != b for a, b in pairs):
            continue
        if any((a, b) in rel and (b, c) in rel and (a, c) not in rel
               for a in elems for b in elems for c in elems):
            continue
        leq = [[(a, b) in rel for b in elems] for a in elems]
        meet = [[None] * n for _ in elems]
        join = [[None] * n for _ in elems]
        is_lattice = True
        for a in elems:
            for b in elems:
                lower = [c for c in elems if leq[c][a] and leq[c][b]]
                glb = [c for c in lower if all(leq[d][c] for d in lower)]
                upper = [c for c in elems if leq[a][c] and leq[b][c]]
                lub = [c for c in upper if all(leq[c][d] for d in upper)]
                if len(glb) != 1 or len(lub) != 1:
                    is_lattice = False
                    break
                meet[a][b], join[a][b] = glb[0], lub[0]
            if not is_lattice:
                break
        if not is_lattice:
            continue
        if any(meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]
               for a in elems for b in elems for c in elems):
            continue
        for perm in itertools.permutations(elems):
            if any(perm[perm[a]] != a for a in elems):
                continue
            if any(leq[a][b] != leq[perm[b]][perm[a]] for a in elems for b in elems):
                continue
            alg = FiniteAlgebra(n, meet, join, perm)
            if check_demorgan(alg)[0]:
                found[canonical_key(alg)] = alg
    return found


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (3, 1), (4, 3)])
def test_census_counts_against_naive_oracle(n, expected):
    census = enumerate_dm_lattices(n)
    assert len(census) == expected
    assert set(map(canonical_key, census)) == set(naive_census(n))


def test_census_four_contains_the_three_known_algebras():
    keys = {canonical_key(a) for a in enumerate_dm_lattices(4)}
    assert canonical_key(DM4.without_constants()) in keys
    assert canonical_key(product([B2, B2])) in keys
    # the four-element Kleene chain
    chain = FiniteAlgebra(
        4,
        [[min(a, b) for b in range(4)] for a in range(4)],
        [[max(a, b) for b in range(4)] for a in range(4)],
        [3, 2, 1, 0],
    )
    assert canonical_key(chain) in keys


def test_census_members_are_de_morgan_and_pairwise_nonisomorphic():
    for n in range(1, 8):
        census = enumerate_dm_lattices(n)
        for alg in census:
            assert check_demorgan(alg)[0]
        keys = [canonical_key(a) for a in census]
        assert len(keys) == len(set(keys))
        assert keys == sorted(keys)  # deterministic order
        # each member is the canonical form of its class
        assert [(a.meet, a.join, a.neg) for a in census] == [k[:3] for k in keys]


def test_census_kleene_subset():
    for n in range(1, 8):
        all_k = {canonical_key(a) for a in enumerate_dm_lattices(n, kleene_only=True)}
        via_filter = {canonical_key(a) for a in enumerate_dm_lattices(n)
                      if check_kleene(a)[0]}
        assert all_k == via_filter


# sha256 of repr([canonical_key(a) for a in enumerate_dm_lattices(n)]), and of
# the same list for kleene_only=True, as computed by the enumerator this census
# replaced (all posets on n points, filtered for distributive lattices with an
# order-reversing involution).  Size 8 was compared once; it is not pinned here.
CENSUS_KEY_DIGESTS = {
    1: "02c2246a6d9f395f60b5e7d96fff284104220434ae4b9a3c38633dec1d00362c",
    2: "addd59e6c53b787efd3435b0570587762535d8b0f673be87f9284e69e511a62f",
    3: "086cbe6a6eb0fb2fe905593d8b67a6f5126472f6279acb4c0e1a8379edcadacc",
    4: "305525f45034e3b4555ab72bb926debfc9f7121c1f1d3781461e25534d911f5a",
    5: "bf707e43a0bab6e47c2308aa943033ac8bcfd841aaf0e9ea1bcda53346cb9a8e",
    6: "cf82248183d1100a8f85b4d716660701d051a35cad5b1dd3174d24b2c47371b6",
    7: "cb0a5022d7418d02b7a7663d424578fee115da52f7c13084496539a18c9b019d",
}
KLEENE_KEY_DIGESTS = {
    **CENSUS_KEY_DIGESTS,
    4: "7117cd880b508a785f1d55bdc27d81bc2b654e06bd9d2e18ff758fb35f51d374",
    6: "d1e05b064d32a7b3b4aafcde748171c7537a9e5e6c7bea4a0548341ca384f4de",
}


@pytest.mark.parametrize("n", sorted(CENSUS_KEY_DIGESTS))
def test_census_keys_match_the_poset_sweep_census(n):
    for kleene_only, digests in ((False, CENSUS_KEY_DIGESTS), (True, KLEENE_KEY_DIGESTS)):
        keys = [canonical_key(a) for a in enumerate_dm_lattices(n, kleene_only=kleene_only)]
        assert hashlib.sha256(repr(keys).encode()).hexdigest() == digests[n]


def test_census_bound_behaviour():
    assert len(enumerate_dm_lattices(7)) == 2
    for n in (0, 9):
        with pytest.raises(BoundExceededError):
            enumerate_dm_lattices(n)


def relabel(alg, perm):
    """The copy of alg in which element a is called perm[a]."""
    n = alg.size
    inv = sorted(range(n), key=perm.__getitem__)
    return FiniteAlgebra(
        n,
        [[perm[alg.meet[inv[x]][inv[y]]] for y in range(n)] for x in range(n)],
        [[perm[alg.join[inv[x]][inv[y]]] for y in range(n)] for x in range(n)],
        [perm[alg.neg[inv[x]]] for x in range(n)],
        {c: perm[v] for c, v in alg.constants.items()},
    )


def full_permutation_key(alg):
    """Oracle: the least table encoding over every relabelling."""
    return min((a.meet, a.join, a.neg, tuple(sorted(a.constants.items())))
               for a in (relabel(alg, p) for p in itertools.permutations(range(alg.size))))


BOTTOMLESS = FiniteAlgebra(3, [[(a + b + 1) % 3 for b in range(3)] for a in range(3)],
                           [[a] * 3 for a in range(3)], [1, 2, 0], {"#t": 2})
ALL_BOTTOMS = FiniteAlgebra(3, [[a] * 3 for a in range(3)],
                            [[b for b in range(3)] for _ in range(3)], [0, 2, 1])


def test_canonical_key_agrees_with_the_full_permutation_key():
    rng = random.Random(13)
    algs = [a for n in range(1, 7) for a in enumerate_dm_lattices(n)]
    algs += [builtin("DM4", {"#b", "#n"}), BOTTOMLESS, ALL_BOTTOMS]
    for alg in algs:
        key = full_permutation_key(alg)
        for _ in range(3):
            perm = list(range(alg.size))
            rng.shuffle(perm)
            assert canonical_key(relabel(alg, perm)) == key


def test_json_roundtrip():
    alg = builtin("DM4", {"#t", "#b"})
    data = algebra_to_json(alg)
    back = algebra_from_json(data)
    assert back == alg and back.labels == alg.labels


B2_OPS = algebra_to_json(B2)["ops"]


@pytest.mark.parametrize("data,message", [
    ({"size": 2}, "ops"),
    ({"size": 2, "ops": {**B2_OPS, "meet": [[0, "1"], [1, 1]]}}, "ops.meet"),
    ([2, B2_OPS], "algebra JSON"),
    ({"size": 2, "ops": {**B2_OPS, "const": {"#q": 0}}}, "ops.const"),
    ({"size": 2, "ops": {**B2_OPS, "meet": [[0, 2], [1, 1]]}}, "ops.meet"),
    ({"size": 2, "ops": {**B2_OPS, "join": [[0, 0], [0]]}}, "ops.join"),
    ({"size": 2, "ops": {**B2_OPS, "neg": [1, -1]}}, "ops.neg"),
    ({"size": 2, "ops": {**B2_OPS, "const": {"#t": 5}}}, "ops.const"),
    ({"size": 2, "ops": B2_OPS, "labels": ["t", "f", "x"]}, "labels"),
    ({"size": 0, "ops": {"meet": [], "join": [], "neg": []}}, "size"),
], ids=["missing-ops", "string-entry", "list", "unknown-constant", "meet-entry-equals-size",
        "short-join-row", "neg-out-of-range", "constant-out-of-range", "label-count", "empty"])
def test_algebra_from_json_rejects_malformed_input(data, message):
    with pytest.raises(AlgebraError, match=message):
        algebra_from_json(data)
