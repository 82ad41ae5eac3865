"""Two-column shapes: dimensions, square decomposition, characters, probes."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, factorial

import pytest

from plk import (
    InputError,
    Multivector,
    TwoColumnShape,
    equation_count,
    optimal_component_test,
    verify_square_decomposition,
    wedge,
    young_dim,
)
from plk.multivector import mask_of, sorted_mask
from plk.randgen import random_nonsimple, random_simple, random_vector
from plk.young import _tableau_rank, _two_column_tableaux

from reference import (
    _signed_perms,
    conjugacy_class_size,
    conjugate,
    hook_content_dim,
    hook_lengths,
    isotypic_probe,
    partitions,
    project_tensor_square,
    sn_character,
    standard_tableaux_count,
    two_column_partition,
)
from util import pairing, rand_mv, seeded, sparse_rank


def probes(rng, dim, count, bound=10):
    return [random_vector(rng, dim, bound, dual=True) for _ in range(count)]


# -- shapes ----------------------------------------------------------------------


def test_two_column_shape_partition():
    assert two_column_partition(TwoColumnShape(4, 2)) == (2, 2, 1, 1)
    assert two_column_partition(TwoColumnShape(3, 0)) == (1, 1, 1)
    assert two_column_partition(TwoColumnShape(0, 0)) == ()
    with pytest.raises(InputError):
        TwoColumnShape(2, 3)
    with pytest.raises(InputError):
        TwoColumnShape(2, -1)


def test_conjugate_and_hooks():
    assert conjugate((2, 2, 1)) == (3, 2)
    assert hook_lengths((2, 1)) == [[3, 1], [1]]


# -- dimensions ------------------------------------------------------------------


def test_single_column_is_exterior_power():
    for n in range(1, 13):
        for s in range(0, n + 1):
            assert young_dim(n, TwoColumnShape(s, 0)) == comb(n, s)


def test_two_ones_is_symmetric_square():
    assert young_dim(4, TwoColumnShape(1, 1)) == 10
    for n in range(1, 10):
        assert young_dim(n, TwoColumnShape(1, 1)) == n * (n + 1) // 2


def test_hook_content_vs_tensor_decomposition():
    # V (x) Lambda^2 V = Y[2,1] + Lambda^3 V, so dim Y[2,1] = n*C(n,2) - C(n,3)
    for n in range(2, 10):
        expected = n * comb(n, 2) - comb(n, 3)
        assert young_dim(n, TwoColumnShape(2, 1)) == expected
    assert young_dim(4, TwoColumnShape(2, 1)) == 20


def test_tall_shapes_vanish():
    assert young_dim(3, TwoColumnShape(4, 0)) == 0
    assert young_dim(3, TwoColumnShape(5, 2)) == 0


def test_known_dimension_table():
    assert young_dim(6, TwoColumnShape(3, 3)) == 175
    assert young_dim(6, TwoColumnShape(4, 2)) == 189
    assert young_dim(6, TwoColumnShape(5, 1)) == 35
    assert young_dim(8, TwoColumnShape(6, 2)) == 720


def test_young_dim_refuses_general_partitions():
    assert hook_content_dim(3, (2, 1)) == 8  # the adjoint of GL(3) plus the trace
    with pytest.raises(InputError, match="shape must be a TwoColumnShape"):
        young_dim(3, (2, 1))
    with pytest.raises(InputError, match="weakly decreasing"):
        hook_content_dim(3, (1, 2))
    with pytest.raises(InputError, match="positive integers"):
        hook_content_dim(4, (2, True))
    with pytest.raises(InputError, match="n must be >= 1"):
        young_dim(0, TwoColumnShape(1, 0))


def test_young_dim_is_the_hook_content_product():
    for n in range(1, 17):
        for a in range(n + 2):
            for b in range(a + 1):
                shape = TwoColumnShape(a, b)
                assert young_dim(n, shape) == hook_content_dim(n, shape), (n, shape)


def _semistandard_filter(entries, a, b):
    """Two-column semistandard tableaux with the given entries, (A, B) in lex
    order: a strictly increasing first column A of height a and second column
    B of height b, with rows weakly increasing (A[t] <= B[t]), found by
    filtering every pair of columns."""
    return sorted(
        (A, B)
        for A in combinations(entries, a)
        for B in combinations(entries, b)
        if all(x <= y for x, y in zip(A, B))
    )


def _semistandard_count(n, a, b):
    return len(_semistandard_filter(range(1, n + 1), a, b))


def test_young_dim_counts_semistandard_tableaux():
    # Semistandard tableaux index a basis of each GL(n) irreducible, so the
    # count pins the dimension without any hook formula.
    for n in range(1, 9):
        for a in range(n + 2):
            for b in range(a + 1):
                assert young_dim(n, TwoColumnShape(a, b)) == _semistandard_count(n, a, b), (
                    n, a, b
                )


def test_tableau_enumerator_counts_young_dim():
    for n in range(1, 9):
        for a in range(n + 2):
            for b in range(a + 1):
                shape = TwoColumnShape(a, b)
                count = sum(1 for _ in _two_column_tableaux(range(1, n + 1), shape))
                assert count == young_dim(n, shape), (n, shape)


def test_tableau_enumerator_is_a_lex_ordered_filter():
    indices = (2, 3, 5, 8, 9, 11)
    for a in range(len(indices) + 2):
        for b in range(a + 1):
            got = list(_two_column_tableaux(indices, TwoColumnShape(a, b)))
            assert got == _semistandard_filter(indices, a, b), (a, b)


@pytest.mark.parametrize("n", range(1, 9))
def test_tableau_rank_counts_the_tableaux_listed_before(n):
    # The plain rank, and the optimal test's scan order, in which a tableau
    # stands for its C(n - A[-1], 4) coordinates, one per 4-subset above
    # the last entry of its first column.  For the shapes (k, k) that sum is
    # the dimension of the shape (k+4, k).
    for a in range(n + 2):
        for b in range(a + 1):
            plain = scan = 0
            for top, bottom in _two_column_tableaux(range(1, n + 1), TwoColumnShape(a, b)):
                assert _tableau_rank(top, bottom, n) == plain, (top, bottom)
                assert _tableau_rank(top, bottom, n, 4) == scan, (top, bottom)
                plain += 1
                scan += comb(n - (top[-1] if top else 0), 4)
            if a == b:
                assert scan == young_dim(n, TwoColumnShape(a + 4, b)), (n, a)


def test_tableau_rank_is_quick_at_the_largest_dimension():
    # a failing optimal check at n = 64 ranks its witness by the closed
    # forms, not by listing the tableaux before it
    top, bottom = tuple(range(20, 50)), tuple(range(21, 51))
    assert _tableau_rank(top, bottom, 64, 4) > 0
    last = tuple(range(35, 65))
    assert _tableau_rank(last, last, 64) == young_dim(64, TwoColumnShape(30, 30)) - 1


# -- tensor square decomposition ---------------------------------------------------


def test_square_decomposition_n6_s3():
    rep = verify_square_decomposition(6, 3)
    assert rep.passed
    vals = dict((str(sh), d) for sh, d in rep.dims)
    assert vals == {"Y[3,3]": 175, "Y[4,2]": 189, "Y[5,1]": 35, "Y[6,0]": 1}
    sym = next(i for i in rep.identities if "even" in i.name)
    assert (sym.lhs, sym.rhs) == (210, 210)


def test_square_decomposition_n4_s2():
    rep = verify_square_decomposition(4, 2)
    assert rep.passed
    total = next(i for i in rep.identities if i.name.startswith("total"))
    assert total.rhs == 36


def test_square_decomposition_top_grade():
    # n == s: everything above the determinant component vanishes
    for s in range(1, 7):
        rep = verify_square_decomposition(s, s)
        assert rep.passed
        assert rep.dims[0][1] == 1
        assert all(d == 0 for _, d in rep.dims[1:])


def test_square_decomposition_full_sweep():
    for n in range(1, 9):
        for s in range(1, n + 1):
            assert verify_square_decomposition(n, s).passed, (n, s)


def test_square_decomposition_validates():
    with pytest.raises(InputError):
        verify_square_decomposition(4, 0)
    with pytest.raises(InputError):
        verify_square_decomposition(4, 5)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: equation_count(8, 4.0, "classical"), "need 0 <= s <= n, got s=4.0, n=8"),
        (lambda: equation_count(8, True, "classical"), "need 0 <= s <= n, got s=True, n=8"),
        (lambda: verify_square_decomposition(6, True), "need 1 <= s <= n, got s=True, n=6"),
        (lambda: young_dim(4.5, (2, 1)), "n must be >= 1, got 4.5"),
        (lambda: TwoColumnShape(3.0, 1),
         "column heights must satisfy first >= second >= 0, got (3.0, 1)"),
        (lambda: young_dim(4, (2, True)),
         "shape must be a TwoColumnShape, got (2, True)"),
    ],
    ids=["count-float", "count-bool", "square-bool", "young-dim-float", "shape-float",
         "partition-bool"],
)
def test_counts_and_shapes_refuse_non_integers(build, message):
    with pytest.raises(InputError) as exc:
        build()
    assert str(exc.value) == message


# -- symmetric group characters ----------------------------------------------------


def test_character_trivial_and_sign():
    for cls in partitions(5):
        assert sn_character((5,), cls) == 1
        sign = (-1) ** (5 - len(cls))
        assert sn_character((1,) * 5, cls) == sign


def test_character_standard_tableaux_at_identity():
    for m in range(1, 9):
        for lam in partitions(m):
            assert sn_character(lam, (1,) * m) == standard_tableaux_count(lam)


def test_character_small_table():
    # S_3 character table
    assert [sn_character((2, 1), c) for c in [(1, 1, 1), (2, 1), (3,)]] == [2, 0, -1]


def test_character_orthogonality():
    for m in range(2, 9):
        parts = list(partitions(m))
        sizes = {c: conjugacy_class_size(c) for c in parts}
        assert sum(sizes.values()) == factorial(m)
        for a in parts:
            for b in parts:
                total = sum(sizes[c] * sn_character(a, c) * sn_character(b, c) for c in parts)
                assert total == (factorial(m) if a == b else 0), (a, b)


def test_character_validates_sizes():
    with pytest.raises(InputError):
        sn_character((2, 1), (2, 2))
    # a class is refused unless weakly decreasing, so it needs no sorting
    with pytest.raises(InputError, match="weakly decreasing"):
        sn_character((2, 1), (1, 2))


def test_partitions_of_zero_is_the_empty_partition():
    assert list(partitions(0)) == [()]


def test_signed_perms_carry_the_inversion_parity():
    for s in range(7):
        expected = tuple((perm, _parity(perm)) for perm in permutations(range(s)))
        assert _signed_perms(s) == expected, s


# -- isotypic probes ---------------------------------------------------------------


def test_probe_zero_on_minimal_component_for_simple():
    rng = seeded(401)
    for n, s in [(5, 2), (6, 3), (8, 4)]:
        P = random_simple(rng, n, s, 5)
        shape = TwoColumnShape(s + 2, s - 2)
        for _ in range(4):
            assert isotypic_probe(P, shape, probes(rng, n, 2 * s)) == 0


def test_probe_nonzero_on_top_component_for_nonzero():
    rng = seeded(402)
    for n, s in [(4, 2), (6, 3), (8, 4)]:
        P = random_simple(rng, n, s, 5)
        shape = TwoColumnShape(s, s)
        assert any(
            isotypic_probe(P, shape, probes(rng, n, 2 * s)) != 0 for _ in range(25)
        ), (n, s)


def test_probe_counterexample_has_nonzero_projection_component():
    # v ^ (three-form) kills the one-column component but not this one
    rng = seeded(403)
    P = wedge(
        Multivector.basis(7, (1,)),
        Multivector.basis(7, (2, 3, 4)) + Multivector.basis(7, (5, 6, 7)),
    )
    assert wedge(P, P).is_zero()
    shape = TwoColumnShape(6, 2)
    assert any(isotypic_probe(P, shape, probes(rng, 7, 8)) != 0 for _ in range(25))


def test_probe_nonzero_on_projection_component_for_nonsimple():
    # the other direction of the optimal test: wherever it fails, the
    # character projector onto Y[s+2, s-2] sees a nonzero component too
    rng = seeded(407)
    for n, s in [(5, 3), (6, 3), (6, 4), (7, 3), (7, 4)]:
        shape = TwoColumnShape(s + 2, s - 2)
        for _ in range(8):
            P = random_nonsimple(rng, n, s, 5)
            assert not optimal_component_test(P).verdict, str(P)
            assert any(
                isotypic_probe(P, shape, probes(rng, n, 2 * s)) != 0 for _ in range(25)
            ), (n, s, str(P))


def test_probe_sum_over_shapes_recovers_plain_evaluation():
    # central idempotents sum to the identity; for a grade-2 target only
    # two-column shapes can appear, so the three probes add up exactly
    rng = seeded(404)
    for _ in range(5):
        P = rand_mv(rng, 5, 2, bound=7)
        xs = probes(rng, 5, 4)
        plain = pairing(wedge(xs[0], xs[1]), P) * pairing(wedge(xs[2], xs[3]), P)
        total = sum(
            isotypic_probe(P, TwoColumnShape(a, b), xs)
            for a, b in [(2, 2), (3, 1), (4, 0)]
        )
        assert total == plain


def test_probe_validates():
    rng = seeded(405)
    P = rand_mv(rng, 5, 2)
    with pytest.raises(InputError):
        isotypic_probe(P, TwoColumnShape(2, 1), probes(rng, 5, 4))  # 3 cells != 4
    with pytest.raises(InputError):
        isotypic_probe(P, TwoColumnShape(2, 2), probes(rng, 5, 3))  # not enough probes
    with pytest.raises(InputError):
        bad = probes(rng, 5, 3) + [rand_mv(rng, 5, 1)]  # primal vector inside
        isotypic_probe(P, TwoColumnShape(2, 2), bad)


# -- explicit projection coefficients ----------------------------------------------


def test_projection_empty_for_simple():
    rng = seeded(406)
    for n, s in [(4, 2), (6, 3), (7, 3), (8, 4)]:
        P = random_simple(rng, n, s, 4)
        assert project_tensor_square(P) == {}


def test_projection_for_grade_two_matches_wedge_square():
    P = Multivector.basis(4, (1, 2)) + Multivector.basis(4, (3, 4))
    coeffs = project_tensor_square(P)
    # single pair-free family: (P ^ P)/6 on the lone 4-subset
    assert coeffs == {((), (1, 2, 3, 4)): Fraction(1, 3)}
    sq = wedge(P, P)
    assert sq.coeff((1, 2, 3, 4)) == 2


def test_projection_golden_counterexample():
    P = wedge(
        Multivector.basis(7, (1,)),
        Multivector.basis(7, (2, 3, 4)) + Multivector.basis(7, (5, 6, 7)),
    )
    coeffs = project_tensor_square(P)
    assert coeffs  # not decomposable, so the component is nonzero
    first = min(coeffs)
    # hand-derived: pairs ((1,1),(2,5)) with skew subset {3,4,6,7} gives 1/6
    assert first == (((1, 1), (2, 5)), (3, 4, 6, 7))
    assert coeffs[first] == Fraction(1, 6)


def _parity(seq):
    """+1 or -1: the sign of the permutation sorting ``seq`` (distinct entries)."""
    inversions = sum(1 for i, j in combinations(range(len(seq)), 2) if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def _merge(xy, zw):
    """e_{x,y} ^ e_{z,w} for x < y and z < w: the sorted indices and the sign
    of sorting (x, y, z, w), or None on a repeat."""
    if set(xy) & set(zw):
        return None
    return tuple(sorted(xy + zw)), _parity(xy + zw)


def _projection_reference(P):
    """The (s+2, s-2) projection, s >= 3, from its definition: for every
    ordered (s-2)-tuple u the 2-form D[u] has coefficient P(u, x, y) at
    e_{x,y}; the block of a pair tuple is the sum of D[u] ^ D[v] over the
    ways to split the pairs into u and v, divided by 3 * 2**(s-2).  P is
    alternating, so D[u] is the sign of sorting u times D[sorted u]; the
    wedge of two 2-forms is written out term by term, once per pair of
    sorted tuples."""
    n, k = P.dim, P.grade - 2
    forms = {}
    for u in combinations(range(1, n + 1), k):
        rest = sorted(set(range(1, n + 1)) - set(u))
        form = {
            (x, y): _parity(u + (x, y)) * P.coeff(sorted(u + (x, y)))
            for x, y in combinations(rest, 2)
        }
        form = {xy: c for xy, c in form.items() if c}
        if form:
            forms[u] = form
    # ordered tuple -> (sign of sorting it, the sorted tuple), for nonzero D
    d = {u: (_parity(u), tuple(sorted(u))) for u in permutations(range(1, n + 1), k)}
    d = {u: sign_key for u, sign_key in d.items() if sign_key[1] in forms}
    merged = {(xy, zw): _merge(xy, zw) for xy in combinations(range(1, n + 1), 2)
              for zw in combinations(range(1, n + 1), 2)}
    wedges = {}
    sides = [((0,) + eps, (1,) + tuple(1 - e for e in eps)) for eps in product((0, 1), repeat=k - 1)]
    pair_list = [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
    out = {}
    for pairs in combinations_with_replacement(pair_list, k):
        block = {}
        for u_side, v_side in sides:
            u = tuple(map(tuple.__getitem__, pairs, u_side))
            v = tuple(map(tuple.__getitem__, pairs, v_side))
            if u not in d or v not in d:
                continue  # a repeated index, or a zero form
            (su, ku), (sv, kv) = d[u], d[v]
            if (ku, kv) not in wedges:
                wedged = {}
                for xy, a in forms[ku].items():
                    for zw, b in forms[kv].items():
                        if merged[xy, zw]:
                            idx, sign = merged[xy, zw]
                            wedged[idx] = wedged.get(idx, 0) + sign * a * b
                wedges[ku, kv] = wedged
            for idx, c in wedges[ku, kv].items():
                block[idx] = block.get(idx, 0) + su * sv * c
        for idx, c in block.items():
            if c:
                out[(pairs, idx)] = Fraction(c, 3 * 2**k)
    return out


def test_projection_matches_reference():
    rng = seeded(407)
    cells = [(5, 3), (6, 3), (6, 4), (7, 3), (7, 4), (7, 5), (8, 3), (8, 4), (8, 5)]
    for n, s in cells:
        big = (n, s) == (8, 5)  # a dense (8,5) input takes seconds here
        cap = 8 if big else None
        cases = [
            rand_mv(rng, n, s, bound=5, max_terms=cap),
            rand_mv(rng, n, s, bound=5, max_terms=cap) * Fraction(1, 3),
            rand_mv(rng, n, s, bound=5, max_terms=3),
        ]
        if not big:
            cases.append(random_simple(rng, n, s, 3))
        for P in cases:
            assert project_tensor_square(P) == _projection_reference(P), (n, s, str(P))


@pytest.mark.parametrize("n, s", [(5, 3), (6, 2), (6, 3), (7, 3), (6, 4), (7, 4)])
def test_projection_family_spans_dim_of_its_component(n, s):
    # The paper's optimality: the coefficients of the projection, as quadratic
    # forms in P, span exactly dim Y[s+2, s-2] of them.  The grid
    # {e_I} + {e_I + e_J} is unisolvent for quadratic forms, so the rank of
    # the family evaluated there is the dimension of that span.
    blades = [mask_of(I) for I in combinations(range(1, n + 1), s)]
    grid = [{m: 1} for m in blades] + [{a: 1, b: 1} for a, b in combinations(blades, 2)]
    rows = [project_tensor_square(Multivector(n, s, terms)) for terms in grid]
    dim = young_dim(n, TwoColumnShape(s + 2, s - 2))
    assert dim == equation_count(n, s, "optimal")
    assert sparse_rank(rows) == dim
    # The semistandard coordinates alone already have that rank, so a P whose
    # projection vanishes on them has a vanishing component.
    semistandard = [{key: c for key, c in row.items() if _is_semistandard(*key)} for row in rows]
    assert sparse_rank(semistandard) == dim


def _is_semistandard(pairs, subset):
    """Whether the coordinate is a tableau of shape (2^(s-2), 1^4): first
    column a_1 < ... < a_k followed by the 4-subset, second column
    b_1 < ... < b_k, each row a_t <= b_t (given, since pairs have a <= b)."""
    first = [a for a, _ in pairs] + list(subset)
    second = [b for _, b in pairs]
    return all(x < y for x, y in zip(first, first[1:])) and all(
        x < y for x, y in zip(second, second[1:])
    )


def test_projection_empty_below_grade_two():
    assert project_tensor_square(Multivector.basis(4, (1,))) == {}
    assert project_tensor_square(Multivector.scalar(4, 3)) == {}


def test_merged_split_multiplicities_are_nonzero():
    # A projection block sums the splits of a tableau's pairs into u and v
    # (the first pair's side fixed) that give one unordered {u, v} into one
    # multiplicity.  Recomputed here from the signs of the index sequences,
    # no such multiplicity is zero, so every merged split forms a wedge.
    keys = 0
    for n in range(1, 9):
        for k in range(1, 5):
            for top, bottom in _two_column_tableaux(range(1, n + 1), TwoColumnShape(k, k)):
                pairs = list(zip(top, bottom))
                times = {}
                for eps in product((0, 1), repeat=k - 1):
                    side = (0,) + eps
                    umask, su = sorted_mask([p[e] for p, e in zip(pairs, side)])
                    vmask, sv = sorted_mask([p[1 - e] for p, e in zip(pairs, side)])
                    if su and sv:
                        key = tuple(sorted((umask, vmask)))
                        times[key] = times.get(key, 0) + su * sv
                assert all(times.values()), (pairs, times)
                keys += len(times)
    assert keys > 1000
