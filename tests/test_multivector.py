"""Core exterior algebra: wedge, interior products, support space."""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

from plk import (
    InputError,
    Multivector,
    interior,
    support_space,
    wedge,
)
from plk.criteria import from_factors
from plk.linalg import nullspace
from plk.multivector import (
    _Contractions,
    _square_terms,
    _support_rows,
    basis_subsets,
    check_dim,
    indices_of,
    interior_terms,
    mask_of,
    shuffle_sign,
    sorted_mask,
    subset_rank,
    wedge_terms,
)
from plk.randgen import random_vector
from plk.young import iter_projection_blocks

from reference import inversion_sign, lex_projection_blocks, term_subsets
from util import contract_by_adjunction, interior_by_adjunction, pairing, rand_mv, seeded


def e(dim, *idx, dual=False):
    return Multivector.basis(dim, idx, dual=dual)


# -- bitmask helpers -----------------------------------------------------------


def test_mask_round_trip():
    assert mask_of((1, 3, 6)) == 0b100101
    assert indices_of(0b100101) == (1, 3, 6)
    assert indices_of(0) == ()


def test_mask_rejects_bad_indices():
    with pytest.raises(InputError):
        mask_of((0, 1))
    with pytest.raises(InputError):
        mask_of((2, 2))


@pytest.mark.parametrize("indices", [(True, 2), (1, False), (1.5,), (2, "3"), (Fraction(2),)])
def test_mask_refuses_non_integer_indices(indices):
    with pytest.raises(InputError, match="indices must be integers"):
        mask_of(indices)


def test_shuffle_sign_counts_inversions():
    # (1,2) before (3,4): sorted, no inversions
    assert shuffle_sign(mask_of((1, 2)), mask_of((3, 4))) == 1
    # (3,4) before (2): both 3 and 4 pass 2
    assert shuffle_sign(mask_of((3, 4)), mask_of((2,))) == 1
    # (3,) before (2,): one inversion
    assert shuffle_sign(mask_of((3,)), mask_of((2,))) == -1


def test_shuffle_sign_matches_inversion_count_exhaustively():
    # every disjoint pair at n <= 8: each index goes to a, to b or to neither
    for n in range(1, 9):
        for side in product((0, 1, 2), repeat=n):
            a = [i + 1 for i in range(n) if side[i] == 1]
            b = [i + 1 for i in range(n) if side[i] == 2]
            assert shuffle_sign(mask_of(a), mask_of(b)) == inversion_sign(a, b), (a, b)


def test_shuffle_sign_matches_inversion_count_at_n64():
    rng = seeded(130)
    for trial in range(2000):
        chosen = rng.sample(range(1, 64), rng.randint(0, 40)) + [64]
        cut = rng.randint(0, len(chosen))
        a, b = chosen[:cut], chosen[cut:]
        if trial % 2:
            a, b = b, a  # index 64 on either side
        assert shuffle_sign(mask_of(a), mask_of(b)) == inversion_sign(a, b), (a, b)


def test_sorted_mask_sign_and_repeats():
    assert sorted_mask((1, 2, 3)) == (mask_of((1, 2, 3)), 1)
    assert sorted_mask((2, 1, 3)) == (mask_of((1, 2, 3)), -1)
    assert sorted_mask((3, 1, 2)) == (mask_of((1, 2, 3)), 1)
    assert sorted_mask((1, 1, 2)) == (0, 0)


# -- construction and arithmetic -------------------------------------------------


def test_constructor_normalizes_zeros():
    m = Multivector(4, 2, {mask_of((1, 2)): 0, mask_of((3, 4)): 5})
    assert m.terms == {mask_of((3, 4)): 5}


def test_constructor_validates():
    with pytest.raises(InputError):
        Multivector(4, 2, {mask_of((1, 2, 3)): 1})  # wrong subset size
    with pytest.raises(InputError):
        Multivector(2, 1, {mask_of((3,)): 1})  # index out of range
    with pytest.raises(InputError):
        Multivector(4, 2, {mask_of((1, 2)): 0.5})  # float coefficient
    with pytest.raises(InputError):
        Multivector(4, 5, {})  # fine: zero above top grade
        Multivector(4, 0, {0: True})  # bool is not a coefficient


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Multivector.from_terms(4, 2, [((1, 2), 1), ((1, 9), 1)]),
         "term 1 (indices [1, 9]): indices must lie in [1, 4]"),
        (lambda: Multivector.from_terms(4, 2, [((0, 2), 1)]),
         "term 0 (indices [0, 2]): indices must lie in [1, 4]"),
        (lambda: Multivector.from_terms(4, 2, [((1, 2), 1), ((3,), 1)]),
         "term 1 (indices [3]): expected 2 indices"),
        (lambda: Multivector.from_terms(4, 2, [((2, 1), 1)]),
         "term 0 (indices [2, 1]): indices must be strictly increasing"),
        (lambda: Multivector.from_terms(4, 2, [((1, 3), 1), ((1, 3), 2)]),
         "term 1 (indices [1, 3]): duplicate index set"),
        (lambda: Multivector.from_terms(4, 2, [((1, 3), 0.5)]),
         "term 0 (indices [1, 3]): coeff must be int or Fraction, got 0.5"),
        (lambda: Multivector.basis(4, (1, 9)),
         "term 0 (indices [1, 9]): indices must lie in [1, 4]"),
        (lambda: Multivector.basis(4, (3, 2), dual=True),
         "term 0 (indices [3, 2]): indices must be strictly increasing"),
        (lambda: Multivector.basis(4, (2, 2)),
         "term 0 (indices [2, 2]): indices must be strictly increasing"),
        (lambda: Multivector.from_terms("4", 1, [((1,), 1)]),
         "dim must be an integer in [1, 64], got 4"),
        (lambda: Multivector.from_terms(4, None, [((1,), 1)]),
         "grade must be a nonnegative integer, got None"),
        # a mask below 1 << dim has at most dim bits, so a grade past dim
        # is refused by the size check
        (lambda: Multivector(3, 5, {0b111: 1}),
         "index set (1, 2, 3) has size 3, expected grade 5"),
        (lambda: Multivector.from_terms(4, 1, [((1.0,), 1)]),
         "term 0 (indices [1.0]): indices must be integers"),
        (lambda: Multivector.basis(4, (1.5,)),
         "term 0 (indices [1.5]): indices must be integers"),
        (lambda: Multivector.from_terms(4, 2, [((1, 2), 1), ((2, "3"), 1)]),
         "term 1 (indices [2, '3']): indices must be integers"),
    ],
    ids=[
        "range-high", "range-low", "length", "order", "duplicate", "coeff",
        "basis-range", "basis-order", "basis-repeat", "bad-dim", "bad-grade",
        "grade-past-dim", "float-index", "basis-float-index", "str-index",
    ],
)
def test_term_errors_name_the_term(build, message):
    with pytest.raises(InputError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Multivector(4, True, {1: 1}), "grade must be a nonnegative integer, got True"),
        (lambda: Multivector(True, 1, {1: 1}), "dim must be an integer in [1, 64], got True"),
        (lambda: check_dim(True), "dim must be an integer in [1, 64], got True"),
        (lambda: Multivector(4, 1, {True: 1}), "index set True out of range for dim 4"),
        (lambda: Multivector.from_terms(4, 1, [((True,), 1)]),
         "term 0 (indices [True]): indices must be integers"),
        (lambda: Multivector.basis(4, (1, True)),
         "term 0 (indices [1, True]): indices must be integers"),
    ],
    ids=["grade", "dim", "check_dim", "mask", "index", "basis-index"],
)
def test_bool_is_not_an_integer(build, message):
    with pytest.raises(InputError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "indices, message",
    [
        ((2, 1), "indices [2, 1]: indices must be strictly increasing"),
        ((1, 9), "indices [1, 9]: indices must lie in [1, 4]"),
        ((1,), "indices [1]: expected 2 indices"),
        ((1.0, 2), "indices [1.0, 2]: indices must be integers"),
        ((True, 2), "indices [True, 2]: indices must be integers"),
    ],
)
def test_coeff_checks_indices_as_from_terms_does(indices, message):
    # e_2 ^ e_1 = -e_{1,2}: reading (2, 1) as the set {1, 2} gets the sign wrong
    p = Multivector.basis(4, (1, 2))
    assert p.coeff((1, 2)) == 1 and p.coeff((3, 4)) == 0
    with pytest.raises(InputError) as exc:
        p.coeff(indices)
    assert str(exc.value) == message


@pytest.mark.parametrize("dual", ["false", 0, 1, None])
def test_dual_must_be_a_bool(dual):
    # bool("false") is True: reading the flag by truth value would build a covector
    with pytest.raises(InputError) as exc:
        Multivector(4, 1, {1: 1}, dual=dual)
    assert str(exc.value) == f"dual must be a bool, got {dual!r}"


def test_subset_rank_is_the_position_in_basis_subsets():
    for n in range(1, 9):
        for r in range(n + 1):
            ranks = [subset_rank(S, n) for S in basis_subsets(n, r)]
            assert ranks == list(range(1, len(ranks) + 1)), (n, r)


def test_term_subsets_are_the_subsets_inside_some_term():
    rng = seeded(3)
    for n, s in ((5, 2), (6, 3), (7, 4)):
        terms = rand_mv(rng, n, s, max_terms=4).terms
        for r in range(s + 1):
            inside = {t for t in map(mask_of, basis_subsets(n, r)) if any(t & m == t for m in terms)}
            assert term_subsets(terms, r) == inside, (n, s, r)


def test_grade_above_dim_only_zero():
    z = Multivector.zero(3, 5)
    assert z.is_zero() and z.grade == 5


def test_addition_and_scaling():
    a = e(4, 1, 2) + 2 * e(4, 3, 4)
    b = a - e(4, 1, 2)
    assert b == 2 * e(4, 3, 4)
    assert (a - a).is_zero()
    assert Fraction(1, 2) * b == e(4, 3, 4)
    with pytest.raises(InputError):
        e(4, 1) + e(4, 1, 2)
    with pytest.raises(InputError):
        e(4, 1) + e(5, 1)


def test_str_rendering():
    p = e(4, 1, 2) - 3 * e(4, 3, 4)
    assert str(p) == "e_{1,2} - 3*e_{3,4}"
    assert str(Multivector.zero(4, 2)) == "0"
    assert str(e(4, 2, 3, dual=True)) == "e^{2,3}"
    assert str(Multivector.scalar(4, Fraction(-1, 2))) == "-1/2"


# -- wedge -----------------------------------------------------------------------


def test_wedge_basis_no_inversion():
    assert wedge(e(4, 1), e(4, 2)) == e(4, 1, 2)


def test_wedge_repeated_index_vanishes():
    assert wedge(e(4, 1, 2), e(4, 1, 3)).is_zero()


def test_wedge_cross_terms():
    p = e(4, 1, 2) + e(4, 3, 4)
    assert wedge(p, p) == 2 * e(4, 1, 2, 3, 4)


def test_wedge_beyond_top_grade_is_zero():
    out = wedge(e(3, 1, 2), e(3, 2, 3))
    assert out.is_zero() and out.grade == 4


def test_wedge_dimension_mismatch():
    with pytest.raises(InputError):
        wedge(e(4, 1), e(5, 1))
    with pytest.raises(InputError):
        wedge(e(4, 1), e(4, 2, dual=True))


def test_wedge_scalar_multiplies():
    half = Multivector.scalar(4, Fraction(1, 2))
    assert wedge(half, e(4, 1, 3)) == Fraction(1, 2) * e(4, 1, 3)


def test_graded_commutativity():
    rng = seeded(101)
    for _ in range(40):
        n = rng.randint(2, 6)
        j = rng.randint(0, n)
        k = rng.randint(0, n - j)
        a = rand_mv(rng, n, j) if j or rng.random() < 0.5 else Multivector.scalar(n, 3)
        b = rand_mv(rng, n, k)
        lhs = wedge(a, b)
        rhs = wedge(b, a)
        if (j * k) % 2:
            rhs = -rhs
        assert lhs == rhs


def test_wedge_associativity():
    rng = seeded(102)
    for _ in range(40):
        n = rng.randint(2, 6)
        grades = [rng.randint(0, 2) for _ in range(3)]
        a, b, c = (rand_mv(rng, n, g) for g in grades)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


# -- interior product -------------------------------------------------------------


def test_interior_examples():
    assert interior(e(4, 1, dual=True), e(4, 1, 2, 3)) == e(4, 2, 3)
    assert interior(e(4, 2, dual=True), e(4, 1, 2, 3)) == -e(4, 1, 3)
    p = e(4, 1, 2) + e(4, 3, 4)
    out = interior(e(4, 1, 2, dual=True), p)
    assert out == Multivector.scalar(4, 1)


def test_interior_validates_grades():
    with pytest.raises(InputError):
        interior(e(4, 1, 2, dual=True), e(4, 1))
    with pytest.raises(InputError):
        interior(e(4, 1), e(4, 1, 2))  # not a covector


def test_interior_matches_adjunction_exhaustively():
    # every basis phi against a fixed rational p, all grades, n = 4
    rng = seeded(103)
    n = 4
    for s in range(0, n + 1):
        p = rand_mv(rng, n, s, rational=True) if s else Multivector.scalar(n, Fraction(3, 7))
        for pgrade in range(0, s + 1):
            for phi_idx in combinations(range(1, n + 1), pgrade):
                phi = Multivector.basis(n, phi_idx, dual=True)
                assert interior(phi, p) == interior_by_adjunction(phi, p)


def test_interior_matches_adjunction_random_n6():
    rng = seeded(104)
    for _ in range(25):
        s = rng.randint(1, 5)
        pgrade = rng.randint(0, s)
        p = rand_mv(rng, 6, s)
        phi = rand_mv(rng, 6, pgrade, dual=True)
        assert interior(phi, p) == interior_by_adjunction(phi, p)


def test_interior_composition_matches_wedge():
    # i(phi2, i(phi1, p)) == i(phi1 ^ phi2, p) under the chosen adjunction
    rng = seeded(105)
    for _ in range(30):
        n = rng.randint(3, 6)
        s = rng.randint(2, n)
        g1 = rng.randint(0, s)
        g2 = rng.randint(0, s - g1)
        p = rand_mv(rng, n, s)
        phi1 = rand_mv(rng, n, g1, dual=True)
        phi2 = rand_mv(rng, n, g2, dual=True)
        assert interior(phi2, interior(phi1, p)) == interior(wedge(phi1, phi2), p)


# -- contraction into covectors ----------------------------------------------------
#
# The covector i_p(psi), the adjoint of p ^ . on the primal side, is on terms
# the interior kernel with the roles swapped, as the dual sweeps use it.


def test_contract_examples():
    def contract(p, psi):
        return Multivector(4, psi.grade - p.grade, interior_terms(p.terms, psi.terms), dual=True)

    assert contract(e(4, 1), e(4, 1, 2, dual=True)) == e(4, 2, dual=True)
    assert contract(e(4, 1, 2), e(4, 1, 2, 3, dual=True)) == e(4, 3, dual=True)
    p = e(4, 1, 2) + e(4, 3, 4)
    psi = e(4, 1, 2, 3, 4, dual=True)
    expected = contract_by_adjunction(p, psi)
    assert contract(p, psi) == expected
    assert expected == e(4, 1, 2, dual=True) + e(4, 3, 4, dual=True)


def test_contract_matches_adjunction_random():
    rng = seeded(106)
    for _ in range(30):
        n = rng.randint(3, 6)
        s = rng.randint(1, n - 1)
        m = rng.randint(s, n)
        p = rand_mv(rng, n, s)
        psi = rand_mv(rng, n, m, dual=True)
        assert interior_terms(p.terms, psi.terms) == contract_by_adjunction(p, psi).terms


_HIGH_POOL = [1, 9, 33] + list(range(57, 65))


def _high_mv(rng, grade, dual=False):
    """Random dim-64 multivector on index sets drawn mostly from 57..64,
    with int and Fraction coefficients."""
    subsets = list(combinations(_HIGH_POOL, grade))
    chosen = rng.sample(subsets, rng.randint(1, min(len(subsets), 12)))
    return Multivector.from_terms(
        64, grade,
        [(idx, Fraction(rng.choice((-5, -2, 1, 3, 7)), rng.randint(1, 3))) for idx in chosen],
        dual,
    )


def _wedge_by_definition(a, b):
    """a ^ b term by term: e_S ^ e_T is the sorted e_{S+T} times the sign of
    sorting S followed by T."""
    terms = {}
    for S, ca in a.items():
        for T, cb in b.items():
            if set(S) & set(T):
                continue
            key = mask_of(sorted(S + T))
            terms[key] = terms.get(key, 0) + inversion_sign(S, T) * ca * cb
    return {m: c for m, c in terms.items() if c}


def test_term_kernels_at_high_indices():
    # indices 57..64 are bits 56..63, the top byte of a 64-bit mask
    rng = seeded(131)
    for _ in range(20):
        a = _high_mv(rng, rng.randint(1, 3))
        b = _high_mv(rng, rng.randint(1, 3))
        assert wedge_terms(a.terms, b.terms) == _wedge_by_definition(a, b), (str(a), str(b))
        s = rng.randint(2, 4)
        p = _high_mv(rng, s)
        phi = _high_mv(rng, rng.randint(s - 2, s), dual=True)
        assert interior_terms(phi.terms, p.terms) == interior_by_adjunction(phi, p).terms
        psi = _high_mv(rng, s + rng.randint(0, 2), dual=True)
        assert interior_terms(p.terms, psi.terms) == contract_by_adjunction(p, psi).terms


def test_interior_kernel_reads_a_dense_covector_from_the_vector_side():
    # a phi of one grade with more terms than a term of p has subsets of
    # that grade is looked up from p's terms; either way the terms are the
    # adjunction's, and by linearity the sum of phi's one-term contractions
    read = Counter()
    for trial in range(60):
        rng = seeded(134, trial)
        n = rng.randint(2, 7)
        s = rng.randint(1, n)
        g = rng.randint(0, s)
        p = rand_mv(rng, n, s, bound=3, rational=trial % 2 == 1)
        phi = rand_mv(rng, n, g, bound=3, max_terms=None if trial % 3 else 2, dual=True,
                      rational=trial % 4 == 3)
        out = interior_terms(phi.terms, p.terms)
        assert _same_terms(out, interior_by_adjunction(phi, p).terms), (str(phi), str(p))
        read[len(phi.terms) > comb(s, g)] += 1
    assert read[True] and read[False]
    # mixed grades on either side: phi is scanned, and p's terms below g add nothing
    rng = seeded(135)
    phi = {m: rng.randint(1, 5) for m in (0b11, 0b101, 0b110, 0b1001, 0b1010, 0b1)}
    p = {0b111: -2, 0b1111: 3, 0b1: 4, 0b1011: Fraction(1, 2)}  # C(3, 2) < 5 dense terms
    dense = {m: c for m, c in phi.items() if m.bit_count() == 2}
    for a in (phi, dense):
        linear = {}
        for m, c in a.items():
            for rest, v in interior_terms({m: c}, p).items():
                linear[rest] = linear.get(rest, 0) + v
        assert interior_terms(a, p) == {m: c for m, c in linear.items() if c}


def test_square_kernel_is_the_wedge_of_an_even_form_with_itself():
    rng = seeded(133)
    cancelled = 0
    for trial in range(30):
        s = rng.choice((2, 2, 4, 6))
        n = rng.randint(max(4, s), 8)
        if trial % 3 == 2:  # a decomposable 2-form: its square cancels to 0
            a = from_factors([random_vector(rng, n, 3) for _ in range(2)])
        else:
            a = rand_mv(rng, n, s, bound=3, rational=trial % 2 == 1)
        out = _square_terms(a.terms)
        assert all(out.values()), str(a)
        assert _same_terms(out, wedge_terms(a.terms, a.terms)), str(a)
        cancelled += not out
    assert cancelled >= 10
    a = _high_mv(rng, 2)  # indices 57..64
    assert _square_terms(a.terms) == _wedge_by_definition(a, a)


# -- sharp and support space -------------------------------------------------------
#
# The sharp of p at phi is i(phi)p for phi of grade p.grade - 1; ranging phi
# over such covectors sweeps out the support space of p.


def test_sharp_basis_examples():
    out = interior(e(4, 1, 2, dual=True), e(4, 1, 2, 3))
    assert out.grade == 1
    assert out == e(4, 3) or out == -e(4, 3)
    p = e(4, 1, 2) + e(4, 3, 4)
    out = interior(e(4, 1, dual=True), p)
    assert out.grade == 1
    assert out == e(4, 2) or out == -e(4, 2)


def test_sharp_two_factor_formula():
    # i(alpha)(v ^ w) = alpha(v) w - alpha(w) v, exactly in this convention
    rng = seeded(107)
    for _ in range(25):
        n = rng.randint(2, 7)
        v = rand_mv(rng, n, 1, rational=True)
        w = rand_mv(rng, n, 1, rational=True)
        alpha = rand_mv(rng, n, 1, dual=True, rational=True)
        p = wedge(v, w)
        expected = pairing(alpha, v) * w - pairing(alpha, w) * v
        assert interior(alpha, p) == expected


def test_support_space_examples():
    sp = support_space(e(5, 1, 2, 3))
    assert sp.rank == 3
    assert [str(v) for v in sp.basis] == ["e_{1}", "e_{2}", "e_{3}"]

    sp = support_space(e(4, 1, 2) + e(4, 3, 4))
    assert sp.rank == 4

    p = wedge(e(5, 1) + e(5, 4), e(5, 2) + e(5, 5))
    sp = support_space(p)
    assert sp.rank == 2
    assert [str(v) for v in sp.basis] == ["e_{1} + e_{4}", "e_{2} + e_{5}"]


def test_support_space_of_zero_and_scalar():
    assert support_space(Multivector.zero(4, 2)).rank == 0
    assert support_space(Multivector.scalar(4, 5)).rank == 0


def test_support_rank_at_least_grade():
    rng = seeded(108)
    for _ in range(40):
        n = rng.randint(2, 7)
        s = rng.randint(1, n)
        p = rand_mv(rng, n, s)
        assert support_space(p).rank >= s


def test_support_generators_are_nonzero():
    # i(e^S)P for S inside a term T is nonzero: only T reaches e_{T - S}
    rng = seeded(110)
    for i in range(200):
        n = rng.randint(2, 7)
        s = rng.randint(1, n)
        p = rand_mv(rng, n, s, max_terms=6, rational=i % 2 == 1)
        for smask in term_subsets(p.terms, s - 1):
            phi = Multivector(n, s - 1, {smask: 1}, dual=True)
            assert not interior(phi, p).is_zero(), (str(p), smask)


def test_support_rows_are_the_generators_inside_the_terms():
    # The rows built in one pass over P's terms are, as a multiset, the
    # definitional rows i(e^S)P over the (s-1)-subsets S inside a term.
    rng = seeded(111)
    for i in range(48):
        n = rng.randint(1, 9)
        s = rng.randint(1, min(n, 5))
        if i % 4 < 2:
            p = rand_mv(rng, n, s, max_terms=6)
        else:
            p = Multivector(n, s, {mask_of(S): rng.randint(1, 9) for S in basis_subsets(n, s)})
        if i % 2:
            p = p * Fraction(1, 3)
        inside = {t for t in map(mask_of, basis_subsets(n, s - 1)) if any(t & m == t for m in p.terms)}
        rows = (interior_terms({t: 1}, p.terms) for t in inside)
        expected = Counter(tuple(row.get(1 << j, 0) for j in range(n)) for row in rows)
        assert Counter(map(tuple, _support_rows(p))) == expected, str(p)
    # at grade 1 the one row is P itself
    p = Multivector(9, 1, {1: 2, 8: Fraction(-1, 3), 256: 5})
    assert _support_rows(p) == [[2, 0, 0, Fraction(-1, 3), 0, 0, 0, 0, 5]]


def test_support_pivots_strictly_increase():
    rng = seeded(109)
    for _ in range(20):
        p = rand_mv(rng, 6, rng.randint(1, 4))
        rows = support_space(p).coordinate_rows()
        pivots = [next(i for i, x in enumerate(row) if x) for row in rows]
        assert pivots == sorted(set(pivots))


def test_exactness_through_operation_chain():
    # rationals stay exact (and reduced) through long chains
    a = Fraction(1, 3) * e(6, 1, 2) + Fraction(5, 7) * e(6, 3, 4)
    b = Fraction(2, 5) * e(6, 5) + 3 * e(6, 6)
    chain = interior(e(6, 1, dual=True), wedge(a, b))
    val = chain.coeff((2, 5))
    assert val == Fraction(2, 15) and val.denominator == 15


# -- term kernels on cancelling sums -----------------------------------------------


def _wedge_by_adjunction(a, b):
    """Independent a ^ b: the e_T coefficient is <i_a(e^T), b>."""
    terms = {}
    for T in basis_subsets(a.dim, a.grade + b.grade):
        c = pairing(contract_by_adjunction(a, e(a.dim, *T, dual=True)), b)
        if c:
            terms[mask_of(T)] = c
    return terms


def _annihilator(factors, n):
    """A nonzero covector vanishing on every factor."""
    rows = [[f.coeff((i,)) for i in range(1, n + 1)] for f in factors]
    vec = nullspace(rows, n)[0]
    return Multivector(n, 1, {1 << i: c for i, c in enumerate(vec)}, dual=True)


def _cancelling_cases():
    """(a, b) operand pairs whose sums cancel wholly or in part: wedges and
    contractions of decomposable inputs built from int and Fraction factors,
    plus hand-made partial cancellations."""
    n = 6
    cases = [
        # e_1 ^ e_{2,3} and e_2 ^ e_{1,3} cancel; the e_{4,5} products stay.
        (e(n, 1) + e(n, 2), e(n, 2, 3) + e(n, 1, 3) + e(n, 4, 5)),
        # i(e^2 - e^3) sends e_{1,2} and e_{1,3} to cancelling multiples of e_1.
        (e(n, 2, dual=True) - e(n, 3, dual=True), e(n, 1, 2) + e(n, 1, 3) + e(n, 2, 4)),
    ]
    for seed, scale in ((0, 1), (1, Fraction(1, 3)), (2, Fraction(5, 7))):
        rng = seeded(120, seed)
        factors = [random_vector(rng, n, 4) * scale for _ in range(3)]
        factors[1] = factors[1] * Fraction(2, 3)
        P = from_factors(factors)
        v = factors[0] + factors[1] * 2 + factors[2]
        cases += [
            (v, P),  # v ^ P = 0
            (v + e(n, 6), P),  # only e_6 ^ P survives
            (P, P),  # odd grade: P ^ P = 0 term by term pairs
            (_annihilator(factors, n), P),  # i(phi)P = 0
        ]
    return cases


def test_term_kernels_drop_cancelled_sums():
    cancelled = 0
    for a, b in _cancelling_cases():
        if a.dual:
            out = interior_terms(a.terms, b.terms)
            ref = interior_by_adjunction(a, b).terms
            touched = {mb ^ ma for ma in a.terms for mb in b.terms if ma & mb == ma}
        else:
            out = wedge_terms(a.terms, b.terms)
            ref = _wedge_by_adjunction(a, b)
            touched = {ma | mb for ma in a.terms for mb in b.terms if not ma & mb}
        assert all(out.values()), (str(a), str(b))
        assert out == ref, (str(a), str(b))
        cancelled += bool(touched - set(out))
    assert cancelled == len(_cancelling_cases())


def _block_reference(P, pairs, d):
    """A projection block from its definition: the signed sum of the wedges
    D[u] ^ D[v] over the splits of ``pairs``, with D[u] = i(e^u)P by adjunction
    and an unsorted u contributing the parity of sorting it."""
    n, k = P.dim, len(pairs)
    block, touched = Multivector.zero(n, 4), set()
    for eps in product((0, 1), repeat=k - 1):
        side = (0,) + eps
        u = [pairs[j][side[j]] for j in range(k)]
        v = [pairs[j][1 - side[j]] for j in range(k)]
        if len(set(u)) < k or len(set(v)) < k:
            continue
        for w in (u, v):
            key = tuple(sorted(w))
            if key not in d:
                d[key] = interior_by_adjunction(e(n, *key, dual=True), P)
        du, dv = d[tuple(sorted(u))], d[tuple(sorted(v))]
        sign = _parity(u) * _parity(v)
        prod = _wedge_by_adjunction(du, dv)
        touched |= {ma | mb for ma in du.terms for mb in dv.terms if not ma & mb}
        block = block + Multivector(n, 4, prod) * sign
    return block.terms, touched


def _parity(seq):
    inversions = sum(1 for i, j in combinations(range(len(seq)), 2) if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def test_projection_blocks_drop_cancelled_sums():
    n = 6
    rng = seeded(121)
    factors = [random_vector(rng, n, 3) for _ in range(3)]
    inputs = [
        from_factors(factors),  # decomposable: every block cancels to zero
        from_factors([f * Fraction(1, 3) for f in factors]),
        from_factors(factors[:2] + [factors[2] + e(n, 6)]) + e(n, 1, 2, 3),
        (e(n, 1, 2, 3, 4) + e(n, 3, 4, 5, 6)) * Fraction(2, 3) + e(n, 1, 2, 5, 6),
    ]
    for P in inputs:
        d = {}
        cancelled = False
        lex = {}
        for pairs, block, denom in lex_projection_blocks(P):
            block = {mask_of(F): c for F, c in block.items()}
            ref, touched = _block_reference(P, pairs, d)
            assert all(block.values()), (str(P), pairs)
            assert block == ref, (str(P), pairs)
            cancelled |= bool(touched - set(block))
            lex[pairs] = {m: Fraction(c, denom) for m, c in block.items()}
        assert cancelled, str(P)
        # The library's projection coefficients, block[F] / denom on the
        # integer multiple of P its blocks are sums on, are those of the
        # semistandard tableaux, restricted to the 4-subsets above the last
        # pair's first index.
        for pairs, block, denom in iter_projection_blocks(P):
            low = (1 << pairs[-1][0]) - 1
            assert {m: Fraction(c, denom) for m, c in block.items()} == {
                m: c for m, c in lex[pairs].items() if not m & low
            }, (str(P), pairs)


def _same_terms(a, b):
    """Equal terms with equal coefficient types (an int is not a Fraction)."""
    return {m: repr(c) for m, c in a.items()} == {m: repr(c) for m, c in b.items()}


def test_contraction_memo_matches_the_interior_kernel():
    empty = 0
    for trial in range(36):
        rng = seeded(122, trial)
        n = rng.randint(3, 7)
        s = rng.randint(1, n)
        kind = ("int", "fraction", "sparse")[trial % 3]
        P = rand_mv(rng, n, s, bound=3, max_terms=2 if kind == "sparse" else None,
                    rational=kind == "fraction")
        table = _Contractions(P.terms)
        for r in range(s + 1):
            phi = rand_mv(rng, n, r, bound=3, dual=True, rational=trial % 2 == 1)
            assert _same_terms(table.interior(phi.terms), interior_terms(phi.terms, P.terms))
        for u in table:  # an entry is empty exactly when u lies in no term
            assert (not table[u]) == all(u & m != u for m in P.terms), (str(P), u)
            empty += not table[u]
    assert empty  # phi reached subsets that lie in no term of P
    for phi, P in _cancelling_cases():
        if phi.dual:  # i(phi)P cancels wholly or in part
            out = _Contractions(P.terms).interior(phi.terms)
            assert all(out.values()), (str(phi), str(P))
            assert _same_terms(out, interior_terms(phi.terms, P.terms)), (str(phi), str(P))
