"""Decomposability criteria: examples, witnesses, equivalence, families."""

from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from plk import (
    DecomposableFamily,
    InputError,
    InvariantViolation,
    Multivector,
    ThreePlaneBranch,
    classical_pluecker,
    contraction_criterion,
    dual_improved_pluecker,
    dual_pluecker,
    equation_count,
    factorize,
    from_factors,
    improved_pluecker,
    interior,
    is_simple_oracle,
    kernel_dimension,
    optimal_component_test,
    oracle_report,
    run_all_criteria,
    support_space,
    three_plane_check,
    wedge,
)
from plk import criteria
from plk.criteria import CRITERIA, run_criterion
from plk.multivector import SupportSpace, basis_subsets
from plk.randgen import random_nonsimple, random_simple
from plk.young import (
    TwoColumnShape,
    iter_projection_blocks,
    verify_square_decomposition,
    young_dim,
)

from reference import (
    contract_by_definition,
    duality_identity_check,
    isotypic_probe,
    leibniz_minor,
    project_tensor_square,
)
from util import rand_mv, seeded, sparse_rank


def e(dim, *idx, dual=False):
    return Multivector.basis(dim, idx, dual=dual)


def counterexample_4form():
    """v ^ (three-form): wedge square vanishes but not decomposable."""
    return wedge(e(7, 1), e(7, 2, 3, 4) + e(7, 5, 6, 7))


# -- classical ---------------------------------------------------------------------


def test_classical_nonsimple_witness():
    rep = classical_pluecker(e(4, 1, 2) + e(4, 3, 4))
    assert not rep.verdict
    assert rep.witness.equation == ((1,),)
    assert rep.witness.component == (2, 3, 4)
    assert rep.witness.value == 1


def test_classical_basis_vector_passes():
    rep = classical_pluecker(e(4, 1, 2, 3))
    assert rep.verdict and rep.witness is None
    assert rep.equations_checked == 6  # C(4,2) * C(4,4)


def test_classical_equation_count_on_pass():
    rep = classical_pluecker(e(4, 1, 2, 3))
    assert rep.equations_checked == equation_count(4, 3, "classical")


def test_classical_product_form_passes():
    p = from_factors([e(5, 1) + e(5, 4), e(5, 2) + e(5, 5), e(5, 3)])
    assert classical_pluecker(p).verdict
    assert is_simple_oracle(p)


def test_classical_linear_in_quantifier():
    # basis covectors decide the general statement: spot-check a random phi
    rng = seeded(501)
    p = rand_mv(rng, 6, 3)
    verdict = classical_pluecker(p).verdict
    for _ in range(10):
        phi = rand_mv(rng, 6, 2, dual=True)
        out = wedge(interior(phi, p), p)
        if not verdict and not out.is_zero():
            break
        assert verdict == out.is_zero() or not verdict
    else:
        if not verdict:
            pytest.skip("random phis all vanished; covered elsewhere")


# -- dual --------------------------------------------------------------------------


def test_dual_nonsimple():
    rep = dual_pluecker(e(4, 1, 2) + e(4, 3, 4))
    assert not rep.verdict
    assert rep.witness.equation == ((1, 2, 3),)


def test_dual_top_form_vacuous():
    rep = dual_pluecker(e(3, 1, 2, 3))
    assert rep.verdict and rep.equations_checked == 0


def test_dual_random_simple_passes():
    rng = seeded(502)
    for _ in range(5):
        assert dual_pluecker(random_simple(rng, 6, 3, 6)).verdict


# -- improved ----------------------------------------------------------------------


def test_improved_grade_two_single_equation():
    rep = improved_pluecker(e(4, 1, 2) + e(4, 3, 4))
    assert not rep.verdict
    assert rep.equations_checked == 1
    assert rep.witness.equation == ((),)
    assert rep.witness.component == (1, 2, 3, 4)
    assert rep.witness.value == 2


def test_improved_rejects_counterexample():
    p = counterexample_4form()
    rep = improved_pluecker(p)
    assert not rep.verdict
    # witness among the C(7,2) = 21 quantifier covectors
    assert len(rep.witness.equation[0]) == 2
    assert rep.witness.equation == ((1, 2),)
    assert rep.witness.component == (1, 3, 4, 5, 6, 7)


def test_improved_random_simple_passes():
    rng = seeded(503)
    for _ in range(5):
        assert improved_pluecker(random_simple(rng, 7, 3, 6)).verdict


# -- dual improved -----------------------------------------------------------------


def test_dual_improved_n5():
    p = e(5, 1, 2) + e(5, 3, 4)
    rep = dual_improved_pluecker(p)
    assert not rep.verdict
    assert len(rep.witness.equation[0]) == 4


def test_dual_improved_vacuous_when_small():
    rep = dual_improved_pluecker(e(4, 1, 2, 3))
    assert rep.verdict and rep.equations_checked == 0


def test_dual_improved_single_equation_n4():
    rep = dual_improved_pluecker(e(4, 1, 2) + e(4, 3, 4))
    assert not rep.verdict
    assert rep.witness.equation == ((1, 2, 3, 4),)
    assert not is_simple_oracle(e(4, 1, 2) + e(4, 3, 4))


# -- contraction -------------------------------------------------------------------


def test_contraction_simple_passes():
    rng = seeded(504)
    p = random_simple(rng, 7, 4, 4)
    assert contraction_criterion(p, 2).verdict
    assert contraction_criterion(p, 3).verdict


def test_contraction_counterexample_k3():
    p = counterexample_4form()
    rep = contraction_criterion(p, 3)
    assert not rep.verdict
    assert rep.witness is not None


def test_contraction_equals_classical_when_k_is_grade():
    rng = seeded(505)
    for _ in range(8):
        p = rand_mv(rng, 6, 3, max_terms=6)
        assert contraction_criterion(p, 3).verdict == classical_pluecker(p).verdict


def test_contraction_randomized_certifies_failure():
    p = counterexample_4form()
    rep = contraction_criterion(p, 3, mode="randomized", trials=16, seed=5)
    assert not rep.verdict
    assert not rep.probabilistic  # false verdicts are exact certificates
    assert rep.seed == 5
    # witness records the trial and covector coordinates
    trial, coords = rep.witness.equation[0], rep.witness.equation[1]
    assert isinstance(trial, int) and len(coords) == 1


def test_contraction_randomized_pass_is_probabilistic():
    rng = seeded(506)
    p = random_simple(rng, 7, 4, 4)
    rep = contraction_criterion(p, 3, mode="randomized", trials=8, seed=1)
    assert rep.verdict and rep.probabilistic and rep.seed == 1


def test_contraction_randomized_witness_reevaluates():
    p = counterexample_4form()
    rep = contraction_criterion(p, 3, mode="randomized", trials=16, seed=5)
    (_, coords, S) = rep.witness.equation
    alpha = Multivector(7, 1, {1 << i: c for i, c in enumerate(coords[0]) if c}, dual=True)
    q = interior(alpha, p)
    out = wedge(interior(Multivector.basis(7, S, dual=True), q), q)
    assert out.coeff(rep.witness.component) == rep.witness.value != 0


def test_contraction_validates_k():
    rng = seeded(507)
    p = rand_mv(rng, 6, 3)
    with pytest.raises(InputError):
        contraction_criterion(p, 1)
    with pytest.raises(InputError):
        contraction_criterion(p, 4)
    with pytest.raises(InputError):
        contraction_criterion(p, 2, mode="sideways")
    # Arguments are checked before the vacuous pass at grades below 2.
    for low in (e(4, 1), Multivector.scalar(4, 3)):
        with pytest.raises(InputError):
            contraction_criterion(low, 2, mode="bogus")
        with pytest.raises(InputError):
            contraction_criterion(low, 2, mode="randomized", trials=0)
        with pytest.raises(InputError):
            contraction_criterion(low, 2, mode="randomized", bound=0)
        assert contraction_criterion(low, 2, trials=0, bound=0).verdict


@pytest.mark.parametrize(
    "option, value",
    [("trials", 2.5), ("trials", True), ("bound", 2.5), ("bound", True),
     ("seed", "x"), ("seed", 1.5), ("seed", False)],
)
def test_randomized_contraction_refuses_non_int_options(option, value):
    nonsimple = e(6, 1, 2, 3) + e(6, 4, 5, 6)
    for p in (nonsimple, e(4, 1)):
        with pytest.raises(InputError) as exc:
            contraction_criterion(p, 2, mode="randomized", **{option: value})
        assert str(exc.value) == f"{option} must be an integer, got {value!r}"
    # the exact mode does not read them
    assert not contraction_criterion(nonsimple, 2, **{option: value}).verdict


def test_contraction_low_grade_vacuous():
    assert contraction_criterion(e(4, 1), 2).verdict
    assert contraction_criterion(Multivector.scalar(4, 3), 5).verdict


def test_contraction_grid_needs_sum_points():
    # Every basis contraction of P is decomposable, so only a sum point
    # e^i + e^j can expose it: the grid must include those points.
    p = e(6, 1, 2, 3) + e(6, 4, 5, 6)
    for i in range(1, 7):
        assert is_simple_oracle(interior(e(6, i, dual=True), p))
    rep = contraction_criterion(p, 2)
    assert not rep.verdict
    _, coords, S = rep.witness.equation
    (alpha_coords,) = coords
    assert sorted(alpha_coords) == [0, 0, 0, 0, 1, 1]
    alpha = Multivector(6, 1, {1 << i: c for i, c in enumerate(alpha_coords) if c}, dual=True)
    q = interior(alpha, p)
    out = wedge(interior(Multivector.basis(6, S, dual=True), q), q)
    assert out.coeff(rep.witness.component) == rep.witness.value != 0


def _phi_products(points, n):
    """The products phi_I phi_J (I <= J) of phi = the wedge of the points,
    each given by its coordinates."""
    covectors = [
        Multivector(n, 1, {1 << i: c for i, c in enumerate(v) if c}, dual=True) for v in points
    ]
    items = sorted(reduce(wedge, covectors).terms.items())
    return {(I, J): a * b for t, (I, a) in enumerate(items) for J, b in items[t:]}


@pytest.mark.parametrize("n,m", ((5, 2), (6, 2), (6, 3), (7, 3)))
def test_contraction_tableau_sets_span_the_full_grid(n, m):
    # The exact mode's decision rests on this: an inner equation is a
    # quadratic form in phi, and the products phi_I phi_J on the tableau
    # point sets have rank dim Y[m,m], as on all m-sets of the grid, and
    # span the same space.  Tableaux come from filtering pairs of columns.
    def point(i, j):
        return tuple(int(x in (i, j)) for x in range(1, n + 1))

    columns = list(combinations(range(1, n + 1), m))
    tableau_sets = [
        [point(i, j) for i, j in zip(I, J)]
        for I in columns
        for J in columns
        if all(i <= j for i, j in zip(I, J))
    ]
    grid = [point(i, i) for i in range(1, n + 1)] + [
        point(i, j) for i, j in combinations(range(1, n + 1), 2)
    ]
    tableau_rows = [_phi_products(points, n) for points in tableau_sets]
    grid_rows = [_phi_products(points, n) for points in combinations(grid, m)]
    dim = young_dim(n, TwoColumnShape(m, m))
    assert len(tableau_rows) == dim
    assert sparse_rank(tableau_rows) == sparse_rank(grid_rows) == dim
    assert sparse_rank(tableau_rows + grid_rows) == dim


def test_contraction_exact_matches_oracle_beyond_k2():
    for n in range(4, 8):
        for s in (3, 4):
            if s > n:
                continue
            for i in range(3):
                rng = seeded(514, n, s, i)
                inputs = [random_simple(rng, n, s, 4), rand_mv(rng, n, s, bound=4, max_terms=5)]
                if s < n - 1:
                    inputs.append(random_nonsimple(rng, n, s, 4))
                for p in inputs:
                    for k in sorted({3, s}):
                        rep = contraction_criterion(p, k)
                        assert rep.verdict == is_simple_oracle(p), (n, s, k, str(p))


@pytest.mark.parametrize("mode", ("symbolic", "randomized"))
@pytest.mark.parametrize("which_k", ("2", "3", "s"))
@pytest.mark.parametrize("trial", range(4))
def test_contraction_inner_check_is_improved_in_both_modes(trial, which_k, mode):
    # Each contracted k-vector is checked with the improved relations: a pass
    # counts C(n,k-2)*C(n,k+2) equations per point set or trial (one check of
    # P when k = s), and a witness names a (k-2)-covector.
    rng = seeded(516, trial)
    n = rng.randint(5, 7)
    s = rng.randint(3, min(n - 2, 4))
    k = s if which_k == "s" else int(which_k)
    opts = dict(trials=5, seed=trial, bound=3)
    if k == s:
        sets = 1
    elif mode == "randomized":
        sets = opts["trials"]
    else:  # one point set per tableau of Y[s-k, s-k]
        sets = young_dim(n, TwoColumnShape(s - k, s - k))
    rep = contraction_criterion(random_simple(rng, n, s, 3), k, mode, **opts)
    assert rep.verdict
    assert rep.equations_checked == sets * equation_count(n, k, "improved")
    rep = contraction_criterion(random_nonsimple(rng, n, s, 3), k, mode, **opts)
    assert not rep.verdict
    assert len(rep.witness.equation[-1]) == k - 2


# -- optimal component test ---------------------------------------------------------


def test_optimal_simple_passes():
    rng = seeded(508)
    p = random_simple(rng, 8, 4, 4)
    rep = optimal_component_test(p)
    assert rep.verdict
    assert rep.equations_checked == 720  # dim Y[6,2] at n = 8


def test_optimal_rejects_counterexample():
    rep = optimal_component_test(counterexample_4form())
    assert not rep.verdict
    assert rep.witness.equation == (((1, 1), (2, 5)), (3, 4, 6, 7))
    assert rep.witness.value == Fraction(1, 6)
    assert rep.equations_checked == 18


def test_optimal_grade_two_reduces_to_wedge_square():
    rng = seeded(509)
    for _ in range(10):
        p = rand_mv(rng, 6, 2, max_terms=6)
        assert optimal_component_test(p).verdict == wedge(p, p).is_zero()


def test_optimal_passes_low_grade():
    # Below grade 2 there is no (s+2, s-2) component: a pass with 0 equations.
    for p in (e(4, 1), Multivector.scalar(4, 3)):
        rep = optimal_component_test(p)
        assert rep.verdict and rep.equations_checked == 0


def test_every_optimal_pass_reports_the_equation_count():
    # A pass counts all dim Y[s+2,s-2] coordinates, whether it visits them,
    # visits only those inside the indices P touches, or none.
    for n in range(1, 9):
        for s in range(n + 1):
            rng = seeded(517, n, s)
            inputs = [random_simple(rng, n, s, 3), Multivector.zero(n, s)]
            if s:
                inputs.append(e(n, *range(n - s + 1, n + 1)))
            for p in inputs:
                rep = optimal_component_test(p)
                assert rep.verdict, (n, s, str(p))
                assert rep.equations_checked == equation_count(n, s, "optimal"), (n, s, str(p))


# -- oracle, factorization ----------------------------------------------------------


def test_oracle_examples():
    assert not is_simple_oracle(e(4, 1, 2) + e(4, 3, 4))
    assert is_simple_oracle(e(4, 1, 2, 3))
    p = from_factors([e(5, 1) + e(5, 2), e(5, 3) - e(5, 4), e(5, 5)])
    assert is_simple_oracle(p)
    assert is_simple_oracle(Multivector.zero(4, 2))  # zero is simple by convention


def test_oracle_report_witness():
    rep = oracle_report(e(4, 1, 2) + e(4, 3, 4))
    assert not rep.verdict
    assert "rank 4" in rep.witness.text


def test_factorize_scaling():
    p = 6 * e(4, 1, 2, 3)
    factors = factorize(p)
    assert factors == [6 * e(4, 1), e(4, 2), e(4, 3)]


def test_readme_quick_start_prints_what_its_comment_says(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(code, {})
    printed = capsys.readouterr().out.splitlines()
    comment = next(line for line in code.splitlines() if "factorize(" in line).split("# ", 1)[1]
    assert printed[-1] == comment == "6*e_{1} e_{2} e_{3}"


def test_factorize_nonsimple_returns_none():
    assert factorize(e(4, 1, 2) + e(4, 3, 4)) is None


def test_factorize_round_trip():
    rng = seeded(510)
    for n, s in [(4, 2), (5, 2), (6, 3), (7, 3), (8, 4)]:
        for _ in range(5):
            p = random_simple(rng, n, s, 6)
            factors = factorize(p)
            assert from_factors(factors) == p


def test_factor_minors_are_the_coefficients():
    # The s x s minor of the factors on the columns I is P's coefficient at
    # I, so zero off P's support: a Leibniz sum, with no wedge of factors.
    rng = seeded(517)
    off_support = 0
    for n in range(2, 9):
        for s in range(1, n):
            for scale in (1, Fraction(1, 3)):
                P = random_simple(rng, n, s, bound=2) * scale
                rows = [[f.coeff((i,)) for i in range(1, n + 1)] for f in factorize(P)]
                for I in combinations(range(1, n + 1), s):
                    minor = leibniz_minor(rows, [i - 1 for i in I])
                    assert minor == P.coeff(I), (str(P), I)
                    off_support += not minor
    assert off_support


def test_factorize_zero_and_scalar():
    z = factorize(Multivector.zero(4, 2))
    assert from_factors(z).is_zero()
    with pytest.raises(InputError, match="no vector factors"):
        factorize(Multivector.scalar(4, 5))


def test_factorize_check_fires_on_a_wrong_basis(monkeypatch):
    # factorize checks the wedge of its factors against P: a rank-s basis
    # whose wedge is not a multiple of P raises, a right one with Fraction
    # entries does not.
    q = Fraction(5, 7)
    p = q * wedge(e(4, 1) + Fraction(1, 2) * e(4, 3), e(4, 2) + Fraction(2, 3) * e(4, 4))
    for basis in ([e(4, 1), e(4, 2)], [e(4, 1), e(4, 3)], [e(4, 1), 2 * e(4, 2)]):
        monkeypatch.setattr(criteria, "support_space", lambda P, b=basis: SupportSpace(4, tuple(b)))
        with pytest.raises(InvariantViolation, match="mismatched wedge"):
            factorize(p)
    right = (e(4, 1) + Fraction(1, 2) * e(4, 3), e(4, 2) + Fraction(2, 3) * e(4, 4))
    monkeypatch.setattr(criteria, "support_space", lambda P: SupportSpace(4, right))
    assert factorize(p) == [q * right[0], right[1]]


def test_from_factors_examples():
    assert from_factors([e(4, 1), e(4, 2), e(4, 3)]) == e(4, 1, 2, 3)
    assert from_factors([e(4, 1), e(4, 1), e(4, 2)]).is_zero()
    with pytest.raises(InputError):
        from_factors([])
    with pytest.raises(InputError):
        from_factors([e(4, 1, 2)])


# -- duality identity ----------------------------------------------------------------


def test_duality_identity_exhaustive_n4_s2():
    for pidx in basis_subsets(4, 2):
        P = Multivector.basis(4, pidx)
        for phi_idx in basis_subsets(4, 1):
            phi = Multivector.basis(4, phi_idx, dual=True)
            for psi_idx in basis_subsets(4, 3):
                psi = Multivector.basis(4, psi_idx, dual=True)
                assert duality_identity_check(P, phi, psi)


def test_duality_identity_zero():
    P = Multivector.zero(4, 2)
    assert duality_identity_check(P, e(4, 1, dual=True), e(4, 1, 2, 3, dual=True))


def test_duality_identity_random_rational():
    rng = seeded(511)
    for _ in range(50):
        P = rand_mv(rng, 6, 3, rational=True)
        phi = rand_mv(rng, 6, 2, dual=True, rational=True)
        psi = rand_mv(rng, 6, 4, dual=True, rational=True)
        assert duality_identity_check(P, phi, psi)


def test_duality_identity_validates():
    with pytest.raises(InputError):
        duality_identity_check(e(4, 1, 2), e(4, 1, 2, dual=True), e(4, 1, 2, 3, dual=True))


# -- equation counts -----------------------------------------------------------------


def test_equation_count_examples():
    assert equation_count(8, 4, "classical") == 3136
    assert equation_count(8, 4, "improved") == 784
    assert equation_count(8, 4, "optimal") == 720
    assert equation_count(4, 2, "classical") == 16
    assert equation_count(4, 2, "improved") == 1
    assert equation_count(8, 4, "dual") == 3136
    assert equation_count(8, 4, "dual-improved") == 784


def test_equation_count_orderings():
    # fewer equations in the two-index form once n >= 2s >= 8
    for s in range(4, 7):
        for n in range(2 * s, 13):
            assert equation_count(n, s, "improved") < equation_count(n, s, "classical")
    # the component count never exceeds the two-index count
    for n in range(2, 13):
        for s in range(0, n + 1):
            assert equation_count(n, s, "optimal") <= equation_count(n, s, "improved")


def _comb(n, k):
    return comb(n, k) if 0 <= k <= n else 0


# Quantified covectors times output components, for each linear criterion.
LINEAR_COUNTS = {
    "classical": lambda n, s: _comb(n, s - 1) * _comb(n, s + 1),
    "dual": lambda n, s: _comb(n, s + 1) * _comb(n, s - 1),
    "improved": lambda n, s: _comb(n, s - 2) * _comb(n, s + 2),
    "dual-improved": lambda n, s: _comb(n, s + 2) * _comb(n, s - 2),
}
LINEAR_FNS = {
    "classical": classical_pluecker,
    "dual": dual_pluecker,
    "improved": improved_pluecker,
    "dual-improved": dual_improved_pluecker,
}


def test_equation_count_linear_formulas():
    for n in range(1, 11):
        for s in range(0, n + 1):
            for name, formula in LINEAR_COUNTS.items():
                assert equation_count(n, s, name) == formula(n, s), (n, s, name)


def test_linear_pass_checks_every_equation():
    for n in range(1, 8):
        for s in range(0, n + 1):
            p = random_simple(seeded(515, n, s), n, s, 4)
            for name, fn in LINEAR_FNS.items():
                rep = fn(p)
                assert rep.verdict, (n, s, name)
                assert rep.equations_checked == LINEAR_COUNTS[name](n, s), (n, s, name)


def test_equation_count_validates():
    with pytest.raises(InputError):
        equation_count(4, 5, "classical")
    with pytest.raises(InputError):
        equation_count(4, 2, "quantum")


def test_run_criterion_refuses_an_unknown_name():
    # the same refusal as equation_count's, naming the criteria it knows
    with pytest.raises(InputError) as exc:
        run_criterion(e(4, 1, 2), "quantum")
    assert "'quantum'" in str(exc.value)
    assert all(name in str(exc.value) for name in CRITERIA)


@pytest.mark.parametrize("n", (0, 65))
@pytest.mark.parametrize(
    "count",
    (lambda n: equation_count(n, 0, "optimal"), lambda n: verify_square_decomposition(n, 1)),
    ids=("equation_count", "verify_square_decomposition"),
)
def test_library_counts_refuse_a_dim_outside_1_to_64(count, n):
    with pytest.raises(InputError, match=r"dim must be an integer in \[1, 64\]"):
        count(n)


# -- three-plane dichotomy ------------------------------------------------------------


def test_three_plane_common_line():
    family = DecomposableFamily((e(4, 1, 2), e(4, 1, 3), e(4, 1, 4)))
    assert three_plane_check(family) == ThreePlaneBranch.INTERSECTION_BOUND


def test_three_plane_common_span():
    family = DecomposableFamily((e(4, 1, 2), e(4, 1, 3), e(4, 2, 3)))
    assert three_plane_check(family) == ThreePlaneBranch.SPAN_BOUND


def test_three_plane_singleton_both():
    family = DecomposableFamily((e(4, 1, 2, 3),))
    assert three_plane_check(family) == ThreePlaneBranch.BOTH


def test_family_validation():
    with pytest.raises(InputError) as exc:
        DecomposableFamily((e(4, 1, 2), e(4, 1, 2) + e(4, 3, 4)))
    assert "member 1" in str(exc.value)
    with pytest.raises(InputError) as exc:
        DecomposableFamily((e(4, 1, 2), e(4, 3, 4)))
    assert "sum of members 0 and 1" in str(exc.value)
    with pytest.raises(InputError):
        DecomposableFamily((e(4, 1, 2), Multivector.zero(4, 2)))
    with pytest.raises(InputError):
        DecomposableFamily(())
    with pytest.raises(InputError):
        DecomposableFamily((e(4, 1, 2), e(5, 1, 2)))


# -- degenerate grades and zero --------------------------------------------------------


def test_zero_passes_everything():
    z = Multivector.zero(5, 3)
    for rep in run_all_criteria(z):
        assert rep.verdict, rep.criterion


def test_low_grades_always_simple():
    rng = seeded(512)
    for s in (0, 1):
        p = rand_mv(rng, 5, s) if s else Multivector.scalar(5, 7)
        assert is_simple_oracle(p)
        for rep in run_all_criteria(p):
            assert rep.verdict, rep.criterion


def test_top_and_codegree_one_pass_all():
    rng = seeded(513)
    for n in range(2, 9):
        for s in (n - 1, n):
            if s < 1:
                continue
            p = rand_mv(rng, n, s)
            assert is_simple_oracle(p), (n, s)
            for rep in (
                classical_pluecker(p),
                dual_pluecker(p),
                improved_pluecker(p),
                dual_improved_pluecker(p),
            ):
                assert rep.verdict, (n, s, rep.criterion)
            if n <= 6 and s >= 2:
                assert optimal_component_test(p).verdict, (n, s)
                assert contraction_criterion(p, 2).verdict, (n, s)
            elif s >= 2:
                rep = contraction_criterion(p, 2, mode="randomized", trials=4, seed=n)
                assert rep.verdict, (n, s)


# -- witness soundness and equivalence --------------------------------------------------


def test_witness_soundness_linear_criteria():
    rng = seeded(514)
    hit = 0
    for _ in range(60):
        n = rng.randint(4, 7)
        s = rng.randint(2, n - 2)
        p = rand_mv(rng, n, s, max_terms=6)
        for rep, rebuild in (
            (classical_pluecker(p), "classical"),
            (improved_pluecker(p), "improved"),
            (dual_pluecker(p), "dual"),
            (dual_improved_pluecker(p), "dual-improved"),
        ):
            if rep.verdict:
                continue
            hit += 1
            (S,) = rep.witness.equation
            cov = Multivector.basis(n, S, dual=True)
            if rebuild in ("classical", "improved"):
                out = wedge(interior(cov, p), p)
            else:
                out = interior(contract_by_definition(p, cov), p)
            assert not out.is_zero()
            assert out.coeff(rep.witness.component) == rep.witness.value != 0
    assert hit > 50  # random multivectors at these grades are rarely simple


def test_optimal_witness_matches_projection_map():
    # The witness is the first nonzero semistandard coordinate of the lex
    # family's map in the scan order: tableau (a, b), then the 4-subset.
    rng = seeded(515)
    for _ in range(15):
        p = rand_mv(rng, 7, 3, max_terms=5)
        rep = optimal_component_test(p)
        coeffs = project_tensor_square(p)
        assert rep.verdict == (not coeffs)
        if not rep.verdict:
            key = (rep.witness.equation[0], rep.witness.component)
            assert min(filter(_is_semistandard, coeffs), key=_scan_order) == key
            assert coeffs[key] == rep.witness.value


def _is_semistandard(key):
    pairs, subset = key
    first = [a for a, _ in pairs] + list(subset)
    second = [b for _, b in pairs]
    return first == sorted(set(first)) and second == sorted(set(second))


def _scan_order(key):
    pairs, subset = key
    return [a for a, _ in pairs], [b for _, b in pairs], subset


def test_equivalence_mini_suite():
    rng = seeded(516)
    for n, s in [(4, 2), (5, 2), (6, 3)]:
        cases = [rand_mv(rng, n, s, max_terms=6) for _ in range(30)]
        cases += [random_simple(rng, n, s, 5) for _ in range(5)]
        cases += [random_nonsimple(rng, n, s, 5) for _ in range(5)]
        for p in cases:
            reports = run_all_criteria(p)
            verdicts = {rep.criterion: rep.verdict for rep in reports}
            assert len(set(verdicts.values())) == 1, (n, s, verdicts, str(p))


def test_kernel_dimension_cross_oracle():
    rng = seeded(517)
    for _ in range(40):
        n = rng.randint(3, 8)
        s = rng.randint(1, n)
        p = rand_mv(rng, n, s, max_terms=8)
        assert (kernel_dimension(p) == s) == (support_space(p).rank == s)


def _rank_by_elimination(rows):
    """Rank of a list of rows, by Gaussian elimination over Fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _wedge_matrix(p):
    """Row i holds the coefficients of e_i ^ p over the (s+1)-subsets U:
    e_i ^ e_{U - i} = (-1)**(number of elements of U below i) e_U."""
    n, s = p.dim, p.grade
    subsets = list(combinations(range(1, n + 1), s + 1))
    return [
        [
            (-1) ** sum(1 for j in U if j < i) * p.coeff([j for j in U if j != i])
            if i in U else 0
            for U in subsets
        ]
        for i in range(1, n + 1)
    ]


def test_kernel_dimension_matches_wedge_matrix_rank():
    rng = seeded(518)
    seen = set()
    for n in range(1, 9):
        for s in range(n + 1):
            cases = [Multivector.zero(n, s)]
            if s == 0:
                cases += [Multivector.scalar(n, 3), Multivector.scalar(n, Fraction(-2, 7))]
            else:
                cases += [
                    rand_mv(rng, n, s, bound=4, max_terms=3),
                    rand_mv(rng, n, s, bound=4, rational=True),
                    random_simple(rng, n, s, 3) * Fraction(1, 3),
                ]
            if 2 <= s <= n - 2:
                cases.append(random_nonsimple(rng, n, s, 3))
            for p in cases:
                expected = n - _rank_by_elimination(_wedge_matrix(p))
                assert kernel_dimension(p) == expected, (n, s, str(p))
                seen.add(expected not in (s, n))
    assert seen == {False, True}  # kernels other than s and n were exercised


def test_reports_reject_covectors():
    # every entry point that is defined on vectors only refuses a covector
    cov = e(4, 1, 2, dual=True) + e(4, 3, 4, dual=True)
    cov3 = e(6, 1, 2, 3, dual=True)
    probes = [e(4, i, dual=True) for i in (1, 2, 3, 4)]
    calls = [
        *(lambda f=f: f(cov) for f in CRITERIA.values()),
        lambda: kernel_dimension(cov),
        lambda: factorize(cov),
        lambda: support_space(cov),
        lambda: next(iter_projection_blocks(cov3)),
        lambda: isotypic_probe(cov, TwoColumnShape(2, 2), probes),
        lambda: DecomposableFamily((e(4, 1, 2), e(4, 1, 2, dual=True))),
    ]
    assert len(calls) == 13
    for call in calls:
        with pytest.raises(InputError):
            call()
