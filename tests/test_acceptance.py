"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with:  pytest tests/test_acceptance.py -v -s

Criterion 5 checks the equation counts row by row: at grade 2 the
(4,0) component is all of the quantifier space, so the optimal and improved
counts are equal, both C(n,4); at grades 3 and 4 the ordering
optimal < improved < classical is strict.
"""

import math

from plk import (
    DecomposableFamily,
    Multivector,
    ThreePlaneBranch,
    TwoColumnShape,
    classical_pluecker,
    contraction_criterion,
    dual_improved_pluecker,
    dual_pluecker,
    equation_count,
    factorize,
    from_factors,
    improved_pluecker,
    is_simple_oracle,
    kernel_dimension,
    optimal_component_test,
    support_space,
    three_plane_check,
    verify_square_decomposition,
    wedge,
)
from plk.multivector import basis_subsets
from plk.randgen import (
    random_multivector,
    random_nonsimple,
    random_simple,
    random_vector,
)

from reference import duality_identity_check, isotypic_probe
from util import rand_mv, seeded, support_space_branch

MAIN_PAIRS = [(4, 2), (5, 2), (6, 3), (7, 3), (8, 4)]
RANDOM_PER_PAIR = 1000
SIMPLE_PER_PAIR = 25
NONSIMPLE_PER_PAIR = 15
# full seven-way agreement on top-degree / codegree-1 instances at desk scale
EDGE_DIMS = (4, 5, 6)
EDGE_PER_DIM = 6

_corpus_cache = None


def corpus():
    """Suite-1 multivectors: seeded randoms plus every structured generator."""
    global _corpus_cache
    if _corpus_cache is not None:
        return _corpus_cache
    out = []
    for n, s in MAIN_PAIRS:
        rng = seeded(1, n, s)
        for _ in range(RANDOM_PER_PAIR):
            out.append(rand_mv(rng, n, s, bound=9, max_terms=10))
        for _ in range(SIMPLE_PER_PAIR):
            out.append(random_simple(rng, n, s, bound=5))
        for _ in range(NONSIMPLE_PER_PAIR):
            out.append(random_nonsimple(rng, n, s, bound=9))
    for n in EDGE_DIMS:
        rng = seeded(2, n)
        for s in (n, n - 1):  # top degree and codegree one
            for _ in range(EDGE_PER_DIM):
                out.append(random_multivector(rng, n, s, bound=9))
    _corpus_cache = out
    return out


def test_criterion_1_equivalence_suite():
    disagreements = []
    simple_count = 0
    cases = corpus()
    for p in cases:
        verdicts = {
            "classical": classical_pluecker(p).verdict,
            "dual": dual_pluecker(p).verdict,
            "improved": improved_pluecker(p).verdict,
            "dual-improved": dual_improved_pluecker(p).verdict,
            "contraction(k=2)": contraction_criterion(p, 2, mode="symbolic").verdict,
            "optimal": optimal_component_test(p).verdict,
            "oracle": is_simple_oracle(p),
        }
        if len(set(verdicts.values())) != 1:
            disagreements.append((p.dim, p.grade, verdicts, str(p)))
        elif verdicts["oracle"]:
            simple_count += 1
    line = (
        f"[criterion 1] {'PASS' if not disagreements else 'FAIL'} - "
        f"{len(cases)} multivectors ({simple_count} decomposable), "
        f"7 verdicts agree on {len(cases) - len(disagreements)}/{len(cases)}"
    )
    print("\n" + line)
    assert not disagreements, disagreements[:3]


def test_criterion_2_counterexample_4form():
    P = wedge(
        Multivector.basis(7, (1,)),
        Multivector.basis(7, (2, 3, 4)) + Multivector.basis(7, (5, 6, 7)),
    )
    square = wedge(P, P)
    assert square.is_zero(), "full antisymmetrization must vanish exactly"
    verdicts = (
        improved_pluecker(P).verdict,
        optimal_component_test(P).verdict,
        is_simple_oracle(P),
    )
    assert verdicts == (False, False, False)
    print("\n[criterion 2] PASS - wedge square exactly zero, three tests report not-simple")


def test_criterion_3_top_shape_never_vanishes():
    shape = TwoColumnShape(4, 4)
    failures = []
    worst = 0
    for n in (5, 6, 7, 8):
        rng = seeded(3, n)
        for i in range(200):
            P = rand_mv(rng, n, 4, bound=9, max_terms=10)
            for attempt in range(1, 51):
                probes = [random_vector(rng, n, 10, dual=True) for _ in range(8)]
                if isotypic_probe(P, shape, probes) != 0:
                    worst = max(worst, attempt)
                    break
            else:
                failures.append((n, i, str(P)))
    line = (
        f"[criterion 3] {'PASS' if not failures else 'FAIL'} - 800 forms, "
        f"nonzero probe found within {worst} attempt(s) at worst"
    )
    print("\n" + line)
    assert not failures, failures


def test_criterion_4_square_decomposition_identities():
    checked = 0
    for n in range(1, 9):
        for s in range(1, n + 1):
            rep = verify_square_decomposition(n, s)
            assert rep.passed, (n, s, rep.identities)
            checked += len(rep.identities)
    print(f"\n[criterion 4] PASS - {checked} exact identities over 1 <= s <= n <= 8")


def test_criterion_5_equation_count_ordering():
    from plk import young_dim

    assert equation_count(8, 4, "classical") == 3136
    assert equation_count(8, 4, "improved") == 784
    optimal = equation_count(8, 4, "optimal")
    assert optimal == young_dim(8, TwoColumnShape(6, 2)) == 720
    assert optimal < 784 < 3136
    violations = []
    for s in (2, 3, 4):
        for n in range(2 * s, 13):
            c = equation_count(n, s, "classical")
            i = equation_count(n, s, "improved")
            o = equation_count(n, s, "optimal")
            # at grade 2 the (4,0) component is the whole of Lambda^4
            holds = (o == i == math.comb(n, 4)) if s == 2 else (o < i)
            if not (holds and i < c):
                violations.append(f"(n={n}, s={s}): optimal={o}, improved={i}, classical={c}")
    status = "PASS" if not violations else "FAIL"
    print(
        f"\n[criterion 5] {status} - optimal == improved == C(n,4) < classical at s=2, "
        "optimal < improved < classical at s in {3,4}, 2s <= n <= 12"
    )
    assert not violations, (
        "equation counts break the stated relation (s=2: optimal == improved "
        "== C(n,4) < classical; s=3,4: optimal < improved < classical):\n"
        + "\n".join(violations)
    )


def test_criterion_6_duality_identity():
    cases = 0
    for n, s in [(4, 2), (5, 2)]:
        for pidx in basis_subsets(n, s):
            P = Multivector.basis(n, pidx)
            for phi_idx in basis_subsets(n, s - 1):
                phi = Multivector.basis(n, phi_idx, dual=True)
                for psi_idx in basis_subsets(n, s + 1):
                    psi = Multivector.basis(n, psi_idx, dual=True)
                    assert duality_identity_check(P, phi, psi), (pidx, phi_idx, psi_idx)
                    cases += 1
    for n, s in [(6, 3), (7, 3)]:
        rng = seeded(6, n, s)
        for _ in range(10_000):
            P = rand_mv(rng, n, s, max_terms=3, rational=True)
            phi = rand_mv(rng, n, s - 1, max_terms=2, dual=True, rational=True)
            psi = rand_mv(rng, n, s + 1, max_terms=2, dual=True, rational=True)
            assert duality_identity_check(P, phi, psi)
            cases += 1
    print(f"\n[criterion 6] PASS - {cases} identity instances, exact equality")


def test_criterion_7_factorization_round_trip():
    total = 0
    for n, s in MAIN_PAIRS:
        rng = seeded(7, n, s)
        for _ in range(500):
            P = random_simple(rng, n, s, bound=6)
            factors = factorize(P)
            assert factors is not None, (n, s, str(P))
            assert from_factors(factors) == P, (n, s, str(P))
            total += 1
    print(f"\n[criterion 7] PASS - {total} exact wedge round trips")


def _family_common_intersection(rng, k, n, size):
    base = None
    while base is None or from_factors(base).is_zero():
        base = [random_vector(rng, n, 4) for _ in range(k - 1)]
    members = []
    while len(members) < size:
        p = from_factors(base + [random_vector(rng, n, 4)])
        if not p.is_zero():
            members.append(p)
    return DecomposableFamily(tuple(members))


def _family_common_span(rng, k, n, size):
    span = None
    while span is None or from_factors(span).is_zero():
        span = [random_vector(rng, n, 4) for _ in range(k + 1)]
    members = []
    while len(members) < size:
        picks = rng.sample(range(k + 1), k)
        factors = []
        for j in picks:
            vec = span[j]
            if rng.random() < 0.5:
                other = span[rng.choice([x for x in range(k + 1) if x != j])]
                vec = vec + rng.randint(1, 3) * other
            factors.append(vec)
        p = from_factors(factors)
        if not p.is_zero():
            members.append(p)
    return DecomposableFamily(tuple(members))


def test_criterion_8_three_plane_dichotomy():
    checked = 0
    for k in (2, 3):
        n = k + 3
        rng = seeded(8, k)
        for i in range(200):
            size = rng.randint(3, 5)
            if i % 2 == 0:
                fam = _family_common_intersection(rng, k, n, size)
                branch = three_plane_check(fam)  # raises on "neither"
                assert branch in (ThreePlaneBranch.INTERSECTION_BOUND, ThreePlaneBranch.BOTH)
            else:
                fam = _family_common_span(rng, k, n, size)
                branch = three_plane_check(fam)
                assert branch in (ThreePlaneBranch.SPAN_BOUND, ThreePlaneBranch.BOTH)
            checked += 1
    fam = DecomposableFamily(tuple(Multivector.basis(4, (1, j)) for j in (2, 3, 4)))
    assert three_plane_check(fam) == ThreePlaneBranch.INTERSECTION_BOUND
    fam = DecomposableFamily(
        tuple(Multivector.basis(4, idx) for idx in ((1, 2), (1, 3), (2, 3)))
    )
    assert three_plane_check(fam) == ThreePlaneBranch.SPAN_BOUND
    print(f"\n[criterion 8] PASS - dichotomy held for {checked} families plus both examples")


def test_criterion_8_branches_match_the_support_space_reference():
    # the families of criterion 8, decided from each member's pivot rows and
    # from its support_space basis
    for k in (2, 3):
        rng = seeded(8, k)
        for i in range(60):
            size = rng.randint(3, 5)
            draw = _family_common_intersection if i % 2 == 0 else _family_common_span
            fam = draw(rng, k, k + 3, size)
            assert three_plane_check(fam) == support_space_branch(fam), fam


def test_criterion_9_kernel_cross_oracle():
    mismatches = []
    cases = corpus()
    for p in cases:
        by_rank = support_space(p).rank == p.grade
        by_kernel = kernel_dimension(p) == p.grade
        if by_rank != by_kernel:
            mismatches.append((p.dim, p.grade, str(p)))
    line = (
        f"[criterion 9] {'PASS' if not mismatches else 'FAIL'} - "
        f"rank and kernel characterizations agree on {len(cases) - len(mismatches)}"
        f"/{len(cases)} multivectors"
    )
    print("\n" + line)
    assert not mismatches, mismatches[:3]
