"""Shared helpers for the test suite: independent oracles and generators."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb

from plk import DecomposableFamily, Multivector, ThreePlaneBranch, from_factors, support_space, wedge
from plk import linalg
from plk.linalg import Coeff
from plk.multivector import basis_subsets, mask_of


@cache
def _lex_masks(dim, grade):
    """The masks of all grade-subsets of 1..dim in lex order, built once;
    ``Random.sample`` picks by length alone, so sampling the shared tuple
    draws what sampling a fresh list did."""
    return tuple(mask_of(c) for c in combinations(range(1, dim + 1), grade))


def rand_terms(rng, dim, grade, bound=9, max_terms=None, rational=False):
    total = comb(dim, grade)
    cap = min(max_terms or total, total)
    chosen = rng.sample(_lex_masks(dim, grade), rng.randint(1, cap))
    terms = {}
    for m in chosen:
        if rational:
            num = 0
            while not num:
                num = rng.randint(-bound, bound)
            terms[m] = Fraction(num, rng.randint(1, bound))
        else:
            c = 0
            while not c:
                c = rng.randint(-bound, bound)
            terms[m] = c
    return terms


def rand_mv(rng, dim, grade, bound=9, max_terms=None, dual=False, rational=False):
    """Random nonzero multivector; rational=True draws Fraction coefficients."""
    return Multivector(
        dim, grade, rand_terms(rng, dim, grade, bound, max_terms, rational), dual
    )


def sparse_rank(rows) -> int:
    """Rank over Q of rows given as {column: coeff} maps (columns sortable),
    by a plain Fraction elimination independent of plk.linalg."""
    pivots = {}  # leading column -> a row that leads there with coeff 1
    for row in rows:
        row = {col: Fraction(c) for col, c in row.items() if c}
        while row:
            lead = min(row)
            basis = pivots.get(lead)
            if basis is None:
                pivots[lead] = {col: c / row[lead] for col, c in row.items()}
                break
            f = row[lead]
            for col, c in basis.items():
                left = row.get(col, 0) - f * c
                if left:
                    row[col] = left
                else:
                    del row[col]
    return len(pivots)


def pairing(psi: Multivector, p: Multivector) -> Coeff:
    """Determinant pairing <psi, p> = sum over S of psi[S] * p[S], no 1/k!,
    of a covector with a vector of equal grade."""
    assert psi.dual and not p.dual and (psi.dim, psi.grade) == (p.dim, p.grade)
    return sum(c * p.terms[m] for m, c in psi.terms.items() if m in p.terms)


def interior_by_adjunction(phi: Multivector, p: Multivector) -> Multivector:
    """Independent construction of the interior product from its defining
    adjunction: the e_T coefficient of i(phi)p is <p, phi ^ e^T>."""
    out_grade = p.grade - phi.grade
    terms = {}
    for T in basis_subsets(p.dim, out_grade):
        theta = Multivector.basis(p.dim, T, dual=True)
        c = pairing(wedge(phi, theta), p)
        if c:
            terms[mask_of(T)] = c
    return Multivector(p.dim, out_grade, terms)


def contract_by_adjunction(p: Multivector, psi: Multivector) -> Multivector:
    """Independent construction of i_p(psi): the e^U coefficient is
    <psi, p ^ e_U>."""
    out_grade = psi.grade - p.grade
    terms = {}
    for U in basis_subsets(p.dim, out_grade):
        q = Multivector.basis(p.dim, U)
        c = pairing(psi, wedge(p, q))
        if c:
            terms[mask_of(U)] = c
    return Multivector(p.dim, out_grade, terms, dual=True)


def seeded(*parts) -> random.Random:
    """Deterministic Random keyed by integers (independent of hash seeds)."""
    acc = 0
    for p in parts:
        acc = acc * 1_000_003 + p
    return random.Random(acc)


def support_space_branch(family: DecomposableFamily) -> ThreePlaneBranch | None:
    """The three-plane branch read from each member's ``support_space``
    basis rather than from the pivot lemma: the span's dimension is the rank
    of all basis rows, the common intersection that of their row spaces.
    None when neither bound holds."""
    k, n = family.grade, family.dim
    rows = [
        [[v.terms.get(1 << i, 0) for i in range(n)] for v in support_space(p).basis]
        for p in family.members
    ]
    span_ok = linalg.rank([row for member in rows for row in member]) <= k + 1
    inter_ok = len(linalg.intersect_row_spaces(*rows)) >= k - 1
    return {
        (True, True): ThreePlaneBranch.BOTH,
        (True, False): ThreePlaneBranch.SPAN_BOUND,
        (False, True): ThreePlaneBranch.INTERSECTION_BOUND,
    }.get((span_ok, inter_ok))


def _sparse_first(p: Multivector) -> Multivector:
    """p with its terms reordered so the first (the pivot term) shares k - 1
    indices with the fewest other terms: its pivot vectors v_i are sparse."""
    def near(term):
        return sum((term[0] ^ o).bit_count() == 2 for o in p.terms)

    return Multivector(p.dim, p.grade, dict(sorted(p.terms.items(), key=near)))


def random_family(rng: random.Random, n: int, k: int, kind: str, size: int = 4) -> DecomposableFamily:
    """A valid family of ``size`` decomposable k-vectors, k >= 1.

    ``common``: A ^ v for one (k-1)-blade A, so the common intersection has
    dimension at least k-1; ``hyperplane``: k-vectors inside one
    (k+1)-space, so the joint span has dimension at most k+1.  Each member
    has its terms shuffled or its sparsest pivot term put first, and some
    are scaled by a Fraction.
    """
    def vectors(count):
        while True:
            vs = [Multivector(n, 1, {1 << i: rng.randint(-4, 4) for i in range(n)}) for _ in range(count)]
            if count == 0 or not from_factors(vs).is_zero():
                return vs

    if kind == "common":
        base = vectors(k - 1)
        draw = lambda: base + vectors(1)
    else:
        span = vectors(k + 1)
        draw = lambda: [sum((rng.randint(-3, 3) * b for b in span), Multivector.zero(n, 1)) for _ in range(k)]
    members = []
    while len(members) < size:
        p = from_factors(draw())
        if p.is_zero():
            continue
        if rng.random() < 0.5:
            items = list(p.terms.items())
            rng.shuffle(items)
            p = Multivector(n, k, dict(items))
        else:
            p = _sparse_first(p)
        if rng.random() < 0.4:
            p = p * Fraction(rng.choice((1, -2, 5)), rng.choice((3, 4, 7)))
        members.append(p)
    return DecomposableFamily(members)
