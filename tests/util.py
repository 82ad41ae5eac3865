"""Shared helpers for the test suite: independent oracles and generators."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb

from plk import Multivector, wedge
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
