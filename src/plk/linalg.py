"""Exact rational linear algebra on small dense matrices.

Matrices are lists of rows; entries are ``int`` or ``Fraction``.  ``rref`` and
``rank`` share one elimination.  Each row's denominators are cleared by their
lcm, which keeps the row space; the echelon form is then built fraction-free
in integers, each kept row divided by its content (gcd) so entries stay small,
and ``rref`` divides once per entry at the end.  Results are canonical (reduced
row echelon form, RREF-derived kernels), so independent of input row order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

# An exact scalar; plk has no floats.
Coeff = int | Fraction


def _cancel(a: list[int], b: list[int], c: int) -> list[int]:
    """An integer multiple of ``a - (a[c] / b[c]) * b``, so zero at column c."""
    g = gcd(a[c], b[c])
    pv, f = b[c] // g, a[c] // g
    return [pv * x - f * y for x, y in zip(a, b)]


def _primitive(a: list[int]) -> list[int]:
    g = gcd(*a)
    return [x // g for x in a] if g > 1 else a


def _echelon(rows: list[list[Coeff]]) -> dict[int, list[int]]:
    """Primitive integer rows spanning the row space, keyed by pivot column."""
    ncols = len(rows[0]) if rows else 0
    kept: dict[int, list[int]] = {}
    for row in rows:
        d = lcm(*[x.denominator for x in row])
        a = [x.numerator * (d // x.denominator) for x in row]
        c = next((j for j in range(ncols) if a[j]), ncols)
        while c in kept:
            a = _cancel(a, kept[c], c)
            c = next((j for j in range(c + 1, ncols) if a[j]), ncols)
        if c < ncols:
            kept[c] = _primitive(a)
            if len(kept) == ncols:
                break
    return kept


def rref(rows: list[list[Coeff]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.

    Returns the nonzero rows (pivots normalized to 1, zeros above and below)
    and the 0-based pivot column indices.  The integer echelon rows are
    back-substituted in integers, then each entry is divided by its pivot.
    """
    kept = _echelon(rows)
    pivots = sorted(kept)
    m = [kept[c] for c in pivots]
    for i in range(len(m) - 1, 0, -1):
        for k in range(i):
            if m[k][pivots[i]]:
                m[k] = _primitive(_cancel(m[k], m[i], pivots[i]))
    return [[Fraction(x, row[c]) for x in row] for c, row in zip(pivots, m)], pivots


def rank(rows: list[list[Coeff]]) -> int:
    """Rank over the rationals: the number of integer echelon rows."""
    return len(_echelon(rows))


def nullspace(rows: list[list[Coeff]], ncols: int) -> list[list[Fraction]]:
    """Canonical kernel basis of the linear map given by ``rows``."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][free]
        basis.append(vec)
    return basis


def intersect_row_spaces(*row_sets: list[list[Coeff]]) -> list[list[Fraction]]:
    """RREF basis of the intersection of one or more row spaces in Q^n."""
    if not all(row_sets):
        return []
    # The intersection is the orthogonal complement of the sum of the
    # complements, and each complement is a kernel.
    n = len(row_sets[0][0])
    return rref(nullspace([v for rows in row_sets for v in nullspace(rows, n)], n))[0]
