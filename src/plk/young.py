"""Two-column Young shapes and the representation theory behind the optimal
decomposability test.

Provides the closed-form dimensions of the two-column GL(n) irreducibles,
the exact integer identities splitting the tensor square of an exterior
power into two-column components, the semistandard tableaux that index a
basis of each of them, with their lex rank, and the blocks of the
semistandard coordinates of the projection of P (x) P onto the shape with
column heights (grade+2, grade-2), on which the optimal test decides.  The
contraction criterion's exact mode evaluates at point sets indexed by the
same tableaux.
"""

from __future__ import annotations

from itertools import accumulate, combinations, product
from math import comb
from typing import Iterator, Mapping, Sequence

from .multivector import (
    Coeff,
    InputError,
    Multivector,
    _Contractions,
    _Record,
    _is_int,
    _nonzero,
    _square_terms,
    _store,
    check_dim,
    require_vector,
    sorted_mask,
    touched_indices,
    wedge_terms,
)


def comb0(n: int, k: int) -> int:
    """Binomial coefficient, 0 outside the valid range."""
    return comb(n, k) if 0 <= k <= n else 0


# -- shapes and dimensions -----------------------------------------------------


class TwoColumnShape(_Record):
    """Young shape with two columns of heights first_col >= second_col >= 0."""

    __slots__ = ("first_col", "second_col")

    def __init__(self, first_col: int, second_col: int):
        if not (_is_int(first_col) and _is_int(second_col) and 0 <= second_col <= first_col):
            raise InputError(
                f"column heights must satisfy first >= second >= 0, "
                f"got ({first_col}, {second_col})"
            )
        _store(self, "first_col", first_col)
        _store(self, "second_col", second_col)

    def __str__(self) -> str:
        return f"Y[{self.first_col},{self.second_col}]"


def young_dim(n: int, shape: TwoColumnShape) -> int:
    """Dimension of the GL(n) irreducible with column heights (a, b).

    The hook-content product written out for two columns:
    C(n, a) * C(n+1, b) * (a-b+1) / (a+1), an exact integer quotient.  Zero
    when the shape has more than n rows.
    """
    if not _is_int(n) or n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if not isinstance(shape, TwoColumnShape):
        raise InputError(f"shape must be a TwoColumnShape, got {shape!r}")
    a, b = shape.first_col, shape.second_col
    return comb(n, a) * comb(n + 1, b) * (a - b + 1) // (a + 1)


class DimensionIdentity(_Record):
    __slots__ = ("name", "lhs", "rhs")

    def __init__(self, name: str, lhs: int, rhs: int):
        _store(self, "name", name)
        _store(self, "lhs", lhs)
        _store(self, "rhs", rhs)

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


class SquareDecompositionReport(_Record):
    """The tensor square of Lambda^s(Q^n) split into two-column components."""

    __slots__ = ("n", "s", "dims", "identities")

    def __init__(
        self,
        n: int,
        s: int,
        dims: tuple[tuple[TwoColumnShape, int], ...],
        identities: tuple[DimensionIdentity, ...],
    ):
        _store(self, "n", n)
        _store(self, "s", s)
        _store(self, "dims", dims)
        _store(self, "identities", identities)

    @property
    def passed(self) -> bool:
        return all(i.ok for i in self.identities)


def verify_square_decomposition(n: int, s: int) -> SquareDecompositionReport:
    """Check the exact dimension identities of the tensor-square splitting.

    Lambda^s (x) Lambda^s decomposes into the shapes with column heights
    (s+j, s-j); even j gives the symmetric square, odd j the antisymmetric
    one, and dropping the leading terms matches Lambda^(s+1) (x) Lambda^(s-1)
    and Lambda^(s+2) (x) Lambda^(s-2).
    """
    check_dim(n)
    if not (_is_int(s) and 1 <= s <= n):
        raise InputError(f"need 1 <= s <= n, got s={s}, n={n}")
    shapes = [TwoColumnShape(s + j, s - j) for j in range(s + 1)]
    dims = tuple((sh, young_dim(n, sh)) for sh in shapes)
    vals = [d for _, d in dims]
    c = comb(n, s)
    identities = (
        DimensionIdentity("total = C(n,s)^2", sum(vals), c * c),
        DimensionIdentity("even tail = C(n,s)(C(n,s)+1)/2", sum(vals[0::2]), c * (c + 1) // 2),
        DimensionIdentity("odd tail = C(n,s)(C(n,s)-1)/2", sum(vals[1::2]), c * (c - 1) // 2),
        DimensionIdentity(
            "tail j>=1 = C(n,s+1)C(n,s-1)", sum(vals[1:]), comb0(n, s + 1) * comb0(n, s - 1)
        ),
        DimensionIdentity(
            "tail j>=2 = C(n,s+2)C(n,s-2)", sum(vals[2:]), comb0(n, s + 2) * comb0(n, s - 2)
        ),
    )
    return SquareDecompositionReport(n, s, dims, identities)


# -- semistandard tableaux ---------------------------------------------------------


def _two_column_tableaux(
    indices: Sequence[int], shape: TwoColumnShape
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Semistandard tableaux of ``shape`` with entries in the increasing
    ``indices``, as (column A, column B) pairs in lex order.

    Columns increase strictly and rows weakly: A[t] <= B[t].  Column A runs
    over the increasing a-subsets; column B is built entry by entry, B[t]
    from max(A[t], B[t-1] + 1) on, so no pair of columns is filtered.  B =
    A[:b] always fits, so every column A has at least one tableau.
    """
    a, b = shape.first_col, shape.second_col
    last = len(indices) - b  # B[t] lies at a position <= last + t
    for top in combinations(range(len(indices)), a):
        bottoms: list[tuple[int, ...]] = [()]
        for t in range(b):
            bottoms = [
                B + (q,)
                for B in bottoms
                for q in range(max(top[t], B[-1] + 1 if B else 0), last + t + 1)
            ]
        column = tuple(indices[p] for p in top)
        for B in bottoms:
            yield column, tuple(indices[q] for q in B)


def _tableau_rank(top: Sequence[int], bottom: Sequence[int], n: int, tail: int = 0) -> int:
    """The number of tableaux over 1..n that ``_two_column_tableaux`` lists
    before (top, bottom), each counted C(n - top'[-1], tail) times: the
    tableaux whose first column is theirs followed by ``tail`` entries above
    it.  With tail = 0 that is the plain 0-based rank.

    The tableaux before (top, bottom) first differ from it at one entry, in
    the order top then bottom, where theirs is smaller.  When that entry is
    top[i] = v, the second column's rows up to i are bounded row by row by
    top[:i] and v, and the rows after i of both columns are two
    non-crossing lattice paths: their count with entries above (x, y),
    x <= y, is a 2x2 binomial determinant (Gessel-Viennot 1985).  When top
    is equal and the entry is bottom[j], the rows after j of the second
    column are bounded row by row by top.
    """
    a, b = len(top), len(bottom)

    def free(x, y, ra, rb):  # ra + rb entries above x and y, rows weakly increasing
        return comb0(n - x, ra) * comb0(n - y, rb) - comb0(n - x, rb - 1) * comb0(n - y, ra + 1)

    before = 0
    ends = [1] + [0] * n  # ends[y]: second columns B[:i] >= top[:i] row by row, ending at y
    for i in range(a):
        upto = list(accumulate(ends))  # upto[y]: those ending at or below y
        for v in range(top[i - 1] + 1 if i else 1, top[i]):
            if i < b:
                ra, rb = a + tail - i - 1, b - i - 1
                before += sum(upto[y - 1] * free(v, y, ra, rb) for y in range(v, n + 1))
            else:
                before += upto[n] * comb0(n - v, a + tail - i - 1)
        if i < b:
            ends = [upto[y - 1] if y >= top[i] else 0 for y in range(n + 1)]
    tails = comb0(n - top[-1], tail) if top else 1
    later = [1] * (n + 1)  # later[w]: second columns B[j+1:] >= top[j+1:] above w
    for j in reversed(range(b)):
        before += tails * sum(later[max(top[j], bottom[j - 1] + 1 if j else 1) : bottom[j]])
        shifted, above = [0] * (n + 1), 0
        for w in range(n, -1, -1):
            shifted[w] = above
            if w >= top[j]:
                above += later[w]
        later = shifted
    return before


# -- projection of P (x) P onto column heights (s+2, s-2) -------------------------


class _Above(dict):
    """The entries of a contraction table restricted to their terms whose
    least index exceeds ``cut``, built on first use.  Their wedges are the
    wedges of the full entries restricted the same way, since a union of two
    index sets lies above ``cut`` exactly when both do."""

    __slots__ = ("table", "low")

    def __init__(self, table: _Contractions, cut: int):
        super().__init__()
        self.table = table
        self.low = (1 << cut) - 1

    def __missing__(self, u: int) -> dict[int, Coeff]:
        self[u] = out = {m: c for m, c in self.table[u].items() if not m & self.low}
        return out


def _pair_block(pairs: Sequence[tuple[int, int]], d: Mapping[int, dict]) -> dict[int, Coeff]:
    """The unnormalized skew coefficients of one tuple of k >= 1 pairs: the
    signed sum of the wedges d[u] ^ d[v] over the ways to split the pairs
    into u and v.

    The entries are 2-forms, which commute, so d[u] ^ d[v] = d[v] ^ d[u]:
    eps and its complement give one wedge, so the first pair's side is
    fixed, and the splits that give one unordered {u, v} (as pairs (a, a)
    do) are summed into one multiplicity before any wedge is formed.  On a
    semistandard tableau's pairs, splits meet only by toggling a pair (a, a)
    or by swapping u and v, which give equal sign products, so no
    multiplicity sums to zero (and a zero one would add only zeros, which
    are dropped).
    """
    k = len(pairs)
    splits: dict[tuple[int, int], int] = {}
    for eps in product((0, 1), repeat=k - 1):
        full = (0,) + eps
        umask, su = sorted_mask([pairs[j][full[j]] for j in range(k)])
        vmask, sv = sorted_mask([pairs[j][1 - full[j]] for j in range(k)])
        if not (su and sv and d[umask] and d[vmask]):
            continue  # a repeated index, or a contraction that vanishes
        key = (umask, vmask) if umask <= vmask else (vmask, umask)
        splits[key] = splits.get(key, 0) + su * sv
    block: dict[int, Coeff] = {}
    for (umask, vmask), times in splits.items():
        if umask == vmask:
            wedge = _square_terms(d[umask])
        else:
            wedge = wedge_terms(d[umask], d[vmask])
        for mm, c in wedge.items():
            block[mm] = block.get(mm, 0) + times * c
    return _nonzero(block)


def iter_projection_blocks(
    P: Multivector,
) -> Iterator[tuple[tuple[tuple[int, int], ...], dict[int, Coeff], int]]:
    """Blocks of the semistandard coordinates of the projection of P (x) P
    onto the shape (s+2, s-2), one per tableau of the shape (s-2, s-2).

    Those coordinates are the tableaux of shape (2^(s-2), 1^4): pairs
    (a_t, b_t) with a_1 < ... < a_k and b_1 < ... < b_k, with a 4-subset
    above a_k.  They index a basis of the component (Doubilet-Rota-Stein
    1974), so the component vanishes exactly when they do.  Yields (pairs,
    block, denom) for the tableaux (a, b) inside the indices P touches, in
    the lex order of ``_two_column_tableaux``: ``pairs`` is zip(a, b),
    ``block`` maps each 4-subset mask above a_k to its nonzero unnormalized
    skew coefficient, and the projection coefficient at (pairs, subset) is
    block[subset] / denom.  A coordinate that holds an index P does not touch
    is zero, and so is a tableau with fewer than four touched indices above
    a_k, which is skipped.

    The skew over the four indices of the product of two pair-contracted
    2-forms is exactly their wedge, so each block is a signed sum of wedges
    D[u] ^ D[v] of the contractions D[u] = i(e^u)P, read through one lazy
    table and restricted to their terms above a_k.  When P touches at most
    s+1 indices it lies in Lambda^s of a space of that dimension, so it is
    decomposable and nothing is yielded; nor below grade 2, where the shape
    has no component.
    """
    require_vector(P, "projection target")
    s = P.grade
    touched = touched_indices(P.terms)
    if s < 2 or len(touched) <= s + 1:
        return
    k = s - 2
    if k == 0:
        yield (), _square_terms(P.terms), 6
        return
    d = _Contractions(P.terms)
    denom = 3 * (1 << k)
    above: dict[int, _Above] = {}
    for top, bottom in _two_column_tableaux(touched, TwoColumnShape(k, k)):
        cut = top[-1]
        if cut >= touched[-4]:
            continue  # fewer than four touched indices above a_k
        if cut not in above:
            above[cut] = _Above(d, cut)
        pairs = tuple(zip(top, bottom))
        yield pairs, _pair_block(pairs, above[cut]), denom


__all__ = [
    "TwoColumnShape",
    "DimensionIdentity",
    "SquareDecompositionReport",
    "comb0",
    "young_dim",
    "verify_square_decomposition",
    "iter_projection_blocks",
]
