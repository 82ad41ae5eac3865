"""Two-column Young shapes and the representation theory behind the optimal
decomposability test.

Provides the closed-form dimensions of the two-column GL(n) irreducibles,
the exact integer identities splitting the tensor square of an exterior
power into two-column components, the semistandard tableaux that index a
basis of each of them, with their lex rank, and the blocks of the
semistandard coordinates of the projection of P (x) P onto the shape with
column heights (grade+2, grade-2), on which the optimal test decides.
Past the first tableau, those blocks are decided a group at a time: the
tableaux that differ only in their last bottom entry share one evaluation
at a packed covector, and only a group with a nonzero block is evaluated
tableau by tableau.  The contraction criterion's exact mode evaluates at
point sets indexed by the same tableaux.
"""

from __future__ import annotations

from itertools import accumulate, combinations, groupby, product
from math import comb
from typing import Iterator, Mapping, Sequence

from .multivector import (
    InputError,
    Multivector,
    _Contractions,
    _Record,
    _cleared,
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


def iter_projection_blocks(
    P: Multivector,
) -> Iterator[tuple[tuple[tuple[int, int], ...], dict[int, int], int]]:
    """Blocks of the semistandard coordinates of the projection of P (x) P
    onto the shape (s+2, s-2), one per tableau of the shape (s-2, s-2).

    Those coordinates are the tableaux of shape (2^(s-2), 1^4): pairs
    (a_t, b_t) with a_1 < ... < a_k and b_1 < ... < b_k, with a 4-subset
    above a_k.  They index a basis of the component (Doubilet-Rota-Stein
    1974), so the component vanishes exactly when they do.  Yields (pairs,
    block, denom) for the tableaux (a, b) inside the indices P touches, in
    the lex order of ``_two_column_tableaux``: ``pairs`` is zip(a, b),
    ``block`` maps each 4-subset mask above a_k to the nonzero unnormalized
    skew coefficient of lam * P, the integer multiple ``_cleared`` gives
    once, and the projection coefficient of P at (pairs, subset) is
    block[subset] / denom, with lam^2 in denom.  A coordinate that holds an
    index P does not touch is zero, and so is a tableau with fewer than four
    touched indices above a_k, which is skipped.

    The skew over the four indices of the product of two pair-contracted
    2-forms is exactly their wedge, so each block is a signed sum of wedges
    D[u] ^ D[v] of the contractions D[u] = i(e^u)(lam * P), restricted to
    their terms above a_k.  Every block is evaluated one way, by
    ``_Blocks``: an oriented split sum over one contraction table.  The first
    tableau's block is evaluated directly, where most failures stop.  The
    tableaux after it come in groups that share (a, b_1..b_(k-1)) and differ
    only in b_k, and the same sum at a packed covector that holds each b_k
    in its own slot decides the whole group in one pass.  A group whose
    blocks all vanish yields an empty block per tableau; the tableaux of any
    other group are evaluated directly, so every nonempty block is the
    one-at-a-time one.  When P touches at most s+1 indices it lies in
    Lambda^s of a space of that dimension, so it is decomposable and nothing
    is yielded; nor below grade 2, where the shape has no component.
    """
    require_vector(P, "projection target")
    s = P.grade
    touched = touched_indices(P.terms)
    if s < 2 or len(touched) <= s + 1:
        return
    k = s - 2
    lam, ints = _cleared(P.terms)
    if k == 0:
        yield (), _square_terms(ints), 6 * lam * lam
        return
    blocks = _Blocks(ints, k)
    denom = 3 * (1 << k) * lam * lam
    tableaux = _two_column_tableaux(touched, TwoColumnShape(k, k))
    top, bottom = next(tableaux)  # a = b = the k lowest touched, below touched[-4]
    yield tuple(zip(top, bottom)), blocks.direct(top, bottom), denom
    blocks.pack(touched)
    for (top, head), group in groupby(tableaux, key=lambda tableau: (tableau[0], tableau[1][:-1])):
        if top[-1] >= touched[-4]:
            continue  # fewer than four touched indices above a_k
        bottoms = [bottom for _, bottom in group]
        passed = blocks.vanishes(top, head, len(bottoms))
        for bottom in bottoms:
            yield tuple(zip(top, bottom)), {} if passed else blocks.direct(top, bottom), denom


class _Blocks:
    """The blocks of ``iter_projection_blocks`` for a grade-(k+2) P with
    these integer terms, each an oriented split sum over one contraction
    table.

    Orientation.  A block sums sign(u) * sign(v) * D[u] ^ D[v] over the
    splits of the pairs into sequences u and v, one per unordered {u, v}.
    2-forms commute and the sign product is symmetric in u and v, so fixing
    a_k on the u side and b = b_k on the v side counts each once.  b exceeds
    every other entry of v (b_t < b and a_t <= b_t for t < k), so it sorts
    last and adds no sign: the block is the sum over the splits of the first
    k-1 pairs of sigma * D[L] ^ X[R] with X[R] = D[R | b], for L the mask
    of u (with a_k), R that of v without b, and sigma the product of their
    sorting signs.  Splits that give one (L, R), as toggling a pair (a, a)
    does, are summed into one multiplicity before any wedge is formed.
    ``_sums`` forms the sum over (L, R) of times * D[L] ^ X[R], both
    restricted to their terms above a_k, which are built on first use and
    kept per (L, a_k) and (R, a_k).

    Direct blocks.  ``direct`` takes X[R] = D[R | b], the block equation at
    a one-term covector.  When L = R | b, as on every split of the first
    tableau, both operands are one kept entry and ``_square_terms`` forms
    their wedge at half the products.

    Packed covector.  The block is linear in D[R | b] = i(e^(R | b))P, so
    ``vanishes`` takes X[R] = E[R], the contraction at the packed covector
    phi_R = the sum of 2^(w*slot(b)) * e^(R | b) over the touched b above
    R's entries, where slot(b) counts the touched indices above b.  Slots
    run in descending b, so a group's cnt valid b's hold its cnt lowest
    slots, and slot b of sums[F] holds the block of (a, head + (b,)) at F,
    for every valid b.  The group passes exactly when every sums[F] &
    (2^(w*cnt) - 1) is 0.  ``pack`` fixes w and the slots once the first
    group is reached; rows E[R] are built on first use and kept.

    Slot width.  A valid slot sums at most 2^(k-1) splits (merged splits add
    their multiplicities, which sum to at most as many), each the
    coefficient at F of a wedge of two 2-forms: 6 products D[L]_xy *
    D[R | b]_zw, one per 2-subset xy of F, each of size at most M^2 for M =
    max |P|.  So every valid slot v has |v| <= B = 6 * 2^(k-1) * M^2,
    and w = bit_length(B) + 2 gives |v| < 2^w, so a nonzero v is no
    multiple of 2^w.  The slots above the valid ones (smaller b, or b not
    above R's entries, which rows leave out) add multiples of 2^(w*cnt),
    so they do not reach the masked bits.  If the valid slots are not all
    0, let j be the lowest nonzero one: sums[F] = v_j * 2^(w*j) modulo
    2^(w*(j+1)), which is not 0, and j < cnt, so the masked bits are not all
    0.  If they are all 0, the masked bits are 0.  A packed int holds at
    most |touched| slots, so no chunking is needed.
    """

    __slots__ = ("k", "table", "kept", "rows", "packed", "w", "shift")

    def __init__(self, terms: Mapping[int, int], k: int):
        self.k = k
        self.table = _Contractions(terms)
        self.kept: dict[tuple[int, int], dict[int, int]] = {}  # D[u] above a_k, per (u, a_k)
        self.rows: dict[int, dict[int, int]] = {}  # E[R], per R
        self.packed: dict[tuple[int, int], dict[int, int]] = {}  # E[R] above a_k, per (R, a_k)

    def pack(self, touched: Sequence[int]) -> None:
        """Fix the slot width w and each touched b's shift w * slot(b)."""
        most = max(map(abs, self.table.terms.values()))
        self.w = ((6 << (self.k - 1)) * most * most).bit_length() + 2
        self.shift = {1 << (b - 1): self.w * slot for slot, b in enumerate(reversed(touched))}

    def _entry(self, u: int, a: int) -> dict[int, int]:
        if (u, a) not in self.kept:
            low = (1 << a) - 1
            self.kept[u, a] = {xy: c for xy, c in self.table[u].items() if not xy & low}
        return self.kept[u, a]

    def _row(self, R: int, a: int) -> dict[int, int]:
        if (R, a) not in self.packed:
            if R not in self.rows:
                phi = {R | bit: 1 << at for bit, at in self.shift.items() if bit > R}
                self.rows[R] = self.table.interior(phi)
            low = (1 << a) - 1
            self.packed[R, a] = {zw: z for zw, z in self.rows[R].items() if not zw & low}
        return self.packed[R, a]

    def _sums(self, top: tuple[int, ...], head: tuple[int, ...], right) -> dict[int, int]:
        a = top[-1]
        splits: dict[tuple[int, int], int] = {}
        for eps in product((0, 1), repeat=self.k - 1):
            L, su = sorted_mask([pair[e] for pair, e in zip(zip(top, head), eps)] + [a])
            R, sv = sorted_mask([pair[1 - e] for pair, e in zip(zip(top, head), eps)])
            if su and sv:
                splits[L, R] = splits.get((L, R), 0) + su * sv
        sums: dict[int, int] = {}
        for (L, R), times in splits.items():
            left, other = self._entry(L, a), right(R, a)
            wedge = _square_terms(left) if left is other else wedge_terms(left, other)
            for F, z in wedge.items():
                sums[F] = sums.get(F, 0) + times * z
        return sums

    def direct(self, top: tuple[int, ...], bottom: tuple[int, ...]) -> dict[int, int]:
        """The block of the tableau (top, bottom)."""
        bit = 1 << (bottom[-1] - 1)
        return _nonzero(self._sums(top, bottom[:-1], lambda R, a: self._entry(R | bit, a)))

    def vanishes(self, top: tuple[int, ...], head: tuple[int, ...], cnt: int) -> bool:
        """Whether the blocks of (top, head + (b,)) all vanish, for the cnt
        largest touched b."""
        mask = (1 << (self.w * cnt)) - 1
        return not any(z & mask for z in self._sums(top, head, self._row).values())


__all__ = [
    "TwoColumnShape",
    "DimensionIdentity",
    "SquareDecompositionReport",
    "comb0",
    "young_dim",
    "verify_square_decomposition",
    "iter_projection_blocks",
]
