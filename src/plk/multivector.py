"""Sparse exterior algebra over exact rational scalars.

A :class:`Multivector` is a grade-homogeneous element of the exterior power
Lambda^k(Q^n), stored as a map from basis index subsets to nonzero rational
coefficients.  Index subsets are encoded as bitmasks (bit i-1 <-> basis
index i, indices 1-based, n <= 64), which makes shuffle signs cheap popcount
arithmetic.  Covectors (elements of the dual exterior power) reuse the same
structure with ``dual=True``; operations that mix the two spaces check the
flag.

Coefficients are ``int`` or ``fractions.Fraction``; floats are rejected, so
every operation is exact and zero tests are decidable.  Instances are treated
as immutable: no operation mutates its inputs, and values may be shared
freely between threads.

Sign conventions.  The wedge of basis subsets S and T (disjoint) carries the
parity of the shuffle sorting S followed by T.  The pairing is the plain
determinant pairing <e^S, e_T> = delta(S, T), with no 1/k! factors.  The
interior product is the adjoint of wedging on the dual side,

    <interior(phi, P), theta> = <P, phi ^ theta>.

These choices keep all structure constants integral.  The contraction
i_P psi into covectors, the adjoint <i_P psi, Q> = <psi, P ^ Q> of wedging
on the primal side, and the duality identity
<P ^ i(phi)P, psi> = (-1)**(grade-1) <i(i_P psi)P, phi> that ties the two
conventions together are stated from their definitions in
``tests/reference.py``, and the tests sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb, lcm
from typing import Iterable, Iterator, Mapping, Sequence

from . import linalg
from .linalg import Coeff


class InputError(ValueError):
    """Malformed or incompatible operand."""


def mask_of(indices: Iterable[int]) -> int:
    """Bitmask of a set of distinct 1-based integer indices."""
    mask = 0
    for i in indices:
        if not _is_int(i):
            raise InputError(f"indices must be integers, got {i!r}")
        if i < 1:
            raise InputError(f"indices must be >= 1, got {i}")
        bit = 1 << (i - 1)
        if mask & bit:
            raise InputError(f"repeated index {i}")
        mask |= bit
    return mask


def indices_of(mask: int) -> tuple[int, ...]:
    """Increasing 1-based indices of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _suffix_parity(a: int) -> int:
    """Mask with bit y set exactly when an odd number of a's bits lie above y.

    A prefix xor from the top, in six shift-xors: masks stay below 2**64
    (``check_dim``), so the folds by 1, 2, ..., 32 reach every bit.
    """
    x = a >> 1
    x ^= x >> 1
    x ^= x >> 2
    x ^= x >> 4
    x ^= x >> 8
    x ^= x >> 16
    x ^= x >> 32
    return x


def shuffle_sign(a: int, b: int) -> int:
    """Sign of sorting the concatenation of two disjoint index masks.

    Equals (-1)**inv where inv counts pairs (x in a, y in b) with x > y,
    that is the parity of the bits of b at which a's suffix parity is odd.
    """
    return -1 if (_suffix_parity(a) & b).bit_count() & 1 else 1


def sorted_mask(indices: Sequence[int]) -> tuple[int, int]:
    """(mask, sign) of an arbitrary index sequence; sign 0 on a repeat.

    The sign is the parity of the permutation sorting the sequence, i.e. the
    coefficient relating e_{i1} ^ ... ^ e_{ik} to the sorted basis element.
    """
    mask = 0
    sign = 1
    for i in indices:
        bit = 1 << (i - 1)
        if mask & bit:
            return 0, 0
        if (mask >> i).bit_count() & 1:
            sign = -sign
        mask |= bit
    return mask, sign


def _is_int(x) -> bool:
    """An int that is not a bool (``isinstance(True, int)`` holds)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_coeff(c: Coeff, what: str = "coefficients") -> None:
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise InputError(f"{what} must be int or Fraction, got {c!r}")


def check_dim(dim: int) -> None:
    """Refuse a dimension the bitmasks do not cover."""
    if not _is_int(dim) or not (1 <= dim <= 64):
        raise InputError(f"dim must be an integer in [1, 64], got {dim}")


def require_vector(p: Multivector, what: str) -> None:
    """Refuse a covector where only vectors are defined."""
    if p.dual:
        raise InputError(f"{what} must be a vector, not a covector")


def _index_mask(dim: int, grade: int, idx: list[int], where: str) -> int:
    """Mask of ``grade`` strictly increasing indices in [1, dim]; an
    InputError names the indices by ``where``."""
    if not all(map(_is_int, idx)):
        raise InputError(f"{where}: indices must be integers")
    if len(idx) != grade:
        raise InputError(f"{where}: expected {grade} indices")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise InputError(f"{where}: indices must be strictly increasing")
    if idx and (idx[0] < 1 or idx[-1] > dim):
        raise InputError(f"{where}: indices must lie in [1, {dim}]")
    return mask_of(idx)


class Multivector:
    """Grade-homogeneous sparse multivector (or covector, with dual=True).

    ``terms`` maps basis subset bitmasks to nonzero coefficients.  Grades
    above ``dim`` are permitted only for the zero multivector, so wedge
    chains past the top grade stay total.
    """

    __slots__ = ("dim", "grade", "dual", "terms")

    def __init__(
        self,
        dim: int,
        grade: int,
        terms: Mapping[int, Coeff] | None = None,
        dual: bool = False,
    ):
        check_dim(dim)
        if not _is_int(grade) or grade < 0:
            raise InputError(f"grade must be a nonnegative integer, got {grade}")
        if not isinstance(dual, bool):
            raise InputError(f"dual must be a bool, got {dual!r}")
        clean: dict[int, Coeff] = {}
        top = 1 << dim
        for mask, c in (terms or {}).items():
            if not _is_int(mask) or mask < 0 or mask >= top:
                raise InputError(f"index set {mask!r} out of range for dim {dim}")
            if mask.bit_count() != grade:
                raise InputError(
                    f"index set {indices_of(mask)} has size {mask.bit_count()}, "
                    f"expected grade {grade}"
                )
            _check_coeff(c)
            if c:
                clean[mask] = c
        self.dim = dim
        self.grade = grade
        self.dual = dual
        self.terms = clean

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, dim: int, grade: int, dual: bool = False) -> "Multivector":
        return cls(dim, grade, {}, dual)

    @classmethod
    def scalar(cls, dim: int, value: Coeff, dual: bool = False) -> "Multivector":
        return cls(dim, 0, {0: value}, dual)

    @classmethod
    def basis(cls, dim: int, indices: Sequence[int], dual: bool = False) -> "Multivector":
        """Basis element e_{i1,...,ik} (indices strictly increasing)."""
        idx = tuple(indices)
        return cls.from_terms(dim, len(idx), [(idx, 1)], dual)

    @classmethod
    def from_terms(
        cls,
        dim: int,
        grade: int,
        pairs: Iterable[tuple[Sequence[int], Coeff]],
        dual: bool = False,
    ) -> "Multivector":
        """Build from (indices, coeff) pairs: ``grade`` strictly increasing
        indices in [1, dim], no tuple twice, an int or Fraction coeff.  An
        InputError names the offending term by position and indices, e.g.
        ``term 1 (indices [1, 9]): indices must lie in [1, 4]``."""
        cls(dim, grade)  # reject a bad dim or grade before naming any term
        terms: dict[int, Coeff] = {}
        for pos, (idx, c) in enumerate(pairs):
            idx = list(idx)
            where = f"term {pos} (indices {idx})"
            mask = _index_mask(dim, grade, idx, where)
            if mask in terms:
                raise InputError(f"{where}: duplicate index set")
            _check_coeff(c, f"{where}: coeff")
            terms[mask] = c
        return cls(dim, grade, terms, dual)

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, indices: Sequence[int]) -> Coeff:
        """Coefficient of a basis subset: ``grade`` strictly increasing
        indices in [1, dim], checked as ``from_terms`` checks a term's."""
        idx = list(indices)
        return self.terms.get(_index_mask(self.dim, self.grade, idx, f"indices {idx}"), 0)

    def items(self) -> list[tuple[tuple[int, ...], Coeff]]:
        """(indices, coeff) pairs sorted by index tuple."""
        out = [(indices_of(m), c) for m, c in self.terms.items()]
        out.sort(key=lambda t: t[0])
        return out

    # -- algebra -------------------------------------------------------------

    def _compatible(self, other: "Multivector") -> None:
        if not isinstance(other, Multivector):
            raise InputError(f"expected a Multivector, got {type(other).__name__}")
        if self.dim != other.dim:
            raise InputError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.dual != other.dual:
            raise InputError("cannot mix vectors and covectors here")

    def __add__(self, other: "Multivector") -> "Multivector":
        self._compatible(other)
        if self.grade != other.grade:
            raise InputError(f"grade mismatch: {self.grade} vs {other.grade}")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Multivector(self.dim, self.grade, terms, self.dual)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def __neg__(self) -> "Multivector":
        return Multivector(
            self.dim, self.grade, {m: -c for m, c in self.terms.items()}, self.dual
        )

    def __mul__(self, c: Coeff) -> "Multivector":
        _check_coeff(c)
        return Multivector(
            self.dim, self.grade, {m: c * v for m, v in self.terms.items()}, self.dual
        )

    __rmul__ = __mul__

    def wedge(self, other: "Multivector") -> "Multivector":
        return wedge(self, other)

    __xor__ = wedge

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.grade == other.grade
            and self.dual == other.dual
            and self.terms == other.terms
        )

    __hash__ = None  # mutable dict inside; not hashable

    def __repr__(self) -> str:
        kind = "covector" if self.dual else "vector"
        return f"<{self} ({kind}, dim={self.dim}, grade={self.grade})>"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        sym = "e^" if self.dual else "e_"
        parts = []
        for idx, c in self.items():
            base = "1" if not idx else sym + "{" + ",".join(map(str, idx)) + "}"
            if not idx:
                body = str(c)
            elif c == 1:
                body = base
            elif c == -1:
                body = "-" + base
            else:
                body = f"{c}*{base}"
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


# -- term-level kernels (no validation; used by hot loops) --------------------
#
# Each kernel accumulates its sparse sum, then returns a dict with no zero
# coefficient: ``_nonzero`` drops the cancelled keys once, at the end.
#
# The sign of a product of disjoint index sets S (outer) and T (inner) is
# the shuffle sign of S followed by T, read inline as the parity of the bits
# of T at which ``_suffix_parity(S)`` is odd.  That mask depends on the outer
# term only, so each kernel computes it once per outer term and the inner
# loop makes no call.  This holds because S and T are disjoint and every
# mask is below 2**64.


def _nonzero(terms: dict[int, Coeff]) -> dict[int, Coeff]:
    """``terms`` without its zero coefficients (itself when it has none)."""
    return terms if all(terms.values()) else {m: c for m, c in terms.items() if c}


def _cleared(terms: Mapping[int, Coeff]) -> tuple[int, dict[int, int]]:
    """(d, d * terms) for d the lcm of the coefficients' denominators, so the
    scaled coefficients are integers."""
    d = lcm(*[c.denominator for c in terms.values()])
    return d, {m: c.numerator * (d // c.denominator) for m, c in terms.items()}


def wedge_terms(a: Mapping[int, Coeff], b: Mapping[int, Coeff]) -> dict[int, Coeff]:
    out: dict[int, Coeff] = {}
    for ma, ca in a.items():
        par = _suffix_parity(ma)
        for mb, cb in b.items():
            if ma & mb:
                continue
            m = ma | mb
            out[m] = out.get(m, 0) + (-ca * cb if (par & mb).bit_count() & 1 else ca * cb)
    return _nonzero(out)


def _square_terms(a: Mapping[int, Coeff]) -> dict[int, Coeff]:
    """Terms of a ^ a for a of even grade >= 2, equal to ``wedge_terms(a,
    a)`` at half the products: even terms commute and no term meets itself,
    so each unordered pair of terms counts twice."""
    items = list(a.items())
    out: dict[int, Coeff] = {}
    for i, (ma, ca) in enumerate(items):
        par = _suffix_parity(ma)
        for mb, cb in items[i + 1 :]:
            if ma & mb:
                continue
            m = ma | mb
            c = 2 * ca * cb
            out[m] = out.get(m, 0) + (-c if (par & mb).bit_count() & 1 else c)
    return _nonzero(out)


def interior_terms(phi: Mapping[int, Coeff], p: Mapping[int, Coeff]) -> dict[int, Coeff]:
    """Terms of interior(phi, p): contract each subset of phi out of p."""
    out: dict[int, Coeff] = {}
    for mph, cph in phi.items():
        par = _suffix_parity(mph)
        for mp, cp in p.items():
            if mph & mp != mph:
                continue
            rest = mp ^ mph
            out[rest] = out.get(rest, 0) + (
                -cph * cp if (par & rest).bit_count() & 1 else cph * cp
            )
    return _nonzero(out)


def contract_terms(p: Mapping[int, Coeff], psi: Mapping[int, Coeff]) -> dict[int, Coeff]:
    """Terms of i_p(psi): remove p's subsets from psi's, which on terms is
    the interior kernel with the roles swapped.

    No library code calls it; it stays only because the benchmark's tracer
    binds it by name, until that binding goes (ROADMAP item 1).
    """
    return interior_terms(p, psi)


class _Contractions(dict):
    """P's basis contractions: ``self[u]`` is the terms of i(e^u)P, built by
    ``interior_terms({u: 1}, terms)`` on first use and kept.

    An entry is empty exactly when u lies in no term of P: each pair (u, rest)
    comes from one term, so nothing cancels.  The table is lazy, so a sweep
    that stops early builds only the entries it reads.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Coeff]):
        super().__init__()
        self.terms = terms

    def __missing__(self, u: int) -> dict[int, Coeff]:
        self[u] = out = interior_terms({u: 1}, self.terms)
        return out

    def interior(self, phi: Mapping[int, Coeff]) -> dict[int, Coeff]:
        """Terms of interior(phi, P), equal to ``interior_terms(phi, terms)``:
        the kernel is linear in phi, so this is the sum of phi[u] * self[u]."""
        out: dict[int, Coeff] = {}
        for u, c in phi.items():
            for m, v in self[u].items():
                out[m] = out.get(m, 0) + c * v
        return _nonzero(out)


# -- public operations ---------------------------------------------------------


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product; zero (of grade j+k) past the top grade."""
    a._compatible(b)
    return Multivector(a.dim, a.grade + b.grade, wedge_terms(a.terms, b.terms), a.dual)


def interior(phi: Multivector, p: Multivector) -> Multivector:
    """Interior product i(phi)p, the adjoint of phi ^ . on the dual side."""
    if not phi.dual or p.dual:
        raise InputError("interior takes (covector, vector)")
    if phi.dim != p.dim:
        raise InputError(f"dimension mismatch: {phi.dim} vs {p.dim}")
    if phi.grade > p.grade:
        raise InputError(
            f"covector grade {phi.grade} exceeds vector grade {p.grade}"
        )
    return Multivector(p.dim, p.grade - phi.grade, interior_terms(phi.terms, p.terms))


@dataclass(frozen=True)
class SupportSpace:
    """Row-echelon basis of the minimal subspace U with p in Lambda^grade(U)."""

    dim: int
    basis: tuple[Multivector, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def coordinate_rows(self) -> list[list[Coeff]]:
        return [[v.terms.get(1 << i, 0) for i in range(self.dim)] for v in self.basis]


def _support_rows(p: Multivector) -> list[list[Coeff]]:
    """Coordinate rows of i(e^S)p over the (grade - 1)-subsets S inside a
    term of p, in one pass over p's terms (no rows for grade 0).

    A term m with coefficient c puts +-c at index i of the row of m - {i},
    the sign being the parity of m's indices above i.  Each entry comes from
    one term, so nothing is summed or multiplied.
    """
    rows: dict[int, list[Coeff]] = {}
    for m, c in p.terms.items():
        # the lowest index has grade - 1 indices above it; the sign then alternates
        here, after = (c, -c) if m.bit_count() & 1 else (-c, c)
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            row = rows.get(m ^ low)
            if row is None:
                rows[m ^ low] = row = [0] * p.dim
            row[low.bit_length() - 1] = here
            here, after = after, here
    return list(rows.values())


def support_space(p: Multivector) -> SupportSpace:
    """Echelonized basis of span{ i(e^S)p : |S| = grade - 1 }.

    Every subspace U with p in Lambda^grade(U) contains the result; p is
    decomposable exactly when the rank equals the grade.  Only the subsets
    S inside a term of p give nonzero generators; their rows are built in
    one pass over p's terms (``_support_rows``), and the reduced row echelon
    form is canonical, so the basis does not depend on their order.
    """
    require_vector(p, "p")
    reduced, _ = linalg.rref(_support_rows(p))
    basis = tuple(
        Multivector(p.dim, 1, {1 << i: c for i, c in enumerate(row) if c})
        for row in reduced
    )
    return SupportSpace(p.dim, basis)


# -- index subsets ---------------------------------------------------------------


def basis_subsets(n: int, r: int) -> Iterator[tuple[int, ...]]:
    """Strictly increasing r-subsets of 1..n in lexicographic order."""
    return combinations(range(1, n + 1), r)


def subset_rank(indices: Sequence[int], n: int) -> int:
    """1-based position of ``indices`` in ``basis_subsets(n, len(indices))``.

    The subsets after it are those that first exceed it at some slot i
    (0-based), C(n - indices[i], r - i) of them for each slot.
    """
    r = len(indices)
    return comb(n, r) - sum(comb(n - v, r - i) for i, v in enumerate(indices))


def touched_indices(terms: Iterable[int]) -> tuple[int, ...]:
    """Increasing indices that lie in at least one of the terms' index sets."""
    return indices_of(reduce(int.__or__, terms, 0))
