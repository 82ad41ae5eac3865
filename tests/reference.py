"""Reference code the tests compare the library against.

Nothing in ``plk`` calls these; they check theorems rather than decide
anything, so they live with the tests:

* the hook-content product for the dimension of the GL(n) irreducible of
  any partition, with hook lengths and conjugate partitions (the pin of
  the library's two-column closed form);
* symmetric-group characters by the Murnaghan-Nakayama recursion and the
  character-weighted isotypic probes of P (x) P they drive (the paper's
  optimality remark: the Y[s,s] component of a nonzero P never vanishes,
  and the Y[s+2,s-2] component vanishes exactly on decomposable P);
* the contraction i_P e^Q into covectors, the value of each linear
  criterion's equation at one component, and Leibniz minors, all on
  sorted index tuples with inversion-count signs (no bitmasks, no ``plk``
  kernel);
* the duality identity tying the two Pluecker formulations together,
  which pins the interior-product sign conventions;
* the r-subsets inside a multivector's terms, which index the generators
  i(e^S)P of its support space (the library builds those rows in one pass
  over the terms instead);
* the whole lex family of coefficients of the projection of P (x) P onto
  the shape (s+2, s-2), one block per tuple of symmetrized pairs, and the
  map of its nonzero coefficients (the library's optimal test reads only
  the semistandard coordinates of the component).

Partitions are plain tuples of weakly decreasing positive row lengths.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from math import factorial, prod
from typing import Iterable, Iterator, Sequence

from plk.multivector import (
    Coeff,
    InputError,
    Multivector,
    _Contractions,
    _is_int,
    _square_terms,
    indices_of,
    interior,
    require_vector,
    sorted_mask,
    touched_indices,
    wedge,
    wedge_terms,
)
from plk.young import TwoColumnShape, _pair_block

from util import pairing


# -- shapes ----------------------------------------------------------------------


def two_column_partition(shape: TwoColumnShape) -> tuple[int, ...]:
    """Row lengths: 2 repeated second_col times, then 1s."""
    return (2,) * shape.second_col + (1,) * (shape.first_col - shape.second_col)


def _as_partition(shape) -> tuple[int, ...]:
    if isinstance(shape, TwoColumnShape):
        return two_column_partition(shape)
    part = tuple(shape)
    if any(not _is_int(x) or x < 1 for x in part):
        raise InputError(f"partition rows must be positive integers, got {part}")
    if any(a < b for a, b in zip(part, part[1:])):
        raise InputError(f"partition rows must be weakly decreasing, got {part}")
    return part


def conjugate(part: Sequence[int]) -> tuple[int, ...]:
    part = tuple(part)
    if not part:
        return ()
    return tuple(sum(1 for r in part if r > j) for j in range(part[0]))


def hook_lengths(part: Sequence[int]) -> list[list[int]]:
    part = tuple(part)
    conj = conjugate(part)
    return [
        [part[i] - j + conj[j] - i - 1 for j in range(part[i])]
        for i in range(len(part))
    ]


def _hook_product(part: tuple[int, ...]) -> int:
    return prod(h for row in hook_lengths(part) for h in row)


def hook_content_dim(n: int, shape) -> int:
    """Dimension of the GL(n) irreducible of the given shape.

    Hook-content product: prod over cells of (n + col - row) / hook, taken
    as one exact integer quotient at the end.  Zero when the shape has more
    than n rows.
    """
    if not _is_int(n) or n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    part = _as_partition(shape)
    num = prod(n + j - i for i, row in enumerate(part) for j in range(row))
    den = _hook_product(part)
    assert num % den == 0
    return num // den


def standard_tableaux_count(shape) -> int:
    """Number of standard Young tableaux, by the hook length formula."""
    part = _as_partition(shape)
    return factorial(sum(part)) // _hook_product(part)


# -- symmetric group characters --------------------------------------------------


def partitions(m: int) -> Iterator[tuple[int, ...]]:
    """All partitions of m, in decreasing lexicographic order."""

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(m, m, ())


def conjugacy_class_size(cls: Sequence[int]) -> int:
    """Size of the conjugacy class of the given cycle type in S_m."""
    cls = tuple(cls)
    m = sum(cls)
    z = 1
    for k in set(cls):
        mult = cls.count(k)
        z *= k**mult * factorial(mult)
    return factorial(m) // z


@lru_cache(maxsize=None)
def _mn(shape: tuple[int, ...], parts: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama recursion on the first class part."""
    if not parts:
        return 1
    t = parts[0]
    r = len(shape)
    betas = [shape[i] + r - 1 - i for i in range(r)]
    total = 0
    beta_set = set(betas)
    for i, b in enumerate(betas):
        nb = b - t
        if nb < 0 or nb in beta_set:
            continue
        # strip height parity = rows crossed between removal and landing spot
        crossed = sum(1 for j, x in enumerate(betas) if j != i and nb < x < b)
        new_betas = sorted(betas[:i] + [nb] + betas[i + 1:], reverse=True)
        new_shape = tuple(
            nbv - (r - 1 - idx) for idx, nbv in enumerate(new_betas)
        )
        new_shape = tuple(x for x in new_shape if x > 0)
        term = _mn(new_shape, parts[1:])
        total += -term if crossed & 1 else term
    return total


def sn_character(shape, cls) -> int:
    """Irreducible character of S_m: shape indexes the irreducible, cls the class."""
    shape = _as_partition(shape)
    cls = _as_partition(cls)
    if sum(shape) != sum(cls):
        raise InputError(
            f"partitions must have equal size, got {sum(shape)} and {sum(cls)}"
        )
    return _mn(shape, cls)


# -- isotypic probes of P (x) P --------------------------------------------------


def _cycle_type(perm: Sequence[int]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        p = start
        while not seen[p]:
            seen[p] = True
            p = perm[p]
            length += 1
        cycles.append(length)
    cycles.sort(reverse=True)
    return tuple(cycles)


@lru_cache(maxsize=None)
def _signed_perms(s: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    return tuple(
        (perm, sorted_mask([i + 1 for i in perm])[1]) for perm in permutations(range(s))
    )


@lru_cache(maxsize=None)
def _subset_weights(s: int, part: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """For each s-subset I of the 2s tensor slots, the character-weighted sum
    over permutations mapping the first block onto I, with both blocks
    antisymmetrized.  Reduces the central projector to one integer per subset.
    """
    m = 2 * s
    chars = {cls: sn_character(part, cls) for cls in partitions(m)}
    signed = _signed_perms(s)
    weights: dict[tuple[int, ...], int] = {}
    positions = tuple(range(m))
    for subset in combinations(positions, s):
        comp = tuple(x for x in positions if x not in subset)
        total = 0
        for p1, s1 in signed:
            first = [subset[p1[i]] for i in range(s)]
            for p2, s2 in signed:
                sigma = first + [comp[p2[i]] for i in range(s)]
                total += s1 * s2 * chars[_cycle_type(sigma)]
        weights[subset] = total
    return weights


def isotypic_probe(
    P: Multivector, shape: TwoColumnShape, probes: Sequence[Multivector]
) -> Fraction:
    """Evaluate the isotypic projection of P (x) P at a tuple of 2s covectors.

    Applies the central character idempotent of the shape to the 2s-linear
    form (xi_1, ..., xi_2s) -> <xi_1 ^ ... ^ xi_s, P> <xi_(s+1) ^ ... , P>.
    A nonzero return certifies that the component of P (x) P in the shape's
    isotypic subspace is nonzero.
    """
    require_vector(P, "probe target")
    s = P.grade
    if s < 1:
        raise InputError("probe target must have grade >= 1")
    part = two_column_partition(shape)
    if sum(part) != 2 * s:
        raise InputError(
            f"shape has {sum(part)} cells, expected {2 * s} for a grade-{s} vector"
        )
    probes = list(probes)
    if len(probes) != 2 * s:
        raise InputError(f"need {2 * s} probe covectors, got {len(probes)}")
    for i, xi in enumerate(probes):
        if not xi.dual or xi.grade != 1 or xi.dim != P.dim:
            raise InputError(f"probe {i} must be a grade-1 covector of dim {P.dim}")

    weights = _subset_weights(s, part)

    # G[I] = <wedge of probes at positions I, P>, with prefix-shared wedges.
    prefix: dict[tuple[int, ...], dict[int, Coeff]] = {(): {0: 1}}

    def chain(I: tuple[int, ...]) -> dict[int, Coeff]:
        cached = prefix.get(I)
        if cached is None:
            cached = wedge_terms(chain(I[:-1]), probes[I[-1]].terms)
            prefix[I] = cached
        return cached

    g: dict[tuple[int, ...], Coeff] = {}
    for subset in weights:
        terms = chain(subset)
        g[subset] = sum(c * P.terms[m] for m, c in terms.items() if m in P.terms)

    total: Coeff = 0
    positions = tuple(range(2 * s))
    for subset, w in weights.items():
        if not w:
            continue
        comp = tuple(x for x in positions if x not in subset)
        gi = g[subset]
        if gi:
            gc = g[comp]
            if gc:
                total += w * gi * gc
    fdim = standard_tableaux_count(part)
    return Fraction(fdim) * total / factorial(2 * s)


# -- definitional contractions and the linear criteria's values -----------------
#
# P enters as its terms keyed by sorted index tuples (``dict(P.items())``);
# a sign is the parity of the inversions between two tuples.


def inversion_sign(a: Sequence[int], b: Sequence[int]) -> int:
    """(-1)**inv, inv counting the pairs (x in a, y in b) with x > y: the
    sign of sorting a followed by b."""
    return -1 if sum(x > y for x in a for y in b) % 2 else 1


def _minus(big: tuple[int, ...], small: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x for x in big if x not in small)


def basis_interior(terms: dict, S: tuple[int, ...]) -> dict[tuple[int, ...], Coeff]:
    """i(e^S)P from <i(e^S)P, e^R> = <P, e^S ^ e^R>: the e_R coefficient is
    sign(S, R) * P[S + R], nonzero only for R = T - S with S inside a term T."""
    return {
        _minus(T, S): inversion_sign(S, _minus(T, S)) * c
        for T, c in terms.items()
        if set(S) <= set(T)
    }


def basis_contraction(terms: dict, s: int, Q: tuple[int, ...]) -> dict[tuple[int, ...], Coeff]:
    """i_P e^Q for P of grade s, from <i_P e^Q, e_U> = <e^Q, P ^ e_U>: the
    e^U coefficient is sign(Q - U, U) * P[Q - U] for U inside Q, else 0."""
    out = {}
    for T in combinations(Q, s):  # T = Q - U
        c = terms.get(T)
        if c:
            U = _minus(Q, T)
            out[U] = inversion_sign(T, U) * c
    return out


def contract_by_definition(P: Multivector, psi: Multivector) -> Multivector:
    """The covector i_P psi, the adjoint of P ^ . on the primal side, summed
    over psi's basis covectors by ``basis_contraction``."""
    terms, s = dict(P.items()), P.grade
    out: dict[tuple[int, ...], Coeff] = {}
    for Q, c in psi.items():
        for U, v in basis_contraction(terms, s, Q).items():
            out[U] = out.get(U, 0) + c * v
    return Multivector.from_terms(P.dim, psi.grade - s, out.items(), dual=True)


def linear_equation_value(
    terms: dict, s: int, criterion: str, quantifier: tuple[int, ...], C: tuple[int, ...]
) -> Coeff:
    """The e_C coefficient of a linear criterion's equation for the grade-s
    P with the given terms: (i(e^S)P) ^ P for the primal criteria (S the
    quantifier), i(i_P e^Q)P for the dual ones (Q the quantifier).

    The wedge's coefficient is the sum over A inside C of
    phi[A] * P[C - A] * sign(A, C - A); the interior's is the sum over U of
    psi[U] * P[U + C] * sign(U, C), for U disjoint from C.
    """
    if criterion in ("classical", "improved"):
        phi = basis_interior(terms, quantifier)
        return sum(
            v * terms.get(_minus(C, A), 0) * inversion_sign(A, _minus(C, A))
            for A, v in phi.items()
            if set(A) <= set(C)
        )
    psi = basis_contraction(terms, s, quantifier)
    return sum(
        v * terms.get(tuple(sorted(U + C)), 0) * inversion_sign(U, C)
        for U, v in psi.items()
        if not set(U) & set(C)
    )


@lru_cache(maxsize=None)
def _leibniz_signs(s: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(perm, (-1)**inversions) over the permutations of range(s)."""
    return tuple(
        (perm, -1 if sum(perm[i] > perm[j] for i, j in combinations(range(s), 2)) % 2 else 1)
        for perm in permutations(range(s))
    )


def leibniz_minor(rows: Sequence[Sequence[Coeff]], columns: Sequence[int]) -> Coeff:
    """The minor of ``rows`` on the given 0-based columns, as the Leibniz sum
    over permutations with inversion-count signs."""
    total: Coeff = 0
    for perm, sign in _leibniz_signs(len(columns)):
        term: Coeff = sign
        for row, j in zip(rows, perm):
            term *= row[columns[j]]
            if not term:
                break
        total += term
    return total


def duality_identity_check(
    P: Multivector, phi: Multivector, psi: Multivector
) -> bool:
    """The sign identity tying the two Pluecker formulations together:

        <P ^ i(phi)P, psi> == (-1)**(s-1) * <i(i_P psi)P, phi>

    Must hold identically with this package's conventions; exercised in the
    tests as a validation of the interior/contraction sign choices.
    """
    require_vector(P, "P")
    s = P.grade
    if s < 1:
        raise InputError("identity needs grade >= 1")
    if not phi.dual or phi.grade != s - 1:
        raise InputError(f"phi must be a covector of grade {s - 1}")
    if not psi.dual or psi.grade != s + 1:
        raise InputError(f"psi must be a covector of grade {s + 1}")
    lhs = pairing(psi, wedge(P, interior(phi, P)))
    rhs = pairing(phi, interior(contract_by_definition(P, psi), P))
    return lhs == (rhs if (s - 1) % 2 == 0 else -rhs)


# -- subsets inside the terms ----------------------------------------------------


def term_subsets(terms: Iterable[int], r: int) -> set[int]:
    """Masks of the r-subsets of the terms' index sets (a sum of distinct bits
    is their union)."""
    return {
        sum(sub) for m in terms for sub in combinations([1 << (i - 1) for i in indices_of(m)], r)
    }


# -- the lex family of the (s+2, s-2) projection -----------------------------------


def lex_projection_blocks(
    P: Multivector, contractions: _Contractions | None = None
) -> Iterator[tuple[tuple[tuple[int, int], ...], dict[int, Coeff], int]]:
    """Blocks of projection coefficients, one per tuple of symmetrized pairs.

    Yields (pairs, block, denom) where ``pairs`` is a lexicographically
    increasing tuple of s-2 index pairs (a <= b), ``block`` maps each 4-subset
    mask {c<d<e<f} to its nonzero unnormalized skew coefficient, and the
    projection coefficient at (pairs, subset) equals block[subset] / denom.

    The skew over the four indices of the product of two pair-contracted
    2-forms is exactly their wedge, so each block is a signed sum of wedges
    D[u] ^ D[v] of the contractions D[u] = i(e^u)P, memoized on first use
    and keyed by the mask of u; an unsorted u contributes the sign of
    sorting it.  ``contractions`` is P's table of them when the caller holds
    one already, which the scan then shares.  Pair tuples come in lex order,
    and only inside the indices P touches: the other blocks are zero.  When
    P touches at most s+1 indices it lies in Lambda^s of a space of that
    dimension, so it is decomposable and nothing is yielded; nor below grade
    2, where the shape has no component.
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

    # D[u] = i(e^u)P, the 2-form P(u, x, y), empty when u lies in no term.
    d = _Contractions(P.terms) if contractions is None else contractions

    pair_list = list(combinations_with_replacement(touched, 2))
    denom = 3 * (1 << k)
    for pairs in combinations_with_replacement(pair_list, k):
        yield pairs, _pair_block(pairs, d), denom


def project_tensor_square(
    P: Multivector,
) -> dict[tuple[tuple[tuple[int, int], ...], tuple[int, ...]], Fraction]:
    """Nonzero coefficients of the projection of P (x) P onto the shape with
    column heights (grade+2, grade-2), indexed by (pair tuple, 4-subset).

    The map is empty exactly when the component vanishes, i.e. exactly when
    the vector is decomposable; below grade 2 it is always empty.
    """
    out: dict[tuple[tuple[tuple[int, int], ...], tuple[int, ...]], Fraction] = {}
    for pairs, block, denom in lex_projection_blocks(P):
        for mask in sorted(block, key=indices_of):
            out[(pairs, indices_of(mask))] = Fraction(block[mask], denom)
    return out
