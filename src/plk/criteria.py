"""Decomposability (simplicity) tests for multivectors.

A grade-s multivector is decomposable when it is a wedge of s vectors.  This
module implements six equivalent characterizations plus the rank oracle they
are all validated against:

* ``classical_pluecker``   - i(phi)P ^ P = 0 for all (s-1)-covectors phi
* ``dual_pluecker``        - i(i_P psi)P = 0 for all (s+1)-covectors psi
* ``contraction_criterion``- contractions by s-k independent covectors are
                             decomposable k-vectors (quadratic in each
                             covector, so decided by polynomial identity
                             testing, symbolic or randomized)
* ``improved_pluecker``    - i(psi)P ^ P = 0 for all (s-2)-covectors psi
* ``dual_improved_pluecker`` - i(i_P psi)P = 0 for all (s+2)-covectors psi
* ``optimal_component_test`` - the component of P (x) P in the two-column
                             shape (s+2, s-2) vanishes
* ``is_simple_oracle``     - the support space has rank exactly s

The first five are linear in the quantified covector, so checking basis
covectors in lexicographic order is exact; reports carry the first failing
equation as a witness.  Degenerate grades (0 and 1) are decomposable by
convention, as is the zero multivector.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from itertools import combinations
from typing import Mapping, Sequence

from . import linalg, young
from .multivector import (
    Coeff,
    InputError,
    Multivector,
    contract_into,
    contract_terms,
    indices_of,
    interior,
    interior_terms,
    mask_of,
    pairing,
    shuffle_sign,
    support_space,
    wedge,
    wedge_terms,
)
from .young import _signed_perms, comb0

CRITERIA = ("classical", "dual", "improved", "dual-improved", "contraction", "optimal", "oracle")


class InvariantViolation(RuntimeError):
    """A mathematically guaranteed invariant failed; indicates a bug."""


@dataclass(frozen=True)
class Witness:
    """First failing equation of a criterion run.

    ``equation`` identifies the equation (criterion-specific: the quantifier
    basis subset, plus the monomial or trial data for contraction tests),
    ``component`` the nonzero output component, ``value`` its coefficient.
    """

    equation: tuple
    component: tuple[int, ...]
    value: Coeff
    text: str

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class CriterionReport:
    criterion: str
    verdict: bool
    equations_checked: int
    witness: Witness | None = None
    probabilistic: bool = False
    seed: int | None = None

    def __post_init__(self):
        if self.verdict == (self.witness is not None):
            raise ValueError("witness must be present exactly when the verdict is false")


def _require_vector(P: Multivector) -> None:
    if P.dual:
        raise InputError("criteria apply to vectors, not covectors")


def _comb_rank(tup: Sequence[int], n: int) -> int:
    """1-based lexicographic position of a combination of 1..n."""
    r = len(tup)
    pos = 0
    prev = 0
    for slot, v in enumerate(tup):
        for x in range(prev + 1, v):
            pos += comb0(n - x, r - slot - 1)
        prev = v
    return pos + 1


def _fmt(idx: Sequence[int]) -> str:
    return ",".join(map(str, idx))


def _first_component(terms: Mapping[int, Coeff]) -> tuple[tuple[int, ...], Coeff]:
    mask = min(terms, key=indices_of)
    return indices_of(mask), terms[mask]


# -- the four linear criteria ----------------------------------------------------


def _linear_criterion(P, name, quant_grade, per_equation, evaluate, covector_symbol):
    """Shared loop: quantify over basis covectors of one grade, lex order."""
    n = P.dim
    checked = 0
    for S in combinations(range(1, n + 1), quant_grade):
        out = evaluate(mask_of(S))
        if out:
            comp, val = _first_component(out)
            checked += _comb_rank(comp, n)
            witness = Witness(
                equation=(S,),
                component=comp,
                value=val,
                text=(
                    f"{covector_symbol}=e^{{{_fmt(S)}}} -> "
                    f"component e_{{{_fmt(comp)}}} = {val}"
                ),
            )
            return CriterionReport(name, False, checked, witness)
        checked += per_equation
    return CriterionReport(name, True, checked)


def classical_pluecker(P: Multivector) -> CriterionReport:
    """Classical Pluecker relations: i(phi)P ^ P = 0 for all (s-1)-covectors.

    Linear in phi, so basis covectors decide the full quantifier.  On success
    ``equations_checked`` is C(n,s-1) * C(n,s+1), the number of scalar
    equations; on failure it counts equations confirmed zero up to and
    including the witness.
    """
    _require_vector(P)
    n, s = P.dim, P.grade
    if s < 1:
        return CriterionReport("classical", True, 0)
    terms = P.terms
    supp = list(terms)

    def evaluate(smask):
        if not any(smask & k == smask for k in supp):
            return {}
        return wedge_terms(interior_terms({smask: 1}, terms), terms)

    return _linear_criterion(P, "classical", s - 1, comb0(n, s + 1), evaluate, "Phi")


def dual_pluecker(P: Multivector) -> CriterionReport:
    """Dual Pluecker relations: i(i_P psi)P = 0 for all (s+1)-covectors psi.

    Vacuously true when s+1 > n (top forms are decomposable).
    """
    _require_vector(P)
    n, s = P.dim, P.grade
    if s < 1:
        return CriterionReport("dual", True, 0)
    terms = P.terms

    def evaluate(tmask):
        cov = contract_terms(terms, {tmask: 1})
        if not cov:
            return {}
        return interior_terms(cov, terms)

    return _linear_criterion(P, "dual", s + 1, comb0(n, s - 1), evaluate, "Psi")


def improved_pluecker(P: Multivector) -> CriterionReport:
    """Two-index-lighter relations: i(psi)P ^ P = 0 for all (s-2)-covectors.

    For large n this is C(n,s-2)*C(n,s+2) scalar equations, fewer than the
    classical count once n >= 2s.  Grades below 2 are decomposable by
    convention and return a vacuous pass.
    """
    _require_vector(P)
    n, s = P.dim, P.grade
    if s < 2:
        return CriterionReport("improved", True, 0)
    terms = P.terms
    supp = list(terms)

    def evaluate(smask):
        if smask and not any(smask & k == smask for k in supp):
            return {}
        return wedge_terms(interior_terms({smask: 1}, terms), terms)

    return _linear_criterion(P, "improved", s - 2, comb0(n, s + 2), evaluate, "Psi")


def dual_improved_pluecker(P: Multivector) -> CriterionReport:
    """Dual of the improved relations: i(i_P psi)P = 0 for (s+2)-covectors.

    Vacuously true when n < s+2; grades below 2 pass by convention (the
    contracted covector would outgrade the vector).
    """
    _require_vector(P)
    n, s = P.dim, P.grade
    if s < 2:
        return CriterionReport("dual-improved", True, 0)
    terms = P.terms

    def evaluate(tmask):
        cov = contract_terms(terms, {tmask: 1})
        if not cov:
            return {}
        return interior_terms(cov, terms)

    return _linear_criterion(P, "dual-improved", s + 2, comb0(n, s - 2), evaluate, "Psi")


# -- contraction criterion (polynomial identity testing) --------------------------


def _symbolic_contraction(terms, n, m):
    """Contract by a generic wedge of m covectors with symbolic coordinates.

    Returns a map from result masks to polynomials.  A polynomial maps
    monomials to coefficients; at this level each covector group has degree
    one, so a monomial is a flat tuple (i_1, ..., i_m) of one coordinate
    index per group.
    """
    Q: dict[int, dict[tuple, Coeff]] = {}
    for kmask, c in terms.items():
        kidx = indices_of(kmask)
        for A in combinations(kidx, m):
            amask = mask_of(A)
            tmask = kmask ^ amask
            base = c if shuffle_sign(amask, tmask) > 0 else -c
            poly = Q.setdefault(tmask, {})
            for perm, sgn in _signed_perms(m):
                mono = tuple(A[perm[j]] for j in range(m))
                v = poly.get(mono, 0) + (base if sgn > 0 else -base)
                if v:
                    poly[mono] = v
                elif mono in poly:
                    del poly[mono]
    return {mask: poly for mask, poly in Q.items() if poly}


def _poly_addmul(dst, p1, p2, sgn, m):
    """dst += sgn * p1 * p2 for degree-one-per-group polynomials.

    Product monomials have degree two per group and are keyed by the flat
    tuple (min, max) per group, concatenated.
    """
    if m == 2:
        for (a1, a2), c1 in p1.items():
            cc = c1 if sgn > 0 else -c1
            for (b1, b2), c2 in p2.items():
                key = (
                    (a1, b1) if a1 <= b1 else (b1, a1)
                ) + ((a2, b2) if a2 <= b2 else (b2, a2))
                v = dst.get(key, 0) + cc * c2
                if v:
                    dst[key] = v
                elif key in dst:
                    del dst[key]
        return
    if m == 1:
        for (a1,), c1 in p1.items():
            cc = c1 if sgn > 0 else -c1
            for (b1,), c2 in p2.items():
                key = (a1, b1) if a1 <= b1 else (b1, a1)
                v = dst.get(key, 0) + cc * c2
                if v:
                    dst[key] = v
                elif key in dst:
                    del dst[key]
        return
    for m1, c1 in p1.items():
        cc = c1 if sgn > 0 else -c1
        for m2, c2 in p2.items():
            parts = []
            for j in range(m):
                a, b = m1[j], m2[j]
                parts += (a, b) if a <= b else (b, a)
            key = tuple(parts)
            v = dst.get(key, 0) + cc * c2
            if v:
                dst[key] = v
            elif key in dst:
                del dst[key]


def _mono_str(mono) -> str:
    # product-level monomial: (min, max) coordinate pair per covector group
    return "*".join(
        f"a{j + 1}[{mono[2 * j]},{mono[2 * j + 1]}]" for j in range(len(mono) // 2)
    ) or "1"


def _contraction_symbolic(P, k, name):
    n, s = P.dim, P.grade
    m = s - k
    Q = _symbolic_contraction(P.terms, n, m)
    checked = 0
    for S in combinations(range(1, n + 1), k - 1):
        smask = mask_of(S)
        contracted = {}
        for tmask, poly in Q.items():
            if tmask & smask == smask:
                rest = tmask ^ smask
                sgn = shuffle_sign(smask, rest)
                contracted[rest] = poly if sgn > 0 else {mo: -c for mo, c in poly.items()}
        if not contracted:
            continue
        out: dict[int, dict] = {}
        for m1, p1 in contracted.items():
            for m2, p2 in Q.items():
                if m1 & m2:
                    continue
                dst = out.setdefault(m1 | m2, {})
                _poly_addmul(dst, p1, p2, shuffle_sign(m1, m2), m)
        for comp_mask in sorted(out, key=indices_of):
            poly = out[comp_mask]
            checked += 1
            if poly:
                mono = min(poly)
                comp = indices_of(comp_mask)
                witness = Witness(
                    equation=(S, mono),
                    component=comp,
                    value=poly[mono],
                    text=(
                        f"S=e^{{{_fmt(S)}}}, component e_{{{_fmt(comp)}}}: "
                        f"coefficient of {_mono_str(mono)} = {poly[mono]}"
                    ),
                )
                return CriterionReport(name, False, checked, witness)
    return CriterionReport(name, True, checked)


def _contraction_randomized(P, k, name, trials, seed, bound):
    n, s = P.dim, P.grade
    m = s - k
    if m == 0:
        # Nothing to contract by: one exact classical run decides it.
        rep = classical_pluecker(P)
        return CriterionReport(
            name, rep.verdict, rep.equations_checked, rep.witness, seed=seed
        )
    checked = 0
    for t in range(trials):
        rng = random.Random(seed * 1_000_003 + t)
        coords = [
            tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(m)
        ]
        phi_terms: Mapping[int, Coeff] = {0: 1}
        for vec in coords:
            phi_terms = wedge_terms(
                phi_terms, {1 << i: c for i, c in enumerate(vec) if c}
            )
        Qt = Multivector(n, k, interior_terms(phi_terms, P.terms))
        rep = classical_pluecker(Qt)
        checked += rep.equations_checked
        if not rep.verdict:
            inner = rep.witness
            witness = Witness(
                equation=(t, tuple(coords)) + inner.equation,
                component=inner.component,
                value=inner.value,
                text=f"trial {t}, alphas={coords}: {inner.text}",
            )
            return CriterionReport(name, False, checked, witness, seed=seed)
    return CriterionReport(name, True, checked, probabilistic=True, seed=seed)


def contraction_criterion(
    P: Multivector,
    k: int = 2,
    mode: str = "symbolic",
    trials: int = 64,
    seed: int = 0,
    bound: int = 10,
) -> CriterionReport:
    """Decomposability via contractions: every i(a_1 ^ ... ^ a_(s-k))P must be
    a decomposable k-vector, quantified over ALL covectors a_i.

    The resulting Pluecker expressions are quadratic in each a_i, so basis
    tuples do not suffice.  Symbolic mode expands them as polynomials in the
    (s-k)*n covector coordinates and tests every coefficient (exact; the
    count reported is the number of polynomial identities materialized).
    Randomized mode evaluates at ``trials`` seeded integer tuples drawn from
    [-bound, bound]: a nonzero evaluation certifies failure, while an all-zero
    run yields a pass flagged as probabilistic.
    """
    _require_vector(P)
    if not isinstance(k, int) or k < 2:
        raise InputError(f"contraction order k must be an integer >= 2, got {k}")
    s = P.grade
    name = f"contraction(k={k})"
    if s < 2:
        return CriterionReport(name, True, 0)
    if k > s:
        raise InputError(f"k must satisfy 2 <= k <= grade={s}, got {k}")
    if mode == "symbolic":
        return _contraction_symbolic(P, k, name)
    if mode == "randomized":
        if trials < 1:
            raise InputError(f"trials must be >= 1, got {trials}")
        if bound < 1:
            raise InputError(f"bound must be >= 1, got {bound}")
        return _contraction_randomized(P, k, name, trials, seed, bound)
    raise InputError(f"mode must be 'symbolic' or 'randomized', got {mode!r}")


# -- optimal irreducible-component test -------------------------------------------


def optimal_component_test(P: Multivector) -> CriterionReport:
    """Vanishing of the component of P (x) P in the two-column shape (s+2, s-2).

    Enumerates the projected coefficient family (symmetrized index pairs plus
    a skewed 4-subset) in lexicographic order and reports the first nonzero
    coefficient.  ``equations_checked`` counts the distinct coefficients
    enumerated; for a pass this is the full family,
    multichoose(pairs, s-2) * C(n,4).
    """
    _require_vector(P)
    s = P.grade
    if s < 2:
        raise InputError(f"optimal component test needs grade >= 2, got {s}")
    n = P.dim
    per_block = comb0(n, 4)
    checked = 0
    for pairs, block, denom in young.iter_projection_blocks(P):
        if block:
            comp, raw = _first_component(block)
            val = Fraction(raw, denom)
            checked += _comb_rank(comp, n)
            pair_txt = ",".join("{%d,%d}" % p for p in pairs) or "-"
            witness = Witness(
                equation=(pairs, comp),
                component=comp,
                value=val,
                text=f"pairs=({pair_txt}), skew over e_{{{_fmt(comp)}}}: coefficient = {val}",
            )
            return CriterionReport("optimal", False, checked, witness)
        checked += per_block
    return CriterionReport("optimal", True, checked)


# -- rank oracle, factorization, families -----------------------------------------


def is_simple_oracle(P: Multivector) -> bool:
    """Decomposability by the minimal-subspace rank: rank(support) == grade.

    The zero multivector is decomposable by convention.
    """
    _require_vector(P)
    if P.is_zero():
        return True
    return support_space(P).rank == P.grade


def oracle_report(P: Multivector) -> CriterionReport:
    """The rank oracle packaged as a report (for CLI and agreement checks)."""
    _require_vector(P)
    n, s = P.dim, P.grade
    generators = comb0(n, s - 1)
    if P.is_zero():
        return CriterionReport("oracle", True, generators)
    r = support_space(P).rank
    if r == s:
        return CriterionReport("oracle", True, generators)
    witness = Witness(
        equation=("support-rank", r),
        component=(),
        value=r,
        text=f"support rank {r} != grade {s}",
    )
    return CriterionReport("oracle", False, generators, witness)


def kernel_dimension(P: Multivector) -> int:
    """dim of {v : v ^ P = 0}, via the nullspace of wedging into grade s+1.

    Independent cross-check of the support-space oracle: the dimension equals
    the grade exactly for nonzero decomposable multivectors.
    """
    _require_vector(P)
    n, s = P.dim, P.grade
    if P.is_zero():
        return n
    if s + 1 > n:
        return n  # wedging into a zero space: everything is in the kernel
    rows = []
    for U in combinations(range(1, n + 1), s + 1):
        umask = mask_of(U)
        row = []
        for i in U:
            rest = umask ^ (1 << (i - 1))
            c = P.terms.get(rest, 0)
            row.append(c if shuffle_sign(1 << (i - 1), rest) > 0 else -c)
        if any(row):
            # scatter back to n columns
            full = [0] * n
            for i, c in zip(U, row):
                full[i - 1] = c
            rows.append(full)
    return n - linalg.rank(rows)


def from_factors(vectors: Sequence[Multivector]) -> Multivector:
    """Left-to-right wedge of grade-1 factors (zero when dependent)."""
    if not vectors:
        raise InputError("need at least one factor")
    for i, v in enumerate(vectors):
        if v.grade != 1:
            raise InputError(f"factor {i} has grade {v.grade}, expected 1")
    return reduce(wedge, vectors)


def factorize(P: Multivector) -> list[Multivector] | None:
    """Recover grade-1 factors of a decomposable multivector.

    Returns vectors whose wedge equals P exactly (the first one carries the
    overall coefficient); None when P is not decomposable or has grade 0.
    The zero multivector yields grade-1 zero factors.
    """
    _require_vector(P)
    s = P.grade
    if s == 0:
        return None
    if P.is_zero():
        return [Multivector.zero(P.dim, 1) for _ in range(s)]
    space = support_space(P)
    if space.rank != s:
        return None
    blade = reduce(wedge, space.basis)
    key = next(iter(blade.terms))
    scale = Fraction(P.terms[key]) / Fraction(blade.terms[key])
    factors = [scale * space.basis[0], *space.basis[1:]]
    if reduce(wedge, factors) != P:
        raise InvariantViolation("factor recovery produced a mismatched wedge")
    return factors


def duality_identity_check(
    P: Multivector, phi: Multivector, psi: Multivector
) -> bool:
    """The sign identity tying the two Pluecker formulations together:

        <P ^ i(phi)P, psi> == (-1)**(s-1) * <i(i_P psi)P, phi>

    Must hold identically with this package's conventions; exercised in the
    tests as a validation of the interior/contraction sign choices.
    """
    _require_vector(P)
    s = P.grade
    if s < 1:
        raise InputError("identity needs grade >= 1")
    if not phi.dual or phi.grade != s - 1:
        raise InputError(f"phi must be a covector of grade {s - 1}")
    if not psi.dual or psi.grade != s + 1:
        raise InputError(f"psi must be a covector of grade {s + 1}")
    lhs = pairing(psi, wedge(P, interior(phi, P)))
    rhs = pairing(phi, interior(contract_into(P, psi), P))
    return lhs == (rhs if (s - 1) % 2 == 0 else -rhs)


def equation_count(n: int, s: int, criterion: str) -> int:
    """Number of scalar equations each criterion imposes on a grade-s
    multivector in dimension n.

    The optimal test counts the dimension of the irreducible (s+2, s-2)
    component, which is the number of independent equations; for grades
    below 2 there is no such component and the count is 0.  At grade 2
    the (4,0) component is all of Lambda^4, so the optimal count equals
    the improved count C(n,0)*C(n,4) = C(n,4); for 3 <= s <= n/2 it is
    strictly smaller.
    """
    if not (0 <= s <= n):
        raise InputError(f"need 0 <= s <= n, got s={s}, n={n}")
    if criterion == "classical":
        return comb0(n, s - 1) * comb0(n, s + 1)
    if criterion == "dual":
        return comb0(n, s + 1) * comb0(n, s - 1)
    if criterion == "improved":
        return comb0(n, s - 2) * comb0(n, s + 2)
    if criterion == "dual-improved":
        return comb0(n, s + 2) * comb0(n, s - 2)
    if criterion == "optimal":
        if s < 2:
            return 0
        return young.young_dim(n, young.TwoColumnShape(s + 2, s - 2))
    raise InputError(f"unknown criterion {criterion!r}")


# -- families and the span/intersection dichotomy ---------------------------------


class ThreePlaneBranch(Enum):
    SPAN_BOUND = "span-bound"
    INTERSECTION_BOUND = "intersection-bound"
    BOTH = "both"


@dataclass(frozen=True)
class DecomposableFamily:
    """A family of nonzero decomposable k-vectors with decomposable pairwise
    sums; both properties are validated on construction."""

    members: tuple[Multivector, ...]

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise InputError("family must be nonempty")
        first = members[0]
        for i, p in enumerate(members):
            if p.dual:
                raise InputError(f"member {i} is a covector")
            if p.dim != first.dim or p.grade != first.grade:
                raise InputError(
                    f"member {i} has (dim, grade) = ({p.dim}, {p.grade}), "
                    f"expected ({first.dim}, {first.grade})"
                )
            if p.is_zero():
                raise InputError(f"member {i} is zero")
            if not is_simple_oracle(p):
                raise InputError(f"member {i} is not decomposable")
        for i, j in combinations(range(len(members)), 2):
            if not is_simple_oracle(members[i] + members[j]):
                raise InputError(f"sum of members {i} and {j} is not decomposable")

    @property
    def grade(self) -> int:
        return self.members[0].grade

    @property
    def dim(self) -> int:
        return self.members[0].dim


def three_plane_check(family: DecomposableFamily) -> ThreePlaneBranch:
    """Span/intersection dichotomy for pairwise-decomposable families.

    For every valid family of k-vectors, either the joint span of the support
    spaces has dimension at most k+1, or their common intersection has
    dimension at least k-1.  Returns which bound holds (or BOTH); a family
    satisfying neither would contradict the underlying lemma and raises
    InvariantViolation.
    """
    k = family.grade
    spaces = [support_space(p) for p in family.members]
    all_rows = [row for sp in spaces for row in sp.coordinate_rows()]
    span_dim = linalg.rank(all_rows)
    inter = spaces[0].coordinate_rows()
    for sp in spaces[1:]:
        if not inter:
            break
        inter = linalg.intersect_row_spaces(inter, sp.coordinate_rows())
    inter_dim = len(inter)
    span_ok = span_dim <= k + 1
    inter_ok = inter_dim >= k - 1
    if span_ok and inter_ok:
        return ThreePlaneBranch.BOTH
    if span_ok:
        return ThreePlaneBranch.SPAN_BOUND
    if inter_ok:
        return ThreePlaneBranch.INTERSECTION_BOUND
    raise InvariantViolation(
        f"neither bound holds: span dim {span_dim} > {k + 1} and "
        f"intersection dim {inter_dim} < {k - 1}"
    )


# -- orchestration ----------------------------------------------------------------


def run_all_criteria(
    P: Multivector,
    k: int = 2,
    mode: str = "symbolic",
    trials: int = 64,
    seed: int = 0,
    bound: int = 10,
) -> list[CriterionReport]:
    """All applicable criterion reports for P, oracle last.

    The optimal component test is omitted for grades below 2 (it rejects
    them); every other criterion treats degenerate grades as vacuous passes.
    """
    reports = [
        classical_pluecker(P),
        dual_pluecker(P),
        improved_pluecker(P),
        dual_improved_pluecker(P),
        contraction_criterion(P, k=k, mode=mode, trials=trials, seed=seed, bound=bound),
    ]
    if P.grade >= 2:
        reports.append(optimal_component_test(P))
    reports.append(oracle_report(P))
    return reports
