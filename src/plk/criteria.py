"""Decomposability (simplicity) tests for multivectors.

A grade-s multivector is decomposable when it is a wedge of s vectors.  This
module implements six equivalent characterizations plus the rank oracle they
are all validated against:

* ``classical_pluecker``   - i(phi)P ^ P = 0 for all (s-1)-covectors phi
* ``dual_pluecker``        - i(i_P psi)P = 0 for all (s+1)-covectors psi
* ``contraction_criterion``- contractions by s-k independent covectors are
                             decomposable k-vectors (quadratic in each
                             covector, so decided exactly on point sets
                             indexed by semistandard tableaux, or by seeded
                             random points)
* ``improved_pluecker``    - i(psi)P ^ P = 0 for all (s-2)-covectors psi
* ``dual_improved_pluecker`` - i(i_P psi)P = 0 for all (s+2)-covectors psi
* ``optimal_component_test`` - the component of P (x) P in the two-column
                             shape (s+2, s-2) vanishes
* ``is_simple_oracle``     - the support space has rank exactly s

The four Pluecker-type criteria (classical, dual, improved, dual-improved)
are linear in the quantified covector, so checking basis covectors in
lexicographic order is exact; reports carry the first failing equation as a
witness.  One sweep decides all four (``_sweep``): it returns the first
failing equation, or nothing, and each criterion forms its report once, the
witness from that equation (``_witness``).  The contraction criterion
decides each point set's contracted k-vector by a pivot lemma
(``_decomposable``) and runs the same sweep only on the first set the lemma
rejects, for its one witness.  The sweep evaluates equations directly up to
the first with a nonempty operand, where most failures stop; past it, one
packed pass decides every equation as the primal equation at a packed
covector (``_pair_sums``), the sum of 2^(w*j) * e^R over the quantifiers R:
its big-int coefficients hold every basis equation in its own w-bit slot, 0
exactly when the equation is.  The first failing equation the pass names is
then evaluated directly, so witnesses and counts are those of the
one-at-a-time sweep.  Every criterion here but the oracle is quadratic in P
and runs on lam * P, P's denominators cleared once at its entry
(``_cleared``); only a witness value is divided back, by lam^2.  Degenerate
grades (0 and 1) are decomposable by convention, as is the zero
multivector.
"""

from __future__ import annotations

import random
from enum import Enum
from fractions import Fraction
from functools import reduce
from itertools import combinations
from typing import Iterator, Mapping, Sequence

from . import linalg, young
from .multivector import (
    Coeff,
    InputError,
    Multivector,
    _Contractions,
    _Record,
    _cleared,
    _is_int,
    _nonzero,
    _store,
    _support_rows,
    check_dim,
    indices_of,
    interior_terms,
    require_vector,
    subset_rank,
    support_space,
    touched_indices,
    wedge,
    wedge_terms,
)
from .young import comb0

class InvariantViolation(RuntimeError):
    """A mathematically guaranteed invariant failed; indicates a bug."""


class Witness(_Record):
    """First failing equation of a criterion run.

    ``equation`` identifies the equation (criterion-specific: the quantifier
    basis subset, plus the monomial or trial data for contraction tests),
    ``component`` the nonzero output component, ``value`` its coefficient.
    """

    __slots__ = ("equation", "component", "value", "text")

    def __init__(self, equation: tuple, component: tuple[int, ...], value: Coeff, text: str):
        _store(self, "equation", equation)
        _store(self, "component", component)
        _store(self, "value", value)
        _store(self, "text", text)

    def __str__(self) -> str:
        return self.text


class CriterionReport(_Record):
    """Verdict of one criterion run, with the work it took.

    ``equations_checked`` counts, per criterion:

    * the four Pluecker-type criteria: scalar equations, one per quantified
      basis covector and output component; a pass counts all of them
      (``equation_count``), a failure those up to and including the witness;
    * the contraction criterion: the improved equations of its inner
      checks, C(n,k-2)*C(n,k+2) per point set (exact mode) or trial
      (randomized mode); a pass counts all dim Y[m,m] tableau sets over 1..n
      (m = s-k) or all trials, a failure the sets or trials visited before
      the witness plus the witness check's equations; the improved sweep of
      P when k = s;
    * the optimal test: the semistandard coordinates of the component over
      1..n in its scan order, up to and including the witness, or all
      dim Y[s+2,s-2] of them (``equation_count``) on a pass;
    * the oracle: the C(n, s-1) generators of the support space.
    """

    __slots__ = ("criterion", "verdict", "equations_checked", "witness", "probabilistic", "seed")

    def __init__(
        self,
        criterion: str,
        verdict: bool,
        equations_checked: int,
        witness: Witness | None = None,
        probabilistic: bool = False,
        seed: int | None = None,
    ):
        if verdict == (witness is not None):
            raise ValueError("witness must be present exactly when the verdict is false")
        _store(self, "criterion", criterion)
        _store(self, "verdict", verdict)
        _store(self, "equations_checked", equations_checked)
        _store(self, "witness", witness)
        _store(self, "probabilistic", probabilistic)
        _store(self, "seed", seed)


def _fmt(idx: Sequence[int]) -> str:
    return ",".join(map(str, idx))


def _split(terms: Mapping[int, Coeff], bit: int) -> tuple[dict, dict]:
    """The terms whose index set holds ``bit``, and the others."""
    return (
        {m: c for m, c in terms.items() if m & bit},
        {m: c for m, c in terms.items() if not m & bit},
    )


def _lsb_first(mask: int) -> str:
    """The mask's bits, lowest first: among index sets of one size, the
    largest such string is the lex-first set."""
    return bin(mask)[:1:-1]


def _first_component(terms: Mapping[int, Coeff]) -> tuple[tuple[int, ...], Coeff]:
    mask = max(terms, key=_lsb_first)
    return indices_of(mask), terms[mask]


# -- the four linear criteria ----------------------------------------------------

# name -> (grade shift d, dual side).  The primal criteria quantify over
# (s-d)-covectors q and test i(q)P ^ P = 0; the dual ones quantify over
# (s+d)-covectors q and test i(i_P q)P = 0.
_LINEAR = {
    "classical": (1, False),
    "dual": (1, True),
    "improved": (2, False),
    "dual-improved": (2, True),
}


def _pluecker(
    P: Multivector, name: str, criterion: str | None = None, seed: int | None = None
) -> CriterionReport:
    """The linear criterion ``name`` on a vector P, reported as ``criterion``
    (default: ``name``) with ``seed``: one sweep of lam * P, one report."""
    require_vector(P, "P")
    n, s = P.dim, P.grade
    lam, ints = _cleared(P.terms)
    failure = _sweep(s, ints, name)
    if failure is None:
        return CriterionReport(criterion or name, True, _count(n, s, name), seed=seed)
    return CriterionReport(criterion or name, False, *_witness(n, lam, name, *failure), seed=seed)


def _sweep(s: int, terms: Mapping[int, int], name: str) -> tuple[int, dict] | None:
    """Decide the linear criterion ``name`` on the integer terms of a grade-s
    vector: the first failing quantifier, as a mask, with the nonzero
    components of its equation, or None when every equation holds.  The
    quantifiers are the basis covectors of one grade, in lex order.  The
    sweep builds no count, witness or report; ``_witness`` forms those, once.

    Covectors outside the indices P touches give zero equations (i(e^S)P needs
    S in a term, i(i_P e^Q)P needs Q in two terms), so they are not visited.

    Equations are first evaluated one at a time, in lex order, up to and
    including the first whose operand is nonempty; most failures stop there.
    A primal equation wedges the entry D = i(e^S)P of a lazy table of P's
    basis contractions onto P.  A dual equation first contracts into e^Q the
    terms of P at the s-subsets of Q, the only ones i_P e^Q reads; that gives
    a d-covector, whose interior product with P is a sum of the table's
    entries at d-subsets of Q.  A witness is the lex-first nonzero component
    of its equation.  In a primal equation, the components that hold P's
    lowest index t come first; they come from the pairs of terms of which
    exactly one holds t (the "head" of P or of D; the rest is the "tail").
    So those pairs are summed first, and the tail ^ tail pairs only when that
    sum is 0.  With S empty, P ^ P is 0 at s = 1 and 2 head ^ tail at s = 2
    (if head ^ tail = 0, tail = a ^ b for head = e_t ^ a, so tail ^ tail = 0).

    Once that equation passes and more quantifiers follow, one packed pass
    decides every equation at once: ``_pair_sums`` evaluates the primal
    equation at a packed covector with one slot per quantifier, per chunk,
    and the slots, 0 exactly where the equations' components are, hold
    every primal and dual equation.  The primal's first failing S is the
    lowest nonzero slot over all keys, found at the lowest set bit of each
    sum, and the pass stops at the first chunk that holds one; the dual's
    first failing Q is the lex-first key with a nonzero sum in any chunk.
    The failing equation is then evaluated directly, as above, so what the
    sweep returns, and the witness and count formed from it, do not depend
    on the packed pass.
    """
    shift, dual = _LINEAR[name]
    if s < shift:
        return None
    table = _Contractions(terms)
    bits = [1 << (i - 1) for i in touched_indices(terms)]
    low = bits[0] if bits else 0

    def operand(Q: int) -> Mapping[int, Coeff]:
        """The terms the equation at Q reads: P's terms inside Q, or i(e^S)P."""
        if dual:
            inside = [b for b in bits if Q & b]
            return {m: terms[m] for m in map(sum, combinations(inside, s)) if m in terms}
        return table[Q] if Q else terms

    def equation(Q: int, a: Mapping[int, Coeff]) -> dict:
        """The nonzero components of the equation at Q, whose operand is a."""
        if dual:
            return table.interior(interior_terms(a, {Q: 1}))
        head, tail = _split(terms, low)
        if not Q:  # P ^ P: 2 head ^ tail at s = 2, 0 at s = 1
            return {m: 2 * c for m, c in wedge_terms(head, tail).items()} if s % 2 == 0 else {}
        a_head, a_tail = _split(a, low)
        out = wedge_terms(a_head, tail)
        for m, c in wedge_terms(a_tail, head).items():
            out[m] = out.get(m, 0) + c
        return _nonzero(out) or wedge_terms(a_tail, tail)

    quantifiers = map(sum, combinations(bits, s + shift if dual else s - shift))
    Q, a = next(((q, a) for q in quantifiers if (a := operand(q))), (None, {}))
    out = equation(Q, a) if a else {}
    # past a passing first equation, the packed pass, if a quantifier follows
    if not out and next(quantifiers, None) is not None:
        failed: list[int] = []
        for w, slots, sums in _pair_sums(terms, bits, s, shift):
            if dual:
                failed += [key for key, z in sums.items() if z]
                continue
            j = min((((z & -z).bit_length() - 1) // w for z in sums.values() if z), default=None)
            if j is not None:
                failed = [slots[j]]
                break
        Q = max(failed, key=_lsb_first, default=None)
        out = {} if Q is None else equation(Q, operand(Q))
    return (Q, out) if out else None


def _witness(
    n: int, lam: int, name: str, Q: int, out: Mapping[int, int], prefix: tuple = (), lead: str = ""
) -> tuple[int, Witness]:
    """The count and witness of the linear criterion ``name`` on lam * P in
    dimension n, whose sweep failed first at Q with the equation ``out``.

    The witness is the lex-first component of ``out``; its value, quadratic
    in P, is divided by lam^2, so it is P's own.  The count is by rank: the
    equations of the quantifiers before Q, C(n, out grade) each, plus those
    of Q up to and including the witness.  The contraction criterion puts
    its point set or trial in front, as ``prefix`` to the equation and
    ``lead`` to the text.
    """
    S = indices_of(Q)
    comp, val = _first_component(out)
    if lam > 1:
        val = Fraction(val, lam * lam)
    checked = (subset_rank(S, n) - 1) * comb0(n, len(comp)) + subset_rank(comp, n)
    symbol = "Phi" if name == "classical" else "Psi"
    text = f"{lead}{symbol}=e^{{{_fmt(S)}}} -> component e_{{{_fmt(comp)}}} = {val}"
    return checked, Witness(prefix + (S,), comp, val, text)


# Bits of pair sums the packed pass holds at once (2 MiB): keys x slot width
# x slots per chunk stays under this.
_PACKED_BITS = 1 << 24


def _pair_sums(
    ints: Mapping[int, int], bits: Sequence[int], s: int, d: int
) -> Iterator[tuple[int, list[int], dict[int, int]]]:
    """The linear criteria with shift d on the grade-s P whose integer
    multiple lam * P has the terms ``ints``, ``bits`` the indices P touches,
    evaluated at packed covectors: (w, slots, sums) per lex chunk of the
    (s-d)-subsets of ``bits``.

    ``sums`` is the primal equation i(phi)(lam * P) ^ (lam * P) at the
    packed covector phi, the sum of 2^(w*j) * e^R over the chunk's subsets
    R, j their lex position in the chunk.  It is linear in phi, so the e_K
    coefficient ``sums[K]`` holds one w-bit slot per R (balanced: a
    negative value borrows from the slots above), and slot R is the e_K
    coefficient of the primal equation of lam * P at S = R.  That is (-1)^d
    times the e_R coefficient of its dual equation at Q = K: the two sum,
    over the d-subsets u of K, sign(R, u) * P[R | u] * sign(u, K - u) *
    P[K - u] and sign(K - u, u) * P[K - u] * sign(u, R) * P[u | R], and the
    signs differ by (-1)^(d(s-d)) * (-1)^(ds) = (-1)^d.

    A slot sums C(s+d, d) products, one per d-subset u of K, each at most
    M^2 in size for M = max |lam * P|, so w = bit_length(C(s+d, d) * M^2) + 2
    bits hold it with room to spare.  A nonzero slot v, below 2^w in size,
    is not a multiple of 2^w, so the lowest set bit of a sum lies in its
    lowest nonzero slot, and a sum is 0 exactly when all its slots are.
    Chunks hold as many slots as keep keys x w x slots under
    ``_PACKED_BITS``, for C(|bits|, s+d) keys at most.
    """
    top = max(map(abs, ints.values()))
    w = (comb0(s + d, d) * top * top).bit_length() + 2
    slots = list(map(sum, combinations(bits, s - d)))
    per_chunk = max(1, _PACKED_BITS // (w * max(1, comb0(len(bits), s + d))))
    for i in range(0, len(slots), per_chunk):
        chunk = slots[i : i + per_chunk]
        # contracted once, so straight through the kernel, which looks each
        # term's subsets up in a phi this dense: a memo of the basis
        # contractions would add a call per slot and share nothing
        phi = {R: 1 << (w * j) for j, R in enumerate(chunk)}
        yield w, chunk, wedge_terms(interior_terms(phi, ints), ints)


def classical_pluecker(P: Multivector) -> CriterionReport:
    """Classical Pluecker relations: i(phi)P ^ P = 0 for all (s-1)-covectors.

    Linear in phi, so basis covectors decide the full quantifier.  On success
    ``equations_checked`` is C(n,s-1) * C(n,s+1), the number of scalar
    equations; on failure it counts equations confirmed zero up to and
    including the witness.
    """
    return _pluecker(P, "classical")


def dual_pluecker(P: Multivector) -> CriterionReport:
    """Dual Pluecker relations: i(i_P psi)P = 0 for all (s+1)-covectors psi.

    Vacuously true when s+1 > n (top forms are decomposable).
    """
    return _pluecker(P, "dual")


def improved_pluecker(P: Multivector) -> CriterionReport:
    """Two-index-lighter relations: i(psi)P ^ P = 0 for all (s-2)-covectors.

    For large n this is C(n,s-2)*C(n,s+2) scalar equations, fewer than the
    classical count once n >= 2s.  Grades below 2 are decomposable by
    convention and return a vacuous pass.
    """
    return _pluecker(P, "improved")


def dual_improved_pluecker(P: Multivector) -> CriterionReport:
    """Dual of the improved relations: i(i_P psi)P = 0 for (s+2)-covectors.

    Vacuously true when n < s+2; grades below 2 pass by convention (the
    contracted covector would outgrade the vector).
    """
    return _pluecker(P, "dual-improved")


# -- contraction criterion (evaluation at covector points) ------------------------


def _random_points(n, m, trials, seed, bound):
    """(points, phi) per trial: m seeded covectors and their wedge."""
    for t in range(trials):
        rng = random.Random(seed * 1_000_003 + t)
        coords = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
        points = [{1 << i: c for i, c in enumerate(vec) if c} for vec in coords]
        yield points, reduce(wedge_terms, points)


def _decomposable(k: int, omega: Mapping[int, int]) -> bool:
    """Whether the integer k-vector omega, k >= 2, is decomposable, decided
    by a pivot: a term I of omega, so omega_I != 0.  The zero k-vector is.

    The lemma.  For i in I let v_i = i(e^(I - i))omega, a vector read from
    the table of omega's basis contractions, and W = v_1 ^ ... ^ v_k over I
    in increasing order.  Then omega is decomposable exactly when
    W_I * omega = omega_I * W.

    * The v_i are independent.  The e_j coordinate of v_i, for j in I, is
      +-omega at (I - i) + j, a k-set only for j = i: the I-coordinates of
      v_i are +-omega_I at i and 0 elsewhere.  So W_I, their minor, is
      +-omega_I^k, not 0.
    * The condition is necessary.  If omega = u_1 ^ ... ^ u_k, every
      contraction of omega by a (k-1)-covector lies in U, the span of the
      u_j, so the k independent v_i are a basis of U and W is a multiple of
      omega; the I-coordinates name the factor, W_I / omega_I.
    * It suffices.  omega is then omega_I / W_I times the wedge W of k
      vectors.

    The same vectors give the lemma's other form, v_i ^ omega = 0 for each
    i: a nonzero v with v ^ omega = 0 divides omega, and k independent
    divisors make omega a multiple of their wedge.  Comparing omega with W
    costs the wedge of k vectors, not k wedges with omega, so it is the form
    used at k >= 3.

    At k = 2, with I = {a, b}, write omega = omega_I e_a ^ e_b + A + B + R:
    A the terms that hold a but not b, B those that hold b but not a, R
    those off I.  omega is decomposable exactly when omega ^ omega = 0, and
    the components of omega ^ omega that hold both a and b are
    2 (A ^ B + omega_I e_I ^ R) (2-vectors commute; every other pair of
    parts holds a or b twice or misses one).  That they vanish suffices:
    with A = e_a ^ alpha and B = e_b ^ beta, A ^ B = -e_I ^ alpha ^ beta,
    so omega_I R = alpha ^ beta, and then omega = (omega_I e_a - beta) ^
    (e_b + alpha / omega_I).  This costs |A| * |B| + |R| products.
    """
    if not omega:
        return True
    I = next(iter(omega))
    if k == 2:
        a = I & -I
        b = I ^ a
        A, B, R = {}, {}, {}
        # one pass: three _split calls made the whole decider 1.2-1.5x slower
        for m, c in omega.items():
            if m & a:
                if not m & b:
                    A[m] = c
            elif m & b:
                B[m] = c
            else:
                R[m] = c
        return wedge_terms(A, B) == wedge_terms({I: -omega[I]}, R)
    table = _Contractions(omega)
    W = reduce(wedge_terms, [table[I ^ 1 << (i - 1)] for i in indices_of(I)])
    w, o = W.get(I, 0), omega[I]
    return len(W) == len(omega) and all(w * c == o * W.get(m, 0) for m, c in omega.items())


def _tableau_points(indices, shape):
    """(points, phi) per tableau (I, J) of ``shape`` over ``indices``, in lex
    order: row t gives the terms of e^(I_t) + e^(J_t), one key when I_t = J_t,
    and phi is the left-to-right wedge of the points.  Tableaux share their
    leading rows, so the wedge of each proper row prefix is kept, keyed by
    the prefix, and phi costs one wedge past its longest kept prefix."""
    prefixes = {}
    for I, J in young._two_column_tableaux(indices, shape):
        rows = tuple(zip(I, J))
        points = [{1 << (i - 1): 1, 1 << (j - 1): 1} for i, j in rows]
        phi = points[0]
        for t in range(1, len(rows)):
            prefix = rows[: t + 1]
            kept = prefixes.get(prefix)
            if kept is None:
                kept = wedge_terms(phi, points[t])
                if t + 1 < len(rows):
                    prefixes[prefix] = kept
            phi = kept
        yield points, phi


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

    The Pluecker expressions F(a_1, ..., a_m) of the contraction, m = s-k,
    are quadratic in each a_i, so basis covectors alone do not suffice.

    The exact mode (named "symbolic") evaluates F at one point set per
    semistandard tableau (I, J) of the shape (m, m) over the indices P
    touches: the set {e^(I_t) + e^(J_t)}, with e^(I_t) alone when I_t = J_t,
    in the lex order of ``young._two_column_tableaux``.  This decides
    F == 0.  Every m-set of the grid {e^i} U {e^i + e^j} decides it: the grid
    is unisolvent for quadratic forms (q(e^i) = q_ii, q(e^i + e^j) = q_ii +
    q_jj + q_ij), so its m-fold product is unisolvent for forms quadratic in
    each a_i; F is symmetric in the a_i up to a sign that the quadratic
    relations absorb, and vanishes when two of them coincide.  And F is a
    quadratic form in the coordinates of phi = a_1 ^ ... ^ a_m inside the
    touched indices, since i(phi)P is linear in phi and i(e^I)P = 0 for I
    off them.  The products phi_I phi_J on the tableau sets span the same
    space as on the grid's sets, of dimension dim Y[m,m] (standard monomial
    theory, Doubilet-Rota-Stein 1974), so F vanishes on every grid set when
    it vanishes on the tableau sets.  When P touches at most s+1 indices it
    is decomposable (it lies in Lambda^s of that many dimensions) and no set
    is visited.

    Randomized mode evaluates at ``trials`` seeded integer tuples drawn from
    [-bound, bound]: a nonzero evaluation certifies failure, while an
    all-zero run yields a pass flagged as probabilistic.

    Both modes loop over sets of m sparse covectors (the exact mode wedges
    each set's phi onto the kept wedge of its longest seen row prefix), read
    i(phi)(lam * P) through one lazy table of the basis contractions of lam
    * P, the integer multiple ``_cleared`` gives, and decide it by a pivot
    (``_decomposable``): at k = 2 the components of omega ^ omega that hold
    one term's pair of indices, at k >= 3 the wedge of omega's contractions
    by the (k-1)-subsets of one term.  A set the pivot accepts satisfies
    every improved equation, which decide decomposability for every k >= 2;
    only the first set it rejects runs the improved sweep, which names the
    failing equation (with k = s, P itself is swept).  A rejected set on
    which the sweep finds no failing equation raises InvariantViolation.
    The one report is formed after the loop, with the witness of the
    failing set, whose value ``_witness`` divides by lam^2, so it is P's
    own.  ``equations_checked`` counts C(n,k-2)*C(n,k+2) per set or trial:
    on a pass, for all dim Y[m,m] tableaux over 1..n or all trials; on a
    failure, for the t sets or trials before the witness, plus the witness
    check's own.  The witness names the failing set or trial by t, with its
    coordinate tuples ``alphas``.
    """
    require_vector(P, "P")
    if not _is_int(k) or k < 2:
        raise InputError(f"contraction order k must be an integer >= 2, got {k}")
    if mode not in ("symbolic", "randomized"):
        raise InputError(f"mode must be 'symbolic' or 'randomized', got {mode!r}")
    if mode == "randomized":
        for what, value in (("trials", trials), ("seed", seed), ("bound", bound)):
            if not _is_int(value):
                raise InputError(f"{what} must be an integer, got {value!r}")
        if trials < 1:
            raise InputError(f"trials must be >= 1, got {trials}")
        if bound < 1:
            raise InputError(f"bound must be >= 1, got {bound}")
    n, s = P.dim, P.grade
    name = f"contraction(k={k})"
    if s < 2:
        return CriterionReport(name, True, 0)
    if k > s:
        raise InputError(f"k must satisfy 2 <= k <= grade={s}, got {k}")
    m = s - k
    exact = mode == "symbolic"
    report_seed = None if exact else seed
    if m == 0:
        return _pluecker(P, "improved", name, report_seed)
    if exact:
        label, shape = "point", young.TwoColumnShape(m, m)
        touched = touched_indices(P.terms)
        point_sets = _tableau_points(touched if len(touched) > s + 1 else (), shape)
        total = young.young_dim(n, shape)
    else:
        label = "trial"
        point_sets, total = _random_points(n, m, trials, seed, bound), trials
    lam, ints = _cleared(P.terms)
    table = _Contractions(ints)
    per = _count(n, k, "improved")
    for t, (points, phi) in enumerate(point_sets):
        omega = table.interior(phi)
        if _decomposable(k, omega):
            continue
        failure = _sweep(k, omega, "improved")
        if failure is None:
            raise InvariantViolation(f"the pivot and the improved sweep disagree at {label} {t}")
        alphas = [tuple(a.get(1 << x, 0) for x in range(n)) for a in points]
        lead = f"{label} {t}, alphas={alphas}: "
        checked, witness = _witness(n, lam, "improved", *failure, (t, tuple(alphas)), lead)
        return CriterionReport(name, False, t * per + checked, witness, seed=report_seed)
    return CriterionReport(name, True, total * per, probabilistic=not exact, seed=report_seed)


# -- optimal irreducible-component test -------------------------------------------


def optimal_component_test(P: Multivector) -> CriterionReport:
    """Vanishing of the component of P (x) P in the two-column shape (s+2, s-2).

    The test reads the semistandard coordinates of the projection, which
    index a basis of the component, in the order of
    ``young.iter_projection_blocks``: tableau (a, b) of the shape (s-2, s-2)
    in lex order, then the 4-subset above a_k in lex order.  The first
    nonzero one is the witness.  Every block is one oriented split sum on
    lam * P (cleared denominators) through one contraction table.  The first
    tableau's is evaluated directly; past it, the tableaux that differ only
    in their last bottom entry are decided together by that sum at a packed
    covector, and only a group with a nonzero block is evaluated tableau by
    tableau, so the witness is that of the one-at-a-time scan; its value,
    block[F] / denom with lam^2 in denom, is P's own, a Fraction.
    ``equations_checked`` counts the coordinates over 1..n up to and
    including the witness in that order, or all dim Y[s+2,s-2] of them
    (``equation_count``) on a pass; a coordinate that holds an index P does
    not touch is zero, so only those inside are visited.  Below grade 2
    there is no such component: the test passes with 0.
    """
    require_vector(P, "P")
    n = P.dim
    for pairs, block, denom in young.iter_projection_blocks(P):
        if block:
            comp, raw = _first_component(block)
            val = Fraction(raw, denom)
            top, bottom = tuple(a for a, _ in pairs), tuple(b for _, b in pairs)
            cut = top[-1] if top else 0
            checked = young._tableau_rank(top, bottom, n, 4) + subset_rank(
                [c - cut for c in comp], n - cut
            )
            pair_txt = ",".join("{%d,%d}" % p for p in pairs) or "-"
            witness = Witness(
                equation=(pairs, comp),
                component=comp,
                value=val,
                text=f"pairs=({pair_txt}), skew over e_{{{_fmt(comp)}}}: coefficient = {val}",
            )
            return CriterionReport("optimal", False, checked, witness)
    return CriterionReport("optimal", True, _count(n, P.grade, "optimal"))


# -- rank oracle, factorization, families -----------------------------------------


def is_simple_oracle(P: Multivector) -> bool:
    """Decomposability by the minimal-subspace rank: rank(support) == grade.

    The zero multivector is decomposable by convention.
    """
    return oracle_report(P).verdict


def oracle_report(P: Multivector) -> CriterionReport:
    """The rank oracle packaged as a report (for CLI and agreement checks).

    Only the rank is read: the support space's generator rows go straight
    to ``linalg.rank``, with no back-substitution and no basis built.
    """
    require_vector(P, "P")
    n, s = P.dim, P.grade
    generators = comb0(n, s - 1)
    if P.is_zero():
        return CriterionReport("oracle", True, generators)
    r = linalg.rank(_support_rows(P))
    if r == s:
        return CriterionReport("oracle", True, generators)
    witness = Witness(("support-rank", r), (), r, f"support rank {r} != grade {s}")
    return CriterionReport("oracle", False, generators, witness)


def kernel_dimension(P: Multivector) -> int:
    """dim of {v : v ^ P = 0}, via the rank of wedging into grade s+1.

    Independent cross-check of the support-space oracle: the dimension equals
    the grade exactly for nonzero decomposable multivectors.
    """
    require_vector(P, "P")
    n = P.dim
    # Scaling P keeps the kernel: clear its denominators so that the wedges
    # and the elimination run on integers, not Fractions.
    _, terms = _cleared(P.terms)
    rows = [wedge_terms({1 << i: 1}, terms) for i in range(n)]
    cols = sorted(set().union(*rows))
    return n - linalg.rank([[row.get(m, 0) for m in cols] for row in rows])


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
    overall coefficient), or None when P is not decomposable.  The zero
    multivector yields grade-1 zero factors; grade 0 has no vector factors
    and raises InputError.

    The factors are P's reduced support basis, the first scaled by P's
    coefficient at the basis pivots, where the basis wedge is 1.  The check
    that they wedge to P runs in integers: each basis vector cleared of its
    denominators, the vectors wedge to W = D * (basis wedge), D the product
    of their scales, so the check is c * W == D * P', for P' the integer
    multiple of P that ``_cleared`` gives and c its pivot coefficient.  A
    mismatch raises InvariantViolation.
    """
    require_vector(P, "P")
    s = P.grade
    if s == 0:
        raise InputError("a grade-0 multivector has no vector factors")
    if P.is_zero():
        return [Multivector.zero(P.dim, 1) for _ in range(s)]
    space = support_space(P)
    if space.rank != s:
        return None
    pivots = sum(min(v.terms) for v in space.basis)  # RREF: the basis wedge is 1 here
    scale, wedged = _cleared(space.basis[0].terms)
    for v in space.basis[1:]:
        d, terms = _cleared(v.terms)
        scale *= d
        wedged = wedge_terms(wedged, terms)
    _, p_terms = _cleared(P.terms)
    c = p_terms.get(pivots, 0)
    if {m: c * w for m, w in wedged.items()} != {m: scale * x for m, x in p_terms.items()}:
        raise InvariantViolation("factor recovery produced a mismatched wedge")
    return [P.terms[pivots] * space.basis[0], *space.basis[1:]]


def _count(n: int, s: int, criterion: str) -> int:
    """The pass count of a linear criterion or the optimal test, for any
    grade s >= 0: ``equation_count`` without its input checks."""
    if criterion == "optimal":
        return young.young_dim(n, young.TwoColumnShape(s + 2, s - 2)) if s >= 2 else 0
    shift = _LINEAR[criterion][0]
    return comb0(n, s - shift) * comb0(n, s + shift)


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
    check_dim(n)
    if not (_is_int(s) and 0 <= s <= n):
        raise InputError(f"need 0 <= s <= n, got s={s}, n={n}")
    if criterion not in COUNTED:
        raise InputError(f"unknown criterion {criterion!r}")
    return _count(n, s, criterion)


# -- families and the span/intersection dichotomy ---------------------------------


class ThreePlaneBranch(Enum):
    SPAN_BOUND = "span-bound"
    INTERSECTION_BOUND = "intersection-bound"
    BOTH = "both"


class DecomposableFamily(_Record):
    """A family of nonzero decomposable k-vectors with decomposable pairwise
    sums; both properties are validated on construction."""

    __slots__ = ("members",)

    def __init__(self, members: Sequence[Multivector]):
        members = tuple(members)
        _store(self, "members", members)
        if not members:
            raise InputError("family must be nonempty")
        first = members[0]
        for i, p in enumerate(members):
            require_vector(p, f"family member {i}")
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
    InvariantViolation.  The span's dimension is the rank of all support
    rows; the common intersection is taken once over all members, as the
    complement of the sum of their complements.
    """
    k = family.grade
    rows = [support_space(p).coordinate_rows() for p in family.members]
    span_dim = linalg.rank([row for member in rows for row in member])
    inter_dim = len(linalg.intersect_row_spaces(*rows))
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


# name -> criterion, in report order with the oracle last.
CRITERIA = {
    "classical": classical_pluecker,
    "dual": dual_pluecker,
    "improved": improved_pluecker,
    "dual-improved": dual_improved_pluecker,
    "contraction": contraction_criterion,
    "optimal": optimal_component_test,
    "oracle": oracle_report,
}
# The criteria that ``equation_count`` knows.
COUNTED = (*_LINEAR, "optimal")


def run_criterion(P: Multivector, name: str, **contraction_opts) -> CriterionReport:
    """The report of one criterion of ``CRITERIA``; the options (k, mode,
    trials, seed, bound) reach the contraction criterion only."""
    if name not in CRITERIA:
        raise InputError(f"unknown criterion {name!r}; known: {', '.join(CRITERIA)}")
    if name == "contraction":
        return CRITERIA[name](P, **contraction_opts)
    return CRITERIA[name](P)


def run_all_criteria(P: Multivector, **contraction_opts) -> list[CriterionReport]:
    """The report of every criterion of ``CRITERIA`` for P, oracle last; the
    options (k, mode, trials, seed, bound) reach the contraction criterion
    only.  Grades 0 and 1 pass every criterion."""
    return [run_criterion(P, name, **contraction_opts) for name in CRITERIA]
