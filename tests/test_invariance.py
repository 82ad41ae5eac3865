"""Metamorphic tests: decomposability is invariant under signed index
permutations, nonzero scalings, GL(n, Z) and the Hodge complement, so every
verdict must be too.  A scaling by lam also keeps every count and witness
position, in both contraction modes, and scales each witness value by
lam**2."""

from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations, permutations

from plk import (
    Multivector,
    contraction_criterion,
    criteria,
    factorize,
    is_simple_oracle,
    kernel_dimension,
    multivector,
    run_all_criteria,
    support_space,
    young,
)
from plk.multivector import _Contractions, indices_of, mask_of
from plk.randgen import random_nonsimple, random_simple

from util import rand_mv, seeded, sparse_rank

# Fraction(1) makes an int input's twin with every coefficient Fraction(c, 1),
# which multivector._cleared must hand on as ints, so every report, count and
# witness of the twin equals the input's, each witness value in type too.
SCALES = (Fraction(1, 3), Fraction(5, 7), -2, Fraction(1))
CELLS = [(4, 2), (5, 2), (5, 3), (6, 3), (6, 4), (7, 2), (7, 3), (7, 4), (4, 4)]
RANDOMIZED = {"mode": "randomized", "trials": 8, "seed": 5, "bound": 7}


def act(perm, signs, p, scale=1):
    """scale * g(P), where g sends e_i to signs[i] * e_perm[i]; e_I goes to
    the wedge of the images, whose sorting sign is an inversion count."""
    terms = {}
    for m, c in p.terms.items():
        idx = indices_of(m)
        image = [perm[i] for i in idx]
        sign = (-1) ** sum(a > b for a, b in combinations(image, 2))
        for i in idx:
            sign *= signs[i]
        terms[mask_of(image)] = scale * sign * c
    return Multivector(p.dim, p.grade, terms)


def verdicts(p):
    return [(rep.criterion, rep.verdict) for rep in run_all_criteria(p)]


def assert_scaled(reports, scaled, lam):
    """The reports of lam * P against those of P: every verdict, count and
    witness position stays; a witness value scales by exactly lam**2 (each
    equation is quadratic in P), except the oracle's, a rank, which stays.
    At lam == 1 each value keeps its type too (an int is not a Fraction)."""
    assert len(scaled) == len(reports)
    for rep, got in zip(reports, scaled):
        assert (got.criterion, got.verdict, got.equations_checked) == (
            rep.criterion, rep.verdict, rep.equations_checked
        ), lam
        if rep.witness is None:
            assert got.witness is None, (rep.criterion, lam)
            continue
        w, v = rep.witness, got.witness
        assert (v.equation, v.component) == (w.equation, w.component), (rep.criterion, lam)
        factor = 1 if rep.criterion == "oracle" else lam * lam
        assert v.value == factor * w.value, (rep.criterion, lam)
        if lam == 1:
            assert repr(v.value) == repr(w.value), (rep.criterion, lam)


def test_signed_permutations_and_scalings_keep_every_verdict():
    rng = seeded(901)
    witnessed = set()
    # each cell twice, with two different scales
    cases = [(n, s, SCALES[(pos + rnd) % len(SCALES)])
             for rnd in range(2) for pos, (n, s) in enumerate(CELLS)]
    for n, s, scale in cases:
        for p in (random_simple(rng, n, s, 3), rand_mv(rng, n, s, bound=4, max_terms=4)):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            perm = dict(zip(range(1, n + 1), images))
            signs = {i: rng.choice((1, -1)) for i in range(1, n + 1)}
            q = act(perm, signs, p, scale)
            reports = run_all_criteria(p)
            randomized = [contraction_criterion(p, **RANDOMIZED)]
            witnessed.update(rep.criterion for rep in reports + randomized if rep.witness)
            for lam in SCALES:
                assert_scaled(reports, run_all_criteria(p * lam), lam)
                assert_scaled(randomized, [contraction_criterion(p * lam, **RANDOMIZED)], lam)
            before = [(rep.criterion, rep.verdict) for rep in reports]
            assert verdicts(q) == before, (str(p), str(q))
            assert kernel_dimension(q) == kernel_dimension(p), str(p)
            if all(verdict for _, verdict in before):
                moved = [act(perm, signs, v).terms for v in support_space(p).basis]
                factors = [f.terms for f in factorize(q)]
                assert sparse_rank(moved) == sparse_rank(factors) == s, str(p)
                assert sparse_rank(moved + factors) == s, (str(p), str(q))
    # every criterion failed somewhere, the randomized contraction too
    assert witnessed == {rep.criterion for rep in reports + randomized}


def unimodular(rng, n, steps=8):
    """A seeded integer matrix of determinant +-1: a product of elementary
    matrices (add c times one row to another), then perhaps a swap of two
    rows with one of them negated or not."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
    if rng.getrandbits(1):
        i, j = rng.sample(range(n), 2)
        sign = rng.choice((1, -1))
        g[i], g[j] = g[j], [sign * a for a in g[i]]
    return g


def leibniz_det(a):
    """Determinant as the signed sum over permutations."""
    total = 0
    for sigma in permutations(range(len(a))):
        sign = (-1) ** sum(x > y for x, y in combinations(sigma, 2))
        term = sign
        for row, col in enumerate(sigma):
            term *= a[row][col]
        total += term
    return total


def act_gl(g, p):
    """g(P) on Lambda^s: e_J goes to the sum over I of det(g[I, J]) e_I, the
    s x s minor of g with rows I and columns J (1-based index sets)."""
    terms = {}
    for I in combinations(range(1, p.dim + 1), p.grade):
        c = sum(
            leibniz_det([[g[i - 1][j - 1] for j in indices_of(m)] for i in I]) * v
            for m, v in p.terms.items()
        )
        if c:
            terms[mask_of(I)] = c
    return Multivector(p.dim, p.grade, terms)


def test_unimodular_maps_keep_every_verdict_and_move_the_factors():
    rng = seeded(902)
    for n, s in [(3, 2), (4, 2), (5, 2), (5, 3), (6, 3), (6, 4)] * 3:
        for p in (random_simple(rng, n, s, 3), rand_mv(rng, n, s, bound=4, max_terms=4)):
            g = unimodular(rng, n)
            q = act_gl(g, p)
            before = verdicts(p)
            assert verdicts(q) == before, (g, str(p))
            assert kernel_dimension(q) == kernel_dimension(p), (g, str(p))
            if all(verdict for _, verdict in before):
                moved = [act_gl(g, v).terms for v in support_space(p).basis]
                factors = [f.terms for f in factorize(q)]
                assert sparse_rank(moved) == sparse_rank(factors) == s, (g, str(p))
                assert sparse_rank(moved + factors) == s, (g, str(p))


def hodge(p):
    """The complement *P of grade n - s: e_S goes to sign(S, S^c) e_{S^c},
    the sign of the permutation listing S and then S^c."""
    full = (1 << p.dim) - 1
    terms = {}
    for m, c in p.terms.items():
        order = indices_of(m) + indices_of(full ^ m)
        sign = (-1) ** sum(a > b for a, b in combinations(order, 2))
        terms[full ^ m] = sign * c
    return Multivector(p.dim, p.dim - p.grade, terms)


def test_hodge_complement_keeps_every_verdict():
    # *P is decomposable exactly when P is.  Dropping the sign from * gives
    # *P composed with diag((-1)^i), a GL(n) map, so this pins the criteria
    # across complementary grades, not the sign of * itself.
    rng = seeded(903)
    cells = [(n, s) for n in range(4, 8) for s in range(2, n - 1)]
    for n, s in cells * 2:
        masks = [mask_of(c) for c in combinations(range(1, n + 1), s)]
        sparse = Multivector(
            n, s, {m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in rng.sample(masks, 3)}
        )
        for p in (random_simple(rng, n, s, 3), random_nonsimple(rng, n, s, 3), sparse):
            q = hodge(p)
            before = verdicts(p)
            assert verdicts(q) == before, (str(p), str(q))
            oracle = is_simple_oracle(p)
            assert all(verdict == oracle for _, verdict in before), str(p)


# A grade-4 Fraction input touching 1..8 whose optimal witness lies past the
# first group of tableaux, pairs ((1, 1), (2, b)), at pairs ((1, 4), (3, 5)).
PAST_FIRST_GROUP = Multivector(8, 4, {
    mask_of((1, 3, 4, 5)): Fraction(2, 7),
    mask_of((2, 3, 4, 5)): Fraction(1, 7),
    mask_of((4, 5, 6, 8)): Fraction(-3, 2),
    mask_of((4, 5, 7, 8)): -1,
})


def test_a_fraction_input_failing_past_the_first_optimal_group_keeps_its_pins():
    # The optimal test decides the tableaux after its first in groups that
    # differ only in b_k.  Every criterion fails on PAST_FIRST_GROUP with
    # these counts, witness positions and values, and at every scale lam the
    # positions and counts stay while each value scales by lam**2.
    P = PAST_FIRST_GROUP
    reports = run_all_criteria(P)
    assert [
        (rep.criterion, rep.verdict, rep.equations_checked,
         rep.witness.equation, rep.witness.component, rep.witness.value)
        for rep in reports
    ] == [
        ("classical", False, 668, ((1, 4, 5),), (3, 4, 5, 6, 8), Fraction(-3, 7)),
        ("dual", False, 1169, ((1, 3, 4, 5, 6),), (4, 5, 8), Fraction(-3, 7)),
        ("improved", False, 521, ((4, 5),), (1, 3, 4, 5, 6, 8), Fraction(-6, 7)),
        ("dual-improved", False, 467, ((1, 3, 4, 5, 6, 8),), (4, 5), Fraction(-6, 7)),
        ("contraction(k=2)", False, 1284,
         (18, ((1, 0, 0, 1, 0, 0, 0, 0), (0, 1, 0, 0, 1, 0, 0, 0)), ()),
         (1, 3, 6, 8), Fraction(-6, 7)),
        ("optimal", False, 507, (((1, 4), (3, 5)), (4, 5, 6, 8)), (4, 5, 6, 8),
         Fraction(-1, 28)),
        ("oracle", False, 56, ("support-rank", 6), (), 6),
    ]
    randomized = [contraction_criterion(P, **RANDOMIZED)]
    assert not randomized[0].verdict
    for lam in SCALES:
        assert_scaled(reports, run_all_criteria(P * lam), lam)
        assert_scaled(randomized, [contraction_criterion(P * lam, **RANDOMIZED)], lam)


def test_no_kernel_sees_a_fraction(monkeypatch):
    # Every quadratic criterion clears P's denominators once, at its entry
    # (multivector._cleared), and runs on the integer multiple lam * P: no
    # term kernel below it, nor the contraction table behind it, is handed a
    # Fraction coefficient, on passing and failing inputs at grades 2-5, in
    # every mode of the contraction.
    calls = {}

    def ints_only(name, kernel):
        def checked(*args):
            for arg in args:
                if isinstance(arg, _Contractions):
                    arg = arg.terms
                if isinstance(arg, Mapping):
                    assert all(type(c) is int for c in arg.values()), (name, arg)
            calls[name] = calls.get(name, 0) + 1
            return kernel(*args)
        return checked

    kernels = [(criteria, "wedge_terms"), (criteria, "interior_terms"),
               (young, "wedge_terms"), (young, "_square_terms"),
               (multivector, "interior_terms"), (_Contractions, "interior")]
    for owner, name in kernels:
        monkeypatch.setattr(owner, name, ints_only(name, getattr(owner, name)))
    rng = seeded(904)
    inputs = [PAST_FIRST_GROUP]
    for n, s in [(6, 2), (8, 2), (7, 3), (9, 3), (8, 4), (8, 5)]:
        inputs += [random_simple(rng, n, s, 4), random_nonsimple(rng, n, s, 4),
                   rand_mv(rng, n, s, bound=5, max_terms=3)]
    verdicts = set()
    for P in inputs:
        for lam in (Fraction(1, 3), Fraction(-5, 7)):
            Q = P * lam
            reports = run_all_criteria(Q) + [contraction_criterion(Q, **RANDOMIZED)]
            if Q.grade >= 3:
                reports.append(contraction_criterion(Q, k=3))
            verdicts.update((rep.criterion, rep.verdict) for rep in reports)
    assert {name for _, name in kernels} <= set(calls)
    # every criterion passed on some input and failed on another
    assert verdicts == {(name, verdict) for name, _ in verdicts for verdict in (True, False)}
