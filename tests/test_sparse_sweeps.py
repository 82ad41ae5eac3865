"""Sweeps on inputs that touch a strict subset of the indices.

Golden ``plk check --criterion X`` lines for sparse inputs at n = 12; a
relabeling test (a monotone index map into a larger space keeps every
verdict and moves each witness index by index); and test-local reference
sweeps that count ``equations_checked`` one quantifier at a time: one that
visits every basis covector, one that visits every semistandard coordinate
of the optimal test over 1..n, and one that scans the contraction
criterion's tableau point sets.  The references list tableaux by filtering
pairs of columns, not through the library's enumerator, and read the
optimal test's values from the lex family of ``tests/reference.py``.
"""

import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb

import pytest

from plk import (
    Multivector,
    contraction_criterion,
    equation_count,
    interior,
    run_all_criteria,
    wedge,
)
from plk.cli import main
from plk.criteria import CRITERIA
from plk.randgen import random_simple
from plk.serialize import dump
from plk.young import TwoColumnShape, young_dim

from reference import contract_by_definition, project_tensor_square
from util import rand_mv, seeded

SWEPT = ("classical", "dual", "improved", "dual-improved", "optimal")


def e(dim, *idx):
    return Multivector.basis(dim, idx)


SPARSE_INPUTS = {
    "blade-12-4": lambda: e(12, 2, 5, 9, 11),
    "blade-12-5": lambda: e(12, 1, 2, 3, 4, 5),
    "face-12-3": lambda: e(12, 1, 2, 3) + e(12, 1, 2, 7),
    "nonsimple-12-3": lambda: e(12, 2, 4, 6) + e(12, 3, 8, 11),
}


@pytest.mark.parametrize("criterion", (*SWEPT, "contraction"))
@pytest.mark.parametrize("name", SPARSE_INPUTS)
def test_sparse_stdout_is_golden(name, criterion, tmp_path, capsys):
    path = str(tmp_path / f"{name}.json")
    dump(SPARSE_INPUTS[name](), path)
    code = main(["check", "--criterion", criterion, path])
    assert (code, capsys.readouterr().out) == SPARSE_STDOUT[(name, criterion)]


BLADES = (
    *((criterion, n, s) for n, s in ((16, 6), (32, 8), (64, 32)) for criterion in SWEPT[:4]),
    ("optimal", 16, 6),
    ("optimal", 24, 6),
)


def pass_line(criterion, n, s):
    """The report line of a pass: every sweep counts its whole quantifier."""
    name = criterion
    if criterion == "contraction":  # one point set per tableau of Y[s-2,s-2], C(n,4) each
        name = "contraction(k=2)"
        count = young_dim(n, TwoColumnShape(s - 2, s - 2)) * comb(n, 4)
    elif criterion == "oracle":
        count = comb(n, s - 1)
    else:
        count = equation_count(n, s, criterion)
    return f"{name:<18} true   equations={count}\n"


def check_in_child(P, tmp_path, *args):
    # in a child with a timeout, so a sweep that visits every quantifier of
    # the ambient dimension, not just those inside P, fails the test
    path = str(tmp_path / "p.json")
    dump(P, path)
    proc = subprocess.run(
        [sys.executable, "-m", "plk", "check", *args, path],
        capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("criterion,n,s", BLADES)
def test_blade_sweeps_finish_within_a_timeout(criterion, n, s, tmp_path):
    out = check_in_child(e(n, *range(1, s + 1)), tmp_path, "--criterion", criterion)
    assert out == (0, pass_line(criterion, n, s) + "result: simple\n")


@pytest.mark.parametrize("n,s", ((16, 6), (32, 8), (64, 32)))
def test_default_check_on_blades_finishes_within_a_timeout(n, s, tmp_path):
    lines = "".join(pass_line(criterion, n, s) for criterion in CRITERIA)
    assert check_in_child(e(n, *range(1, s + 1)), tmp_path) == (0, lines + "result: simple\n")


@pytest.mark.parametrize("criterion", ("optimal", "contraction"))
@pytest.mark.parametrize("n,s", ((9, 8), (10, 9)))
def test_inputs_touching_at_most_s_plus_1_indices_pass_at_once(criterion, n, s, tmp_path):
    # P lies in Lambda^s of an (s+1)-dimensional space, so it is decomposable
    P = rand_mv(seeded(14, n), n, s, bound=3)
    out = check_in_child(P, tmp_path, "--criterion", criterion)
    assert out == (0, pass_line(criterion, n, s) + "result: simple\n")


def test_dense_high_grade_optimal_finishes_within_a_timeout(tmp_path):
    # A lex scan of the whole family visits 5,006,386 pair tuples here; the
    # semistandard coordinates decide the pass.
    P = random_simple(seeded(15, 10, 7), 10, 7, 3)
    assert len(P.terms) == comb(10, 7)
    out = check_in_child(P, tmp_path, "--criterion", "optimal")
    assert out == (0, pass_line("optimal", 10, 7) + "result: simple\n")


def test_dense_high_grade_default_check_finishes_within_a_timeout(tmp_path):
    # The exact contraction's full grid holds 148,995 point sets here; its
    # tableau sets, which decide the pass, are dim Y[4,4] = 5,292.
    P = random_simple(seeded(15, 9, 6), 9, 6, 3)
    assert len(P.terms) == comb(9, 6)
    lines = "".join(pass_line(criterion, 9, 6) for criterion in CRITERIA)
    assert check_in_child(P, tmp_path) == (0, lines + "result: simple\n")


# -- relabeling ------------------------------------------------------------------


def relabel(P, f, dim):
    """P with every index i renamed f[i], in dimension ``dim``."""
    return Multivector.from_terms(
        dim, P.grade, [(tuple(f[i] for i in idx), c) for idx, c in P.items()]
    )


def relabel_equation(criterion, equation, f):
    if criterion == "optimal":
        pairs, comp = equation
        return tuple((f[a], f[b]) for a, b in pairs), tuple(f[i] for i in comp)
    (S,) = equation
    return (tuple(f[i] for i in S),)


@pytest.mark.parametrize("trial", range(12))
def test_monotone_relabeling_keeps_verdicts_and_moves_witnesses(trial):
    rng = seeded(9, trial)
    n, s = rng.choice(((4, 2), (5, 2), (5, 3), (6, 3)))
    P = rand_mv(rng, n, s, bound=3, max_terms=3)
    big = n + 3
    f = dict(zip(range(1, n + 1), sorted(rng.sample(range(1, big + 1), n))))
    Q = relabel(P, f, big)
    small = {r.criterion: r for r in run_all_criteria(P)}
    large = {r.criterion: r for r in run_all_criteria(Q)}
    assert {c: r.verdict for c, r in small.items()} == {c: r.verdict for c, r in large.items()}
    for criterion in SWEPT:
        a, b = small[criterion].witness, large[criterion].witness
        if a is None:
            assert b is None
            continue
        assert b.equation == relabel_equation(criterion, a.equation, f)
        assert b.component == tuple(f[i] for i in a.component)
        assert b.value == a.value


# -- reference sweep ---------------------------------------------------------------


def position(subset, n):
    """1-based lex position of a subset among the subsets of its size."""
    return list(combinations(range(1, n + 1), len(subset))).index(tuple(subset)) + 1


LINEAR_SHIFT = {"classical": (1, False), "dual": (1, True),
                "improved": (2, False), "dual-improved": (2, True)}


def reference_linear(P, criterion):
    """(verdict, equations_checked, witness quantifier, witness component
    and value) from a sweep over every basis covector, adding C(n, output
    grade) per zero quantifier."""
    shift, dual = LINEAR_SHIFT[criterion]
    n, s = P.dim, P.grade
    if s < shift:
        return True, 0, None, None
    quant = s + shift if dual else s - shift
    out_grade = s - shift if dual else s + shift
    per = len(list(combinations(range(n), out_grade)))
    checked = 0
    for S in combinations(range(1, n + 1), quant):
        q = Multivector.basis(n, S, dual=True)
        out = interior(contract_by_definition(P, q), P) if dual else wedge(interior(q, P), P)
        if out.terms:
            comp, value = out.items()[0]
            return False, checked + position(comp, n), (S,), (comp, value)
        checked += per
    return True, checked, None, None


def tableaux(entries, m):
    """The tableaux of shape (m, m) with the given increasing entries, as
    (A, B) in lex order, by filtering every pair of columns: rows weakly
    increase, A[t] <= B[t]."""
    return [
        (A, B)
        for A in combinations(entries, m)
        for B in combinations(entries, m)
        if all(x <= y for x, y in zip(A, B))
    ]


def reference_optimal(P):
    """The same for the optimal test, over every semistandard coordinate of
    1..n in its scan order: tableau (A, B) of shape (s-2, s-2), then the
    4-subset above A's last entry.  Values come from the lex family's map."""
    n, k = P.dim, P.grade - 2
    if k < 0:
        return True, 0, None, None
    projection = project_tensor_square(P)
    checked = 0
    for A, B in tableaux(range(1, n + 1), k):
        pairs = tuple(zip(A, B))
        for comp in combinations(range(A[-1] + 1 if A else 1, n + 1), 4):
            checked += 1
            if (pairs, comp) in projection:
                return False, checked, (pairs, comp), (comp, projection[pairs, comp])
    return True, checked, None, None


def reference_input(trial):
    """Seeded inputs: int ones with 1 to 12 terms at n <= 7 (trials below
    60), then at n <= 8 Fraction-scaled ones and dense decomposable ones,
    the last eight of them Fraction-scaled too (below 96), then dense
    near-decomposable ones, every other one Fraction-scaled: U ^ (v1^v2 +
    v3^v4) with U a wedge of s-2 vectors (below 104), and v ^ (Q1 + Q2) with
    Q1, Q2 wedges of s-1 vectors; at grade 4 the latter is the paper's
    example of a P with P_[abcd P_efgh] = 0 that is not simple."""
    rng = seeded(10, trial)
    if trial < 60:
        n = rng.randint(4, 7)
        s = rng.randint(2, n - 2)
        return rand_mv(rng, n, s, bound=3, max_terms=rng.choice((1, 2, 4, 12)))
    n = rng.randint(4, 8)
    s = rng.randint(2, min(n - 2, 4))
    scale = Fraction(rng.randint(1, 5), rng.randint(6, 9))
    if trial < 80:
        return rand_mv(rng, n, s, bound=3, max_terms=rng.choice((3, 8, 30))) * scale
    if trial < 96:
        return random_simple(rng, n, s, bound=2) * (scale if trial >= 88 else 1)
    scale = scale if trial % 2 else 1
    if trial < 104:
        n = rng.randint(6, 8)
        s = rng.randint(2, min(n - 4, 4))
        vs = [random_simple(rng, n, 2, bound=2) for _ in range(2)]
        if s == 2:
            return (vs[0] + vs[1]) * scale
        return wedge(random_simple(rng, n, s - 2, bound=2), vs[0] + vs[1]) * scale
    n = rng.randint(7, 8)
    s = rng.randint(3, 4)
    Q1, Q2 = (random_simple(rng, n, s - 1, bound=2) for _ in range(2))
    return wedge(random_simple(rng, n, 1, bound=2), Q1 + Q2) * scale


@pytest.mark.parametrize("trial", range(112))
def test_equations_checked_matches_a_full_reference_sweep(trial):
    # verdict, equations_checked and the whole witness: its quantifier,
    # component and value
    P = reference_input(trial)
    for criterion in SWEPT:
        rep = CRITERIA[criterion](P)
        ref = reference_optimal(P) if criterion == "optimal" else reference_linear(P, criterion)
        w = rep.witness
        got = (w.equation, (w.component, w.value)) if w else (None, None)
        assert (rep.verdict, rep.equations_checked, *got) == ref, (criterion, str(P))


def draws(n, m, trials, seed, bound):
    for t in range(trials):
        rng = random.Random(seed * 1_000_003 + t)
        yield [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(m)]


def tableau_sets(P, m):
    """The exact mode's point sets: e^(I_t) + e^(J_t), or e^(I_t) when
    I_t = J_t, for each tableau (I, J) of shape (m, m) over the indices P's
    terms hold, as coordinates."""
    n = P.dim
    held = sorted({i for idx, _ in P.items() for i in idx})
    return [
        [tuple(int(x in (i, j)) for x in range(1, n + 1)) for i, j in zip(I, J)]
        for I, J in tableaux(held, m)
    ]


def reference_contraction(P, k, mode, trials, seed, bound):
    """(verdict, equations_checked, witness equation) of the contraction
    criterion from a scan over the tableau point sets (or every trial),
    adding up the equations of each inner improved check.  A pass counts
    one set per tableau over 1..n (or every trial)."""
    n, s = P.dim, P.grade
    inner = CRITERIA["improved"]
    if s == k:
        rep = inner(P)
        return rep.verdict, rep.equations_checked, rep.witness and rep.witness.equation
    if mode == "symbolic":
        tuples = tableau_sets(P, s - k)
        total = len(tableaux(range(1, n + 1), s - k))
    else:
        tuples = draws(n, s - k, trials, seed, bound)
        total = trials
    checked = 0
    for t, coords in enumerate(tuples):
        covectors = [
            Multivector(n, 1, {1 << i: c for i, c in enumerate(v) if c}, dual=True)
            for v in coords
        ]
        rep = inner(interior(reduce(wedge, covectors), P))
        checked += rep.equations_checked
        if not rep.verdict:
            return False, checked, (t, tuple(coords)) + rep.witness.equation
    return True, total * comb(n, k - 2) * comb(n, k + 2), None


def seeded_input(trial):
    """A seeded dense, sparse (few terms, so often fewer than n indices
    touched), Fraction or decomposable input with n <= 7."""
    rng = seeded(12, trial)
    n = rng.randint(2, 7)
    s = rng.randint(2, n)
    kind = rng.choice(("dense", "sparse", "fraction", "simple"))
    if kind == "simple":
        return random_simple(rng, n, s, bound=2)
    terms = 2 if kind == "sparse" else 12
    return rand_mv(rng, n, s, bound=3, max_terms=terms, rational=kind == "fraction")


# Seeded inputs, then inputs touching fewer than n indices (the last two
# decomposable with more than s+1 of them).
CONTRACTION_INPUTS = [
    *(seeded_input(trial) for trial in range(48)),
    e(7, 1, 2, 3) + e(7, 4, 5, 6),
    e(7, 2, 3, 4) + e(7, 2, 5, 6),
    e(7, 1, 2, 4) + e(7, 1, 3, 5),
    e(6, 2, 3, 5, 6) + e(6, 1, 2, 3, 4),
    e(6, 1, 2) + e(6, 3, 5),
    e(5, 2, 4, 5),
    wedge(e(6, 1) + e(6, 2), e(6, 3) + e(6, 4)),
    reduce(wedge, [e(7, 1) + e(7, 2), e(7, 3) + e(7, 4), e(7, 5) + e(7, 6)]),
]


@pytest.mark.parametrize("case", range(len(CONTRACTION_INPUTS)))
def test_contraction_matches_a_tableau_set_reference(case):
    P = CONTRACTION_INPUTS[case]
    n, s = P.dim, P.grade
    for k in range(2, s + 1):
        for mode in ("symbolic", "randomized"):
            rep = contraction_criterion(P, k, mode, trials=6, seed=case, bound=2)
            equation = rep.witness.equation if rep.witness else None
            ref = reference_contraction(P, k, mode, trials=6, seed=case, bound=2)
            assert (rep.verdict, rep.equations_checked, equation) == ref, (k, mode, str(P))


# -- expectations -----------------------------------------------------------------

SPARSE_STDOUT = {
    ("blade-12-4", "classical"): (0, "classical          true   equations=174240\nresult: simple\n"),
    ("blade-12-4", "dual"): (0, "dual               true   equations=174240\nresult: simple\n"),
    ("blade-12-4", "improved"): (0, "improved           true   equations=60984\nresult: simple\n"),
    ("blade-12-4", "dual-improved"): (
        0, "dual-improved      true   equations=60984\nresult: simple\n"
    ),
    ("blade-12-4", "optimal"): (0, "optimal            true   equations=51480\nresult: simple\n"),
    ("blade-12-4", "contraction"): (
        0, "contraction(k=2)   true   equations=849420\nresult: simple\n"
    ),
    ("blade-12-5", "classical"): (0, "classical          true   equations=457380\nresult: simple\n"),
    ("blade-12-5", "dual"): (0, "dual               true   equations=457380\nresult: simple\n"),
    ("blade-12-5", "improved"): (0, "improved           true   equations=174240\nresult: simple\n"),
    ("blade-12-5", "dual-improved"): (
        0, "dual-improved      true   equations=174240\nresult: simple\n"
    ),
    ("blade-12-5", "optimal"): (
        0, "optimal            true   equations=141570\nresult: simple\n"
    ),
    ("blade-12-5", "contraction"): (
        0, "contraction(k=2)   true   equations=7786350\nresult: simple\n"
    ),
    ("face-12-3", "classical"): (0, "classical          true   equations=32670\nresult: simple\n"),
    ("face-12-3", "dual"): (0, "dual               true   equations=32670\nresult: simple\n"),
    ("face-12-3", "improved"): (0, "improved           true   equations=9504\nresult: simple\n"),
    ("face-12-3", "dual-improved"): (
        0, "dual-improved      true   equations=9504\nresult: simple\n"
    ),
    ("face-12-3", "optimal"): (0, "optimal            true   equations=8580\nresult: simple\n"),
    ("face-12-3", "contraction"): (
        0, "contraction(k=2)   true   equations=38610\nresult: simple\n"
    ),
    ("nonsimple-12-3", "classical"): (
        1,
        "classical          false  equations=6282  witness: Phi=e^{2,4} "
        "-> component e_{3,6,8,11} = -1\n"
        "result: not-simple\n",
    ),
    ("nonsimple-12-3", "dual"): (
        1,
        "dual               false  equations=11015  witness: Psi=e^{2,3,4,6} "
        "-> component e_{8,11} = 1\n"
        "result: not-simple\n",
    ),
    ("nonsimple-12-3", "improved"): (
        1,
        "improved           false  equations=1361  witness: Psi=e^{2} "
        "-> component e_{3,4,6,8,11} = 1\n"
        "result: not-simple\n",
    ),
    ("nonsimple-12-3", "dual-improved"): (
        1,
        "dual-improved      false  equations=4067  witness: Psi=e^{2,3,4,6,8} "
        "-> component e_{11} = 1\n"
        "result: not-simple\n",
    ),
    ("nonsimple-12-3", "optimal"): (
        1,
        "optimal            false  equations=4283  witness: pairs=({2,3}), "
        "skew over e_{4,6,8,11}: coefficient = 1/6\n"
        "result: not-simple\n",
    ),
    ("nonsimple-12-3", "contraction"): (
        1,
        "contraction(k=2)   false  equations=893  witness: point 1, "
        "alphas=[(0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0)]: Psi=e^{} "
        "-> component e_{4,6,8,11} = 2\n"
        "result: not-simple\n",
    ),
}
