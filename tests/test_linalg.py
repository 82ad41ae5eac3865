"""Exact rational row reduction, rank, nullspace, and subspace intersection."""

from fractions import Fraction
from functools import reduce

from plk import linalg

from util import seeded


def test_rref_canonical_form():
    rows = [[2, 4, 0], [1, 2, 1]]
    reduced, pivots = linalg.rref(rows)
    assert pivots == [0, 2]
    assert reduced == [[1, 2, 0], [0, 0, 1]]


def test_rref_is_input_order_independent():
    rng = seeded(201)
    for _ in range(20):
        rows = [[rng.randint(-5, 5) for _ in range(5)] for _ in range(4)]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert linalg.rref(rows) == linalg.rref(shuffled)


def test_rank_int_and_fraction_paths_agree():
    rng = seeded(202)
    for _ in range(30):
        rows = [[rng.randint(-6, 6) for _ in range(6)] for _ in range(rng.randint(1, 7))]
        frac_rows = [[Fraction(x, 3) for x in row] for row in rows]
        assert linalg.rank(rows) == linalg.rank(frac_rows)
        assert linalg.rank(rows) == len(linalg.rref(rows)[0])


def test_nullspace_kernel_property():
    rng = seeded(203)
    for _ in range(25):
        m = rng.randint(1, 5)
        n = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        kernel = linalg.nullspace(rows, n)
        assert len(kernel) == n - linalg.rank(rows)
        for vec in kernel:
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_intersection_of_row_spaces():
    a = [[1, 0, 0, 0], [0, 1, 0, 0]]  # span{e1, e2}
    b = [[0, 1, 0, 0], [0, 0, 1, 0]]  # span{e2, e3}
    inter = linalg.intersect_row_spaces(a, b)
    assert inter == [[0, 1, 0, 0]]


def test_intersection_disjoint_spaces_is_empty():
    a = [[1, 0, 0, 0]]
    b = [[0, 1, 0, 0]]
    assert linalg.intersect_row_spaces(a, b) == []


def test_intersection_dimension_formula():
    # dim(A ∩ B) = dim A + dim B - dim(A + B), checked on random subspaces
    rng = seeded(204)
    for _ in range(25):
        n = rng.randint(2, 6)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n))]
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n))]
        inter = linalg.intersect_row_spaces(a, b)
        expected = linalg.rank(a) + linalg.rank(b) - linalg.rank(a + b)
        assert len(inter) == expected
        # every intersection vector lies in both row spaces
        for vec in inter:
            assert linalg.rank(a + [vec]) == linalg.rank(a)
            assert linalg.rank(b + [vec]) == linalg.rank(b)


def _random_rows(rng, n, count):
    return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(count)]


def _spanning_rows(rng, basis):
    """Random combinations spanning ``basis`` (one redundant row), some of
    them scaled by a Fraction."""
    rows = []
    for _ in range(len(basis) + 1):
        row = [0] * len(basis[0])
        for vec in basis:
            c = rng.randint(-3, 3)
            row = [x + c * y for x, y in zip(row, vec)]
        if rng.random() < 0.5:
            row = [Fraction(rng.randint(1, 5), rng.randint(1, 7)) * x for x in row]
        rows.append(row)
    return rows


def test_intersection_of_several_spaces_is_the_pairwise_fold():
    # One call over 1-4 row sets in Q^6..Q^8 gives the RREF basis that
    # folding the two-set call over them gives.  The sets share a random
    # common part, so many intersections are nonzero.
    rng = seeded(208)
    nonzero = 0
    for n in range(6, 9):
        for count in range(1, 5):
            for _ in range(8):
                common = _random_rows(rng, n, rng.randint(0, 2))
                sets = [
                    _spanning_rows(rng, common + _random_rows(rng, n, rng.randint(1, 3)))
                    for _ in range(count)
                ]
                got = linalg.intersect_row_spaces(*sets)
                assert got == linalg.rref(reduce(linalg.intersect_row_spaces, sets))[0], sets
                for rows in sets:
                    assert all(linalg.rank(rows + [v]) == linalg.rank(rows) for v in got)
                nonzero += bool(got)
    assert nonzero > 20


def test_intersection_of_several_spaces_edge_cases():
    e = [[int(i == j) for i in range(6)] for j in range(6)]
    # empty: pairwise nonzero, but nothing common to all three
    a, b, c = [e[0], e[1]], [e[1], e[2]], [e[2], e[0]]
    assert linalg.intersect_row_spaces(a, b) == [e[1]]
    assert linalg.intersect_row_spaces(a, b, c) == []
    assert linalg.intersect_row_spaces(a, [], b) == []
    # equal spaces, given by different Fraction rows: the space itself
    plane = [[Fraction(1, 2), 1, 0, 0, 0, 0], [0, 0, Fraction(2, 3), 1, 0, 0]]
    same = [[1, 2, Fraction(4, 3), 2, 0, 0], [Fraction(-1, 2), -1, 0, 0, 0, 0]]
    expected = linalg.rref(plane)[0]
    assert linalg.intersect_row_spaces(plane, same) == expected
    assert linalg.intersect_row_spaces(same, plane, same) == expected
    # one space: its RREF basis; the whole of Q^6 meets a line in the line
    assert linalg.intersect_row_spaces(same) == expected
    assert linalg.intersect_row_spaces(e, [[0, 3, 0, 0, 0, 6]]) == [[0, 1, 0, 0, 0, 2]]


# -- against an independent elimination ---------------------------------------------


def gauss_jordan(rows):
    """Textbook Fraction Gauss-Jordan, written here so the comparison does not
    lean on plk.linalg: returns (reduced nonzero rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def random_matrix(rng, shape, kind):
    """Rows of int, Fraction or mixed entries; a third of entries are zero."""
    nrows, ncols = shape

    def entry():
        num = rng.choice([0, 0, 0] + list(range(-7, 8)))
        frac = Fraction(num, rng.randint(1, 9))
        if kind == "int":
            return num
        return frac if kind == "fraction" or rng.random() < 0.5 else num

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def matrix_cases(rng):
    shapes = {
        "tall": lambda: (rng.randint(6, 14), rng.randint(1, 5)),
        "wide": lambda: (rng.randint(1, 4), rng.randint(6, 12)),
        "square": lambda: (rng.randint(1, 7),) * 2,
        "column": lambda: (rng.randint(1, 8), 1),
    }
    for shape_name, shape in shapes.items():
        for kind in ("int", "fraction", "mixed"):
            for _ in range(40):
                rows = random_matrix(rng, shape(), kind)
                ncols = len(rows[0])
                if rng.random() < 0.3:  # zero rows
                    rows.insert(rng.randint(0, len(rows)), [0] * ncols)
                if rng.random() < 0.3:  # a duplicate and a scaled duplicate
                    src = rng.choice(rows)
                    rows.append(list(src))
                    rows.append([Fraction(-2, 3) * x for x in src])
                rng.shuffle(rows)
                yield f"{shape_name}/{kind}", rows


def test_rref_and_rank_match_independent_gauss_jordan():
    rng = seeded(205)
    seen = set()
    for name, rows in matrix_cases(rng):
        seen.add(name)
        expected_rows, expected_pivots = gauss_jordan(rows)
        reduced, pivots = linalg.rref(rows)
        assert (reduced, pivots) == (expected_rows, expected_pivots), (name, rows)
        assert linalg.rank(rows) == len(expected_pivots), (name, rows)
    assert len(seen) == 12


def test_empty_matrix():
    assert linalg.rref([]) == ([], [])
    assert linalg.rank([]) == 0


def test_rref_entries_are_fractions_in_reduced_form():
    rng = seeded(206)
    for _, rows in matrix_cases(rng):
        reduced, pivots = linalg.rref(rows)
        assert len(reduced) == len(pivots)
        for r, (row, pc) in enumerate(zip(reduced, pivots)):
            assert all(type(x) is Fraction for x in row)
            assert row[pc] == 1
            assert all(x == 0 for x in row[:pc])
            assert all(other[pc] == 0 for k, other in enumerate(reduced) if k != r)
        assert pivots == sorted(set(pivots))


def test_rank_is_invariant_under_row_scaling():
    rng = seeded(207)
    for _, rows in matrix_cases(rng):
        scaled = []
        for row in rows:
            factor = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            scaled.append([factor * x for x in row])
        assert linalg.rank(scaled) == linalg.rank(rows)
