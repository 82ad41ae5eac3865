"""Metamorphic tests: decomposability is invariant under signed index
permutations and nonzero scalings, so every verdict must be too."""

from fractions import Fraction
from itertools import combinations

from plk import Multivector, factorize, kernel_dimension, run_all_criteria, support_space
from plk.multivector import indices_of, mask_of
from plk.randgen import random_simple

from util import rand_mv, seeded, sparse_rank

SCALES = (Fraction(1, 3), Fraction(5, 7), -2)
CELLS = [(4, 2), (5, 2), (5, 3), (6, 3), (6, 4), (7, 2), (7, 3), (7, 4), (4, 4)]


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


def test_signed_permutations_and_scalings_keep_every_verdict():
    rng = seeded(901)
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
            before = verdicts(p)
            assert verdicts(q) == before, (str(p), str(q))
            assert kernel_dimension(q) == kernel_dimension(p), str(p)
            if all(verdict for _, verdict in before):
                moved = [act(perm, signs, v).terms for v in support_space(p).basis]
                factors = [f.terms for f in factorize(q)]
                assert sparse_rank(moved) == sparse_rank(factors) == s, str(p)
                assert sparse_rank(moved + factors) == s, (str(p), str(q))
