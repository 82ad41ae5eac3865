"""Seeded generators for structured and random test instances.

Everything takes an explicit ``random.Random`` so callers control
reproducibility; coefficients are integers drawn from [-bound, bound].
"""

from __future__ import annotations

import random

from .criteria import InvariantViolation, from_factors, is_simple_oracle
from .multivector import Coeff, InputError, Multivector, _is_int, basis_subsets, check_dim, mask_of


def _check_args(dim: int, bound: int, grade: int = 1) -> None:
    """Refuse up front the arguments no draw can satisfy, instead of looping."""
    check_dim(dim)
    if not _is_int(grade) or not 0 <= grade <= dim:
        raise InputError(f"grade must be an integer in [0, {dim}], got {grade}")
    if not _is_int(bound) or bound < 1:
        raise InputError(f"bound must be an integer >= 1, got {bound}")


def random_vector(
    rng: random.Random, dim: int, bound: int = 10, dual: bool = False
) -> Multivector:
    """Random nonzero grade-1 (co)vector with integer coordinates."""
    _check_args(dim, bound)
    while True:
        terms = {1 << i: rng.randint(-bound, bound) for i in range(dim)}
        terms = {m: c for m, c in terms.items() if c}
        if terms:
            return Multivector(dim, 1, terms, dual)


def random_multivector(
    rng: random.Random, dim: int, grade: int, bound: int = 10
) -> Multivector:
    """Random nonzero multivector with a random sparse support."""
    _check_args(dim, bound, grade)
    masks = [mask_of(c) for c in basis_subsets(dim, grade)]
    nterms = rng.randint(1, len(masks))
    chosen = rng.sample(masks, nterms)
    terms: dict[int, Coeff] = {}
    for m in chosen:
        c = 0
        while not c:
            c = rng.randint(-bound, bound)
        terms[m] = c
    return Multivector(dim, grade, terms)


def random_simple(
    rng: random.Random, dim: int, grade: int, bound: int = 10
) -> Multivector:
    """Random nonzero decomposable multivector, as a wedge of random vectors."""
    _check_args(dim, bound, grade)
    if grade == 0:
        value = 0
        while not value:
            value = rng.randint(-bound, bound)
        return Multivector.scalar(dim, value)
    while True:
        p = from_factors([random_vector(rng, dim, bound) for _ in range(grade)])
        if not p.is_zero():
            return p


# Rejection at a legal (dim, grade) succeeds almost surely within a few draws;
# exhausting this cap indicates a bug rather than bad luck.
_MAX_TRIES = 10_000


def random_nonsimple(
    rng: random.Random, dim: int, grade: int, bound: int = 10
) -> Multivector:
    """Random non-decomposable multivector, by rejection against the oracle.

    Grades 0, 1, dim-1 and dim admit no such multivector and are rejected.
    """
    _check_args(dim, bound, grade)
    if grade <= 1 or grade >= dim - 1:
        raise InputError(
            f"every multivector of grade {grade} in dimension {dim} is "
            "decomposable; cannot generate a non-decomposable one"
        )
    for _ in range(_MAX_TRIES):
        p = random_multivector(rng, dim, grade, bound)
        if not is_simple_oracle(p):
            return p
    raise InvariantViolation(
        f"no non-decomposable multivector found in {_MAX_TRIES} draws"
    )  # pragma: no cover
