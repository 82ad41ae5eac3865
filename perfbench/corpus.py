"""Seeded inputs, requests and correctness checks for the four workloads.

Importing this module imports plk, so the caller times it as set-up.
Labels come from how an input is built, never from the code being timed:

* ``simple``      -- a wedge of random integer vectors (randgen.random_simple);
* ``sparse-non``  -- a random sparse support of a set size, confirmed by
                     kernel_dimension(P) != s;
* ``dense-non``   -- U ^ (v1 ^ v2 + v3 ^ v4) with all s+2 vectors independent,
                     non-decomposable by its form and of full support;
* ``family``      -- a valid three-plane family whose allowed branches are
                     known from the construction.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from plk import cli, criteria, randgen, serialize
from plk.multivector import Multivector, mask_of, wedge

BOUND = 5  # coefficients are drawn from [-BOUND, BOUND]
SCALE = Fraction(1, 3)
SIMPLE, SPARSE, DENSE, FAMILY = "simple", "sparse-non", "dense-non", "family"
SCALED = "simple-scaled"  # a simple input times SCALE, so Fraction arithmetic
CLASSES = (SIMPLE, SPARSE, DENSE)
SPAN, INTER, BOTH = (b.value for b in criteria.ThreePlaneBranch)

# Workload shapes: cells (n, s, draws per input class), input classes,
# operations, and cells (n, k) of three-plane families,
# two per cell (one of each kind).  Each pass over a corpus runs every
# request once.  Cheap cells get more draws, so a pass stays short while
# each heavy cell still appears in every pass.  Request costs come in groups
# (by cell, class and operation) and vary from draw to draw within a group;
# a percentile is only as steady across seeds as the number of draws in the
# group it falls in.  check-all's simple median falls among its (7,3) draws
# and its 90th percentile among its (8,3) draws, hence 36 of each; the
# (9,4) cell of factor-support gives its sparse-non median enough draws.
WORKLOADS = {
    "check-all": {
        "cells": [(6, 3, 36), (7, 3, 36), (8, 3, 36), (8, 4, 2)],
        "classes": CLASSES,
        "ops": ["check"],
    },
    "sweep-large": {
        "cells": [(10, 3, 2), (11, 3, 2), (12, 3, 2), (10, 4, 1)],
        "classes": CLASSES,
        "ops": ["classical", "dual", "improved", "dual-improved", "optimal", "contraction"],
    },
    "factor-support": {
        "cells": [(9, 4, 16), (10, 4, 4), (11, 4, 2), (12, 3, 2), (13, 3, 2), (14, 3, 1)],
        "classes": (SIMPLE, SCALED, SPARSE),
        "ops": ["factorize", "kernel_dimension", "oracle"],
        "family_cells": [(11, 3), (12, 3), (13, 3)],
    },
    "cli-small": {
        "cells": [(5, 2, 2), (6, 3, 2), (7, 3, 2)],
        "classes": CLASSES,
        "ops": ["check", "check-randomized", "check-oracle-json", "factor"],
        "family_cells": [(5, 2), (6, 3), (7, 3)],
    },
}

# Names, not functions: run_library looks each up per call, so a traced run
# sees the rebound function.
SWEEP = {
    "classical": "classical_pluecker",
    "dual": "dual_pluecker",
    "improved": "improved_pluecker",
    "dual-improved": "dual_improved_pluecker",
    "optimal": "optimal_component_test",
}
TRIALS = 16

CLI_ARGV = {
    "check": ["check"],
    "check-randomized": ["check", "--mode", "randomized", "--trials", str(TRIALS)],
    "check-oracle-json": ["check", "--criterion", "oracle", "--json"],
    "factor": ["factor"],
    "family": ["family"],
}


class WrongResult(Exception):
    """A request returned a result that contradicts its label."""


@dataclass(frozen=True)
class Request:
    op: str
    cell: tuple[int, int]
    cls: str
    arg: object  # Multivector, DecomposableFamily, or a CLI argv list
    label: object  # True/False decomposable, or the allowed branches
    source: Multivector | None = None  # the input a CLI file holds


def _rank(vectors: list[Multivector]) -> int:
    """Exact rank of a list of vectors; independent of plk.linalg."""
    rows = [[Fraction(v.terms.get(1 << i, 0)) for i in range(v.dim)] for v in vectors]
    r = 0
    for c in range(vectors[0].dim if vectors else 0):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def _independent(rng: random.Random, n: int, count: int) -> list[Multivector]:
    while True:
        vs = [randgen.random_vector(rng, n, BOUND) for _ in range(count)]
        if _rank(vs) == count:
            return vs


def _blade(dim: int, vectors: list[Multivector]) -> Multivector:
    return criteria.from_factors(vectors) if vectors else Multivector.scalar(dim, 1)


def sparse_nonsimple(rng: random.Random, n: int, s: int,
                     stratum: int, strata: int) -> Multivector:
    """A random sparse support, as randgen.random_multivector draws it, with
    the number of terms fixed at the centre of the ``stratum``-th of
    ``strata`` equal ranges of 1..C(n,s) instead of drawn uniformly.  The
    cost of factorize and the oracle jumps with the support size, so fixing
    the sizes keeps the mix of cheap and costly inputs the same on every
    seed.  Draws with kernel dimension s (decomposable) are rejected, as
    randgen.random_nonsimple rejects them by the rank oracle.
    """
    total = comb(n, s)
    size = max(2, round((stratum + 0.5) * total / strata))
    masks = [mask_of(c) for c in combinations(range(1, n + 1), s)]
    for _ in range(10_000):
        terms = {}
        for m in rng.sample(masks, size):
            c = 0
            while not c:
                c = rng.randint(-BOUND, BOUND)
            terms[m] = c
        P = Multivector(n, s, terms)
        if criteria.kernel_dimension(P) != s:
            return P
    raise RuntimeError(f"no non-decomposable draw with {size} terms at {(n, s)}")


def draw(rng: random.Random, cls: str, n: int, s: int,
         stratum: int, strata: int) -> Multivector:
    if cls == SIMPLE:
        return randgen.random_simple(rng, n, s, BOUND)
    if cls == SPARSE:
        return sparse_nonsimple(rng, n, s, stratum, strata)
    vs = _independent(rng, n, s + 2)
    pair = wedge(vs[0], vs[1]) + wedge(vs[2], vs[3])
    return wedge(_blade(n, vs[4:]), pair)


def draw_family(rng: random.Random, n: int, k: int, kind: str):
    """A valid family of 4 decomposable k-vectors and its allowed branches.

    ``common``: A ^ v_i for a fixed (k-1)-blade A, so the common
    intersection has dimension >= k-1.  ``hyperplane``: k-vectors inside
    one (k+1)-space, so the joint span has dimension <= k+1.
    """
    if kind == "common":
        vs = _independent(rng, n, k + 3)
        A = _blade(n, vs[: k - 1])
        members = [wedge(A, v) for v in vs[k - 1 :]]
        allowed = {INTER, BOTH}
    else:
        basis = _independent(rng, n, k + 1)
        members = []
        while len(members) < 4:
            vs = [
                sum((c * b for c, b in zip(
                    [rng.randint(-BOUND, BOUND) for _ in basis], basis)),
                    Multivector.zero(n, 1))
                for _ in range(k)
            ]
            if _rank(vs) == k:
                members.append(criteria.from_factors(vs))
        allowed = {SPAN, BOTH}
    return criteria.DecomposableFamily(tuple(members)), frozenset(allowed)


def build(workload: str, seed: int, workdir: str | None = None) -> list[Request]:
    """The fixed corpus of one workload; same seed, same requests.

    ``cli-small`` writes its input files under ``workdir``.
    """
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    reqs: list[Request] = []
    for n, s, draws in spec["cells"]:
        for j in range(draws):
            for cls in spec["classes"]:
                base = SIMPLE if cls == SCALED else cls
                P = draw(rng, base, n, s, j, draws)
                if cls == SCALED:
                    P = P * SCALE
                label = base == SIMPLE
                if workload == "cli-small":
                    path = _write(workdir, f"{n}-{s}-{len(reqs)}.json", serialize.dumps(P))
                for op in spec["ops"]:
                    if workload == "cli-small":
                        reqs.append(Request(op, (n, s), base, CLI_ARGV[op] + [path], label, P))
                    else:
                        reqs.append(Request(op, (n, s), base, P, label))
    for n, k in spec.get("family_cells", []):
        for kind in ("common", "hyperplane"):
            fam, allowed = draw_family(rng, n, k, kind)
            if workload == "cli-small":
                text = json.dumps([serialize.emit_multivector(m) for m in fam.members])
                path = _write(workdir, f"{n}-{k}-{kind}.json", text)
                reqs.append(Request("family", (n, k), FAMILY, CLI_ARGV["family"] + [path], allowed))
            else:
                reqs.append(Request("three_plane", (n, k), FAMILY, fam, allowed))
    # A pass sends the requests in a seeded random order, so each group of
    # similar requests spans the whole pass rather than one stretch of it
    # (run.py scales a pass's times by the host's speed over the pass).  The
    # first request built stays first: set-up sends it as the warm-up.
    rest = reqs[1:]
    rng.shuffle(rest)
    return reqs[:1] + rest


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return path


# -- library requests: run, then check ---------------------------------------


def run_library(req: Request, seed: int):
    """Call plk for one library request; returns the raw result."""
    P = req.arg
    if req.op == "check":
        return criteria.run_all_criteria(P), criteria.factorize(P)
    if req.op in SWEEP:
        return getattr(criteria, SWEEP[req.op])(P)
    if req.op == "contraction":
        return criteria.contraction_criterion(
            P, mode="randomized", trials=TRIALS, seed=seed
        )
    if req.op == "factorize":
        return criteria.factorize(P)
    if req.op == "kernel_dimension":
        return criteria.kernel_dimension(P)
    if req.op == "oracle":
        return criteria.oracle_report(P)
    if req.op == "three_plane":
        return criteria.three_plane_check(P)
    raise ValueError(f"unknown op {req.op!r}")


def _report_digest(rep) -> tuple:
    return (rep.criterion, rep.verdict, rep.equations_checked,
            None if rep.witness is None else rep.witness.text)


def _check_factors(req: Request, P: Multivector, factors) -> tuple:
    if req.label:
        if factors is None or criteria.from_factors(factors) != P:
            raise WrongResult("factors do not rebuild the input")
        return tuple(str(f) for f in factors)
    if factors is not None:
        raise WrongResult("factors returned for a non-decomposable input")
    return ()


def check_library(req: Request, result) -> tuple:
    """Raise WrongResult unless ``result`` matches the label; else a digest
    of verdicts and witnesses for comparing two runs."""
    P = req.arg
    if req.op == "check":
        reports, factors = result
        if len(reports) != 7 or any(r.verdict != req.label for r in reports):
            raise WrongResult("a verdict disagrees with the label")
        return tuple(map(_report_digest, reports)) + _check_factors(req, P, factors)
    if req.op in SWEEP or req.op in ("contraction", "oracle"):
        if result.verdict != req.label:
            raise WrongResult(f"{result.criterion} verdict {result.verdict}")
        return _report_digest(result)
    if req.op == "factorize":
        return _check_factors(req, P, result)
    if req.op == "kernel_dimension":
        if (result == P.grade) != req.label:
            raise WrongResult(f"kernel dimension {result}")
        return (result,)
    if req.op == "three_plane":
        if result.value not in req.label:
            raise WrongResult(f"branch {result.value}")
        return (result.value,)
    raise ValueError(f"unknown op {req.op!r}")


# -- CLI requests --------------------------------------------------------------


def check_cli(req: Request, code: int, out: str) -> tuple:
    """Check one ``plk`` invocation by exit code and output; returns a digest."""
    if req.op == "family":
        branch = out.strip().removeprefix("branch: ")
        if code != 0 or branch not in req.label:
            raise WrongResult(f"family exit {code}, output {out.strip()!r}")
        return code, out
    want = 0 if req.label else 1
    if code != want:
        raise WrongResult(f"{req.op} exit {code}, expected {want}")
    if req.op == "check-oracle-json" and json.loads(out)["simple"] != req.label:
        raise WrongResult("oracle JSON verdict disagrees with the label")
    if req.op == "factor" and req.label:
        factors = [serialize.parse_multivector(o) for o in json.loads(out)]
        if criteria.from_factors(factors) != req.source:
            raise WrongResult("printed factors do not rebuild the input")
    return code, out

