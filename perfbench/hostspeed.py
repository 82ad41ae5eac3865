"""Reference-speed timing for a host whose speed drifts.

The benchmark runs on a virtual machine with two vCPUs on a host shared with
other tenants.  Its speed drifts by up to 2x for seconds to minutes at a
time, longer than a run can average out, so raw times of the same code
spread by 15-45% from run to run.  ``HostSpeed`` times a fixed kernel between
requests.  The default kernel, ``DictKernel``, does the kind of work plk
does (dict updates keyed by bit masks, parity signs, small-int products) but
calls no plk code, so no change to plk can move it.  A stretch of requests
(one pass over the corpus) measured in ``t`` seconds is reported as
``t * ref_s / r``, where ``r`` is the kernel's median time over that stretch:
the time the stretch would have taken had the host run the kernel in
``ref_s``.  A change to plk moves reference-speed times as it moves raw
times; a change in host speed moves the kernel too and largely cancels out.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

# DictKernel's time at reference speed: about its median on the machine the
# benchmark was defined on (Intel Xeon at 2.1 GHz, Python 3.11.7), so that
# reference-speed times read close to raw ones there.
REF_S = 0.005
ROUNDS = 40  # products of the two operands per kernel call
FRACTION_SIZE = 12  # FractionKernel's matrix is FRACTION_SIZE x FRACTION_SIZE
FRACTION_REF_S = 0.004  # FractionKernel's time at reference speed, as REF_S
SAMPLE_EVERY_S = 0.1  # at most one kernel call per 100 ms of requests


class HostSpeed:
    """Samples a kernel between requests and gives the factor that brings
    the times measured since the last factor to reference speed.

    ``kernel`` times one call of a fixed kernel; ``ref_s`` is its time at
    reference speed; it is called at most once per ``every_s`` of requests.
    """

    def __init__(self, kernel=None, ref_s: float = REF_S, every_s: float = SAMPLE_EVERY_S):
        self.kernel_s = kernel or DictKernel()
        self.ref_s = ref_s
        self.every_s = every_s
        self._samples: list[float] = []
        self._due = 0.0

    def tick(self) -> None:
        """Sample the kernel if ``every_s`` have passed since the last one."""
        if perf_counter() >= self._due:
            self._samples.append(self.kernel_s())
            self._due = perf_counter() + self.every_s

    def factor(self, min_samples: int = 1) -> float:
        """ref_s over the median kernel time sampled since the last call,
        sampling now until there are ``min_samples``."""
        while len(self._samples) < min_samples:
            self._samples.append(self.kernel_s())
        f = self.ref_s / statistics.median(self._samples)
        self._samples = []
        return f


class DictKernel:
    """A sparse product of two fixed 'multivectors' over bit masks, with the
    exterior product's signs; calling it returns its time in seconds."""

    def __init__(self):
        rng = random.Random(0)
        self._a = {rng.getrandbits(12): rng.randint(-9, 9) for _ in range(60)}
        self._b = {1 << rng.randrange(12): rng.randint(-9, 9) for _ in range(10)}

    def __call__(self) -> float:
        a, b = self._a, self._b
        t0 = perf_counter()
        for _ in range(ROUNDS):
            out: dict[int, int] = {}
            for ma, ca in a.items():
                for mb, cb in b.items():
                    if ma & mb:
                        continue
                    sign = -1 if (ma & ~((mb << 1) - 1)).bit_count() & 1 else 1
                    out[ma | mb] = out.get(ma | mb, 0) + sign * ca * cb
        return perf_counter() - t0


class FractionKernel:
    """Exact Gaussian elimination of a fixed integer matrix in Fractions,
    the arithmetic that dominates factor-support; calling it returns its
    time in seconds."""

    def __init__(self):
        rng = random.Random(0)
        self._rows = [[Fraction(rng.randint(-9, 9)) for _ in range(FRACTION_SIZE)]
                      for _ in range(FRACTION_SIZE)]

    def __call__(self) -> float:
        t0 = perf_counter()
        rows = [list(r) for r in self._rows]
        for c in range(FRACTION_SIZE):
            pivot = next((i for i in range(c, FRACTION_SIZE) if rows[i][c]), None)
            if pivot is None:
                continue
            rows[c], rows[pivot] = rows[pivot], rows[c]
            for i in range(c + 1, FRACTION_SIZE):
                f = rows[i][c] / rows[c][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
        return perf_counter() - t0
