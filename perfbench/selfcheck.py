"""Self-checks of the benchmark's traced run.

    python3 perfbench/selfcheck.py [WORKLOAD ...]

Run from the root of a plk checkout.  For each workload it runs
``run.py --trace 1`` twice on the baseline seed and once on a held-out seed,
one process at a time.  Each traced run already checks, in process, that its
verdicts and witnesses equal the untraced pass and that every count repeats
across its two traced passes; this script also requires every count metric
to be identical across the two separate processes, and all three runs to
report ``correct``.  Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import WORKLOADS
from tracer import COUNT_SUFFIXES

BASELINE_SEED = 1
HELD_OUT_SEED = 97


def traced(workload: str, seed: int) -> dict:
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    proc = subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args()
    ok = True
    for w in args.workloads:
        first, second = traced(w, BASELINE_SEED), traced(w, BASELINE_SEED)
        held = traced(w, HELD_OUT_SEED)
        counts = [{k: m["value"] for k, m in r["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
                  for r in (first, second)]
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        checks = {
            f"seed {BASELINE_SEED} run 1 correct": first["correct"],
            f"seed {BASELINE_SEED} run 2 correct": second["correct"],
            f"held-out seed {HELD_OUT_SEED} correct": held["correct"],
            f"{len(counts[0])} counts repeat across processes": not differ,
        }
        for name, passed in checks.items():
            print(f"{w:15s} {'ok  ' if passed else 'FAIL'} {name}")
            ok &= passed
        if differ:
            print(f"{w:15s}      differing counts: {differ}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
