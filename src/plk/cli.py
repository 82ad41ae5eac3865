"""Command-line front end.

    plk check  [--criterion NAME|all] [--mode symbolic|randomized] [--trials N]
               [--k K] [--seed S] [--bound B] [--json] FILE
    plk factor FILE
    plk count  --dim N --grade S [--json]
    plk dims   --dim N --grade S [--json]
    plk random --dim N --grade S (--simple | --nonsimple) [--seed S] [--bound B] [FILE]
    plk family [--json] FILE

Exit codes: 0 decomposable / all identities pass, 1 not decomposable,
2 input error, 3 internal invariant violation.  Output is deterministic for
a fixed command line and seed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import criteria, randgen, serialize, young
from .criteria import (
    CriterionReport,
    DecomposableFamily,
    InvariantViolation,
    run_all_criteria,
)
from .multivector import InputError

# Each subcommand declares only the options its cmd_* function reads.
_OPTIONS = {
    "--seed": dict(type=int, default=0, help="64-bit seed (default 0)"),
    "--bound": dict(type=int, default=10, help="integer coefficient bound"),
    "--json": dict(action="store_true", help="machine-readable output"),
    "--dim": dict(type=int, required=True),
    "--grade": dict(type=int, required=True),
    "file": dict(metavar="FILE", help="multivector JSON file"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plk",
        description="Exact decomposability tests for multivectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def options(p, *names):
        for name in names:
            p.add_argument(name, **_OPTIONS[name])

    p = sub.add_parser("check", help="run decomposability criteria on a multivector")
    p.add_argument("--criterion", choices=("all", *criteria.CRITERIA), default="all")
    p.add_argument("--mode", choices=("symbolic", "randomized"), default="symbolic")
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--k", type=int, default=2, help="contraction order (default 2)")
    options(p, "--seed", "--bound", "--json", "file")

    p = sub.add_parser("factor", help="recover wedge factors of a decomposable input")
    options(p, "file")

    p = sub.add_parser("count", help="equation counts for each criterion")
    options(p, "--dim", "--grade", "--json")

    p = sub.add_parser("dims", help="two-column component dimensions and identities")
    options(p, "--dim", "--grade", "--json")

    p = sub.add_parser("random", help="emit a random (non)decomposable multivector")
    options(p, "--dim", "--grade")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--simple", action="store_true")
    kind.add_argument("--nonsimple", action="store_true")
    options(p, "--seed", "--bound")
    p.add_argument("file", metavar="FILE", nargs="?", help="output path (default stdout)")

    p = sub.add_parser("family", help="span/intersection dichotomy for a family file")
    options(p, "--json", "file")

    return parser


def _report_line(rep: CriterionReport) -> str:
    line = f"{rep.criterion:<18} {str(rep.verdict).lower():<6} equations={rep.equations_checked}"
    if rep.witness is not None:
        line += f"  witness: {rep.witness.text}"
    if rep.probabilistic:
        line += f"  [probabilistic, seed={rep.seed}]"
    return line


def _report_json(rep: CriterionReport) -> dict:
    return {
        "criterion": rep.criterion,
        "verdict": rep.verdict,
        "equations_checked": rep.equations_checked,
        "witness": None if rep.witness is None else rep.witness.text,
        "probabilistic": rep.probabilistic,
        "seed": rep.seed,
    }


def _load_vector(path: str):
    P = serialize.load(path)
    if P.dual:
        raise InputError("expected a vector file (dual=false)")
    return P


def cmd_check(args) -> int:
    P = _load_vector(args.file)
    opts = dict(k=args.k, mode=args.mode, trials=args.trials, seed=args.seed, bound=args.bound)
    if args.criterion == "all":
        reports = run_all_criteria(P, **opts)
    else:
        reports = [criteria.run_criterion(P, args.criterion, **opts)]

    # A probabilistic pass may miss; only decided verdicts must agree.
    agreement = len({rep.verdict for rep in reports if not rep.probabilistic}) <= 1
    simple = reports[-1].verdict
    if args.json:
        payload = {
            "file": args.file,
            "dim": P.dim,
            "grade": P.grade,
            "criteria": [_report_json(r) for r in reports],
            "simple": simple,
            "agreement": agreement,
        }
        print(json.dumps(payload, indent=2))
    else:
        for rep in reports:
            print(_report_line(rep))
        print(f"result: {'simple' if simple else 'not-simple'}")
    if not agreement:
        print("internal error: criteria disagree", file=sys.stderr)
        return 3
    return 0 if simple else 1


def cmd_factor(args) -> int:
    factors = criteria.factorize(_load_vector(args.file))
    if factors is None:
        print("not simple")
        return 1
    print(json.dumps([serialize.emit_multivector(f) for f in factors], indent=2))
    return 0


def cmd_count(args) -> int:
    n, s = args.dim, args.grade
    counts = {name: criteria.equation_count(n, s, name) for name in criteria.COUNTED}
    if args.json:
        print(json.dumps({"dim": n, "grade": s, "counts": counts}, indent=2))
    else:
        cells = " ".join(f"{name}={c}" for name, c in counts.items())
        print(f"n={n} s={s}: {cells}")
    return 0


def cmd_dims(args) -> int:
    rep = young.verify_square_decomposition(args.dim, args.grade)
    if args.json:
        payload = {
            "dim": rep.n,
            "grade": rep.s,
            "components": [
                {"shape": [sh.first_col, sh.second_col], "dim": d} for sh, d in rep.dims
            ],
            "identities": [
                {"name": i.name, "lhs": i.lhs, "rhs": i.rhs, "ok": i.ok}
                for i in rep.identities
            ],
            "passed": rep.passed,
        }
        print(json.dumps(payload, indent=2))
    else:
        for sh, d in rep.dims:
            print(f"{sh} dim {d}")
        for ident in rep.identities:
            status = "PASS" if ident.ok else "FAIL"
            print(f"{ident.name}: {ident.lhs} vs {ident.rhs}  {status}")
    return 0 if rep.passed else 1


def cmd_random(args) -> int:
    rng = random.Random(args.seed)
    if args.simple:
        P = randgen.random_simple(rng, args.dim, args.grade, args.bound)
    else:
        P = randgen.random_nonsimple(rng, args.dim, args.grade, args.bound)
    if args.file:
        serialize.dump(P, args.file)
    else:
        print(serialize.dumps(P))
    return 0


def cmd_family(args) -> int:
    members = serialize.load_family(args.file)
    family = DecomposableFamily(tuple(members))
    branch = criteria.three_plane_check(family)
    if args.json:
        print(json.dumps({"members": len(members), "branch": branch.value}, indent=2))
    else:
        print(f"branch: {branch.value}")
    return 0


_DISPATCH = {
    "check": cmd_check,
    "factor": cmd_factor,
    "count": cmd_count,
    "dims": cmd_dims,
    "random": cmd_random,
    "family": cmd_family,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "trials", 1) < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return 2
    if getattr(args, "bound", 1) < 1:
        print("error: --bound must be >= 1", file=sys.stderr)
        return 2
    if getattr(args, "seed", 0) < 0 or getattr(args, "seed", 0) >= 1 << 64:
        print("error: --seed must fit in 64 unsigned bits", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[args.command](args)
    except (InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InvariantViolation as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
