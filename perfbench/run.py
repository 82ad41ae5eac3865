"""Seeded benchmark for plk.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a plk checkout; plk is imported from ``./src``.  One
client sends requests in a closed loop from this single process (no
threads); ``cli-small`` runs one ``python -m plk`` child at a time.  The
measured phase runs whole passes over the workload's fixed corpus until
``--seconds`` have passed and at least three passes were counted; a library
workload's first pass warms plk's caches and is not counted.  Latency
percentiles are taken over every request sent in a counted pass, and
throughput is the requests completed per second of their request time.

``--trace 0`` prints the end-to-end metrics; set-up is timed in this process
and in four fresh set-up-only children spread over the measured phase, and
the median is reported.  Every time is reported at reference speed (see
hostspeed.py): scaled by how fast the host ran a fixed kernel, sampled
between requests, at the time.  The raw figures are printed above the result.
``--trace 1`` sends one reference pass as the end-to-end run does, then one
untraced and two traced passes (cli-small calls ``plk.cli.main`` in process
for these three), checks that the traced verdicts and witnesses equal the
untraced ones and that every count repeats across the two traced passes, and
prints the per-layer metrics.  Each is exactly one pass, so counts repeat.

The last line of standard output is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time

WORKLOADS = ("check-all", "sweep-large", "factor-support", "cli-small")
SETUP_REPEATS = 5  # this process plus four set-up-only children
REQUEST_CAP_S = 10.0  # a request that runs longer fails as a timeout
PHASE_CAP_S = 90.0  # past this, the measured phase ends after the current pass
OUT_DIR = ".perfbench_out"
MIN_PASSES = 3
SETUP_SAMPLES = 5  # host-speed kernel calls right after each set-up
INTERPRETER_REF_S = 0.07  # `python -c pass` at reference speed (cli-small)


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout


def _on_term(signum, frame):
    # Unwinds through spawn(), which kills and reaps a running child.
    raise SystemExit(128 + signum)


def capped(fn, *args):
    """Run fn(*args) under a SIGALRM time cap; raises RequestTimeout."""
    signal.setitimer(signal.ITIMER_REAL, REQUEST_CAP_S)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


# -- child processes ------------------------------------------------------------


def spawn(argv: list[str], env: dict, out_path: str) -> tuple[int, str, str, int]:
    """Run one child to completion with stdout/stderr sent to files.

    Returns (exit code, stdout, stderr, peak RSS in KiB).  If the wait is
    interrupted (the time cap), the child is killed and reaped first.
    """
    err_path = out_path + ".err"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    with open(out_path, encoding="utf-8") as fh:
        out = fh.read()
    with open(err_path, encoding="utf-8") as fh:
        err = fh.read()
    return os.waitstatus_to_exitcode(status), out, err, usage.ru_maxrss


class Env:
    """Paths of one run inside the checkout."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.src = os.path.join(root, "src")
        self.workdir = os.path.join(root, OUT_DIR, f"{workload}-{seed}-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.child_env = dict(os.environ, PYTHONPATH=self.src)
        self.child_out = os.path.join(self.workdir, "child.out")


# -- set-up -----------------------------------------------------------------------


def setup(env: Env, workload: str, seed: int):
    """Import plk, build and label the corpus, warm the bytecode cache and
    send one warm-up request.  Returns (seconds, corpus module, corpus)."""
    t0 = time.perf_counter()
    compileall.compile_dir(os.path.join(env.src, "plk"), quiet=1)
    sys.path.insert(0, env.src)
    import corpus as cm  # imports plk

    plk_file = os.path.realpath(sys.modules["plk"].__file__)
    if not plk_file.startswith(os.path.realpath(env.src) + os.sep):
        raise SystemExit(f"error: plk imported from {plk_file}, not from ./src")
    reqs = cm.build(workload, seed, env.workdir)
    outcome = run_request(env, cm, reqs[0], seed)
    if outcome[1] is not None:
        raise SystemExit(f"error: warm-up request failed: {outcome[1]}")
    return time.perf_counter() - t0, cm, reqs


# -- one request ---------------------------------------------------------------


def _run_cli(env: Env, cm, req):
    argv = [sys.executable, "-m", "plk", *req.arg]
    code, out, err, rss = spawn(argv, env.child_env, env.child_out)
    return code, out, rss


def run_request(env: Env, cm, req, seed: int, in_process: bool = False):
    """Send one request and check it.

    Returns (seconds, failure kind or None, digest, child peak RSS KiB).
    """
    rss = 0
    t0 = time.perf_counter()
    try:
        if isinstance(req.arg, list) and in_process:
            result = capped(_main_captured, cm, req.arg)
        elif isinstance(req.arg, list):
            code, out, rss = capped(_run_cli, env, cm, req)
            result = (code, out)
        else:
            result = capped(cm.run_library, req, seed)
    except RequestTimeout:
        return time.perf_counter() - t0, "timeout", None, rss
    except Exception as e:  # a request must not end the run
        return time.perf_counter() - t0, f"exception: {type(e).__name__}: {e}", None, rss
    dt = time.perf_counter() - t0
    try:
        if isinstance(req.arg, list):
            digest = cm.check_cli(req, *result)
        else:
            digest = cm.check_library(req, result)
    except cm.WrongResult as e:
        return dt, f"wrong: {e}", None, rss
    except (ValueError, KeyError) as e:  # unparsable CLI output
        return dt, f"wrong output: {e}", None, rss
    return dt, None, digest, rss


def _main_captured(cm, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cm.cli.main(argv)  # looked up per call, so tracing sees it
    return code, buf.getvalue()


def one_pass(env, cm, reqs, seed, in_process=False, speed=None):
    """Send every request once; with ``speed``, sample the host-speed kernel
    between requests."""
    outcomes = []
    for r in reqs:
        outcomes.append(run_request(env, cm, r, seed, in_process))
        if speed:
            speed.tick()
    return outcomes


# -- end-to-end run ------------------------------------------------------------


def p90(values: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile and the number of samples above it."""
    s = sorted(values)
    rank = math.ceil(0.9 * len(s))
    return s[rank - 1], len(s) - rank


def setup_child(env: Env, workload: str, seed: int) -> float:
    """Set-up time of one fresh set-up-only child process."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    code, out, err, _ = spawn(argv, env.child_env, env.child_out)
    if code != 0:
        raise SystemExit(f"error: set-up child failed ({code}): {err.strip()}")
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def measure(env: Env, workload: str, seed: int, seconds: float) -> dict:
    from hostspeed import FRACTION_REF_S, FractionKernel, HostSpeed

    # Each workload's kernel does the kind of work its requests spend their
    # time on, so the host's slow phases slow both alike.
    if workload == "cli-small":
        # Mostly process start: a bare interpreter start, which uses no plk.
        speed = HostSpeed(lambda: _child_ms(env, "pass", 1) / 1e3, INTERPRETER_REF_S, 0.5)
    elif workload == "factor-support":
        speed = HostSpeed(FractionKernel(), FRACTION_REF_S)
    else:
        speed = HostSpeed()
    own_setup, cm, reqs = setup(env, workload, seed)
    raw_setups = [own_setup]
    setups = [own_setup * speed.factor(SETUP_SAMPLES)]

    samples = []  # (input class, reference-speed ms) of each counted request
    factors = []  # host-speed factor of each counted pass
    attempted = failed = completed = passes = 0
    counted_s = raw_s = 0.0  # reference-speed and raw request time
    peak_child_kib = 0
    # plk fills lru caches (sign and Young tables) per shape on first use, in
    # this process, so a library workload's first pass warms them and is not
    # counted.  cli-small starts a fresh plk process per request.
    warm = workload != "cli-small"
    start = time.perf_counter()
    while True:
        outcomes = one_pass(env, cm, reqs, seed, speed=speed)
        f = speed.factor()
        for req, (dt, failure, _, rss) in zip(reqs, outcomes):
            peak_child_kib = max(peak_child_kib, rss)
            if failure:
                failed += 1
                print(f"FAILED {req.op} {req.cell} {req.cls}: {failure}", file=sys.stderr)
        attempted += len(reqs)
        # The set-up children are spread over the run, one due every
        # seconds / SETUP_REPEATS, so their median sees the host's slow and
        # fast phases as the requests do.
        elapsed = time.perf_counter() - start
        while len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
            raw_setups.append(setup_child(env, workload, seed))
            setups.append(raw_setups[-1] * speed.factor(SETUP_SAMPLES))
        if warm:
            warm = False
            continue
        samples.extend((req.cls, o[0] * 1e3 * f) for req, o in zip(reqs, outcomes))
        factors.append(f)
        completed += sum(1 for o in outcomes if o[1] is None)
        passes += 1
        raw_s += sum(o[0] for o in outcomes)
        counted_s += sum(o[0] for o in outcomes) * f
        if elapsed >= seconds and (passes >= MIN_PASSES or elapsed >= PHASE_CAP_S):
            break

    # Percentiles pool every request of every counted pass: each request of
    # the corpus weighs the same.
    every = [ms for _, ms in samples]
    simple = [ms for cls, ms in samples if cls == cm.SIMPLE]
    nonsimple = [ms for cls, ms in samples if cls in (cm.SPARSE, cm.DENSE)]
    tail, above = p90(every)
    peak_kib = peak_child_kib if workload == "cli-small" else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"{workload} seed={seed}: {passes} counted passes of {len(reqs)} requests, "
          f"{raw_s:.1f} s of request time, "
          f"{attempted} attempted, {failed} failed, fail_share={failed / attempted}")
    print(f"host-speed factor per pass {[round(x, 3) for x in factors]}; raw "
          f"throughput {completed / raw_s:.4g} req/s, raw set-up times "
          f"{[round(x, 3) for x in raw_setups]} s")
    print(f"latency_ms_p90 over {len(every)} requests, {above} above it")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ops_s": (completed / counted_s, "req/s"),
        "latency_ms_p50": (statistics.median(every), "ms"),
        "latency_ms_p90": (tail, "ms"),
        "simple_ms_p50": (statistics.median(simple), "ms"),
        "nonsimple_ms_p50": (statistics.median(nonsimple), "ms"),
        "ok_share": (1 - failed / attempted, "ratio"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


# -- traced run ----------------------------------------------------------------


def _child_ms(env: Env, code: str, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        rc, _, err, _ = spawn([sys.executable, "-c", code], env.child_env, env.child_out)
        times.append((time.perf_counter() - t0) * 1e3)
        if rc != 0:
            raise SystemExit(f"error: child {code!r} failed: {err.strip()}")
    return statistics.median(times)


def traced(env: Env, workload: str, seed: int) -> dict:
    from tracer import COUNT_SUFFIXES, Tracer

    _, cm, reqs = setup(env, workload, seed)
    cli = workload == "cli-small"
    problems = []

    # The reference pass is sent as in the end-to-end run (cli-small: child
    # processes; it is traced in process) and also warms caches for timing.
    reference = [one_pass(env, cm, reqs, seed)]
    t0 = time.perf_counter()
    untraced = one_pass(env, cm, reqs, seed, in_process=cli)
    untraced_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    runs = []
    try:
        for _ in range(2):
            tracer.reset()
            t0 = time.perf_counter()
            outcomes = one_pass(env, cm, reqs, seed, in_process=cli)
            runs.append((time.perf_counter() - t0, outcomes, tracer.metrics(), tracer.span_rows()))
    finally:
        tracer.uninstall()

    all_outcomes = reference + [untraced] + [r[1] for r in runs]
    failed = sum(1 for outs in all_outcomes for o in outs if o[1])
    attempted = sum(len(outs) for outs in all_outcomes)
    digests = [[o[2] for o in outs] for outs in all_outcomes]
    if any(d != digests[0] for d in digests[1:]):
        problems.append("traced verdicts or witnesses differ from the untraced run")
    counts = [{k: v for k, v in r[2].items() if k.endswith(COUNT_SUFFIXES)} for r in runs]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        problems.append(f"counts differ between two traced runs: {diff}")
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}", file=sys.stderr)

    traced_s, _, layer, spans = runs[0]
    interp = _child_ms(env, "pass")
    units = {}
    metrics = dict(layer)
    metrics["cli.interpreter_ms"] = interp
    metrics["cli.import_ms"] = _child_ms(env, "import plk") - interp
    metrics["cli.main_ms"] = (
        statistics.median(o[0] for o in untraced) * 1e3 if cli else 0.0
    )
    metrics["trace_overhead"] = traced_s / untraced_s
    for k in metrics:
        units[k] = ("count" if k.endswith(COUNT_SUFFIXES) else "s" if k.endswith("_s")
                    else "ms" if k.endswith("_ms") else "ratio")
    dump = os.path.join(env.root, OUT_DIR, f"trace-{workload}-{seed}.json")
    with open(dump, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "spans": spans}, fh, indent=1)
    print(f"{workload} seed={seed}: traced {traced_s:.3f} s, untraced {untraced_s:.3f} s, "
          f"spans in {os.path.relpath(dump, env.root)}")
    return {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


# -- entry ---------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "plk", "__init__.py")):
        print("error: run from the root of a plk checkout (no src/plk here)", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    env = Env(root, args.workload, args.seed)
    try:
        if args.setup_only:
            seconds, _, _ = setup(env, args.workload, args.seed)
            print(json.dumps({"setup_s": seconds}))
            return 0
        if args.trace:
            result = traced(env, args.workload, args.seed)
        else:
            result = measure(env, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(env.workdir, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
