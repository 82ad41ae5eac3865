"""Per-layer tracing of plk from outside the program.

``Tracer.install`` rebinds selected public functions in every plk module
namespace that holds them (``criteria`` and ``young`` import the multivector
kernels by name, and ``cli`` keeps criteria in a dispatch dict), so no plk
source changes.  Spans are aggregated in memory by (name, parent span); a
span's self time is its duration minus that of its child spans.  The hot
kernel ``shuffle_sign`` (about 10**6 calls/s) is only counted: timing every
call would cost more than the call.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

# Layer -> public functions wrapped as spans.
SPANNED = {
    "multivector": ["wedge_terms", "interior_terms", "contract_terms", "support_space"],
    "linalg": ["rref", "rank", "nullspace", "intersect_row_spaces"],
    "young": ["iter_projection_blocks"],
    "criteria": [
        "classical_pluecker", "dual_pluecker", "improved_pluecker",
        "dual_improved_pluecker", "contraction_criterion",
        "optimal_component_test", "oracle_report", "factorize",
        "kernel_dimension", "three_plane_check", "run_all_criteria",
    ],
    # load spans reading, JSON decoding and building the Multivector alike.
    "serialize": ["load", "emit_multivector"],
    "cli": ["main", "cmd_check", "cmd_factor", "cmd_family"],
}
COUNTED = {"multivector": ["shuffle_sign"]}

# Metric name of each criterion-level function, and the name
# criteria.equation_count knows it by (None: no equation count).
CRITERIA = {
    "classical_pluecker": ("classical", "classical"),
    "dual_pluecker": ("dual", "dual"),
    "improved_pluecker": ("improved", "improved"),
    "dual_improved_pluecker": ("dual_improved", "dual-improved"),
    "contraction_criterion": ("contraction", None),
    "optimal_component_test": ("optimal", "optimal"),
    "oracle_report": ("oracle", None),
    "factorize": ("factorize", None),
    "kernel_dimension": ("kernel_dimension", None),
    "three_plane_check": ("three_plane_check", None),
}
# Criterion spans that return a CriterionReport.
_REPORTING = {f"criteria.{f}" for f in CRITERIA if f not in
              ("factorize", "kernel_dimension", "three_plane_check")}
COUNT_SUFFIXES = (".calls", ".pairs", ".cells", ".blocks", ".equations")


def _plk_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "plk" or name.startswith("plk.")) and m is not None]


def _namespaces(mods):
    """Each module dict, and each dict held at module level (dispatch tables)."""
    for m in mods:
        yield m.__name__, vars(m)
        for v in list(vars(m).values()):
            if isinstance(v, dict):
                yield m.__name__, v


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # [span name, child ns]
        self._originals: dict[int, object] = {}  # id(original) -> original
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._installed: list[tuple[dict, str, object]] = []
        self.spans = defaultdict(lambda: [0, 0, 0])  # (name, parent) -> calls, total, self
        self.counts = defaultdict(int)

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay installed)."""
        self._stack.clear()
        self.spans.clear()
        self.counts.clear()

    # -- wrappers ---------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else None
        frame = [name, 0]
        self._stack.append(frame)
        return parent, frame

    def _leave(self, name, parent, frame, dur, calls):
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += dur
        rec = self.spans[(name, parent)]
        rec[0] += calls
        rec[1] += dur
        rec[2] += dur - frame[1]

    def _span(self, name, fn, on_call, on_return):
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            if on_call:
                on_call(args)
            parent, frame = enter(name)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(name, parent, frame, perf_counter_ns() - t0, 1)
            if on_return:
                on_return(parent, args, result)
            return result

        return wrapper

    def _generator_span(self, name, fn):
        """Time each resumption of a generator; count what it yields."""
        enter, leave, counts = self._enter, self._leave, self.counts
        blocks = f"{name}.blocks"

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            calls = 1
            while True:
                parent, frame = enter(name)
                t0 = perf_counter_ns()
                try:
                    item = next(it)
                except StopIteration:
                    leave(name, parent, frame, perf_counter_ns() - t0, calls)
                    return
                except BaseException:
                    leave(name, parent, frame, perf_counter_ns() - t0, calls)
                    raise
                leave(name, parent, frame, perf_counter_ns() - t0, calls)
                calls = 0
                counts[blocks] += 1
                yield item

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        key = f"{name}.calls"

        def wrapper(a, b):
            counts[key] += 1
            return fn(a, b)

        return wrapper

    def _hooks(self, layer, fn_name):
        name = f"{layer}.{fn_name}"
        counts = self.counts
        if fn_name.endswith("_terms"):
            def on_call(args):
                counts[f"{name}.pairs"] += len(args[0]) * len(args[1])
            return on_call, None
        if layer == "linalg" and fn_name in ("rref", "rank"):
            def on_call(args):
                rows = args[0]
                counts[f"{name}.cells"] += len(rows) * len(rows[0]) if rows else 0
                if fn_name == "rank" and all(isinstance(x, int) for r in rows for x in r):
                    counts[f"{name}.int_calls"] += 1
            return on_call, None
        if name in _REPORTING:
            counted = CRITERIA[fn_name][1]
            equation_count = sys.modules["plk.criteria"].equation_count

            def on_return(parent, args, rep):
                # Equations count request-level calls, not the classical runs
                # the randomized contraction makes on its contracted inputs.
                if parent in _REPORTING:
                    return
                counts[f"{name}.equations"] += rep.equations_checked
                if counted and not rep.verdict:
                    P = args[0]
                    counts[f"{name}.nonsimple_equations"] += rep.equations_checked
                    counts[f"{name}.nonsimple_count"] += equation_count(P.dim, P.grade, counted)
            return None, on_return
        return None, None

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        mods = {m.__name__.removeprefix("plk."): m for m in _plk_modules()}
        for layer, names in list(SPANNED.items()) + list(COUNTED.items()):
            for fn_name in names:
                fn = getattr(mods[layer], fn_name)
                name = f"{layer}.{fn_name}"
                if layer in COUNTED and fn_name in COUNTED[layer]:
                    w = self._counter(name, fn)
                elif inspect.isgeneratorfunction(fn):
                    w = self._generator_span(name, fn)
                else:
                    w = self._span(name, fn, *self._hooks(layer, fn_name))
                self._originals[id(fn)] = fn
                self._wrappers[id(fn)] = w
        for _, ns in _namespaces(mods.values()):
            for key, value in list(ns.items()):
                if self._is_original(value):
                    self._installed.append((ns, key, value))
                    ns[key] = self._wrappers[id(value)]
        left = [(mod, key) for mod, ns in _namespaces(mods.values())
                for key, value in ns.items() if self._is_original(value)]
        if left:
            raise RuntimeError(f"original functions left unwrapped: {left}")

    def _is_original(self, value) -> bool:
        return id(value) in self._originals and self._originals[id(value)] is value

    def uninstall(self) -> None:
        for ns, key, value in reversed(self._installed):
            ns[key] = value
        self._installed.clear()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; functions that never ran report 0."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for (name, parent), (n, _, self_ns) in self.spans.items():
            if name in _REPORTING and parent in _REPORTING:
                # A criterion run inside another (the randomized contraction's
                # classical runs) is part of the outer request's work.
                self_s[parent] += self_ns / 1e9
                continue
            calls[name] += n
            self_s[name] += self_ns / 1e9
        c = self.counts
        out: dict[str, float] = {"multivector.shuffle_sign.calls": c["multivector.shuffle_sign.calls"]}
        for fn in ("wedge_terms", "interior_terms", "contract_terms"):
            name = f"multivector.{fn}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.pairs"] = c[f"{name}.pairs"]
            out[f"{name}.self_s"] = self_s[name]
        out["multivector.support_space.calls"] = calls["multivector.support_space"]
        out["multivector.support_space.self_s"] = self_s["multivector.support_space"]
        for fn in ("rref", "rank"):
            name = f"linalg.{fn}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.cells"] = c[f"{name}.cells"]
            out[f"{name}.self_s"] = self_s[name]
        out["linalg.rank.int_path_share"] = (
            c["linalg.rank.int_calls"] / calls["linalg.rank"] if calls["linalg.rank"] else 0.0
        )
        out["linalg.nullspace.self_s"] = self_s["linalg.nullspace"]
        out["linalg.intersect_row_spaces.self_s"] = self_s["linalg.intersect_row_spaces"]
        out["young.iter_projection_blocks.blocks"] = c["young.iter_projection_blocks.blocks"]
        out["young.iter_projection_blocks.self_s"] = self_s["young.iter_projection_blocks"]
        for fn, (metric, counted) in CRITERIA.items():
            name = f"criteria.{fn}"
            out[f"criteria.{metric}.calls"] = calls[name]
            out[f"criteria.{metric}.self_s"] = self_s[name]
            if name in _REPORTING:
                out[f"criteria.{metric}.equations"] = c[f"{name}.equations"]
            if counted:
                total = c[f"{name}.nonsimple_count"]
                out[f"criteria.{metric}.sweep_fraction"] = (
                    c[f"{name}.nonsimple_equations"] / total if total else 0.0
                )
        out["serialize.load.self_s"] = self_s["serialize.load"]
        out["serialize.emit_multivector.self_s"] = self_s["serialize.emit_multivector"]
        return out

    def span_rows(self) -> list[dict]:
        return [
            {"name": name, "parent": parent, "calls": n,
             "total_s": total / 1e9, "self_s": own / 1e9}
            for (name, parent), (n, total, own) in sorted(
                self.spans.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
        ]

