"""Span recording around pathcoh's layer functions, self time, per-layer metrics.

The wrappers live here, not in the program: `install` replaces every module
global of the `pathcoh` package that refers to a wrapped function (each
import site, e.g. `duality.min_error_solve` and `harness.check_l1_memory`)
and restores the originals on exit. Spans are kept in memory and dumped
once, after the traced pass.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CHECKERS = (
    "check_l1_memory",
    "check_l1_no_memory",
    "check_two_path_equality",
    "check_mixed_state",
    "check_entropic_memory",
    "check_entropic_no_memory",
    "check_accessible_relation",
)

# The layers are pathcoh's modules; `cli` is a thin wrapper over `harness`.
LAYER_FUNCTIONS = {
    "sampling": ("sample_scenario",),
    "interferometer": ("scenario_reduced", "build_mixed_no_memory"),
    "coherence": ("normalized_x", "rel_ent_coherence"),
    "linalg": ("eigh", "von_neumann_entropy", "purity"),
    "discrimination": ("min_error_solve", "certificate_gap", "pretty_good_measurement",
                       "helstrom", "accessible_info_lower", "mutual_information", "holevo"),
    "duality": CHECKERS,
    "harness": ("run_sweep", "emit", "parse_scenario", "run_relation"),
}

SCENARIO = "scenario"  # root span of one scenario; spans under it share its id

CELLS = tuple((n, d_b) for n in (2, 3, 4, 5) for d_b in (1, 2, 3, 4))

# (name, unit, better) of every per-layer metric, in print order.
PER_LAYER = (
    [(f"discrimination.min_error_solve.{s}", u, b) for s, u, b in (
        ("calls", "count", "lower"),
        ("calls_per_scenario", "count/scenario", "lower"),
        ("self_ms_p50", "ms", "lower"),
        ("self_ms_p95", "ms", "lower"),
        ("total_s", "s", "lower"),
        ("share", "ratio", "lower"),
        ("iterations_p50", "count", "lower"),
        ("iterations_p95", "count", "lower"),
        ("iterations_max", "count", "lower"),
        ("certified_ratio", "ratio", "higher"))]
    + [("discrimination.certificate_gap.calls", "count", "lower"),
       ("discrimination.certificate_gap.self_ms_p50", "ms", "lower"),
       ("discrimination.certificate_gap.total_s", "s", "lower"),
       ("discrimination.pretty_good_measurement.calls", "count", "lower"),
       ("discrimination.pretty_good_measurement.self_ms_p50", "ms", "lower"),
       ("discrimination.helstrom.calls", "count", "lower"),
       ("discrimination.accessible_info_lower.calls", "count", "lower"),
       ("discrimination.accessible_info_lower.self_ms_p50", "ms", "lower"),
       ("discrimination.accessible_info_lower.total_s", "s", "lower"),
       ("discrimination.mutual_information.calls", "count", "lower"),
       ("discrimination.mutual_information.self_ms_p50", "ms", "lower"),
       ("discrimination.holevo.calls", "count", "lower"),
       ("interferometer.scenario_reduced.calls_per_scenario", "count/scenario", "lower"),
       ("interferometer.scenario_reduced.self_ms_p50", "ms", "lower"),
       ("interferometer.scenario_reduced.self_ms_p95", "ms", "lower"),
       ("interferometer.build_mixed_no_memory.calls_per_scenario", "count/scenario", "lower"),
       ("interferometer.build_mixed_no_memory.self_ms_p50", "ms", "lower"),
       ("linalg.eigh.calls", "count", "lower"),
       ("linalg.eigh.self_ms_p50", "ms", "lower"),
       ("linalg.eigh.total_s", "s", "lower"),
       ("linalg.von_neumann_entropy.calls", "count", "lower"),
       ("linalg.von_neumann_entropy.self_ms_p50", "ms", "lower"),
       ("linalg.purity.calls", "count", "lower"),
       ("coherence.normalized_x.self_ms_p50", "ms", "lower"),
       ("coherence.rel_ent_coherence.self_ms_p50", "ms", "lower")]
    + [(f"duality.{c}.self_ms_p50", "ms", "lower") for c in CHECKERS]
    + [("duality.check_accessible_relation.share", "ratio", "lower"),
       ("sampling.sample_scenario.calls", "count", "lower"),
       ("sampling.sample_scenario.ms_p50", "ms", "lower"),
       ("harness.emit.ms", "ms", "lower"),
       ("harness.emit.bytes", "bytes", "lower"),
       ("harness.parse_scenario.calls", "count", "lower"),
       ("harness.parse_scenario.ms_p50", "ms", "lower"),
       ("harness.run_relation.self_ms_p50", "ms", "lower"),
       ("harness.run_sweep.worker_busy_ratio", "ratio", "higher")]
    + [(f"cell.n{n}_db{d}.row_ms_p50", "ms", "lower") for n, d in CELLS]
    + [("trace.overhead_ratio", "ratio", "lower")]
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    scenario_id: str | None
    info: object = None


def _emit_info(args, kwargs, result):
    return os.path.getsize(args[2] if len(args) > 2 else kwargs["path"])


def _solve_info(args, kwargs, result):
    return (result.iterations, result.certified)


# Extra data recorded with a span, taken from the call and its result.
_INFO = {
    "harness.emit": _emit_info,
    "discrimination.min_error_solve": _solve_info,
}


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, scenario."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._scenario: str | None = None

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self._scenario)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        self._stack.pop()
        span.end = time.perf_counter()

    @contextlib.contextmanager
    def scenario(self, scenario_id: str):
        """Root span of one scenario; spans opened inside carry its id."""
        outer = self._scenario
        self._scenario = scenario_id
        span = self._open(SCENARIO)
        try:
            yield
        finally:
            self._close(span)
            self._scenario = outer

    def wrap(self, name: str, fn):
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def wrap_eval_task(self, fn):
        """`harness._eval_task(config, cell, index)` evaluates one sweep scenario."""

        @functools.wraps(fn)
        def traced(config, cell_idx, scen_idx):
            with self.scenario(f"s{config.seed}-c{cell_idx}-i{scen_idx}"):
                return fn(config, cell_idx, scen_idx)

        return traced

    def dump(self, path: Path) -> None:
        """One JSON list per line: name, start, end, parent index, scenario id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.scenario_id]) + "\n")


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "pathcoh" or name.startswith("pathcoh."))]


@contextlib.contextmanager
def install(tracer: Tracer):
    """Wrap every layer function at every pathcoh import site; restore on exit."""
    import pathcoh.harness

    replacements = {}
    for module_name, names in LAYER_FUNCTIONS.items():
        module = sys.modules[f"pathcoh.{module_name}"]
        for fn_name in names:
            fn = getattr(module, fn_name)
            replacements[id(fn)] = (fn, tracer.wrap(f"{module_name}.{fn_name}", fn))
    eval_task = pathcoh.harness._eval_task
    replacements[id(eval_task)] = (eval_task, tracer.wrap_eval_task(eval_task))

    patched = []
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))
    try:
        yield tracer
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(lo, s.start), min(hi, s.end)) for lo, hi in children.get(i, ())]
        out.append((s.end - s.start) - _covered(clipped))
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (0 for no values)."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def median(values) -> float:
    return percentile(values, 50)


def layer_metrics(spans: list[Span], traced_wall_s: float) -> dict[str, float]:
    """Span-derived per-layer metrics (everything in PER_LAYER except
    the cell, worker-busy and overhead figures, which come from rows)."""
    selfs = self_times(spans)
    incl: dict[str, list[float]] = {}
    own: dict[str, list[float]] = {}
    info: dict[str, list] = {}
    for s, self_s in zip(spans, selfs):
        incl.setdefault(s.name, []).append(s.end - s.start)
        own.setdefault(s.name, []).append(self_s)
        if s.info is not None:
            info.setdefault(s.name, []).append(s.info)
    scenarios = len(incl.get(SCENARIO, ()))

    def stat(name: str, kind: str) -> float:
        d = incl.get(name, [])
        if kind == "calls":
            return float(len(d))
        if kind == "calls_per_scenario":
            return len(d) / scenarios if scenarios else 0.0
        if kind == "total_s":
            return float(sum(d))
        if kind == "share":
            return sum(d) / traced_wall_s if traced_wall_s > 0 else 0.0
        if kind in ("ms_p50", "ms"):
            return median(d) * 1e3
        if kind == "self_ms_p50":
            return median(own.get(name, [])) * 1e3
        if kind == "self_ms_p95":
            return percentile(own.get(name, []), 95) * 1e3
        raise KeyError(kind)

    out = {}
    for metric, _, _ in PER_LAYER:
        if metric.startswith(("cell.", "trace.")) or metric.endswith(".worker_busy_ratio"):
            continue
        name, kind = metric.rsplit(".", 1)
        if name == "discrimination.min_error_solve" and kind.startswith("iterations"):
            its = [i for i, _ in info.get(name, [])]
            out[metric] = {"iterations_p50": median(its),
                           "iterations_p95": percentile(its, 95),
                           "iterations_max": float(max(its, default=0))}[kind]
        elif kind == "certified_ratio":
            flags = [c for _, c in info.get(name, [])]
            out[metric] = sum(flags) / len(flags) if flags else 0.0
        elif kind == "bytes":
            out[metric] = median(info.get(name, []))
        else:
            out[metric] = stat(name, kind)
    return out
