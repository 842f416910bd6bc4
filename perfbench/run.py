"""pathcoh benchmark: relation rows verified per second, per-scenario time,
set-up time and resource use per workload, or per-layer figures from a
traced run. Run from the repository root:

    python3 perfbench/run.py --workload l1_main --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds run information
(environment, CSV digest, tail percentile, sample counts).
"""
import os

# One BLAS/OpenMP thread, set before numpy loads, here and in every child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from outcheck import check_l1_row  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10

END_TO_END = (
    ("rows_per_s", "rows/s"),
    ("scenario_ms_p50", "ms"),
    ("scenario_ms_tail", "ms"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_ms_per_row", "ms"),
)


def environment() -> dict:
    """What a result depends on besides the code: CPUs, versions, pinning."""
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cvxpy_importable": importlib.util.find_spec("cvxpy") is not None,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def setup_seconds(name: str, seed: int, work: Path) -> float:
    """Median wall time of fresh interpreters importing pathcoh and warming up.

    The wait blocks (a timer kills a hung probe): `wait(timeout=...)` would
    poll in steps of up to 50 ms and quantize the figure."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), name, str(seed),
                                 str(work)], cwd=ROOT)
        killer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
    return statistics.median(times)


def check_rows(wl, rows) -> dict:
    """Count rows that are uncertified, violated or disagree with the closed forms."""
    failed = uncertified = violated = 0
    mismatches = []
    for row in rows:
        reason = None
        if row.relation == "L1_MEMORY":
            spec = wl.spec(row)
            reason = check_l1_row(row.lhs, row.rhs, row.slack,
                                  spec.amplitudes, spec.detector_states)
            if reason:
                mismatches.append(f"{row.scenario_id}: {reason}")
        uncertified += not row.certified
        violated += not row.satisfied
        failed += bool(reason) or not row.certified or not row.satisfied
    return {"attempted": len(rows), "failed": failed, "uncertified": uncertified,
            "violated": violated, "mismatches": mismatches}


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _scenario_ms(passes) -> list[float]:
    """Per-scenario time: the sum of the `wall_time_ms` field of its rows in a
    pass, and the median of that over the passes. Every pass runs the same
    scenarios, so the median drops a scenario that a burst of load on the
    machine slowed in one pass."""
    per = {}
    for b, rows in enumerate(passes):
        for row in rows:
            times = per.setdefault(row.scenario_id, [0.0] * len(passes))
            times[b] += row.wall_time_ms
    return [statistics.median(times) for times in per.values()]


def tail_percentile(scenarios: int) -> float:
    """The highest of 80, 90, 99 and 99.9 that leaves TAIL_BEYOND scenarios
    above it. The set of a run is fixed by its length, so runs of one length and
    workload compare the same statistic."""
    return max((p for p in (80.0, 90.0, 99.0, 99.9)
                if scenarios * (100 - p) / 100 >= TAIL_BEYOND - 1e-9), default=80.0)


def end_to_end(wl, seed: int, work: Path, info: dict):
    """`wl.passes` passes over the workload's set, after set-up probes and a
    warm-up. Throughput and CPU per row are medians over the passes."""
    setup_s = setup_seconds(wl.name, seed, work)
    wl.warm_up(seed, work)
    passes = []
    for b in range(wl.passes):
        cpu0 = _cpu_s()
        rows, dt, csv = wl.run_pass(work)
        passes.append((rows, dt, _cpu_s() - cpu0))
        if b == 0:
            info["csv_sha256_pass0"] = hashlib.sha256(csv.read_bytes()).hexdigest()

    scen = _scenario_ms([rows for rows, _, _ in passes])
    tail_pct = tail_percentile(len(scen))
    tail_ms = tracing.percentile(scen, tail_pct)
    beyond = sum(x > tail_ms for x in scen)
    checked = check_rows(wl, [r for rows, _, _ in passes for r in rows])
    rss_kb = sum(resource.getrusage(w).ru_maxrss
                 for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    info.update(passes=len(passes), rows=checked["attempted"], scenarios=len(scen),
                measured_s=sum(dt for _, dt, _ in passes),
                pass_rows_per_s=[len(rows) / dt for rows, dt, _ in passes],
                tail_percentile=tail_pct, tail_samples_beyond=beyond)
    metrics = {
        "rows_per_s": statistics.median(len(rows) / dt for rows, dt, _ in passes),
        "scenario_ms_p50": statistics.median(scen),
        "scenario_ms_tail": tail_ms,
        "ok_ratio": 1.0 - checked["failed"] / checked["attempted"],
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "cpu_ms_per_row": statistics.median(cpu * 1e3 / len(rows) for rows, _, cpu in passes),
    }
    return metrics, dict(END_TO_END), checked


def traced_run(wl, seed: int, work: Path, info: dict):
    """The same pass untraced, then traced."""
    wl.warm_up(seed, work)
    tracer = tracing.Tracer()
    plain_rows, plain_s, _ = wl.run_pass(work)
    with tracing.install(tracer):
        traced_rows, traced_s, _ = wl.run_pass(work, scenario=tracer.scenario)

    metrics = tracing.layer_metrics(tracer.spans, traced_s)
    for n, d_b in tracing.CELLS:
        metrics[f"cell.n{n}_db{d_b}.row_ms_p50"] = tracing.median(
            [r.wall_time_ms for r in plain_rows if (r.n, r.d_b) == (n, d_b)])
    metrics["harness.run_sweep.worker_busy_ratio"] = (
        sum(r.wall_time_ms for r in plain_rows) / 1e3 / plain_s)
    metrics["trace.overhead_ratio"] = traced_s / plain_s

    spans_path = work / "spans.jsonl.gz"
    tracer.dump(spans_path)
    info.update(rows=len(plain_rows), untraced_s=plain_s, traced_s=traced_s,
                spans=len(tracer.spans), spans_file=str(spans_path))
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    checked = check_rows(wl, plain_rows + traced_rows)
    return {name: metrics[name] for name in units}, units, checked


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import pathcoh
        import pathcoh.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import pathcoh from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(pathcoh.__file__).resolve().parent != ROOT / "src" / "pathcoh":
        print(f"error: pathcoh was imported from {pathcoh.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()

    work = ROOT / ".perfbench_work" / f"{wl.name}-s{args.seed}-t{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    # A traced run makes two passes (untraced, traced); each pass gets its share.
    wl.prepare(work, args.seconds / (2 if args.trace else wl.passes))
    info = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": environment()}
    measure = traced_run if args.trace else end_to_end
    metrics, units, checked = measure(wl, args.seed, work, info)

    info.update(failed_ratio=checked["failed"] / checked["attempted"],
                failed_ratio_base=f"{checked['attempted']} rows attempted",
                uncertified=checked["uncertified"], violated=checked["violated"],
                output_mismatches=checked["mismatches"][:20])
    for line in checked["mismatches"][:20]:
        print(f"output mismatch: {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not checked["mismatches"] and checked["violated"] == 0,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
