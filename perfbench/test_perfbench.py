"""Tests of the benchmark itself: self time, the output check, and that every
metric printed matches BENCHMARK.json. Run from the repository root:

    python3 -m pytest -q perfbench
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from outcheck import check_l1_row  # noqa: E402
from tracing import Span, Tracer, install, self_times  # noqa: E402


def test_self_time_on_synthetic_span_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, "s"),
        Span("a", 1.0, 4.0, 0, "s"),
        Span("b", 5.0, 9.0, 0, "s"),
        Span("b.x", 6.0, 7.0, 2, "s"),
        Span("b.y", 6.5, 8.0, 2, "s"),   # overlaps b.x: the union counts once
        Span("c", 9.5, 12.0, 0, "s"),    # runs past its parent: clipped at 10
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 4 - 0.5, 3, 4 - 2, 1, 1.5, 2.5])


def test_tracer_wraps_every_import_site_and_restores_it():
    from pathcoh import discrimination, duality
    from pathcoh.sampling import sample_scenario, subseed

    original = duality.min_error_solve
    spec = sample_scenario(subseed(5, 0), 3, 2)
    tracer = Tracer()
    with install(tracer), tracer.scenario("s5"):
        assert duality.min_error_solve is not original
        assert discrimination.min_error_solve is duality.min_error_solve
        duality.check_l1_memory(spec)
    assert duality.min_error_solve is original
    names = [s.name for s in tracer.spans]
    assert names[:2] == ["scenario", "duality.check_l1_memory"]
    assert "discrimination.min_error_solve" in names and "linalg.eigh" in names
    assert {s.scenario_id for s in tracer.spans} == {"s5"}
    solve = next(s for s in tracer.spans if s.name == "discrimination.min_error_solve")
    assert tracer.spans[solve.parent].name == "duality.check_l1_memory"


def test_output_check_accepts_program_rows_and_flags_altered_ones():
    from pathcoh.duality import check_l1_memory
    from pathcoh.sampling import sample_scenario, subseed

    for i in range(20):
        spec = sample_scenario(subseed(11, i), 2 + i % 4, 1 + i % 3)
        rep = check_l1_memory(spec)
        args = (spec.amplitudes, spec.detector_states)
        assert check_l1_row(rep.lhs, rep.rhs, rep.slack, *args) is None
        assert "rhs" in check_l1_row(rep.lhs, rep.rhs + 1e-6, rep.slack + 1e-6, *args)
        assert "slack" in check_l1_row(rep.lhs, rep.rhs, rep.slack + 1e-6, *args)
        # P_s pushed above the pairwise bound.
        assert "P_s" in check_l1_row(rep.lhs + 1.0, rep.rhs, rep.rhs - rep.lhs - 1.0, *args)


def test_scenario_time_is_the_median_over_passes_and_the_tail_leaves_ten_beyond():
    from types import SimpleNamespace as Row

    from run import _scenario_ms, tail_percentile

    passes = [[Row(scenario_id="a", wall_time_ms=t), Row(scenario_id="a", wall_time_ms=1.0),
               Row(scenario_id="b", wall_time_ms=5.0)] for t in (1.0, 50.0, 3.0)]
    assert sorted(_scenario_ms(passes)) == [4.0, 5.0]  # a: median of 2, 51, 4
    assert [tail_percentile(n) for n in (50, 64, 100, 999, 1000, 10000)] == [80, 80, 90, 90, 99, 99.9]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_prints_the_metrics_of_benchmark_json(trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in bench["end_to_end" if trace == 0 else "per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        assert proc.returncode == 0, proc.stderr
        result = _last_json(proc.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        if workload == "lowrank_check":  # the pinned stalled scenario stays visible
            assert result["failed"] >= 1
