"""The benchmark's workloads, driven through pathcoh's public calls.

Sweep workloads call `harness.run_sweep` then `harness.emit` (what
`pathcoh sweep` does); the check workload calls `harness.parse_scenario`
then `harness.run_relation` per file (what `pathcoh check` does). Every
call goes through the module attribute, so tracing wrappers apply.

A run is `passes` passes over one fixed set of scenarios. The set depends
only on the run length: a workload sizes it so that its passes take about
that long at the rate of the first baseline, and a faster program ends
sooner. The sweeps make three passes, so that per-scenario times can be
medians over passes: a burst of load on the machine that slows a scenario in
one pass does not move it into the tail. `lowrank_check` makes one, since
each pass repeats its 6-s pinned scenario.
The passes of a run check the same scenarios in one process, so a cache kept
across `run_sweep` calls would show as a gain.

The benchmark seed picks the warm-up scenario, which lies outside the set.
The measured set does not depend on the seed: the fixed-point solver stalls
uncertified on about one d_D = N scenario in several thousand, so a
seed-dependent set would make the failure count of a run a matter of luck.
The known stall stays in every run of `lowrank_check`, as a pinned file.
"""
from __future__ import annotations

import contextlib
import time
from pathlib import Path

from pathcoh import harness
from pathcoh.duality import Relation
from pathcoh.sampling import sample_scenario, subseed

# The acceptance criterion-01 sweep seed: `l1_main` runs the first k
# scenarios per cell of that sweep, a cut that leaves out its stalled
# scenario s101-c8-i405 (k stays far below 405).
SWEEP_SEED = 101


def _no_scenario(_scenario_id):
    return contextlib.nullcontext()


def _per_cell(seconds: float, scenarios_per_s: float, cells: int) -> int:
    return max(1, round(seconds * scenarios_per_s / cells))


class SweepWorkload:
    def __init__(self, name, n_values, d_b_values, relations, scenarios_per_s, passes):
        self.name = name
        self.n_values = n_values
        self.d_b_values = d_b_values
        self.relations = relations
        self.scenarios_per_s = scenarios_per_s  # at the first baseline; sizes a run
        self.passes = passes
        self.count = 1  # scenarios per cell, set by prepare

    def prepare(self, work: Path, seconds: float) -> None:
        cells = len(self.n_values) * len(self.d_b_values)
        self.count = _per_cell(seconds, self.scenarios_per_s, cells)

    def warm_up(self, seed: int, work: Path) -> None:
        """One scenario of the first cell at the benchmark seed."""
        cfg = harness.SweepConfig(seed=seed, count=1, n_values=self.n_values[:1],
                                  d_b_values=self.d_b_values[:1], relations=self.relations)
        harness.emit(harness.run_sweep(cfg), "csv", work / "warmup.csv")

    def run_pass(self, work: Path, scenario=_no_scenario):
        """(rows, seconds for sweep + CSV emission, CSV path)."""
        cfg = harness.SweepConfig(seed=SWEEP_SEED, count=self.count, n_values=self.n_values,
                                  d_b_values=self.d_b_values, relations=self.relations)
        out = work / "pass.csv"
        t0 = time.perf_counter()
        rows = harness.run_sweep(cfg)
        harness.emit(rows, "csv", out)
        return rows, time.perf_counter() - t0, out

    def spec(self, row):
        """Regenerate the scenario of a row from its id `s<seed>-c<cell>-i<index>`."""
        seed, cell, index = (int(part[1:]) for part in row.scenario_id.split("-"))
        return sample_scenario(subseed(seed, cell, index), row.n, row.d_b)


class CheckWorkload:
    """Scenario files with a detector smaller than the path count (d_D = 2 < N).

    The pass checks the pinned scenario s101-c8-i405, on which the
    fixed-point solver stalls uncertified (about 6 s), and the first
    `per_cell` scenarios of each cell of a fixed set. At these sizes the
    solver's iteration count is heavy-tailed (p99/p50 of scenario time about
    70), so only a fixed set gives steady figures.
    """

    CELLS = ((3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2))
    D_D = 2
    SET_SEED = 101
    PINNED_ID = "s101-c8-i405"
    passes = 1
    PINNED_S = 6.0  # the pinned scenario's time at the first baseline
    SCENARIOS_PER_S = 7.0  # the rest of the set, at the first baseline

    def __init__(self, name):
        self.name = name
        self.files = []  # (scenario_id, path, n, d_b, spec), the pinned one first
        self.specs = {}

    def _write(self, work: Path, scenario_id: str, spec, n: int, d_b: int):
        path = work / f"{scenario_id}.json"
        harness.emit_scenario(spec, path)
        return (scenario_id, path, n, d_b, spec)

    def prepare(self, work: Path, seconds: float) -> None:
        per_cell = _per_cell(seconds - self.PINNED_S, self.SCENARIOS_PER_S, len(self.CELLS))
        # Criterion-01 cell 8 is (N=4, d_B=1), detector dimension N.
        pinned = self._write(work, self.PINNED_ID,
                             sample_scenario(subseed(101, 8, 405), 4, 1), 4, 1)
        self.files = [pinned] + [
            self._write(work, f"lr-c{ci}-i{i}",
                        sample_scenario(subseed(self.SET_SEED, ci, i), n, d_b, self.D_D),
                        n, d_b)
            for i in range(per_cell)
            for ci, (n, d_b) in enumerate(self.CELLS)]
        self.specs = {f[0]: f[4] for f in self.files}

    def warm_up(self, seed: int, work: Path) -> None:
        """One N = 2 scenario at the benchmark seed, written, parsed and checked.
        At N > 2 a d_D = 2 solve can take seconds, which would make set-up
        time depend on the seed."""
        path = work / "warmup.json"
        harness.emit_scenario(sample_scenario(subseed(seed, 99), 2, 1, self.D_D), path)
        harness.run_relation(Relation.L1_MEMORY, harness.parse_scenario(path))

    def run_pass(self, work: Path, scenario=_no_scenario):
        rows = []
        out = work / "pass.csv"
        t0 = time.perf_counter()
        for scenario_id, path, n, d_b, _ in self.files:
            with scenario(scenario_id):
                obj = harness.parse_scenario(path)
                ts = time.perf_counter()
                rep = harness.run_relation(Relation.L1_MEMORY, obj)
                ms = (time.perf_counter() - ts) * 1e3
            rows.append(harness.SweepRow(
                scenario_id=scenario_id, relation=rep.relation_id.value, n=n, d_b=d_b,
                lhs=rep.lhs, rhs=rep.rhs, slack=rep.slack, satisfied=rep.satisfied,
                certified=rep.solver_certified, wall_time_ms=ms))
        harness.emit(rows, "csv", out)
        return rows, time.perf_counter() - t0, out

    def spec(self, row):
        return self.specs[row.scenario_id]


_ALL_N = (2, 3, 4, 5)

WORKLOADS = {
    "l1_main": lambda: SweepWorkload(
        "l1_main", n_values=_ALL_N, d_b_values=(1, 2, 3, 4),
        relations=(Relation.L1_MEMORY,), scenarios_per_s=65.0, passes=3),
    "default_mix": lambda: SweepWorkload(
        "default_mix", n_values=_ALL_N, d_b_values=(1, 2), relations=None,
        scenarios_per_s=6.7, passes=3),
    "lowrank_check": lambda: CheckWorkload("lowrank_check"),
}
