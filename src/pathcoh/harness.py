"""Scenario file ingestion, seeded sweeps and machine-readable report emission.

Scenario files are JSON; complex numbers are always [re, im] pairs.
Supported top-level "type" values: "scenario", "two_particle", "ensemble".
Detector sections accept either explicit "vectors" or a "gram" overlap
table.
"""
from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import duality
from .discrimination import Ensemble, accessible_info_lower, min_error_solve_block
from .duality import CHECKS, DualityReport, Evaluation, Relation, TwoParticleScenario, applies
from .interferometer import ScenarioSpec, gram_to_states
from .sampling import haar_state, sample_scenario, subseed

CSV_HEADER = "scenario_id,relation,n,d_b,lhs,rhs,slack,satisfied,certified,ms"


class ScenarioParseError(ValueError):
    """Malformed or invalid scenario/ensemble file."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def to_pairs(a: np.ndarray):
    """Complex array -> nested [re, im] lists."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def from_pairs(data, where: str) -> np.ndarray:
    """Nested [re, im] lists -> complex array."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioParseError(f"{where}: not a numeric array: {exc}") from exc
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ScenarioParseError(f"{where}: complex entries must be [re, im] pairs")
    if not np.isfinite(arr).all():
        raise ScenarioParseError(f"{where}: entries must be finite")
    return arr[..., 0] + 1j * arr[..., 1]


def _detector_states(section, n: int, where: str) -> np.ndarray:
    if not isinstance(section, dict):
        raise ScenarioParseError(f"{where}: expected an object with 'vectors' or 'gram'")
    if ("vectors" in section) == ("gram" in section):
        raise ScenarioParseError(f"{where}: give exactly one of 'vectors' or 'gram'")
    if "vectors" in section:
        phi = from_pairs(section["vectors"], f"{where}.vectors")
        if phi.ndim != 2 or phi.shape[0] != n:
            raise ScenarioParseError(f"{where}.vectors: expected {n} state vectors")
        return phi
    g = from_pairs(section["gram"], f"{where}.gram")
    if g.shape != (n, n):
        raise ScenarioParseError(f"{where}.gram: expected an {n}x{n} matrix")
    try:
        return gram_to_states(g)
    except ValueError as exc:
        raise ScenarioParseError(f"{where}.gram: {exc}") from exc


def parse_scenario(path) -> ScenarioSpec | TwoParticleScenario | Ensemble:
    """Load and validate a scenario, two-particle or ensemble file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}: parse error: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioParseError(f"{path}: top level must be an object")
    kind = doc.get("type", "scenario")

    try:
        if kind == "scenario":
            amps = from_pairs(doc.get("amplitudes"), "amplitudes")
            if amps.ndim != 2:
                raise ScenarioParseError("amplitudes: expected an N x d_B table")
            phi = _detector_states(doc.get("detector", {}), amps.shape[0], "detector")
            return ScenarioSpec(amps, phi)
        if kind == "two_particle":
            amps = from_pairs(doc.get("amplitudes"), "amplitudes")
            if amps.ndim != 2 or amps.shape[0] != amps.shape[1]:
                raise ScenarioParseError("amplitudes: expected an N x N joint table")
            n = amps.shape[0]
            da = _detector_states(doc.get("detector_a", {}), n, "detector_a")
            db = _detector_states(doc.get("detector_b", {}), n, "detector_b")
            return TwoParticleScenario(amps, da, db)
        if kind == "ensemble":
            probs = np.asarray(doc.get("probs"), dtype=float)
            states = from_pairs(doc.get("states"), "states")
            return Ensemble(probs, states)
    except ScenarioParseError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioParseError(f"{path}: validation error: {exc}") from exc
    raise ScenarioParseError(f"{path}: unknown type {kind!r}")


def emit_scenario(spec: ScenarioSpec, path) -> None:
    doc = {
        "type": "scenario",
        "amplitudes": to_pairs(spec.amplitudes),
        "detector": {"vectors": to_pairs(spec.detector_states)},
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


@dataclass(frozen=True)
class SweepConfig:
    """Randomized verification sweep: `count` scenarios per (N, d_B) cell."""

    seed: int
    count: int
    n_values: tuple[int, ...]
    d_b_values: tuple[int, ...]
    d_d: int | None = None  # None: detector dimension follows N
    relations: tuple[Relation, ...] | None = None  # None: all applicable

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if not self.n_values or any(n < 2 for n in self.n_values):
            raise ValueError(f"every N must be >= 2, got {self.n_values}")
        if not self.d_b_values or any(d < 1 for d in self.d_b_values):
            raise ValueError(f"every d_B must be >= 1, got {self.d_b_values}")
        if self.d_d is not None and self.d_d < 1:
            raise ValueError(f"d_D must be >= 1, got {self.d_d}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")

    def cells(self) -> list[tuple[int, int]]:
        return [(n, d_b) for n in self.n_values for d_b in self.d_b_values]


@dataclass(frozen=True)
class SweepRow:
    scenario_id: str
    relation: str
    n: int
    d_b: int
    lhs: float
    rhs: float
    slack: float
    satisfied: bool
    certified: bool
    wall_time_ms: float


DEFAULT_RELATIONS = (
    Relation.L1_MEMORY,
    Relation.L1_NO_MEMORY,
    Relation.TWO_PATH_EQUALITY,
    Relation.MIXED_STATE,
    Relation.ENTROPIC_MEMORY,
    Relation.ENTROPIC_NO_MEMORY,
    Relation.ACCESSIBLE,
)


def applicable_relations(relations, n: int, d_b: int) -> list[Relation]:
    return [Relation(r) for r in relations if applies(Relation(r), n, d_b)]


def sample_two_particle(rng, n: int, d_d: int | None = None) -> TwoParticleScenario:
    d_d = n if d_d is None else d_d
    amps = haar_state(rng, n * n).reshape(n, n)
    da = np.stack([haar_state(rng, d_d) for _ in range(n)])
    db = np.stack([haar_state(rng, d_d) for _ in range(n)])
    return TwoParticleScenario(amps, da, db)


def run_relation(relation: Relation, spec) -> DualityReport:
    """Evaluate one relation on a ScenarioSpec, an Evaluation of one (which
    shares its quantities between calls), or a TwoParticleScenario; raises
    duality.NotApplicable where the relation does not apply."""
    return getattr(duality, CHECKS[relation])(spec)


# A sweep evaluates each cell's scenarios in blocks of at most this many; a
# block's min-error problems are solved in lockstep, and a block is the unit
# of work of the worker pool.
BLOCK_SIZE = 64


class InternalError(RuntimeError):
    """Any exception a relation raises on a sweep scenario: a failed internal
    invariant, a numerical failure or a fault; the message names the scenario
    and the relation."""


def _eval_task(config: SweepConfig, cell_idx: int, block: range) -> list[SweepRow]:
    """Rows of a block of one cell's scenarios (a range of indices), in
    scenario order.

    Before any relation runs, a block's min-error problems are solved together
    (`min_error_solve_block`), and, when ACCESSIBLE is among the relations,
    its accessible-information searches run together (`accessible_info_lower`
    on the block). The solve's time is split evenly over the block's scenarios
    and added to each scenario's first row, the search's to each ACCESSIBLE
    row.
    """
    n, d_b = config.cells()[cell_idx]
    relations = applicable_relations(config.relations or DEFAULT_RELATIONS, n, d_b)

    evs = tps = [None] * len(block)
    if Relation.TWO_PARTICLE_SUM in relations:
        tps = [sample_two_particle(subseed(config.seed, cell_idx, i, 1), n, config.d_d)
               for i in block]

    solve_ms = 0.0
    if any(r is not Relation.TWO_PARTICLE_SUM for r in relations):
        evs = [Evaluation(sample_scenario(subseed(config.seed, cell_idx, i), n, d_b, config.d_d))
               for i in block]
        t0 = time.perf_counter()
        try:
            for ev, res in zip(evs, min_error_solve_block([ev.ensemble for ev in evs])):
                ev.solution = res
        except Exception:
            pass  # each scenario then solves alone, and its failure names it
        solve_ms = (time.perf_counter() - t0) * 1e3 / len(evs)

    search_ms = 0.0
    if Relation.ACCESSIBLE in relations:
        t0 = time.perf_counter()
        try:
            found = accessible_info_lower([ev.ensemble for ev in evs],
                                          [ev.solution.povm for ev in evs])
            for ev, acc in zip(evs, found):
                ev.acc_lower = acc
        except Exception:
            pass  # each scenario then searches alone, and its failure names it
        search_ms = (time.perf_counter() - t0) * 1e3 / len(evs)

    rows = []
    for i, ev, tp in zip(block, evs, tps):
        scenario_id = f"s{config.seed}-c{cell_idx}-i{i}"
        extra_ms = solve_ms
        for rel in relations:
            target = tp if rel is Relation.TWO_PARTICLE_SUM else ev
            t0 = time.perf_counter()
            try:
                rep = run_relation(rel, target)
            except Exception as exc:
                # The sweep made this scenario itself, so no input is at fault.
                raise InternalError(f"{scenario_id}: {rel.value}: "
                                    f"{type(exc).__name__}: {exc}") from exc
            ms = (time.perf_counter() - t0) * 1e3 + extra_ms
            if rel is Relation.ACCESSIBLE:
                ms += search_ms
            extra_ms = 0.0
            rows.append(SweepRow(
                scenario_id=scenario_id, relation=rel.value, n=n, d_b=d_b,
                lhs=rep.lhs, rhs=rep.rhs, slack=rep.slack, satisfied=rep.satisfied,
                certified=rep.solver_certified, wall_time_ms=ms))
    return rows


def run_sweep(config: SweepConfig, jobs: int = 1) -> list[SweepRow]:
    """Evaluate every (cell, scenario, relation) triple.

    Row order is deterministic and independent of `jobs`; each scenario is
    generated from a substream keyed by (seed, cell index, scenario index).
    Each cell's scenarios run in blocks of at most BLOCK_SIZE, and at most one
    worker process per CPU and per block is started. Raises InternalError
    when a relation fails on a scenario.
    """
    tasks = [(ci, range(lo, min(lo + BLOCK_SIZE, config.count)))
             for ci in range(len(config.cells()))
             for lo in range(0, config.count, BLOCK_SIZE)]
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        chunks = [_eval_task(config, ci, block) for ci, block in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_eval_task, [config] * len(tasks),
                                   [t[0] for t in tasks], [t[1] for t in tasks],
                                   chunksize=max(1, len(tasks) // (8 * workers))))
    return [row for chunk in chunks for row in chunk]


def summarize(rows: list[SweepRow]) -> dict:
    return {
        "rows": len(rows),
        "violations": sum(1 for r in rows if not r.satisfied),
        "uncertified": sum(1 for r in rows if not r.certified),
        "worst_slack": min((r.slack for r in rows), default=0.0),
    }


def _csv_line(r: SweepRow) -> str:
    return ",".join([
        r.scenario_id, r.relation, str(r.n), str(r.d_b),
        _fmt(r.lhs), _fmt(r.rhs), _fmt(r.slack),
        "true" if r.satisfied else "false",
        "true" if r.certified else "false",
        "0",
    ])


def emit(rows: list[SweepRow], fmt: str, path) -> None:
    """Write rows as CSV or JSON-lines, one line per row.

    The CSV payload is deterministic for a fixed config: wall times vary
    between runs, so the CSV `ms` column is fixed to 0 and measured times
    are only available in the JSON-lines format.
    """
    line = {"csv": _csv_line, "jsonl": lambda r: json.dumps(asdict(r))}.get(fmt)
    if line is None:
        raise ValueError(f"unknown format {fmt!r} (expected 'csv' or 'jsonl')")
    with Path(path).open("w") as fh:
        if fmt == "csv":
            fh.write(CSV_HEADER + "\n")
        fh.writelines(line(r) + "\n" for r in rows)


def witness_report(spec: ScenarioSpec) -> dict:
    """Both entanglement witnesses of the particle-memory state."""
    ev = Evaluation(spec)
    pur_a, pur_ab = ev.purities
    s_a, s_ab = ev.entropies
    return {"purity_witness": pur_a - pur_ab, "cond_ent_witness": s_ab - s_a}


def default_out_dir() -> Path:
    return Path(os.environ.get("PATHCOH_OUT_DIR", "."))
