import dataclasses
import hashlib
import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from pathcoh import cli, discrimination, duality, harness
from pathcoh.cli import main
from pathcoh.discrimination import Ensemble
from pathcoh.duality import Evaluation, Relation, TwoParticleScenario
from pathcoh.harness import (
    BLOCK_SIZE,
    CSV_HEADER,
    DEFAULT_RELATIONS,
    ScenarioParseError,
    _fmt,
    SweepConfig,
    SweepRow,
    applicable_relations,
    emit,
    emit_scenario,
    parse_scenario,
    run_relation,
    run_sweep,
    sample_two_particle,
    summarize,
    witness_report,
)
from pathcoh.interferometer import ScenarioSpec
from pathcoh.sampling import haar_state, sample_scenario, subseed

S = 1 / np.sqrt(2)

SCENARIO_DOC = {
    "type": "scenario",
    "amplitudes": [[[S, 0.0]], [[S, 0.0]]],
    "detector": {"vectors": [[[1.0, 0.0], [0.0, 0.0]],
                             [[0.0, 0.0], [1.0, 0.0]]]},
}

ENSEMBLE_DOC = {
    "type": "ensemble",
    "probs": [0.5, 0.5],
    "states": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
}


def write_doc(tmp_path, doc, name="in.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


class TestParseScenario:
    def test_minimal_scenario(self, tmp_path):
        spec = parse_scenario(write_doc(tmp_path, SCENARIO_DOC))
        assert isinstance(spec, ScenarioSpec)
        assert spec.n == 2 and spec.d_b == 1
        assert np.allclose(spec.path_probs, [0.5, 0.5])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_pair_refused_before_complex_build(self, bad):
        # An infinite imaginary part would become nan+infj with a warning.
        with pytest.raises(ScenarioParseError, match="amplitudes: entries must be finite"):
            harness.from_pairs([[0.5, 0.0], [0.0, bad]], "amplitudes")

    def test_gram_detector(self, tmp_path):
        doc = {
            "type": "scenario",
            "amplitudes": [[[S, 0.0]], [[S, 0.0]]],
            "detector": {"gram": [[[1.0, 0.0], [0.6, 0.0]],
                                  [[0.6, 0.0], [1.0, 0.0]]]},
        }
        spec = parse_scenario(write_doc(tmp_path, doc))
        overlap = np.vdot(spec.detector_states[0], spec.detector_states[1])
        assert overlap == pytest.approx(0.6, abs=1e-9)

    def test_ensemble(self, tmp_path):
        ens = parse_scenario(write_doc(tmp_path, ENSEMBLE_DOC))
        assert isinstance(ens, Ensemble)
        assert ens.n == 2

    def test_two_particle(self, tmp_path):
        doc = {
            "type": "two_particle",
            "amplitudes": [[[S, 0.0], [0.0, 0.0]], [[0.0, 0.0], [S, 0.0]]],
            "detector_a": {"vectors": [[[1.0, 0.0], [0.0, 0.0]],
                                       [[0.0, 0.0], [1.0, 0.0]]]},
            "detector_b": {"vectors": [[[1.0, 0.0], [0.0, 0.0]],
                                       [[0.0, 0.0], [1.0, 0.0]]]},
        }
        tp = parse_scenario(write_doc(tmp_path, doc))
        assert isinstance(tp, TwoParticleScenario)
        assert tp.n == 2

    @pytest.mark.parametrize("mangle", [
        lambda d: d.update(type="nope"),
        lambda d: d.update(amplitudes=[[1.0]]),
        lambda d: d.update(detector={}),
        lambda d: d.update(detector={"vectors": [[[1.0, 0.0]]],
                                     "gram": [[[1.0, 0.0]]]}),
    ])
    def test_rejects_malformed(self, tmp_path, mangle):
        doc = json.loads(json.dumps(SCENARIO_DOC))
        mangle(doc)
        with pytest.raises(ScenarioParseError):
            parse_scenario(write_doc(tmp_path, doc))

    def test_rejects_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ScenarioParseError):
            parse_scenario(p)

    def test_rejects_invalid_physics(self, tmp_path):
        doc = json.loads(json.dumps(SCENARIO_DOC))
        doc["amplitudes"] = [[[1.0, 0.0]], [[1.0, 0.0]]]  # not normalized
        with pytest.raises(ScenarioParseError):
            parse_scenario(write_doc(tmp_path, doc))

    def test_round_trip(self, tmp_path):
        spec = sample_scenario(3, 3, 2)
        p = tmp_path / "out.json"
        emit_scenario(spec, p)
        back = parse_scenario(p)
        assert np.max(np.abs(back.amplitudes - spec.amplitudes)) <= 1e-12
        assert np.max(np.abs(back.detector_states - spec.detector_states)) <= 1e-12


class TestSampling:
    def test_deterministic(self):
        a = sample_scenario(9, 4, 2)
        b = sample_scenario(9, 4, 2)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert np.array_equal(a.detector_states, b.detector_states)

    def test_detector_dim_defaults_to_n(self):
        assert sample_scenario(0, 3, 2).d_d == 3
        assert sample_scenario(0, 3, 2, 5).d_d == 5

    def test_two_particle_sampler(self):
        tp = sample_two_particle(subseed(1, 0), 3)
        assert tp.n == 3
        assert abs(float(np.sum(np.abs(tp.amplitudes) ** 2)) - 1.0) <= 1e-9


class TestSweepConfig:
    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            SweepConfig(seed=0, count=0, n_values=(2,), d_b_values=(1,))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            SweepConfig(seed=0, count=1, n_values=(1,), d_b_values=(1,))
        with pytest.raises(ValueError):
            SweepConfig(seed=0, count=1, n_values=(2,), d_b_values=(0,))

    def test_cells(self):
        cfg = SweepConfig(seed=0, count=1, n_values=(2, 3), d_b_values=(1, 2))
        assert cfg.cells() == [(2, 1), (2, 2), (3, 1), (3, 2)]


class TestApplicableRelations:
    def test_memoryless_needs_db1(self):
        rels = applicable_relations(DEFAULT_RELATIONS, 3, 2)
        assert Relation.L1_NO_MEMORY not in rels
        assert Relation.ENTROPIC_NO_MEMORY not in rels
        assert Relation.L1_MEMORY in rels

    def test_equality_needs_two_paths(self):
        assert Relation.TWO_PATH_EQUALITY not in applicable_relations(
            DEFAULT_RELATIONS, 3, 1)
        assert Relation.TWO_PATH_EQUALITY in applicable_relations(
            DEFAULT_RELATIONS, 2, 1)


class TestRunSweep:
    def test_two_path_equality_rows(self):
        cfg = SweepConfig(seed=5, count=20, n_values=(2,), d_b_values=(2,),
                          relations=(Relation.TWO_PATH_EQUALITY,))
        rows = run_sweep(cfg)
        assert len(rows) == 20
        for r in rows:
            assert abs(r.slack) <= 1e-9
            assert r.satisfied and r.certified
            assert r.slack == pytest.approx(r.rhs - r.lhs, abs=1e-15)

    def test_summary(self):
        cfg = SweepConfig(seed=5, count=5, n_values=(2,), d_b_values=(1,),
                          relations=(Relation.L1_NO_MEMORY,))
        s = summarize(run_sweep(cfg))
        assert s["rows"] == 5
        assert s["violations"] == 0 and s["uncertified"] == 0
        assert s["worst_slack"] >= -1e-7

    def test_parallel_matches_serial(self):
        cfg = SweepConfig(seed=11, count=4, n_values=(2, 3), d_b_values=(1, 2),
                          relations=(Relation.L1_MEMORY,
                                     Relation.TWO_PATH_EQUALITY))
        serial = run_sweep(cfg, jobs=1)
        parallel = run_sweep(cfg, jobs=2)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert (a.scenario_id, a.relation, a.n, a.d_b) == \
                   (b.scenario_id, b.relation, b.n, b.d_b)
            assert a.lhs == b.lhs and a.rhs == b.rhs and a.slack == b.slack
            assert a.satisfied == b.satisfied and a.certified == b.certified

    @staticmethod
    def _pool_sizes(monkeypatch, cfg, jobs, cpus):
        """Pool sizes a sweep asks for, with the process pool replaced by a
        recorder that maps in-process; checks rows against a serial sweep."""
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        serial = run_sweep(cfg, jobs=1)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        rows = run_sweep(cfg, jobs=jobs)
        assert [(r.scenario_id, r.lhs, r.slack) for r in rows] == \
               [(r.scenario_id, r.lhs, r.slack) for r in serial]
        return pools

    # `count` scenarios, one per cell, so each is a block: the pool's unit of work.
    @pytest.mark.parametrize("jobs, cpus, count, workers", [
        (64, 2, 2, 2),       # clamped to the CPU count
        (64, 8, 3, 3),       # clamped to the number of blocks
        (3, 8, 4, 3),
        (2, 1, 2, None),     # one CPU: serial
        (8, None, 2, None),  # unknown CPU count counts as one
        (4, 8, 1, None),     # one block: serial
        (0, 2, 2, None),
    ])
    def test_worker_count_is_clamped(self, monkeypatch, jobs, cpus, count, workers):
        cfg = SweepConfig(seed=11, count=1, n_values=(2,),
                          d_b_values=tuple(range(1, count + 1)),
                          relations=(Relation.TWO_PATH_EQUALITY,))
        pools = self._pool_sizes(monkeypatch, cfg, jobs, cpus)
        assert pools == ([] if workers is None else [workers])

    @pytest.mark.parametrize("count, workers", [(BLOCK_SIZE, None), (BLOCK_SIZE + 1, 2)])
    def test_one_cell_runs_in_blocks(self, monkeypatch, count, workers):
        cfg = SweepConfig(seed=11, count=count, n_values=(2,), d_b_values=(1,),
                          relations=(Relation.TWO_PATH_EQUALITY,))
        pools = self._pool_sizes(monkeypatch, cfg, 8, 8)
        assert pools == ([] if workers is None else [workers])


def _count_calls(monkeypatch, calls, module, name):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


class TestSharedEvaluation:
    def test_one_build_and_two_solves_per_scenario(self, monkeypatch):
        # N = 3, d_B = 1: six default relations, five of them solver-backed.
        cfg = SweepConfig(seed=101, count=1, n_values=(3,), d_b_values=(1,))
        calls = []
        _count_calls(monkeypatch, calls, duality, "scenario_reduced")
        _count_calls(monkeypatch, calls, duality, "min_error_solve")
        _count_calls(monkeypatch, calls, discrimination, "min_error_solve")
        rows = harness._eval_task(cfg, 0, 0)
        assert len(rows) == 6
        assert calls.count("scenario_reduced") == 1
        # ACCESSIBLE reads the shared solve's POVM too.
        assert calls.count("min_error_solve") == 1

    def test_sweep_matches_one_fresh_check_per_relation(self):
        cfg = SweepConfig(seed=23, count=2, n_values=(2, 3), d_b_values=(1, 2))
        rows = run_sweep(cfg)
        assert len(rows) == 2 * (7 + 5 + 6 + 4)
        for row in rows:
            _, cell, index = (int(part[1:]) for part in row.scenario_id.split("-"))
            spec = sample_scenario(subseed(cfg.seed, cell, index), row.n, row.d_b)
            rep = run_relation(Relation(row.relation), Evaluation(spec))
            assert (row.lhs, row.rhs, row.slack, row.satisfied, row.certified) == \
                   (rep.lhs, rep.rhs, rep.slack, rep.satisfied, rep.solver_certified)

    def test_accessible_row_of_sweep_equals_check(self, tmp_path):
        # The search draws nothing at random, so a sweep's ACCESSIBLE row is
        # the one `pathcoh check` prints for the scenario written to a file.
        cfg = SweepConfig(seed=5, count=3, n_values=(3, 4), d_b_values=(1, 2), d_d=2,
                          relations=(Relation.ACCESSIBLE,))
        for row in run_sweep(cfg):
            _, cell, index = (int(part[1:]) for part in row.scenario_id.split("-"))
            path = tmp_path / f"{row.scenario_id}.json"
            emit_scenario(sample_scenario(subseed(cfg.seed, cell, index), row.n, row.d_b, 2),
                          path)
            res = CliRunner().invoke(main, ["check", str(path), "--relation", "ACCESSIBLE"])
            assert res.exit_code == 0, res.output
            assert res.output.splitlines()[0] == (
                f"ACCESSIBLE: PASS  lhs={_fmt(row.lhs)} rhs={_fmt(row.rhs)} "
                f"slack={_fmt(row.slack)}"), row.scenario_id


class TestBlockSweep:
    def test_block_matches_fresh_solves(self):
        # One cell of BLOCK_SIZE + 1 scenarios: a full lockstep block, then a
        # block of one.
        cfg = SweepConfig(seed=31, count=BLOCK_SIZE + 1, n_values=(3,), d_b_values=(1,),
                          relations=(Relation.L1_MEMORY,))
        rows = run_sweep(cfg)
        assert len(rows) == BLOCK_SIZE + 1
        for index, row in enumerate(rows):
            assert row.scenario_id == f"s31-c0-i{index}"
            rep = run_relation(Relation.L1_MEMORY, sample_scenario(subseed(31, 0, index), 3, 1))
            assert (row.lhs, row.rhs, row.slack, row.satisfied, row.certified) == \
                   (rep.lhs, rep.rhs, rep.slack, rep.satisfied, rep.solver_certified)

    def test_block_solve_time_lands_on_first_rows(self, monkeypatch):
        solve = harness.min_error_solve_block

        def slow(ensembles):
            time.sleep(0.04)
            return solve(ensembles)

        monkeypatch.setattr(harness, "min_error_solve_block", slow)
        cfg = SweepConfig(seed=3, count=4, n_values=(2,), d_b_values=(1,),
                          relations=(Relation.L1_MEMORY, Relation.L1_NO_MEMORY))
        rows = run_sweep(cfg)
        first, second = rows[0::2], rows[1::2]
        assert all(r.wall_time_ms >= 40.0 / 4 for r in first)
        assert sum(r.wall_time_ms for r in second) < 40.0

    def test_failed_block_solve_falls_back_to_single_solves(self, monkeypatch):
        def values(rows):
            return [(r.scenario_id, r.relation, r.lhs, r.rhs, r.certified) for r in rows]

        cfg = SweepConfig(seed=3, count=3, n_values=(3,), d_b_values=(1, 2))
        expected = values(run_sweep(cfg))

        def failing(ensembles):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(harness, "min_error_solve_block", failing)
        assert values(run_sweep(cfg)) == expected


    def test_block_search_runs_once_per_block(self, monkeypatch):
        calls = []
        search = harness.accessible_info_lower

        def counted(e, povms, **kwargs):
            calls.append(len(e))
            return search(e, povms, **kwargs)

        monkeypatch.setattr(harness, "accessible_info_lower", counted)
        _count_calls(monkeypatch, calls, duality, "accessible_info_lower")
        cfg = SweepConfig(seed=3, count=BLOCK_SIZE + 1, n_values=(2,), d_b_values=(1,),
                          relations=(Relation.L1_MEMORY, Relation.ACCESSIBLE))
        run_sweep(cfg)
        assert calls == [BLOCK_SIZE, 1]
        calls.clear()
        run_sweep(SweepConfig(seed=3, count=3, n_values=(2,), d_b_values=(1,),
                              relations=(Relation.L1_MEMORY,)))
        assert calls == []

    def test_block_search_time_lands_on_accessible_rows(self, monkeypatch):
        search = harness.accessible_info_lower

        def slow(*args, **kwargs):
            time.sleep(0.04)
            return search(*args, **kwargs)

        monkeypatch.setattr(harness, "accessible_info_lower", slow)
        cfg = SweepConfig(seed=3, count=4, n_values=(2,), d_b_values=(1,),
                          relations=(Relation.L1_MEMORY, Relation.ACCESSIBLE))
        rows = run_sweep(cfg)
        l1, acc = rows[0::2], rows[1::2]
        assert all(r.relation == "ACCESSIBLE" and r.wall_time_ms >= 40.0 / 4 for r in acc)
        assert sum(r.wall_time_ms for r in l1) < 40.0

    def test_failed_block_search_falls_back_to_single_searches(self, monkeypatch):
        def values(rows):
            return [(r.scenario_id, r.relation, r.lhs, r.rhs, r.certified) for r in rows]

        cfg = SweepConfig(seed=3, count=3, n_values=(3,), d_b_values=(1, 2))
        expected = values(run_sweep(cfg))

        def failing(*args, **kwargs):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(harness, "accessible_info_lower", failing)
        assert values(run_sweep(cfg)) == expected


# SHA-256 of reference sweep CSVs; rows must not move unless a change says so.
REFERENCE_CSVS = [
    (["--seed", "101", "--count", "8", "--n", "2,3,4,5", "--db", "1,2"],
     "0dc249a1a98b352e21868f2dc7d895515e321b74bbb8a6e868fcd993c081d8b5"),
    (["--seed", "7", "--count", "4", "--n", "2,3,4,5", "--db", "3,4"],
     "f88752696f504423555fbf94fe9a0d81515e085e1d1b883a893792ce333a4c1e"),
    (["--seed", "5", "--count", "3", "--n", "3,4", "--db", "1,2", "--dd", "2"],
     "a2f4f6d5bb62f1a5de180e7a45b6c3bc407968d3a0d132463c3ae178d396d86e"),
    (["--seed", "101", "--count", "41", "--n", "2,3,4,5", "--db", "1,2,3,4",
      "--relation", "L1_MEMORY"],
     "44bddb0612cc23fe7c0fe9f4ca70682f078ae689aa840e9fdb674bdee5b1765d"),
]


class TestReferenceCsv:
    def sweep_sha256(self, tmp_path, args):
        out = tmp_path / "sweep.csv"
        res = CliRunner().invoke(main, ["sweep", *args, "--out", str(out)])
        assert res.exit_code == 0, res.output
        return hashlib.sha256(out.read_bytes()).hexdigest()

    @pytest.mark.parametrize("args, digest", REFERENCE_CSVS,
                             ids=["default", "large-memory", "low-rank", "l1-main"])
    def test_bytes_pinned(self, tmp_path, args, digest):
        assert self.sweep_sha256(tmp_path, args) == digest

    def test_two_jobs_same_bytes(self, tmp_path):
        args, digest = REFERENCE_CSVS[3]
        assert self.sweep_sha256(tmp_path, [*args, "--jobs", "2"]) == digest


class TestEmit:
    def test_empty_csv_is_header_only(self, tmp_path):
        p = tmp_path / "out.csv"
        emit([], "csv", p)
        assert p.read_text() == CSV_HEADER + "\n"

    def test_csv_shape(self, tmp_path):
        cfg = SweepConfig(seed=2, count=3, n_values=(2,), d_b_values=(1,),
                          relations=(Relation.L1_NO_MEMORY,))
        rows = run_sweep(cfg)
        p = tmp_path / "out.csv"
        emit(rows, "csv", p)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(rows)
        first = lines[1].split(",")
        assert first[0] == "s2-c0-i0"
        assert first[1] == "L1_NO_MEMORY"
        assert first[-1] == "0"

    def test_csv_byte_identical_across_runs(self, tmp_path):
        cfg = SweepConfig(seed=7, count=3, n_values=(2, 3), d_b_values=(1, 2))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(run_sweep(cfg), "csv", p1)
        emit(run_sweep(cfg), "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_jsonl_round_trip(self, tmp_path):
        cfg = SweepConfig(seed=2, count=3, n_values=(2,), d_b_values=(2,),
                          relations=(Relation.L1_MEMORY,))
        rows = run_sweep(cfg)
        p = tmp_path / "out.jsonl"
        emit(rows, "jsonl", p)
        assert [SweepRow(**json.loads(line)) for line in p.read_text().splitlines()] == rows

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit([], "xml", tmp_path / "out.xml")


class TestWitnessReport:
    def test_entangled_memory(self):
        # Identical detector states leave the Bell particle-memory state intact.
        amps = np.array([[1, 0], [0, 1]], dtype=complex) / np.sqrt(2)
        phi = np.array([[1, 0], [1, 0]], dtype=complex)
        rep = witness_report(ScenarioSpec(amps, phi))
        assert rep["purity_witness"] == pytest.approx(-0.5, abs=1e-12)
        assert rep["cond_ent_witness"] == pytest.approx(-1.0, abs=1e-9)

    def test_product_memory(self):
        amps = np.array([[1], [1]], dtype=complex) / np.sqrt(2)
        rep = witness_report(ScenarioSpec(amps, np.eye(2, dtype=complex)))
        assert rep["purity_witness"] >= -1e-9
        assert rep["cond_ent_witness"] >= -1e-9


# Exceptions a relation may raise on valid input; each must exit 4, not 1.
INTERNAL_ERRORS = [
    AssertionError("Holevo intermediate bound violated"),
    np.linalg.LinAlgError("Eigenvalues did not converge"),
    ZeroDivisionError("float division by zero"),
    FloatingPointError("overflow encountered in multiply"),
    IndexError("index 3 is out of bounds for axis 0 with size 3"),
]


class TestCli:
    def run(self, *args):
        return CliRunner().invoke(main, args)

    def test_check_pass(self, tmp_path):
        p = write_doc(tmp_path, SCENARIO_DOC)
        res = self.run("check", str(p))
        assert res.exit_code == 0
        assert "L1_NO_MEMORY: PASS" in res.output
        assert "TWO_PATH_EQUALITY: PASS" in res.output

    def test_check_single_relation(self, tmp_path):
        p = write_doc(tmp_path, SCENARIO_DOC)
        res = self.run("check", str(p), "--relation", "L1_MEMORY")
        assert res.exit_code == 0
        assert res.output.count("PASS") == 1

    def test_check_bad_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{")
        assert self.run("check", str(p)).exit_code == 2

    def test_check_inapplicable_relation(self, tmp_path):
        doc = json.loads(json.dumps(SCENARIO_DOC))
        # three paths: the N = 2 equality must be refused
        doc["amplitudes"] = [[[1 / np.sqrt(3), 0.0]]] * 3
        doc["detector"] = {"vectors": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                                       [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                                       [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]}
        p = write_doc(tmp_path, doc)
        res = self.run("check", str(p), "--relation", "TWO_PATH_EQUALITY")
        assert res.exit_code == 2

    @pytest.mark.parametrize("exc", INTERNAL_ERRORS)
    def test_check_internal_error_exits_4(self, tmp_path, monkeypatch, exc):
        def failing(rel, obj):
            raise exc

        monkeypatch.setattr(cli, "run_relation", failing)
        res = self.run("check", str(write_doc(tmp_path, SCENARIO_DOC)))
        assert res.exit_code == 4
        assert f"internal error: L1_MEMORY: {type(exc).__name__}: {exc}" in res.output
        assert "Traceback" not in res.output

    def test_check_nan_made_inside_a_computation_exits_4(self, tmp_path, monkeypatch):
        # A NaN that no input carried in (here in rho_AB) is an internal error,
        # not a plausible entropy.
        reduced = duality.scenario_reduced

        def nan_rho_ab(spec):
            red = reduced(spec)
            return dataclasses.replace(red, rho_ab=np.full_like(red.rho_ab, np.nan))

        monkeypatch.setattr(duality, "scenario_reduced", nan_rho_ab)
        res = self.run("check", str(write_doc(tmp_path, SCENARIO_DOC)),
                       "--relation", "ENTROPIC_MEMORY")
        assert res.exit_code == 4
        assert res.output == ("internal error: ENTROPIC_MEMORY: FloatingPointError: "
                              "matrix has non-finite entries\n")

    def test_check_tol_overrides_the_verdict(self, tmp_path):
        # The N = 2 equality holds to rounding: slack -1.9e-16 on this scenario.
        p = tmp_path / "n2.json"
        emit_scenario(sample_scenario(5, 2, 2), p)
        args = ("check", str(p), "--relation", "TWO_PATH_EQUALITY")
        res = self.run(*args)
        assert res.exit_code == 0
        assert res.output.startswith("TWO_PATH_EQUALITY: PASS")
        res = self.run(*args, "--tol", "1e-30")
        assert res.exit_code == 1
        assert res.output.startswith("TWO_PATH_EQUALITY: FAIL")

    @pytest.mark.parametrize("relation", ["WITNESS_PURITY", "WITNESS_COND_ENT"])
    def test_witness_is_not_a_relation(self, tmp_path, relation):
        check = self.run("check", str(write_doc(tmp_path, SCENARIO_DOC)),
                         "--relation", relation)
        sweep = self.run("sweep", "--seed", "1", "--count", "1", "--n", "3", "--db", "1",
                         "--relation", relation, "--out", str(tmp_path / "x.csv"))
        for res in (check, sweep):
            assert res.exit_code == 2
            assert "Invalid value for '--relation'" in res.output

    def test_check_value_error_stays_input_error(self, tmp_path, monkeypatch):
        def failing(rel, obj):
            raise ValueError("memoryless relation needs d_B = 1, got 2")

        monkeypatch.setattr(cli, "run_relation", failing)
        res = self.run("check", str(write_doc(tmp_path, SCENARIO_DOC)))
        assert res.exit_code == 2
        assert "internal error" not in res.output

    def test_sweep_csv_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--seed", "42", "--count", "2", "--n", "2,3",
                "--db", "1,2"]
        r1 = self.run(*args, "--out", str(p1))
        r2 = self.run(*args, "--out", str(p2))
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("exc", INTERNAL_ERRORS)
    def test_sweep_internal_error_exits_4(self, tmp_path, monkeypatch, exc):
        relation = harness.run_relation

        def failing(rel, target, **kwargs):
            if rel is Relation.MIXED_STATE and target.spec.n == 3:
                raise exc
            return relation(rel, target, **kwargs)

        monkeypatch.setattr(harness, "run_relation", failing)
        res = self.run("sweep", "--seed", "9", "--count", "2", "--n", "2,3", "--db", "1",
                       "--out", str(tmp_path / "x.csv"))
        assert res.exit_code == 4
        assert res.output == \
            f"internal error: s9-c1-i0: MIXED_STATE: {type(exc).__name__}: {exc}\n"

    def test_sweep_failed_solve_names_its_scenario(self, tmp_path, monkeypatch):
        solve = duality.min_error_solve

        def failing_block(ensembles):
            raise np.linalg.LinAlgError("Singular matrix")

        def failing(e):
            if e.n == 3:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(e)

        monkeypatch.setattr(harness, "min_error_solve_block", failing_block)
        monkeypatch.setattr(duality, "min_error_solve", failing)
        res = self.run("sweep", "--seed", "9", "--count", "2", "--n", "2,3", "--db", "1",
                       "--relation", "L1_MEMORY", "--out", str(tmp_path / "x.csv"))
        assert res.exit_code == 4
        assert res.output == "internal error: s9-c1-i0: L1_MEMORY: LinAlgError: Singular matrix\n"

    def test_check_memoryless_relation_needs_db1(self, tmp_path):
        doc = json.loads(json.dumps(SCENARIO_DOC))
        doc["amplitudes"] = [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]
        res = self.run("check", str(write_doc(tmp_path, doc)), "--relation", "L1_NO_MEMORY")
        assert res.exit_code == 2
        assert "needs d_B = 1, got 2" in res.output
        assert "internal error" not in res.output

    def test_check_two_particle_relation_needs_two_particle_file(self, tmp_path):
        p = write_doc(tmp_path, SCENARIO_DOC)
        res = self.run("check", str(p), "--relation", "TWO_PARTICLE_SUM")
        assert res.exit_code == 2
        assert res.output == "error: TWO_PARTICLE_SUM needs a two-particle file\n"

    def test_sweep_failed_search_names_its_scenario(self, tmp_path, monkeypatch):
        search = duality.accessible_info_lower

        def failing_block(*args, **kwargs):
            raise ZeroDivisionError("float division by zero")

        def failing(e, m, **kwargs):
            if e.n == 3:
                raise IndexError("index 3 is out of bounds for axis 0 with size 3")
            return search(e, m, **kwargs)

        monkeypatch.setattr(harness, "accessible_info_lower", failing_block)
        monkeypatch.setattr(duality, "accessible_info_lower", failing)
        res = self.run("sweep", "--seed", "9", "--count", "2", "--n", "2,3", "--db", "1",
                       "--relation", "ACCESSIBLE", "--out", str(tmp_path / "x.csv"))
        assert res.exit_code == 4
        assert res.output == ("internal error: s9-c1-i0: ACCESSIBLE: IndexError: "
                              "index 3 is out of bounds for axis 0 with size 3\n")

    def test_sweep_failed_validation_in_one_member_names_it(self, tmp_path, monkeypatch):
        # Every proposal of a search that includes scenario s9-c0-i1 fails
        # validation: the block search fails, the sweep falls back to single
        # searches, and only that scenario's search fails again.
        target = duality.detector_ensemble(sample_scenario(subseed(9, 0, 1), 3, 1))
        climb, check = discrimination._hill_climb, discrimination._check_povms
        sizes = []

        def rejecting(stack):
            check(stack)
            raise ValueError("element 0 is not PSD: min eigenvalue -1.000e+00")

        def climb_with_target_rejected(ensembles, starts):
            sizes.append(len(ensembles))
            if any(np.array_equal(e.states, target.states) for e in ensembles):
                monkeypatch.setattr(discrimination, "_check_povms", rejecting)
            try:
                return climb(ensembles, starts)
            finally:
                monkeypatch.setattr(discrimination, "_check_povms", check)

        monkeypatch.setattr(discrimination, "_hill_climb", climb_with_target_rejected)
        res = self.run("sweep", "--seed", "9", "--count", "3", "--n", "3", "--db", "1",
                       "--relation", "ACCESSIBLE", "--out", str(tmp_path / "x.csv"))
        assert res.exit_code == 4
        assert res.output == ("internal error: s9-c0-i1: ACCESSIBLE: ValueError: "
                              "element 0 is not PSD: min eigenvalue -1.000e+00\n")
        assert sizes == [3, 1, 1]

    def test_sweep_bad_args(self, tmp_path):
        res = self.run("sweep", "--seed", "1", "--count", "0", "--n", "2",
                       "--db", "1", "--out", str(tmp_path / "x.csv"))
        assert res.exit_code == 2

    def test_check_tiny_path_probability(self, tmp_path):
        # p_2 = 1e-9 leaves rho_D an eigenvalue just above the inverse-root
        # cutoff, where the pretty good measurement loses PSD-ness to rounding.
        rng = np.random.default_rng(0)
        p = np.array([0.97 - 1e-9, 1e-9, 0.03])
        phi = np.array([haar_state(rng, 3) for _ in range(3)])
        path = tmp_path / "tiny.json"
        emit_scenario(ScenarioSpec(np.sqrt(p)[:, None], phi), path)
        res = self.run("check", str(path))
        assert res.exit_code == 0, res.output
        assert res.output.count("PASS") == 6
        assert "UNCERTIFIED" not in res.output

    def test_discriminate(self, tmp_path):
        p = write_doc(tmp_path, ENSEMBLE_DOC)
        res = self.run("discriminate", str(p))
        assert res.exit_code == 0
        assert "p_success = 1" in res.output
        assert "pairwise_bound" in res.output

    def test_discriminate_rejects_scenario(self, tmp_path):
        p = write_doc(tmp_path, SCENARIO_DOC)
        assert self.run("discriminate", str(p)).exit_code == 2

    def test_witness(self, tmp_path):
        doc = {
            "type": "scenario",
            "amplitudes": [[[S, 0.0], [0.0, 0.0]], [[0.0, 0.0], [S, 0.0]]],
            "detector": {"vectors": [[[1.0, 0.0], [0.0, 0.0]],
                                     [[1.0, 0.0], [0.0, 0.0]]]},
        }
        p = write_doc(tmp_path, doc)
        res = self.run("witness", str(p))
        assert res.exit_code == 0
        value = float(res.output.splitlines()[0].split("=")[1])
        assert value == pytest.approx(-0.5, abs=1e-12)

    def test_witness_rejects_ensemble(self, tmp_path):
        p = write_doc(tmp_path, ENSEMBLE_DOC)
        assert self.run("witness", str(p)).exit_code == 2
