"""Acceptance suite: every guaranteed property at its stated tolerance.

Each test prints exactly one pass/fail line (visible with `pytest -s` or in
captured output on failure).
"""
import numpy as np
import pytest
from click.testing import CliRunner

from pathcoh.cli import main
from pathcoh.coherence import coherence_loss_bounds, l1_coherence
from pathcoh.discrimination import (
    Ensemble,
    Povm,
    min_error_solve,
    mutual_information,
    pairwise_bound,
    success_probability,
)
from pathcoh.duality import (
    Evaluation,
    Relation,
    check_entropic_memory,
    check_entropic_no_memory,
    check_l1_memory,
    check_mixed_state,
    check_two_particle_sum,
)
from pathcoh.harness import SweepConfig, run_sweep, sample_two_particle
from pathcoh.interferometer import scenario_reduced
from pathcoh.linalg import Dims, kron, partial_trace, purity, trace_norm
from pathcoh.sampling import haar_state, haar_unitary, sample_scenario, subseed


def _verdict(num, label, ok):
    print(f"criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_01_main_relation_sweep():
    cfg = SweepConfig(seed=101, count=1000, n_values=(2, 3, 4, 5),
                      d_b_values=(1, 2, 3, 4), relations=(Relation.L1_MEMORY,))
    rows = run_sweep(cfg)
    ok = len(rows) == 16000 and all(r.slack >= -1e-7 and r.certified for r in rows)
    _verdict(1, "main relation, 1000 per cell", ok)


def test_criterion_02_two_path_equality():
    cfg = SweepConfig(seed=102, count=250, n_values=(2,),
                      d_b_values=(1, 2, 3, 4),
                      relations=(Relation.TWO_PATH_EQUALITY,))
    rows = run_sweep(cfg)
    ok = len(rows) == 1000 and all(abs(r.slack) <= 1e-9 for r in rows)
    _verdict(2, "two-path equality", ok)


def test_criterion_03_memoryless_reduction():
    ok = True
    for s in range(1000):
        n = 2 + s % 4
        rep = check_l1_memory(sample_scenario(subseed(103, s), n, 1))
        memoryless_rhs = (1 - 1 / n) ** 2
        ok &= abs(rep.rhs - memoryless_rhs) <= 1e-12
        ok &= memoryless_rhs - rep.lhs >= -1e-7
        if not ok:
            break
    _verdict(3, "product-memory reduction", ok)


def test_criterion_04_purity_identity():
    ok = True
    for s in range(1000):
        spec = sample_scenario(subseed(104, s), 2 + s % 4, 1 + s % 4)
        red = scenario_reduced(spec)
        ok &= abs(purity(red.rho_ab) - purity(red.rho_d)) <= 1e-12
        ok &= purity(red.rho_a) <= purity(red.rho_ab) + 1e-12
        if not ok:
            break
    _verdict(4, "purity identity", ok)


def test_criterion_05_discrimination_stack():
    ok = True
    for s in range(500):
        rng = subseed(105, s)
        p = rng.dirichlet(np.ones(2))
        states = np.array([haar_state(rng, 2 + s % 2) for _ in range(2)])
        e = Ensemble(p, states)
        # Helstrom's optimum read off the trace norm: at N = 2 the solver
        # routes to `helstrom`, so its closed form would compare with itself.
        rho1, rho2 = e.projectors()
        optimum = (1 + trace_norm(p[0] * rho1 - p[1] * rho2)) / 2
        ok &= abs(min_error_solve(e).p_success - optimum) <= 1e-8
        if not ok:
            break
    for s in range(500):
        rng = subseed(105, 1, s)
        n = 3 + s % 2
        p = rng.dirichlet(np.ones(n))
        dim = int(rng.integers(2, n + 1))
        states = np.array([haar_state(rng, dim) for _ in range(n)])
        e = Ensemble(p, states)
        res = min_error_solve(e)
        ok &= res.p_success <= pairwise_bound(e) + 1e-8
        ok &= res.certificate_gap <= 1e-7
        if not ok:
            break
    angles = [0.0, 2 * np.pi / 3, 4 * np.pi / 3]
    trine = Ensemble(np.full(3, 1 / 3),
                     np.array([[np.cos(a), np.sin(a)] for a in angles],
                              dtype=complex))
    ok &= abs(min_error_solve(trine).p_success - 2 / 3) <= 1e-8
    _verdict(5, "discrimination stack", ok)


def _random_povm(rng, dim):
    u = haar_unitary(rng, dim)
    return Povm(tuple(np.outer(u[:, k], u[:, k].conj()) for k in range(dim)))


def test_criterion_06_entropic_relations():
    ok = True
    for s in range(500):
        n = 2 + s % 3
        d_b = 1 + s % 3
        spec = sample_scenario(subseed(106, s), n, d_b)
        ev = Evaluation(spec)
        rep = check_entropic_memory(ev)
        ok &= rep.slack >= -1e-7
        if n == 2:
            ok &= rep.components["S_cond_BA"] <= 1e-9
        # The checkers' lhs and rhs at random POVMs, from the same evaluation.
        (s_a, s_ab), c_r, h_p = ev.entropies, ev.c_r, ev.h_p
        rng = subseed(106, 1, s)
        for _ in range(20):
            info = mutual_information(ev.ensemble, _random_povm(rng, spec.d_d))
            ok &= (h_p + (s_ab - s_a)) - (info + c_r) >= -1e-7
            if d_b == 1:
                ok &= h_p - (info + c_r) >= -1e-7
        if d_b == 1:
            ok &= check_entropic_no_memory(ev).slack >= -1e-7
        if not ok:
            break
    _verdict(6, "entropic relations", ok)


def test_criterion_07_coherence_loss_sandwich():
    ok = True
    for s in range(1000):
        spec = sample_scenario(subseed(107, s), 2 + s % 4, 1 + s % 4)
        delta, lower, upper = coherence_loss_bounds(spec)
        ok &= lower - 1e-9 <= delta <= upper + 1e-9
        if not ok:
            break
    _verdict(7, "coherence-loss sandwich", ok)


def test_criterion_08_mixed_state_relation():
    ok = True
    for s in range(1000):
        n = 2 + s % 4
        rep = check_mixed_state(sample_scenario(subseed(108, s), n, 1 + s % 4))
        ok &= rep.slack >= -1e-7
        if n == 2:
            ok &= abs(rep.slack) <= 1e-8
        if not ok:
            break
    _verdict(8, "mixed-state relation", ok)


def test_criterion_09_two_particle_sum():
    ok = True
    worst_n2 = 0.0
    for s in range(500):
        n = 2 + s % 2
        rep = check_two_particle_sum(sample_two_particle(subseed(109, s), n))
        ok &= rep.slack >= -1e-7
        if n == 2:
            worst_n2 = max(worst_n2, abs(rep.slack))
        if not ok:
            break
    ok &= worst_n2 <= 1e-8
    _verdict(9, f"two-particle sum (worst N=2 |slack| {worst_n2:.2e})", ok)


def test_criterion_10_oracle_equivalence():
    ok = True
    rng = np.random.default_rng(110)
    for _ in range(100):
        a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        want = np.zeros((6, 6), dtype=complex)
        for i in range(2):
            for j in range(3):
                for k in range(3):
                    for l in range(2):
                        want[i * 3 + k, j * 2 + l] = a[i, j] * b[k, l]
        ok &= np.max(np.abs(kron(a, b) - want)) <= 1e-12

        v = haar_state(rng, 6)
        rho = np.outer(v, v.conj())
        red = partial_trace(rho, Dims.of(("A", 2), ("B", 3)), "A")
        want = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    want[i, j] += rho[i * 3 + k, j * 3 + k]
        ok &= np.max(np.abs(red - want)) <= 1e-12

        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        dm = m @ m.conj().T
        dm /= np.trace(dm).real
        want = sum(abs(dm[i, j]) for i in range(3) for j in range(3) if i != j)
        ok &= abs(l1_coherence(dm) - want) <= 1e-12

        p = rng.dirichlet(np.ones(3))
        states = np.array([haar_state(rng, 3) for _ in range(3)])
        e = Ensemble(p, states)
        u = haar_unitary(rng, 3)
        povm = Povm(tuple(np.outer(u[:, k], u[:, k].conj()) for k in range(3)))
        want = sum(p[i] * abs(np.vdot(u[:, i], states[i])) ** 2 for i in range(3))
        ok &= abs(success_probability(e, povm) - want) <= 1e-12
        if not ok:
            break
    _verdict(10, "oracle equivalence", ok)


def test_criterion_11_haar_mean_purity():
    rng = np.random.default_rng(111)
    raw = rng.standard_normal((10000, 4)) + 1j * rng.standard_normal((10000, 4))
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    m = raw.reshape(10000, 2, 2)
    rho_a = np.einsum("sik,sjk->sij", m, m.conj())
    purities = np.einsum("sij,sji->s", rho_a, rho_a).real
    mean = float(purities.mean())
    ok = abs(mean - 0.8) <= 0.01
    _verdict(11, f"Haar mean purity {mean:.4f}", ok)


def test_criterion_12_sweep_determinism(tmp_path):
    runner = CliRunner()
    args = ["sweep", "--seed", "42", "--count", "3", "--n", "2,3",
            "--db", "1,2"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = runner.invoke(main, args + ["--out", str(p1)])
    r2 = runner.invoke(main, args + ["--out", str(p2)])
    ok = (r1.exit_code == 0 and r2.exit_code == 0
          and p1.read_bytes() == p2.read_bytes())
    _verdict(12, "byte-identical sweep CSV", ok)
