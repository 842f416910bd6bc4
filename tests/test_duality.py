from dataclasses import replace

import numpy as np
import pytest

from pathcoh.duality import (
    Evaluation,
    Relation,
    TwoParticleScenario,
    check_accessible_relation,
    check_entropic_memory,
    check_entropic_no_memory,
    check_l1_memory,
    check_l1_no_memory,
    check_mixed_state,
    check_two_particle_sum,
    check_two_path_equality,
    entanglement_witnesses,
)
from pathcoh.interferometer import ScenarioSpec, scenario_reduced
from pathcoh.linalg import Dims, kron
from pathcoh.sampling import haar_state, sample_scenario


def bell_identical_detectors():
    amps = np.array([[1, 0], [0, 1]], dtype=complex) / np.sqrt(2)
    phi = np.array([[1, 0], [1, 0]], dtype=complex)
    return ScenarioSpec(amps, phi)


def bell_orthogonal_detectors():
    amps = np.array([[1, 0], [0, 1]], dtype=complex) / np.sqrt(2)
    return ScenarioSpec(amps, np.eye(2, dtype=complex))


class TestL1Memory:
    def test_bell_identical_detectors_saturates_at_zero(self):
        # P_s = 1/2, X = 0, Tr rho_A^2 = 1/2, Tr rho_AB^2 = 1: both sides 0.
        rep = check_l1_memory(bell_identical_detectors())
        assert rep.lhs == pytest.approx(0.0, abs=1e-9)
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)
        assert rep.satisfied and rep.solver_certified

    def test_product_memory_reduces_to_memoryless(self):
        for s in range(10):
            spec = sample_scenario(s, 3, 1)
            with_mem = check_l1_memory(spec)
            without = check_l1_no_memory(spec)
            assert with_mem.rhs == pytest.approx(without.rhs, abs=1e-12)
            assert with_mem.lhs == pytest.approx(without.lhs, abs=1e-9)

    def test_random_scenarios_satisfied(self):
        for s in range(200):
            spec = sample_scenario(s, 2 + s % 4, 1 + s % 4)
            rep = check_l1_memory(spec)
            assert rep.satisfied, (s, rep.slack)
            assert rep.solver_certified

    def test_rhs_never_exceeds_memoryless_bound(self):
        for s in range(100):
            n = 2 + s % 4
            rep = check_l1_memory(sample_scenario(s, n, 1 + s % 3))
            assert rep.rhs <= (1 - 1 / n) ** 2 + 1e-12

    def test_entangled_memory_tightens_bound(self):
        # A strictly negative purity witness on rho_AB forces the rhs
        # strictly below the memoryless value.
        for s in range(100):
            n = 2 + s % 3
            spec = sample_scenario(s, n, 2)
            red = scenario_reduced(spec)
            dims = Dims.of(("A", n), ("B", spec.d_b))
            pw, _ = entanglement_witnesses(red.rho_ab, dims)
            rep = check_l1_memory(spec)
            if pw < -1e-6:
                assert rep.rhs < (1 - 1 / n) ** 2 - 1e-8


class TestL1NoMemory:
    def test_requires_trivial_memory(self):
        with pytest.raises(ValueError):
            check_l1_no_memory(sample_scenario(0, 2, 2))

    def test_random_scenarios_satisfied(self):
        for s in range(100):
            rep = check_l1_no_memory(sample_scenario(s, 2 + s % 4, 1))
            assert rep.satisfied and rep.solver_certified
            assert rep.rhs == pytest.approx((1 - 1 / (2 + s % 4)) ** 2, abs=1e-15)


class TestTwoPathEquality:
    def test_bell_orthogonal_detectors(self):
        # Full which-path marking: both sides equal 1/4 exactly.
        rep = check_two_path_equality(bell_orthogonal_detectors())
        assert rep.lhs == pytest.approx(0.25, abs=1e-12)
        assert rep.rhs == pytest.approx(0.25, abs=1e-12)
        assert rep.equality and rep.satisfied

    def test_random_equality(self):
        for s in range(300):
            rep = check_two_path_equality(sample_scenario(s, 2, 1 + s % 4))
            assert abs(rep.slack) <= 1e-9, (s, rep.slack)

    def test_rejects_wrong_path_count(self):
        with pytest.raises(ValueError):
            check_two_path_equality(sample_scenario(0, 3, 1))


class TestMixedState:
    def test_pure_initial_state_matches_memoryless(self):
        # d_B = 1 leaves the initial particle state pure, so the mixed-state
        # rhs collapses to the memoryless constant.
        for s in range(10):
            spec = sample_scenario(s, 3, 1)
            rep = check_mixed_state(spec)
            assert rep.rhs == pytest.approx((1 - 1 / 3) ** 2, abs=1e-12)

    def test_random_scenarios_satisfied(self):
        for s in range(150):
            rep = check_mixed_state(sample_scenario(s, 2 + s % 4, 1 + s % 4))
            assert rep.satisfied and rep.solver_certified

    def test_two_path_equality(self):
        for s in range(100):
            rep = check_mixed_state(sample_scenario(s, 2, 1 + s % 4))
            assert abs(rep.slack) <= 1e-8, (s, rep.slack)


class TestEntropic:
    def test_orthonormal_detectors_no_memory_saturates(self):
        amps = np.array([[1], [1]], dtype=complex) / np.sqrt(2)
        spec = ScenarioSpec(amps, np.eye(2, dtype=complex))
        rep = check_entropic_no_memory(spec)
        # I(D:M) = H(p) = 1 bit, C_r = 0: equality.
        assert rep.lhs == pytest.approx(1.0, abs=1e-8)
        assert rep.rhs == pytest.approx(1.0, abs=1e-12)

    def test_bell_memory_identical_detectors_saturates_at_zero(self):
        # I = 0, C_r = 0, H(p) = 1, S(B|A) = -1: both sides 0.
        rep = check_entropic_memory(bell_identical_detectors())
        assert rep.lhs == pytest.approx(0.0, abs=1e-9)
        assert rep.rhs == pytest.approx(0.0, abs=1e-9)
        assert rep.satisfied

    def test_no_memory_requires_trivial_memory(self):
        with pytest.raises(ValueError):
            check_entropic_no_memory(sample_scenario(0, 2, 2))

    def test_random_scenarios_satisfied(self):
        for s in range(100):
            spec = sample_scenario(s, 2 + s % 3, 1 + s % 3)
            rep = check_entropic_memory(spec)
            assert rep.satisfied, (s, rep.slack)
            if spec.d_b == 1:
                rep0 = check_entropic_no_memory(spec)
                assert rep0.satisfied
                assert rep0.rhs == pytest.approx(rep.rhs, abs=1e-9)

    def test_impure_abd_build_is_an_internal_error(self):
        # S(D) = S(AB) holds for every pure ABD state; a rho_D from another
        # state must fail the check, whatever the relation's verdict.
        spec = sample_scenario(3, 3, 2)
        ev = Evaluation(spec)
        red = ev.reduced
        ev.reduced = replace(red, rho_d=np.eye(3, dtype=complex) / 3)
        with pytest.raises(AssertionError, match="the ABD state is not pure"):
            check_entropic_memory(ev)
        assert check_entropic_memory(spec).satisfied

    def test_two_path_conditional_entropy_nonpositive(self):
        for s in range(100):
            rep = check_entropic_memory(sample_scenario(s, 2, 1 + s % 3))
            assert rep.components["S_cond_BA"] <= 1e-9


class TestAccessible:
    def test_orthonormal_detectors(self):
        amps = np.array([[1], [1]], dtype=complex) / np.sqrt(2)
        spec = ScenarioSpec(amps, np.eye(2, dtype=complex))
        rep = check_accessible_relation(spec)
        assert rep.components["Acc_lower"] == pytest.approx(1.0, abs=1e-8)
        assert rep.satisfied

    def test_random_scenarios_satisfied_via_holevo(self):
        for s in range(20):
            spec = sample_scenario(s, 2 + s % 3, 1 + s % 3)
            rep = check_accessible_relation(spec)
            assert rep.satisfied, (s, rep.slack)
            assert rep.components["holevo_dominance"] == 1.0
            assert rep.components["Acc_lower"] <= rep.components["holevo"] + 1e-9


def random_two_particle(seed, n, d_d=None):
    rng = np.random.default_rng(seed)
    d_d = d_d or n
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    c /= np.linalg.norm(c)
    da = np.array([haar_state(rng, d_d) for _ in range(n)])
    db = np.array([haar_state(rng, d_d) for _ in range(n)])
    return TwoParticleScenario(c, da, db)


class TestTwoParticleSum:
    def test_validation(self):
        with pytest.raises(ValueError):
            TwoParticleScenario(np.eye(2, dtype=complex),
                                np.eye(2, dtype=complex), np.eye(2, dtype=complex))

    def test_product_amplitudes_split(self):
        # c = a b^T: each particle sees an independent single-path scenario
        # whose marginals match the factors.
        rng = np.random.default_rng(5)
        a, b = haar_state(rng, 3), haar_state(rng, 3)
        tp = TwoParticleScenario(np.outer(a, b),
                                 np.array([haar_state(rng, 2) for _ in range(3)]),
                                 np.array([haar_state(rng, 2) for _ in range(3)]))
        rep = check_two_particle_sum(tp)
        assert rep.satisfied
        # Product input: both-detector purity factorizes into the per-side ones.
        assert rep.components["purity_AB_both"] == pytest.approx(
            rep.components["purity_mem_A"] * rep.components["purity_mem_B"],
            abs=1e-10)

    def test_two_path_equality(self):
        for s in range(150):
            rep = check_two_particle_sum(random_two_particle(s, 2))
            assert abs(rep.slack) <= 1e-8, (s, rep.slack)

    def test_three_path_satisfied(self):
        for s in range(50):
            rep = check_two_particle_sum(random_two_particle(s, 3))
            assert rep.slack >= -1e-7, (s, rep.slack)
            assert rep.solver_certified


class TestWitnesses:
    def test_bell_state(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        pw, cw = entanglement_witnesses(rho, Dims.of(("A", 2), ("B", 2)))
        assert pw == pytest.approx(-0.5, abs=1e-12)
        assert cw == pytest.approx(-1.0, abs=1e-9)

    def test_product_state_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            va, vb = haar_state(rng, 2), haar_state(rng, 3)
            rho = kron(np.outer(va, va.conj()), np.outer(vb, vb.conj()))
            w = rng.dirichlet(np.ones(2))
            mixed = w[0] * rho + w[1] * kron(np.eye(2) / 2, np.eye(3) / 3)
            pw, cw = entanglement_witnesses(mixed, Dims.of(("A", 2), ("B", 3)))
            assert pw >= -1e-9 and cw >= -1e-9

    def test_separable_mixtures_nonnegative(self):
        dims = Dims.of(("A", 2), ("B", 2))
        for s in range(50):
            rng = np.random.default_rng(s)
            rho = np.zeros((4, 4), dtype=complex)
            w = rng.dirichlet(np.ones(3))
            for k in range(3):
                va, vb = haar_state(rng, 2), haar_state(rng, 2)
                rho += w[k] * kron(np.outer(va, va.conj()), np.outer(vb, vb.conj()))
            pw, cw = entanglement_witnesses(rho, dims)
            assert pw >= -1e-9 and cw >= -1e-9

    def test_rejects_non_bipartite(self):
        with pytest.raises(ValueError):
            entanglement_witnesses(np.eye(8) / 8,
                                   Dims.of(("A", 2), ("B", 2), ("C", 2)))


class TestReportShape:
    def test_slack_and_ids(self):
        rep = check_l1_memory(sample_scenario(0, 3, 2))
        assert rep.relation_id is Relation.L1_MEMORY
        assert rep.slack == pytest.approx(rep.rhs - rep.lhs, abs=1e-15)
        assert set(rep.components) >= {"P_s", "X", "purity_A", "purity_AB"}
