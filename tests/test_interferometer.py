import numpy as np
import pytest

from pathcoh.interferometer import (
    ScenarioSpec,
    build_mixed_no_memory,
    gram_matrix,
    gram_to_states,
    scenario_reduced,
)
from pathcoh.linalg import Dims, partial_trace, purity
from pathcoh.sampling import sample_scenario, subseed

RNG = np.random.default_rng(77)


def rho_a_closed_form(spec):
    """rho_A[i, j] = sqrt(p_i p_j) <phi_j|phi_i> <u_j|u_i>, summed term by term."""
    p = spec.path_probs
    u = spec.memory_states
    phi = spec.detector_states
    n = spec.n
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i, j] = (np.sqrt(p[i] * p[j])
                         * np.vdot(phi[j], phi[i])
                         * np.vdot(u[j], u[i]))
    return out


def initial_density(spec):
    """|psi><psi| of the particle-memory state psi = sum_ij a_ij |i>_A |j>_B."""
    psi = spec.amplitudes.ravel()
    return np.outer(psi, psi.conj())


def unmarked(amps):
    """A scenario whose detector states are all equal, so the coupling leaves
    rho_AB equal to the initial particle-memory state."""
    phi = np.zeros((amps.shape[0], 2), dtype=complex)
    phi[:, 0] = 1.0
    return ScenarioSpec(amps, phi)


def bell_spec(phi=None):
    amps = np.array([[1, 0], [0, 1]], dtype=complex) / np.sqrt(2)
    if phi is None:
        phi = np.eye(2, dtype=complex)
    return ScenarioSpec(amps, phi)


class TestScenarioSpec:
    def test_derived_probabilities(self):
        spec = sample_scenario(3, 4, 3)
        p = spec.path_probs
        assert abs(p.sum() - 1.0) <= 1e-9
        assert np.all(p >= 0)
        assert np.max(np.abs(np.linalg.norm(spec.memory_states, axis=1) - 1)) <= 1e-9

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            ScenarioSpec(np.eye(2, dtype=complex), np.eye(2, dtype=complex))

    def test_rejects_bad_detector(self):
        amps = np.array([[1, 0], [0, 1]], dtype=complex) / np.sqrt(2)
        with pytest.raises(ValueError):
            ScenarioSpec(amps, 2 * np.eye(2, dtype=complex))

    def test_zero_probability_path(self):
        amps = np.array([[1, 0], [0, 0]], dtype=complex)
        spec = ScenarioSpec(amps, np.eye(2, dtype=complex))
        assert spec.path_probs[1] == 0.0
        # Placeholder u for the dead path is still a unit vector.
        assert np.linalg.norm(spec.memory_states[1]) == pytest.approx(1.0)
        scenario_reduced(spec)


class TestBuildInitialState:
    """The initial particle-memory state, seen as rho_AB of an unmarked run."""

    def test_no_memory_product(self):
        amps = np.array([[1], [1]], dtype=complex) / np.sqrt(2)
        red = scenario_reduced(unmarked(amps))
        assert np.allclose(red.rho_ab, np.full((2, 2), 0.5))

    def test_bell_state(self):
        red = scenario_reduced(unmarked(bell_spec().amplitudes))
        assert purity(red.rho_ab) == pytest.approx(1.0, abs=1e-12)
        assert purity(red.rho_a) == pytest.approx(0.5, abs=1e-12)

    def test_random_reconstruction(self):
        for s in range(20):
            spec = unmarked(sample_scenario(s, 3, 2).amplitudes)
            red = scenario_reduced(spec)
            assert np.max(np.abs(red.rho_ab - initial_density(spec))) <= 1e-12


class TestApplyDetector:
    def test_orthonormal_marking(self):
        spec = bell_spec()
        red = scenario_reduced(spec)
        assert purity(red.rho_a) == pytest.approx(0.5, abs=1e-12)
        # Full marking: rho_A diagonal with entries p_i
        assert np.max(np.abs(red.rho_a - np.diag(red.p))) <= 1e-12

    def test_trivial_detector_leaves_rho_ab(self):
        phi = np.array([[1, 0], [1, 0]], dtype=complex)
        spec = bell_spec(phi)
        red = scenario_reduced(spec)
        assert np.max(np.abs(red.rho_ab - initial_density(spec))) <= 1e-12

    def test_random_norm_and_rho_a(self):
        for s in range(30):
            spec = sample_scenario(100 + s, 3, 2)
            red = scenario_reduced(spec)
            # Tr rho_AB = |Psi|^2: the coupling keeps the state normalized.
            assert abs(np.trace(red.rho_ab) - 1.0) <= 1e-12
            assert np.max(np.abs(red.rho_a - rho_a_closed_form(spec))) <= 1e-12


class TestReduceAll:
    def test_purity_identity_ab_d(self):
        for s in range(50):
            spec = sample_scenario(200 + s, RNG.integers(2, 5), RNG.integers(1, 4))
            red = scenario_reduced(spec)
            assert abs(purity(red.rho_ab) - purity(red.rho_d)) <= 1e-12
            assert purity(red.rho_a) <= purity(red.rho_ab) + 1e-12
            assert np.max(np.abs(np.diagonal(red.rho_a).real - red.p)) <= 1e-12

    def test_product_memory_purity_equality(self):
        for s in range(20):
            spec = sample_scenario(300 + s, 3, 1)
            red = scenario_reduced(spec)
            assert abs(purity(red.rho_a) - purity(red.rho_ab)) <= 1e-12


class TestClosedFormReduced:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_bitwise_equal_to_partial_trace_of_full_state(self, n):
        for d_b in range(1, 5):
            for d_d in range(1, n + 1):
                spec = sample_scenario(subseed(17, n, d_b, d_d), n, d_b, d_d)
                dims = Dims.of(("A", n), ("B", d_b), ("D", d_d))
                psi = np.einsum("ij,ik->ijk", spec.amplitudes, spec.detector_states).ravel()
                rho = np.outer(psi, psi.conj())
                red = scenario_reduced(spec)
                for got, keep in ((red.rho_ab, {"A", "B"}), (red.rho_a, {"A"}),
                                  (red.rho_d, {"D"})):
                    want = partial_trace(rho, dims, keep)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()


class TestBuildMixedNoMemory:
    def test_pure_initial_state_purity_equality(self):
        for s in range(10):
            spec = sample_scenario(400 + s, 3, 1)  # d_B = 1: rho0_A pure
            _, rho_a, rho_d = build_mixed_no_memory(spec)
            assert abs(purity(rho_a) - purity(rho_d)) <= 1e-12

    def test_dephased_initial_state(self):
        # Orthogonal u_i: rho0_A diagonal, no coherence survives.
        amps = np.array([[1, 0], [0, 1]], dtype=complex) / np.sqrt(2)
        spec = ScenarioSpec(amps, np.eye(2, dtype=complex))
        rho0, rho_a, _ = build_mixed_no_memory(spec)
        assert np.max(np.abs(rho0 - np.eye(2) / 2)) <= 1e-12
        from pathcoh.coherence import l1_coherence
        assert l1_coherence(rho_a) == pytest.approx(0.0, abs=1e-12)

    def test_matches_reduce_all(self):
        for s in range(20):
            spec = sample_scenario(500 + s, 3, 2)
            red = scenario_reduced(spec)
            _, rho_a, rho_d = build_mixed_no_memory(spec)
            assert np.max(np.abs(rho_a - red.rho_a)) <= 1e-12
            assert np.max(np.abs(rho_d - red.rho_d)) <= 1e-12


class TestGramToStates:
    def test_identity(self):
        v = gram_to_states(np.eye(3, dtype=complex))
        assert np.max(np.abs(gram_matrix(v) - np.eye(3))) <= 1e-9

    def test_all_ones(self):
        v = gram_to_states(np.ones((3, 3), dtype=complex))
        g = gram_matrix(v)
        assert np.max(np.abs(g - 1)) <= 1e-9

    def test_random_round_trip(self):
        for s in range(30):
            rng = np.random.default_rng(600 + s)
            raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            raw /= np.linalg.norm(raw, axis=1)[:, None]
            g = gram_matrix(raw)
            v = gram_to_states(g)
            assert np.max(np.abs(gram_matrix(v) - g)) <= 1e-9

    def test_rejects_non_psd(self):
        g = np.array([[1, 2], [2, 1]], dtype=complex)
        with pytest.raises(ValueError):
            gram_to_states(g)

    def test_rejects_bad_diagonal(self):
        with pytest.raises(ValueError):
            gram_to_states(2 * np.eye(2, dtype=complex))
