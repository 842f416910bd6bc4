import numpy as np
import pytest

from pathcoh.coherence import (
    coherence_loss_bounds,
    l1_coherence,
    normalized_x,
    rel_ent_coherence,
)
from pathcoh.interferometer import ScenarioSpec, scenario_reduced
from pathcoh.linalg import shannon_entropy, von_neumann_entropy
from pathcoh.sampling import sample_scenario


def max_coherent(n):
    return np.full((n, n), 1.0 / n, dtype=complex)


def random_density(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def l1_oracle(spec):
    """sum_{i != j} sqrt(p_i p_j) |<phi_j|phi_i>| |<u_j|u_i>|."""
    p = spec.path_probs
    u = spec.memory_states
    phi = spec.detector_states
    total = 0.0
    for i in range(spec.n):
        for j in range(spec.n):
            if i != j:
                total += (np.sqrt(p[i] * p[j])
                          * abs(np.vdot(phi[j], phi[i]))
                          * abs(np.vdot(u[j], u[i])))
    return total


class TestL1Coherence:
    def test_diagonal_is_zero(self):
        assert l1_coherence(np.diag([0.3, 0.7]).astype(complex)) == 0.0

    def test_maximally_coherent_qubit(self):
        assert l1_coherence(max_coherent(2)) == pytest.approx(1.0, abs=1e-12)

    def test_scenario_closed_form(self):
        for s in range(100):
            spec = sample_scenario(s, 3, 2)
            red = scenario_reduced(spec)
            assert l1_coherence(red.rho_a) == pytest.approx(l1_oracle(spec), abs=1e-10)

    def test_phase_invariance(self):
        for s in range(20):
            rho = random_density(np.random.default_rng(s), 4)
            phases = np.exp(1j * np.random.default_rng(s + 1).uniform(0, 2 * np.pi, 4))
            rot = np.diag(phases) @ rho @ np.diag(phases).conj()
            assert l1_coherence(rot) == pytest.approx(l1_coherence(rho), abs=1e-10)


class TestNormalizedX:
    def test_maximally_coherent_saturates(self):
        for n in (2, 3, 5):
            assert normalized_x(max_coherent(n), n) == pytest.approx(
                (n - 1) / n, abs=1e-12)

    def test_diagonal(self):
        assert normalized_x(np.diag([0.5, 0.5]).astype(complex), 2) == 0.0

    def test_range_over_samples(self):
        for s in range(1000):
            n = 2 + s % 3
            spec = sample_scenario(s, n, 1 + s % 2)
            red = scenario_reduced(spec)
            x = normalized_x(red.rho_a, n)
            assert -1e-12 <= x <= (n - 1) / n + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            normalized_x(np.eye(2) / 2, 3)


class TestRelEntCoherence:
    def test_maximally_coherent_qubit(self):
        assert rel_ent_coherence(max_coherent(2)) == pytest.approx(1.0, abs=1e-9)

    def test_diagonal_is_zero(self):
        assert rel_ent_coherence(np.diag([0.2, 0.8]).astype(complex)) == pytest.approx(
            0.0, abs=1e-10)

    def test_scenario_identity(self):
        # C_r(rho_A) = H({p_i}) - S(rho_A) because diag(rho_A) = {p_i}.
        for s in range(50):
            spec = sample_scenario(s, 3, 2)
            red = scenario_reduced(spec)
            want = shannon_entropy(red.p) - von_neumann_entropy(red.rho_a)
            assert rel_ent_coherence(red.rho_a) == pytest.approx(want, abs=1e-10)

    def test_nonnegative(self):
        for s in range(30):
            rho = random_density(np.random.default_rng(s), 4)
            assert rel_ent_coherence(rho) >= -1e-10


class TestViews:
    @pytest.mark.parametrize("kind", ["transpose", "strided"])
    def test_non_contiguous_input_matches_a_copy(self, kind):
        rho = random_density(np.random.default_rng(5), 3)
        if kind == "transpose":
            view = rho.T
        else:
            big = np.zeros((6, 6), dtype=complex)
            big[::2, ::2] = rho
            view = big[::2, ::2]
        assert not view.flags.c_contiguous
        copy = np.ascontiguousarray(view)
        for f in (l1_coherence, lambda m: normalized_x(m, 3), rel_ent_coherence):
            assert f(view) == pytest.approx(f(copy), abs=1e-15)


class TestCoherenceLossBounds:
    def test_product_memory_no_loss(self):
        for s in range(10):
            spec = sample_scenario(s, 3, 1)
            delta, lower, upper = coherence_loss_bounds(spec)
            assert delta == pytest.approx(0.0, abs=1e-10)
            assert lower == pytest.approx(0.0, abs=1e-12)
            assert upper == pytest.approx(0.0, abs=1e-12)

    def test_bell_memory_identical_detectors(self):
        # X~ = 1/2, X = 0, Tr rho_AB^2 - Tr rho_A^2 = 1/2: sandwich 1/8 <= 1/4 <= 1/2.
        amps = np.array([[1, 0], [0, 1]], dtype=complex) / np.sqrt(2)
        phi = np.array([[1, 0], [1, 0]], dtype=complex)
        spec = ScenarioSpec(amps, phi)
        delta, lower, upper = coherence_loss_bounds(spec)
        assert delta == pytest.approx(0.25, abs=1e-12)
        assert lower == pytest.approx(0.125, abs=1e-12)
        assert upper == pytest.approx(0.5, abs=1e-12)

    def test_random_sandwich(self):
        for s in range(300):
            spec = sample_scenario(s, 2 + s % 4, 1 + s % 3)
            delta, lower, upper = coherence_loss_bounds(spec)
            assert lower - 1e-9 <= delta <= upper + 1e-9

    def test_memory_never_increases_x(self):
        for s in range(100):
            spec = sample_scenario(s, 3, 2)
            delta, _, _ = coherence_loss_bounds(spec)
            assert delta >= -1e-9
