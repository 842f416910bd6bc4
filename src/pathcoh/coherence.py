"""Coherence quantifiers in the path basis and entropy-based quantities."""
from __future__ import annotations

import numpy as np

from .interferometer import ScenarioSpec, gram_matrix, scenario_reduced
from .linalg import check_density_matrix, purity, shannon_entropy, von_neumann_entropy


def l1_coherence(rho: np.ndarray) -> float:
    """Sum of absolute off-diagonal entries (reference basis = computational)."""
    rho = np.asarray(rho)
    check_density_matrix(rho)
    return off_diagonal_sum(rho)


def off_diagonal_sum(rho: np.ndarray) -> float:
    """sum_{i != j} |rho_ij|, the l1 coherence of a matrix already checked."""
    return float(np.sum(np.abs(rho)) - np.sum(np.abs(np.diagonal(rho))))


def normalized_x(rho: np.ndarray, n: int) -> float:
    """Normalized l1 coherence X = C_l1(rho) / n, in [0, (n-1)/n]."""
    rho = np.asarray(rho)
    if rho.shape[0] != n:
        raise ValueError(f"rho has dimension {rho.shape[0]}, expected {n}")
    return l1_coherence(rho) / n


def rel_ent_coherence(rho: np.ndarray) -> float:
    """Relative entropy of coherence S(diag(rho)) - S(rho), in bits."""
    rho = np.asarray(rho)
    check_density_matrix(rho)
    return shannon_entropy(np.diagonal(rho).real) - von_neumann_entropy(rho)


def coherence_loss_bounds(spec: ScenarioSpec) -> tuple[float, float, float]:
    """Two-sided bound on the coherence lost to memory entanglement.

    Compares the scenario against the memoryless run with the same path
    probabilities and detector, |psi~>_A = sum_i sqrt(p_i) |i>.  Returns
    (delta_x_sq, lower, upper) with
        delta_x_sq = X~^2 - X^2,
        lower = (1/N^2) (Tr rho_AB^2 - Tr rho_A^2),
        upper = (2(N-1)^2/N) (Tr rho_AB^2 - Tr rho_A^2),
    and raises if the sandwich lower <= delta_x_sq <= upper fails beyond
    1e-9 slack.
    """
    red = scenario_reduced(spec)
    n = spec.n
    x = normalized_x(red.rho_a, n)

    # Memoryless comparator: same p_i and detector, |u_i> all equal.
    sq = np.sqrt(red.p)
    phig = gram_matrix(spec.detector_states)
    rho_tilde = np.outer(sq, sq) * phig.T
    x_tilde = normalized_x(rho_tilde, n)

    gap = purity(red.rho_ab) - purity(red.rho_a)
    delta_x_sq = x_tilde**2 - x**2
    lower = gap / n**2
    upper = 2.0 * (n - 1) ** 2 / n * gap
    if not (lower - 1e-9 <= delta_x_sq <= upper + 1e-9):
        raise AssertionError(
            f"coherence-loss sandwich violated: {lower} <= {delta_x_sq} <= {upper}")
    return delta_x_sq, lower, upper
