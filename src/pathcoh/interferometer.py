"""N-path interferometer states with a quantum memory and a which-path detector.

The particle A enters an N-path interferometer while entangled with a
memory B; a detector D is coupled by a controlled unitary that imprints
|phi_i> on path i. This module validates scenarios; `scenario_reduced` traces
the full post-interaction state down to rho_AB, rho_A and rho_D, the
reference for the N x N forms that `duality.Evaluation` reads instead.

Conventions: gram[i, j] = <v_i|v_j>; amplitude tables are row i = path i.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Dims, check_density_matrix, clip_spectrum, eigh, partial_trace

NORM_TOL = 1e-9


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def gram_matrix(states: np.ndarray) -> np.ndarray:
    """Overlap table g[i, j] = <v_i|v_j> for row-vector states."""
    states = _as_complex(states)
    return states.conj() @ states.T


def gram_to_states(g: np.ndarray) -> np.ndarray:
    """Realize unit vectors with prescribed overlaps <v_i|v_j> = g[i, j].

    g must be Hermitian PSD with unit diagonal. Returns an (N, N) array of
    row vectors (dimension N, padded beyond the rank of g).
    """
    g = _as_complex(g)
    n = g.shape[0]
    if g.shape != (n, n):
        raise ValueError(f"Gram matrix must be square, got {g.shape}")
    if np.max(np.abs(np.diagonal(g) - 1.0)) > NORM_TOL:
        raise ValueError("Gram matrix diagonal must be 1")
    w, v = eigh(g)
    try:
        w = clip_spectrum(w)
    except ValueError as exc:
        raise ValueError(f"Gram matrix is not PSD: {exc}") from exc
    # G = W^dag W with W = sqrt(diag(w)) V^dag; state i is column i of W.
    wmat = np.sqrt(w)[:, None] * v.conj().T
    return wmat.T.copy()


@dataclass(frozen=True)
class ScenarioSpec:
    """One interferometer run: path/memory amplitudes and detector states.

    amplitudes: (N, d_B) table a_ij of the initial particle-memory state.
    detector_states: (N, d_D) unit row vectors phi_i.
    """

    amplitudes: np.ndarray
    detector_states: np.ndarray

    def __post_init__(self):
        a = _as_complex(self.amplitudes)
        phi = _as_complex(self.detector_states)
        if a.ndim != 2 or a.shape[0] < 2:
            raise ValueError(f"amplitudes must be N x d_B with N >= 2, got {a.shape}")
        if phi.ndim != 2 or phi.shape[0] != a.shape[0]:
            raise ValueError(
                f"need one detector state per path: {phi.shape} vs N={a.shape[0]}")
        if not (np.isfinite(a).all() and np.isfinite(phi).all()):
            raise ValueError("amplitudes and detector states must be finite")
        total = float(np.sum(np.abs(a) ** 2))
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"amplitude table not normalized: sum |a|^2 = {total:.12g}")
        norms = np.linalg.norm(phi, axis=1)
        if np.max(np.abs(norms - 1.0)) > NORM_TOL:
            raise ValueError(f"detector states must be unit vectors, norms {norms}")
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "detector_states", phi)

    @property
    def n(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def d_b(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def d_d(self) -> int:
        return self.detector_states.shape[1]

    @property
    def path_probs(self) -> np.ndarray:
        """p_i = sum_j |a_ij|^2."""
        return np.sum(np.abs(self.amplitudes) ** 2, axis=1)

    @property
    def memory_states(self) -> np.ndarray:
        """Normalized memory states u_i (rows); e_0 for zero-probability paths."""
        p = self.path_probs
        u = np.zeros((self.n, self.d_b), dtype=complex)
        for i in range(self.n):
            if p[i] > 0.0:
                u[i] = self.amplitudes[i] / np.sqrt(p[i])
            else:
                u[i, 0] = 1.0
        return u


@dataclass(frozen=True)
class ReducedSet:
    """All reduced states of |Psi>_ABD and the path probabilities."""

    rho_ab: np.ndarray
    rho_a: np.ndarray
    rho_d: np.ndarray
    p: np.ndarray


def scenario_reduced(spec: ScenarioSpec) -> ReducedSet:
    """The reduced states of |Psi>_ABD = sum_ij a_ij |i>_A |j>_B |phi_i>_D, by
    definition: partial traces of the full |Psi><Psi|."""
    dims = Dims.of(("A", spec.n), ("B", spec.d_b), ("D", spec.d_d))
    psi = np.einsum("ij,ik->ijk", spec.amplitudes, spec.detector_states).ravel()
    rho = np.outer(psi, psi.conj())
    rho_ab, rho_a, rho_d = (partial_trace(rho, dims, keep) for keep in (("A", "B"), "A", "D"))
    for m in (rho_ab, rho_a, rho_d):
        check_density_matrix(m)
    return ReducedSet(rho_ab=rho_ab, rho_a=rho_a, rho_d=rho_d, p=spec.path_probs)


def build_mixed_no_memory(spec: ScenarioSpec):
    """Mixed-state run without memory: the memory only purifies rho^0_A.

    Returns (rho0_a, rho_a, rho_d) where
    rho0_a[i, j] = sqrt(p_i p_j) <u_j|u_i> is the initial particle state and
    rho_a, rho_d are the particle and detector states after the coupling.
    """
    p = spec.path_probs
    sq = np.sqrt(p)
    ug = gram_matrix(spec.memory_states)
    phig = gram_matrix(spec.detector_states)
    # <u_j|u_i> = ug[j, i]
    rho0_a = np.outer(sq, sq) * ug.T
    phi = spec.detector_states
    rho_a = rho0_a * phig.T
    rho_d = np.einsum("i,ij,ik->jk", p, phi, phi.conj())
    for m in (rho0_a, rho_a, rho_d):
        check_density_matrix(m)
    return rho0_a, rho_a, rho_d
