"""Independent check of every L1_MEMORY row, from closed forms.

Nothing here calls pathcoh's physics: the reduced states, purities, the
pretty good measurement and the pairwise bound are recomputed from the
scenario's amplitudes A (N x d_B) and detector states phi (N x d_D).

- rho_A = (A A^dag) o G_phi^T, with G_phi[i, j] = <phi_i|phi_j>, so
  Tr rho_A^2 = sum_ij p_i p_j |<u_i|u_j>|^2 |<phi_i|phi_j>|^2
- Tr rho_AB^2 = sum_ij p_i p_j |<phi_i|phi_j>|^2, because the (i, j) block
  of rho_AB is sqrt(p_i p_j) <phi_j|phi_i> |u_i><u_j| and the memory states
  u_i are unit vectors
- P_PGM = sum_i ((G^(1/2))_ii)^2 with G[i, j] = sqrt(p_i p_j) <phi_i|phi_j>
- pairwise bound = 1/N + (1/2N) sum_{i != j} ||p_i rho_i - p_j rho_j||_1, where
  the trace norm of the rank-2 difference is
  sqrt((p_i + p_j)^2 - 4 p_i p_j |<phi_i|phi_j>|^2)

The row's P_s is recovered from its lhs as 1/N + sqrt(lhs - X^2).
"""
from __future__ import annotations

import numpy as np

TOL = 1e-9


def closed_forms(amplitudes: np.ndarray, phi: np.ndarray) -> dict[str, float]:
    a = np.asarray(amplitudes, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    n = a.shape[0]
    g_phi = phi.conj() @ phi.T
    aa = a @ a.conj().T
    p = np.real(np.diagonal(aa))
    rho_a = aa * g_phi.T
    pur_a = float(np.sum(np.abs(rho_a) ** 2))
    pur_ab = float(np.sum(np.outer(p, p) * np.abs(g_phi) ** 2))
    x = float(np.sum(np.abs(rho_a)) - np.sum(np.abs(np.diagonal(rho_a)))) / n

    sq = np.sqrt(p)
    g = np.outer(sq, sq) * g_phi
    w, v = np.linalg.eigh((g + g.conj().T) / 2)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    pgm = float(np.sum(np.real(np.diagonal(root)) ** 2))

    pp = np.add.outer(p, p) ** 2 - 4.0 * np.outer(p, p) * np.abs(g_phi) ** 2
    norms = np.sqrt(np.clip(pp, 0.0, None))
    np.fill_diagonal(norms, 0.0)
    pairwise = 1.0 / n + float(np.sum(norms)) / (2.0 * n)

    rhs = (1.0 - 1.0 / n) ** 2 + 2.0 * (n - 1) / n**2 * (pur_a - pur_ab)
    return {"rhs": rhs, "x": x, "pgm": pgm, "pairwise": pairwise}


def check_l1_row(lhs: float, rhs: float, slack: float, amplitudes, phi,
                 tol: float = TOL) -> str | None:
    """None when the row agrees with the closed forms, else the reason."""
    n = np.asarray(amplitudes).shape[0]
    ref = closed_forms(amplitudes, phi)
    if not abs(rhs - ref["rhs"]) <= tol:
        return f"rhs {rhs!r} != closed form {ref['rhs']!r}"
    if not abs(slack - (rhs - lhs)) <= tol:
        return f"slack {slack!r} != rhs - lhs"
    p_s = 1.0 / n + float(np.sqrt(max(lhs - ref["x"] ** 2, 0.0)))
    if not ref["pgm"] - tol <= p_s <= ref["pairwise"] + tol:
        return f"P_s {p_s!r} outside [PGM {ref['pgm']!r}, pairwise {ref['pairwise']!r}]"
    return None
