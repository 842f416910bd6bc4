"""Minimum-error discrimination of pure-state ensembles and path information.

Covers the closed-form two-state optimum, the pairwise trace-norm upper
bound, the pretty good measurement, an optimal-POVM solver by a primal-dual
interior-point method on stacks of ensembles with a dual optimality
certificate, and the information quantities I(D:M), the Holevo bound and a
lower bound on accessible information by a deterministic ascent from the
min-error POVM and the PGM.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PSD_TOL, dagger, eigh, shannon_entropies, von_neumann_entropy

COMPLETE_TOL = 1e-9
# A solver result counts as certified optimal when its gap -- an upper bound
# on the optimal success probability, from a dual-feasible operator, minus
# the P_s it reports -- is at most this.
CERT_THRESHOLD = 1e-7
# Duality gap at which the min-error solve stops, and the iterations after
# which it stops anyway (its result is then uncertified).
SOLVER_TOL = 1e-10
SOLVER_MAX_ITER = 100
# Steps of the accessible-information ascent, and its initial step size.
ACC_STEPS = 10
ACC_EPS = 0.5


@dataclass(frozen=True)
class Ensemble:
    """Weighted set {p_i, |phi_i>} of pure states to discriminate."""

    probs: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        s = np.asarray(self.states, dtype=complex)
        if s.ndim != 2 or p.shape != (s.shape[0],):
            raise ValueError(f"need one probability per state: {p.shape} vs {s.shape}")
        if not (np.isfinite(p).all() and np.isfinite(s).all()):
            raise ValueError("probabilities and states must be finite")
        if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities must be >= 0 and sum to 1, got {p}")
        norms = np.linalg.norm(s, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise ValueError(f"states must be unit vectors, norms {norms}")
        object.__setattr__(self, "probs", np.clip(p, 0.0, None))
        object.__setattr__(self, "states", s)

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def projectors(self) -> np.ndarray:
        """The (n, d, d) stack of |phi_i><phi_i| (each bitwise np.outer)."""
        return self.states[:, :, None] * self.states.conj()[:, None, :]

    def average_state(self) -> np.ndarray:
        return np.einsum("i,ij,ik->jk", self.probs, self.states, self.states.conj())


def _check_povms(stack: np.ndarray) -> None:
    """Raise ValueError unless each collection of k elements of a (..., k, d, d)
    stack is PSD to PSD_TOL and sums to identity to COMPLETE_TOL; NaN fails both."""
    low = np.linalg.eigvalsh((stack + dagger(stack)) / 2).min(axis=-1)
    bad = np.argwhere(~(low >= -PSD_TOL))
    if bad.size:
        where = tuple(bad[0])
        raise ValueError(f"element {where[-1]} is not PSD: min eigenvalue {low[where]:.3e}")
    if not np.max(np.abs(stack.sum(axis=-3) - np.eye(stack.shape[-1]))) <= COMPLETE_TOL:
        raise ValueError("POVM elements do not sum to identity")


@dataclass(frozen=True)
class Povm:
    """Positive operators summing to identity, one per outcome."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        els = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        if not els:
            raise ValueError("POVM needs at least one element")
        d = els[0].shape[0]
        for k, e in enumerate(els):
            if e.shape != (d, d):
                raise ValueError(f"element {k} has shape {e.shape}, expected {(d, d)}")
        _check_povms(np.array(els))
        object.__setattr__(self, "elements", els)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


@dataclass(frozen=True)
class DiscriminationResult:
    """Success probability `p_success` attained by `povm`, with its certificate.

    `certificate_gap` is an upper bound on the optimal success probability
    minus `p_success`, so the optimum lies in
    [p_success, p_success + certificate_gap]. `iterations` counts the
    primal-dual iterations (0 for the closed form).
    """

    p_success: float
    povm: Povm
    certificate_gap: float
    iterations: int

    @property
    def certified(self) -> bool:
        return self.certificate_gap <= CERT_THRESHOLD


def success_probability(e: Ensemble, m: Povm) -> float:
    """sum_i p_i <phi_i|Pi_i|phi_i>; extra POVM outcomes never count as correct."""
    if m.dim != e.dim:
        raise ValueError(f"dimension mismatch: POVM {m.dim}, ensemble {e.dim}")
    if len(m.elements) < e.n:
        raise ValueError(f"POVM has {len(m.elements)} outcomes for {e.n} states")
    return float(sum(
        e.probs[i] * (e.states[i].conj() @ m.elements[i] @ e.states[i]).real
        for i in range(e.n)))


def _dual_residual(weighted: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Largest negative-eigenvalue magnitude g of Y - p_i rho_i over all i, for
    weighted = p_i rho_i (..., n, d, d) and Y (..., d, d). Any Hermitian Y with
    Y >= p_i rho_i bounds the optimal success probability by Tr Y; Y + g*I is
    such an operator, so the optimum is at most Tr Y + d*g."""
    low = np.linalg.eigvalsh(y[..., None, :, :] - weighted).min(axis=(-2, -1))
    return np.where(low < 0.0, -low, 0.0)  # +0.0, not -0.0, when low is 0


def certificate_gap(e: Ensemble, m: Povm) -> float:
    """Dual feasibility residual of a candidate measurement.

    Builds the symmetrized Lagrange operator Y = sum_j p_j rho_j Pi_j, whose
    trace is the success probability of `m`, and returns its residual g
    (0 when dual-feasible). The optimum is then at most P_s + d*g.
    """
    rhos = e.projectors()
    y = (e.probs[:, None, None] * (rhos @ np.array(m.elements[:e.n]))).sum(axis=0)
    return float(_dual_residual(e.probs[:, None, None] * rhos, (y + dagger(y)) / 2))


def _inv_sqrt(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m^{-1/2} on the support of Hermitian PSD m (eigenvalues <= 1e-12 -> 0),
    and the projector onto its null space; m may be a stack (..., d, d)."""
    w, v = eigh(m)
    null = (v * (w <= 1e-12).astype(float)[..., None, :]) @ dagger(v)
    w = np.where(w > 1e-12, np.clip(w, 1e-12, None) ** -0.5, 0.0)
    return (v * w[..., None, :]) @ dagger(v), null


def helstrom(e: Ensemble) -> DiscriminationResult:
    """Closed-form optimum for two pure states.

    POVM projects onto the positive / negative eigenspaces of
    T = p_1 |phi_1><phi_1| - p_2 |phi_2><phi_2|, null space assigned to
    outcome 1.
    """
    if e.n != 2:
        raise ValueError(f"helstrom needs exactly two states, got {e.n}")
    p1, p2 = e.probs
    overlap = abs(np.vdot(e.states[0], e.states[1]))
    p_success = 0.5 + np.sqrt(max(0.25 - p1 * p2 * overlap**2, 0.0))

    rho1, rho2 = e.projectors()
    t = p1 * rho1 - p2 * rho2
    w, v = eigh(t)
    pos = (v * (w >= 0).astype(float)) @ dagger(v)
    pi1 = (pos + dagger(pos)) / 2
    povm = Povm((pi1, np.eye(e.dim) - pi1))
    # The POVM attains the closed form, so its residual g bounds the gap by d*g.
    return DiscriminationResult(
        p_success=float(p_success),
        povm=povm,
        certificate_gap=e.dim * certificate_gap(e, povm),
        iterations=0,
    )


def pairwise_bound(e: Ensemble) -> float:
    """Upper bound on the optimal success probability from pairwise trace norms
    (Qiu, PRA 77, 012328 (2008)).

    1/N + (1/2N) sum_{i != j} ||T_ij||_1 with T_ij = p_i rho_i - p_j rho_j.
    T_ij has rank <= 2, so ||T_ij||_1 = sqrt(Tr(T_ij)^2 - 4 det) =
    sqrt((p_i - p_j)^2 + 4 p_i p_j (1 - |<phi_i|phi_j>|^2)), taken with the
    states' own norms. 1 - |<phi_i|phi_j>|^2 is half the squared norm of
    phi_i (x) phi_j - phi_j (x) phi_i, which keeps its digits where the
    overlap is near 1 (for d = 1 it is exactly 0).
    """
    p, a = e.probs, e.states
    wedge = a[:, None, :, None] * a[None, :, None, :]
    wedge = wedge - wedge.transpose(1, 0, 2, 3)
    cross = (np.abs(wedge) ** 2).sum(axis=(-2, -1)) / 2
    weight = p * (np.abs(a) ** 2).sum(axis=-1)
    norms = np.sqrt((weight[:, None] - weight) ** 2 + 4 * np.outer(p, p) * cross)
    return 1.0 / e.n + float(norms[np.triu_indices(e.n, 1)].sum()) / e.n


def _square_root_measurement(states: np.ndarray,
                             weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elements |mu_i><mu_i|, mu_i = S^{-1/2} sqrt(w_i) |phi_i> with
    S = sum_i w_i |phi_i><phi_i| (eigenvalues <= 1e-12 -> 0), and the null
    projector of S, for states (..., n, d) and weights (..., n). The mu_i are
    the columns of U V^H for the SVD U Sigma V^H of the (d, n) matrix of the
    sqrt(w_i) |phi_i>, so no weight is divided out again and orthogonal
    states give exact projectors."""
    d, k = states.shape[-1], min(states.shape[-2:])
    roots = np.sqrt(np.clip(weights, 0.0, None))[..., None, :]
    u, s, vh = np.linalg.svd(states.swapaxes(-1, -2) * roots)
    support = np.zeros(s.shape[:-1] + (d,), dtype=bool)
    support[..., :k] = s * s > 1e-12
    mu = ((u[..., :k] * support[..., None, :k]) @ vh[..., :k, :]).swapaxes(-1, -2)
    null = (u * ~support[..., None, :]) @ dagger(u)
    return mu[..., :, None] * mu.conj()[..., None, :], null


def pretty_good_measurement(e: Ensemble) -> Povm:
    """Pi_i = rho^{-1/2} p_i |phi_i><phi_i| rho^{-1/2} with rho = sum p_i rho_i.

    When rho is rank-deficient a completion element on the null space is
    appended so the elements sum to identity. The SVD form of
    `_square_root_measurement` amplifies no rounding, even for a path
    probability near 1e-9, so the elements need no renormalization.
    """
    elements, null = _square_root_measurement(e.states, e.probs)
    if np.max(np.abs(null)) > COMPLETE_TOL:
        elements = np.concatenate((elements, null[None]))
    return Povm(tuple(elements))


def _renormalize(elements: np.ndarray) -> np.ndarray:
    """Project each element of a (..., k, d, d) stack onto the PSD cone (its
    nearest PSD matrix), then conjugate by (sum Pi)^{-1/2} so each collection
    of k sums to identity again."""
    w, v = eigh((elements + dagger(elements)) / 2)
    elements = (v * np.clip(w, 0.0, None)[..., None, :]) @ dagger(v)
    inv_root, null = _inv_sqrt(elements.sum(axis=-3))
    inv_root = inv_root[..., None, :, :]
    m = inv_root @ elements @ inv_root + null[..., None, :, :] / elements.shape[-3]
    return (m + dagger(m)) / 2


def _stacked(ensembles: list[Ensemble]) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities (B, n) and states (B, n, d) of a list of one shape."""
    return np.array([e.probs for e in ensembles]), np.array([e.states for e in ensembles])


def _cholesky(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors of a (2, B, n, d, d) stack, and a (B,) mask of the
    members whose matrices all have one. Near the optimum of a degenerate
    program (zero probabilities, or fewer states than dimensions) rounding
    can leave an iterate without one; that member's factors are zero."""
    try:
        return np.linalg.cholesky(pairs), np.ones(pairs.shape[1], dtype=bool)
    except np.linalg.LinAlgError:
        if pairs.shape[1] == 1:
            return np.zeros_like(pairs), np.zeros(1, dtype=bool)
    parts = [_cholesky(pairs[:, j:j + 1]) for j in range(pairs.shape[1])]
    return np.concatenate([c for c, _ in parts], axis=1), np.concatenate([f for _, f in parts])


def _primal_dual(probs: np.ndarray,
                 weighted: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the min-error program of each ensemble of a stack (probabilities
    (B, n), weighted = p_i rho_i (B, n, d, d)) in lockstep.

    Dual: min Tr Y s.t. Z_i = Y - p_i rho_i >= 0. Primal: max
    sum_i p_i <phi_i|Pi_i|phi_i> s.t. sum_i Pi_i = 1, Pi_i >= 0. Their gap is
    sum_i Tr Z_i Pi_i = n d mu. From the strictly feasible Y = 2 p_max 1,
    Pi_i = 1/n, each iteration takes the HKM direction (Helmberg, Rendl,
    Vanderbei & Wolkowicz, SIAM J. Optim. 6, 342 (1996)) towards
    Z_i Pi_i = 0.1 mu 1, and each side moves 0.98 of its largest feasible
    step, at most 1. A member leaves with its iterate at a gap <= SOLVER_TOL,
    after SOLVER_MAX_ITER iterations, or without a Cholesky factor. Each
    result is bitwise that of a stack of one. Returns the renormalized POVM
    elements (B, n, d, d), Y (B, d, d) and the iteration counts.
    """
    b, n, d = weighted.shape[:3]
    eye = np.eye(d)
    y = 2.0 * probs.max(axis=-1)[:, None, None] * eye + 0j
    # Z_i and Pi_i of the members still running, which `live` indexes.
    zp = np.empty((2, b, n, d, d), dtype=complex)
    zp[1] = eye / n
    y_out, pi_out, iterations = np.empty_like(y), np.empty_like(zp[1]), np.empty(b, dtype=int)
    live = np.arange(b)
    for it in range(SOLVER_MAX_ITER + 1):
        z, pi = zp
        np.subtract(y[:, None], weighted, out=z)
        gap = (z.conj() * pi).real.reshape(live.size, -1).sum(axis=-1)
        chol, factored = _cholesky(zp)
        done = (gap <= SOLVER_TOL) | (it == SOLVER_MAX_ITER) | ~factored
        if done.any():
            ids = live[done]
            y_out[ids], pi_out[ids], iterations[ids] = y[done], pi[done], it
            keep = ~done
            live, weighted, y, gap = (a[keep] for a in (live, weighted, y, gap))
            zp, chol = zp[:, keep], chol[:, keep]
            pi = zp[1]
            if not live.size:
                break
        inv_chol = np.linalg.inv(chol)
        z_inv = dagger(inv_chol[0]) @ inv_chol[0]
        target = (gap * (0.1 / (n * d)))[:, None, None, None] * z_inv  # sigma mu Z_i^-1
        # Twice the Schur matrix of dY -> sum_i herm(Z_i^-1 dY Pi_i) on
        # row-major vec(dY): K = sum_i Z_i^-1 (x) Pi_i^T, one matrix product
        # over i, plus its index-swapped transpose.
        k = (z_inv.reshape(-1, n, d * d).swapaxes(-1, -2)
             @ pi.swapaxes(-1, -2).reshape(-1, n, d * d)).reshape(-1, d, d, d, d)
        k = k.transpose(0, 1, 3, 2, 4)
        schur = (k + k.transpose(0, 4, 3, 2, 1)).reshape(-1, d * d, d * d)
        dy = np.linalg.solve(schur, 2 * (target.sum(axis=1) - eye).reshape(-1, d * d, 1))
        dy = dy.reshape(-1, 1, d, d)
        dy = (dy + dagger(dy)) / 2
        dpi = target - pi - z_inv @ dy @ pi
        # The lowest eigenvalue of L^-1 D L^-H bounds the step along D, for
        # D = dY on Z_i = L L^H and D = dPi_i on Pi_i.
        moves = np.empty_like(zp)
        moves[0] = dy
        moves[1] = (dpi + dagger(dpi)) / 2
        low = np.linalg.eigvalsh(inv_chol @ moves @ dagger(inv_chol)).min(axis=(-2, -1))
        step = 1.0 / np.maximum(1.0, low / -0.98)
        y = y + step[0, :, None, None] * dy[:, 0]
        pi += step[1, :, None, None, None] * moves[1]
    return _renormalize(pi_out), y_out, iterations


def _certified(probs: np.ndarray, states: np.ndarray, weighted: np.ndarray,
               elements: np.ndarray, y: np.ndarray,
               iterations: np.ndarray) -> list[DiscriminationResult]:
    """The solver's POVMs polished by one square-root step, with their gaps,
    for a stack of ensembles (probs, states, weighted = p_i rho_i)."""
    def success(els):  # <phi_i|Pi_i|phi_i> and P_s
        diag = (states.conj()[..., :, None, :] @ els @ states[..., :, :, None])[..., 0, 0].real
        return diag, (probs * diag).sum(axis=-1)

    diag, p_success = success(elements)
    sqrt_els, null = _square_root_measurement(states, probs**2 * diag)
    polished = _renormalize(sqrt_els + null[:, None] / states.shape[-2])
    polished_p = success(polished)[1]
    better = polished_p > p_success
    elements = np.where(better[:, None, None, None], polished, elements)
    p_success = np.where(better, polished_p, p_success)
    upper = (np.trace(y, axis1=-2, axis2=-1).real
             + states.shape[-1] * _dual_residual(weighted, y))
    return [DiscriminationResult(p_success=float(p), povm=Povm(tuple(m)),
                                 certificate_gap=float(u - p), iterations=int(it))
            for p, m, u, it in zip(p_success, elements, upper, iterations)]


def min_error_solve_block(ensembles: list[Ensemble]) -> list[DiscriminationResult]:
    """Optimal POVM of each ensemble of a list of one shape (n, d), each
    result bitwise that of a block of one; the one place the route is chosen.

    Two states take `helstrom`'s closed form (iterations 0). More are solved
    on one stack by `_primal_dual`, whose POVM lies about SOLVER_TOL below the
    optimum. One weighted square-root-measurement step from it, with weights
    c_i = p_i^2 <phi_i|Pi_i|phi_i>, usually closes that distance; it is kept
    only when its P_s is higher. The certificate gap is
    Tr Y + d*g(Y) - P_s for the solver's dual operator Y.
    """
    if ensembles[0].n == 2:
        return [helstrom(e) for e in ensembles]
    probs, states = _stacked(ensembles)
    weighted = probs[..., None, None] * (states[..., :, None] * states.conj()[..., None, :])
    return _certified(probs, states, weighted, *_primal_dual(probs, weighted))


def min_error_solve(e: Ensemble) -> DiscriminationResult:
    """`min_error_solve_block` of one ensemble."""
    return min_error_solve_block([e])[0]


def _joint(probs: np.ndarray, states: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Joint tables p_i <phi_i|Pi_k|phi_i> (..., n, k) of ensembles (probs, states)
    measured by POVMs (elements (..., k, d, d)), the leading axes broadcast."""
    amp = (states.conj()[..., :, None, None, :] @ elements[..., None, :, :, :]
           @ states[..., :, None, :, None])
    return np.clip(probs[..., :, None] * amp[..., 0, 0].real, 0.0, None)


def _mutual(joint: np.ndarray) -> np.ndarray:
    """Mutual information in bits of each joint table (..., n, k)."""
    h_d = shannon_entropies(joint.sum(axis=-1))
    h_m = shannon_entropies(joint.sum(axis=-2))
    return h_d + h_m - shannon_entropies(joint.reshape(joint.shape[:-2] + (-1,)))


def mutual_information(e: Ensemble, m: Povm) -> float:
    """I(D:M) in bits from the joint p_ij = p_i <phi_i|Pi_j|phi_i>."""
    if m.dim != e.dim:
        raise ValueError(f"dimension mismatch: POVM {m.dim}, ensemble {e.dim}")
    return float(_mutual(_joint(e.probs, e.states, np.array(m.elements))))


def holevo(e: Ensemble) -> float:
    """Holevo bound in bits; for pure members this is just S(rho)."""
    return von_neumann_entropy(e.average_state())


def _hill_climb(ensembles: list[Ensemble], starts: np.ndarray) -> np.ndarray:
    """Gradient ascent of I(D:M), in lockstep, from an (ensembles, s, k, d, d)
    stack of s starting POVMs for each ensemble (all of one shape).

    With q_ik = <phi_i|Pi_k|phi_i> and q_k = sum_i p_i q_ik, the gradient of
    I(D:M) in Pi_k is G_k = sum_i p_i log2(q_ik/q_k) |phi_i><phi_i|. A step
    takes Pi_k to M_k^dag Pi_k M_k, M_k = 1 + eps (G_k - Lambda), with
    Lambda = herm(sum_k G_k Pi_k): the sum stays 1 to first order, and I(D:M)
    rises by 2 eps sum_k Tr Pi_k (G_k - Lambda)^2, zero only where the
    extremal equations of Rehacek, Englert & Kaszlikowski, PRA 71, 054303
    (2005) hold. A renormalized, validated proposal is kept only when I(D:M)
    rises; each start has its own eps. Returns the best I(D:M) per start.
    """
    probs, states = (a[:, None] for a in _stacked(ensembles))
    kets, bras = states.swapaxes(-1, -2)[..., None, :, :], states.conj()[..., None, :, :]
    elements = starts.copy()
    joint = _joint(probs, states, elements)
    best = _mutual(joint)
    eps = np.full(best.shape, ACC_EPS)
    for _ in range(ACC_STEPS):
        # Where q_ik = 0, Pi_k |phi_i> = 0, so that term cannot move Pi_k.
        ratio = np.divide(joint, probs[..., None] * joint.sum(axis=-2, keepdims=True),
                          out=np.ones_like(joint), where=joint > 0.0)
        grad = (kets * (probs[..., None] * np.log2(ratio)).swapaxes(-1, -2)[..., None, :]) @ bras
        lam = (grad @ elements).sum(axis=-3)
        m = np.eye(elements.shape[-1]) + eps[..., None, None, None] * (
            grad - ((lam + dagger(lam)) / 2)[..., None, :, :])
        proposal = _renormalize(dagger(m) @ elements @ m)
        _check_povms(proposal)
        trial = _joint(probs, states, proposal)
        val = _mutual(trial)
        up = val > best
        best[up], elements[up], joint[up] = val[up], proposal[up], trial[up]
        eps = np.where(up, eps * 1.5, eps * 0.5)
    return best


def accessible_info_lower(e: Ensemble | list[Ensemble],
                          min_error_povm: Povm | list[Povm]) -> float | list[float]:
    """Certified lower bound on Acc(D) in bits: the best I(D:M) that
    `_hill_climb` reaches from the min-error POVM (one element per state) and
    from the PGM, so at least that of either start. Nothing is random.

    `e` may be a list of ensembles of one shape with a list of their min-error
    POVMs; their PGMs are built on one stack and the ascents run in lockstep,
    each bound bitwise as if alone. The PGM's null projector (0 where the
    states span the space) is spread over its n outcomes, so it has the
    same I(D:M) as `pretty_good_measurement` and both starts have n elements.
    """
    single = isinstance(e, Ensemble)
    ensembles, povms = ([e], [min_error_povm]) if single else (e, min_error_povm)
    probs, states = _stacked(ensembles)
    pgm, null = _square_root_measurement(states, probs)
    pgm = pgm + null[:, None] / states.shape[-2]
    _check_povms(pgm)
    starts = np.stack((np.array([m.elements for m in povms]), pgm), axis=1)
    best = _hill_climb(ensembles, starts).max(axis=-1)
    return float(best[0]) if single else best.tolist()
