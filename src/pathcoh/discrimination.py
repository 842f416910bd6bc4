"""Minimum-error discrimination of pure-state ensembles and path information.

Covers the closed-form two-state optimum, the pairwise trace-norm upper
bound, the pretty good measurement, an optimal-POVM solver by a log barrier
on the dual program with a dual optimality certificate, and the information
quantities I(D:M), the Holevo bound and a lower bound on accessible
information.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PSD_TOL, dagger, eigh, shannon_entropy, trace_norm, von_neumann_entropy
from .sampling import haar_unitary, subseed

COMPLETE_TOL = 1e-9
# A solver result counts as certified optimal when its gap -- an upper bound
# on the optimal success probability, from a dual-feasible operator, minus
# the P_s it reports -- is at most this.
CERT_THRESHOLD = 1e-7
# Central-path gap at which the min-error solve stops.
SOLVER_TOL = 1e-10
# Random rank-1 starts of the accessible-information search.
ACC_RESTARTS = 2


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
    stack is PSD to PSD_TOL and sums to identity to COMPLETE_TOL."""
    low = np.linalg.eigvalsh((stack + dagger(stack)) / 2).min(axis=-1)
    bad = np.argwhere(low < -PSD_TOL)
    if bad.size:
        where = tuple(bad[0])
        raise ValueError(f"element {where[-1]} is not PSD: min eigenvalue {low[where]:.3e}")
    if np.max(np.abs(stack.sum(axis=-3) - np.eye(stack.shape[-1]))) > COMPLETE_TOL:
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
    Newton steps of the dual barrier, over all its stages (0 for the closed
    form).
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


def _dual_residual(e: Ensemble, rhos: np.ndarray, y: np.ndarray) -> float:
    """Largest negative-eigenvalue magnitude of Y - p_i rho_i over all i,
    with rhos = e.projectors().

    Any Hermitian Y with Y >= p_i rho_i for all i bounds the optimal success
    probability by Tr Y; a residual g makes Y + g*I such an operator, so the
    optimum is at most Tr Y + d*g.
    """
    low = np.linalg.eigvalsh(y - e.probs[:, None, None] * rhos).min()
    return max(0.0, -float(low))


def certificate_gap(e: Ensemble, m: Povm) -> float:
    """Dual feasibility residual of a candidate measurement.

    Builds the symmetrized Lagrange operator Y = sum_j p_j rho_j Pi_j, whose
    trace is the success probability of `m`, and returns its residual g
    (0 when dual-feasible). The optimum is then at most P_s + d*g.
    """
    rhos = e.projectors()
    y = np.zeros((e.dim, e.dim), dtype=complex)
    for j in range(e.n):
        y += e.probs[j] * (rhos[j] @ m.elements[j])
    return _dual_residual(e, rhos, (y + dagger(y)) / 2)


def _herm_power(m: np.ndarray, power: float) -> tuple[np.ndarray, np.ndarray]:
    """m^power on the support of Hermitian PSD m (eigenvalues <= 1e-12 -> 0),
    and the projector onto its null space; m may be a stack (..., d, d)."""
    w, v = eigh(m)
    null = (v * (w <= 1e-12).astype(float)[..., None, :]) @ dagger(v)
    w = np.where(w > 1e-12, np.clip(w, 1e-12, None) ** power, 0.0)
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
    """Upper bound on the optimal success probability from pairwise trace norms.

    1/N + (1/2N) sum_{i,j} ||T_ij||_1 with T_ij = p_i rho_i - p_j rho_j.
    """
    rhos = e.projectors()
    n = e.n
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                total += trace_norm(e.probs[i] * rhos[i] - e.probs[j] * rhos[j])
    return 1.0 / n + total / (2.0 * n)


def _square_root_measurement(e: Ensemble,
                             weights: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Elements S^{-1/2} w_i |phi_i><phi_i| S^{-1/2} with
    S = sum_i w_i |phi_i><phi_i|, and the projector onto the null space of S."""
    s = np.einsum("i,ij,ik->jk", weights, e.states, e.states.conj())
    inv_root, null = _herm_power(s, -0.5)
    elements = [w * (inv_root @ r @ inv_root) for w, r in zip(weights, e.projectors())]
    return elements, null


def pretty_good_measurement(e: Ensemble) -> Povm:
    """Pi_i = rho^{-1/2} p_i |phi_i><phi_i| rho^{-1/2} with rho = sum p_i rho_i.

    When rho is rank-deficient a completion element on the null space is
    appended so the elements sum to identity. An eigenvalue of rho just above
    the inverse root's cutoff (a path probability near 1e-9, say) amplifies
    rounding until the elements are no longer PSD or complete; `_renormalize`
    then restores both.
    """
    elements, null = _square_root_measurement(e, e.probs)
    if np.max(np.abs(null)) > 1e-9:
        elements.append(null)
    try:
        return Povm(tuple(elements))
    except ValueError:
        return Povm(tuple(_renormalize(np.array(elements))))


def _project_psd(m: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix to Hermitian m, or to each in a stack (negative
    eigenvalues clipped to 0)."""
    w, v = eigh(m)
    return (v * np.clip(w, 0.0, None)[..., None, :]) @ dagger(v)


def _renormalize(elements: np.ndarray) -> np.ndarray:
    """Project each element of a (..., k, d, d) stack onto the PSD cone, then
    conjugate by (sum Pi)^{-1/2} so each collection of k sums to identity again."""
    elements = _project_psd((elements + dagger(elements)) / 2)
    inv_root, null = _herm_power(elements.sum(axis=-3), -0.5)
    inv_root = inv_root[..., None, :, :]
    m = inv_root @ elements @ inv_root + null[..., None, :, :] / elements.shape[-3]
    return (m + dagger(m)) / 2


def _barrier_solve(e: Ensemble, tol: float) -> tuple[Povm, np.ndarray, int]:
    """Solve the dual program min Tr Y s.t. Y >= p_i rho_i by a log barrier.

    Follows the central path of t Tr Y - sum_i log det(Y - p_i rho_i) with
    damped Newton steps over Hermitian Y (Vandenberghe & Boyd, SIAM Rev. 38,
    49 (1996)), raising t thirtyfold per stage until the central-path gap
    n*d/t reaches `tol`. On the central path Pi_i = (Y - p_i rho_i)^{-1} / t
    sum to identity and are optimal up to that gap (Eldar, Megretski &
    Verghese, IEEE Trans. IT 49, 1007 (2003)); they are renormalized into a
    POVM. Returns the POVM, the dual operator Y and the Newton steps taken.
    """
    n, d = e.n, e.dim
    weighted = np.einsum("i,ij,ik->ijk", e.probs, e.states, e.states.conj())
    eye = np.eye(d)
    y = 2.0 * float(e.probs.max()) * eye  # strictly feasible start
    # Double precision cannot resolve a central-path gap much below 1e-12.
    t_final = n * d / max(tol, 1e-12)
    t = 1.0
    steps = 0
    while True:
        for _ in range(50):  # Newton steps per stage; centering takes ~10
            inv = np.linalg.inv(y - weighted)
            grad = t * eye - inv.sum(axis=0)
            # Hessian Delta -> sum_i Z_i^-1 Delta Z_i^-1 on row-major vec(Delta).
            hess = np.einsum("iab,idc->acbd", inv, inv).reshape(d * d, d * d)
            step = np.linalg.solve(hess, -grad.reshape(-1)).reshape(d, d)
            step = (step + dagger(step)) / 2
            decrement = -float(np.vdot(grad, step).real)
            if decrement <= 2e-9:  # lambda^2 / 2 <= 1e-9: centered
                break
            # A damped step stays inside the barrier's domain (self-concordance).
            lam = np.sqrt(decrement)
            y = y + (step if lam < 0.25 else step / (1.0 + lam))
            steps += 1
        if t >= t_final:
            break
        t = min(30.0 * t, t_final)
    inv = np.linalg.inv(y - weighted)
    return Povm(tuple(_renormalize(inv / t))), y, steps


def _barrier_solve_stack(ensembles: list[Ensemble],
                         tol: float) -> list[tuple[Povm, np.ndarray, int]]:
    """`_barrier_solve` of each ensemble of a list of one shape, in lockstep.

    Each Newton step is one stacked call per operation over the ensembles
    still running. Every ensemble keeps its own t, its own count of steps in
    the current stage and its own step total, and leaves the stack when its
    last stage is centred, so each result is bitwise that of `_barrier_solve`.
    """
    n, d = ensembles[0].n, ensembles[0].dim
    k = len(ensembles)
    weighted_all = np.array([np.einsum("i,ij,ik->ijk", e.probs, e.states, e.states.conj())
                             for e in ensembles])
    eye = np.eye(d)
    y = np.array([2.0 * float(e.probs.max()) * eye for e in ensembles], dtype=complex)
    t_final = n * d / max(tol, 1e-12)
    y_out, t_out, steps_out = np.empty_like(y), np.empty(k), np.empty(k, dtype=int)
    # State of the ensembles still running, which `live` indexes.
    live, weighted = np.arange(k), weighted_all
    t, stage, steps = np.ones(k), np.zeros(k, dtype=int), np.zeros(k, dtype=int)
    while live.size:
        inv = np.linalg.inv(y[:, None] - weighted)
        grad = t[:, None, None] * eye - inv.sum(axis=1)
        hess = np.einsum("kiab,kidc->kacbd", inv, inv).reshape(-1, d * d, d * d)
        step = np.linalg.solve(hess, -grad.reshape(-1, d * d, 1)).reshape(-1, d, d)
        step = (step + dagger(step)) / 2
        # Bitwise np.vdot per ensemble; einsum or sum orders differ.
        decrement = -(grad.conj().reshape(-1, 1, d * d)
                      @ step.reshape(-1, d * d, 1)).real[:, 0, 0]
        centered = decrement <= 2e-9
        move = ~centered
        lam = np.sqrt(decrement[move])
        # Division by exactly 1.0 leaves an undamped step bitwise unchanged.
        y[move] = y[move] + step[move] / np.where(lam < 0.25, 1.0, 1.0 + lam)[:, None, None]
        steps[move] += 1
        stage[move] += 1
        stage_end = centered | (stage == 50)
        done = stage_end & (t >= t_final)
        advance = stage_end & ~done
        t[advance] = np.minimum(30.0 * t[advance], t_final)
        stage[stage_end] = 0
        if done.any():
            ids = live[done]
            y_out[ids], t_out[ids], steps_out[ids] = y[done], t[done], steps[done]
            keep = ~done
            live, weighted, y, t, stage, steps = (
                a[keep] for a in (live, weighted, y, t, stage, steps))
    inv = np.linalg.inv(y_out[:, None] - weighted_all)
    elements = _renormalize(inv / t_out[:, None, None, None])
    return [(Povm(tuple(els)), y_out[j], int(steps_out[j])) for j, els in enumerate(elements)]


def _certified(e: Ensemble, povm: Povm, y: np.ndarray, steps: int) -> DiscriminationResult:
    """The barrier's POVM polished by one square-root step, with its gap."""
    p_success = success_probability(e, povm)
    weights = np.array([p * (s.conj() @ el @ s).real
                        for p, s, el in zip(e.probs**2, e.states, povm.elements)])
    elements, null = _square_root_measurement(e, weights)
    polished = Povm(tuple(_renormalize(np.array(elements) + null / e.n)))
    polished_p = success_probability(e, polished)
    if polished_p > p_success:
        povm, p_success = polished, polished_p
    upper = float(np.trace(y).real) + e.dim * _dual_residual(e, e.projectors(), y)
    return DiscriminationResult(
        p_success=p_success,
        povm=povm,
        certificate_gap=upper - p_success,
        iterations=steps,
    )


def min_error_solve(e: Ensemble) -> DiscriminationResult:
    """Optimal POVM from `_barrier_solve`, polished by one square-root step.

    The barrier's measurement lies about SOLVER_TOL below the optimum. One
    weighted square-root-measurement step from it, with weights
    c_i = p_i^2 <phi_i|Pi_i|phi_i>, usually closes that distance; it is kept
    only when its P_s is higher. The certificate gap is
    Tr Y + d*g(Y) - P_s for the barrier's dual operator Y.
    """
    return _certified(e, *_barrier_solve(e, SOLVER_TOL))


def min_error_solve_block(ensembles: list[Ensemble]) -> list[DiscriminationResult]:
    """`min_error_solve` of each ensemble of a list of one shape (n, d).

    Two or more run the barrier in lockstep (`_barrier_solve_stack`), which
    amortizes numpy's per-call cost; the results are bitwise those of
    one-at-a-time solves. A lone ensemble takes `_barrier_solve`, which is
    faster on a stack of one.
    """
    if len(ensembles) == 1:
        return [min_error_solve(ensembles[0])]
    return [_certified(e, *r)
            for e, r in zip(ensembles, _barrier_solve_stack(ensembles, SOLVER_TOL))]


def _entropies(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each distribution along the last axis of a
    nonnegative stack, each bitwise `shannon_entropy` of its row.

    A row holding an exact zero goes through `shannon_entropy`, which drops
    the zero and so groups the sum differently.
    """
    rows = p.reshape(-1, p.shape[-1])
    positive = rows > 0.0
    h = -(rows * np.log2(rows, out=np.zeros_like(rows), where=positive)).sum(axis=-1)
    for i in np.flatnonzero(~positive.all(axis=-1)):
        h[i] = shannon_entropy(rows[i])
    return h.reshape(p.shape[:-1])


def _information(probs: np.ndarray, states: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """I(D:M) in bits for ensembles (probs (..., n), states (..., n, d)) measured
    by POVMs (elements (..., k, d, d)), the leading axes broadcast."""
    amp = (states.conj()[..., :, None, None, :] @ elements[..., None, :, :, :]
           @ states[..., :, None, :, None])
    joint = np.clip(probs[..., :, None] * amp[..., 0, 0].real, 0.0, None)
    h_d = _entropies(joint.sum(axis=-1))
    h_m = _entropies(joint.sum(axis=-2))
    h_dm = _entropies(joint.reshape(joint.shape[:-2] + (-1,)))
    return h_d + h_m - h_dm


def mutual_information(e: Ensemble, m: Povm) -> float:
    """I(D:M) in bits from the joint p_ij = p_i <phi_i|Pi_j|phi_i>."""
    if m.dim != e.dim:
        raise ValueError(f"dimension mismatch: POVM {m.dim}, ensemble {e.dim}")
    return float(_information(e.probs, e.states, np.array(m.elements)))


def holevo(e: Ensemble) -> float:
    """Holevo bound in bits; for pure members this is just S(rho)."""
    return von_neumann_entropy(e.average_state())


def _random_rank1_povm(rng, dim: int) -> Povm:
    u = haar_unitary(rng, dim)
    return Povm(tuple(np.outer(u[:, k], u[:, k].conj()) for k in range(dim)))


def _hill_climb(ensembles: list[Ensemble], starts: list[Povm], rngs: list,
                steps: int = 40) -> np.ndarray:
    """Local ascent of I(D:M) by random perturbations of the element roots.

    Runs every start on every ensemble (all of one shape) in lockstep, on an
    (ensembles, restarts, k, d, d) stack. Start r draws from rngs[r] whether
    or not its proposals are accepted, so its draws are common to every
    ensemble. Each proposal is validated as `Povm` validates. Returns the
    best I(D:M) of each ensemble and start, shape (ensembles, restarts).
    """
    probs = np.array([e.probs for e in ensembles])[:, None]
    states = np.array([e.states for e in ensembles])[:, None]
    elements = np.array([[m.elements for m in starts]] * len(ensembles))
    best = _information(probs, states, elements)
    eps = np.full(best.shape, 0.2)
    draw = (elements.shape[2], 2) + elements.shape[3:]  # k x (real, imag) parts
    for _ in range(steps):
        z = np.array([rng.standard_normal(draw) for rng in rngs])
        root, _ = _herm_power(elements, 0.5)
        a = root + eps[..., None, None, None] * (z[:, :, 0] + 1j * z[:, :, 1])
        proposal = _renormalize(dagger(a) @ a)
        _check_povms(proposal)
        val = _information(probs, states, proposal)
        up = val > best
        best[up], elements[up] = val[up], proposal[up]
        eps = np.where(up, np.minimum(eps * 1.2, 0.5), np.maximum(eps * 0.7, 1e-3))
    return best


def accessible_info_lower(e: Ensemble | list[Ensemble], min_error_povm: Povm | list[Povm],
                          restarts: int = ACC_RESTARTS, seed: int = 0) -> float | list[float]:
    """Certified lower bound on the accessible information Acc(D), in bits.

    Best I(D:M) over the min-error POVM (from `min_error_solve`), the PGM,
    and `restarts` random rank-1 POVMs refined by local ascent. Monotone in
    `restarts` for a fixed seed.

    `e` may be a list of ensembles of one shape (n, d), with a list of their
    min-error POVMs; then the ascent runs on all of them in lockstep and a
    list of bounds comes back. A lone ensemble is a block of one. Restart r
    starts from the rank-1 POVM drawn from subseed(seed, r) and perturbs it
    with that stream's later draws, so every ensemble searched with one seed
    shares its starts and draws. The seed is the scenario's
    `Evaluation.seed`: the sweep's seed in a sweep, 0 in `pathcoh check`.
    """
    single = isinstance(e, Ensemble)
    ensembles, povms = ([e], [min_error_povm]) if single else (e, min_error_povm)
    best = [max(mutual_information(x, m), mutual_information(x, pretty_good_measurement(x)))
            for x, m in zip(ensembles, povms)]
    if restarts:
        rngs = [subseed(seed, r) for r in range(restarts)]
        starts = [_random_rank1_povm(rng, ensembles[0].dim) for rng in rngs]
        best = [max(b, *climbed) for b, climbed in zip(best, _hill_climb(ensembles, starts, rngs))]
    best = [float(b) for b in best]
    return best[0] if single else best
