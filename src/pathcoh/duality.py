"""Both sides of every duality relation, as structured pass/fail reports.

The ABD state is pure, so S(D) = S(AB) and chi + C_r(rho_A) = H(p) + S(B|A).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .coherence import normalized_x, rel_ent_coherence
from .discrimination import (
    DiscriminationResult,
    Ensemble,
    Povm,
    accessible_info_lower,
    helstrom,
    holevo,
    min_error_solve,
    mutual_information,
)
from .interferometer import (
    ReducedSet,
    ScenarioSpec,
    build_mixed_no_memory,
    gram_matrix,
    scenario_reduced,
)
from .linalg import Dims, partial_trace, purity, shannon_entropy, von_neumann_entropy

INEQ_TOL = 1e-7
EQ_TOL = 1e-9


class Relation(str, enum.Enum):
    L1_MEMORY = "L1_MEMORY"
    L1_NO_MEMORY = "L1_NO_MEMORY"
    TWO_PATH_EQUALITY = "TWO_PATH_EQUALITY"
    MIXED_STATE = "MIXED_STATE"
    ENTROPIC_NO_MEMORY = "ENTROPIC_NO_MEMORY"
    ENTROPIC_MEMORY = "ENTROPIC_MEMORY"
    ACCESSIBLE = "ACCESSIBLE"
    TWO_PARTICLE_SUM = "TWO_PARTICLE_SUM"


@dataclass(frozen=True)
class DualityReport:
    """One relation check: lhs <= rhs (or lhs = rhs for equality relations)."""

    relation_id: Relation
    lhs: float
    rhs: float
    slack: float
    satisfied: bool
    components: dict[str, float]
    solver_certified: bool
    equality: bool = False


def holds(slack: float, equality: bool, tol: float | None = None) -> bool:
    """The verdict on a relation's slack rhs - lhs: |slack| <= tol for an
    equality, slack >= -tol otherwise; tol defaults to EQ_TOL or INEQ_TOL."""
    tol = (EQ_TOL if equality else INEQ_TOL) if tol is None else tol
    return bool(abs(slack) <= tol if equality else slack >= -tol)


def _report(relation, lhs, rhs, components, certified, *, equality=False):
    slack = rhs - lhs
    return DualityReport(
        relation_id=relation,
        lhs=float(lhs),
        rhs=float(rhs),
        slack=float(slack),
        satisfied=holds(slack, equality),
        components={k: float(v) for k, v in components.items()},
        solver_certified=bool(certified),
        equality=equality,
    )


def detector_ensemble(spec: ScenarioSpec) -> Ensemble:
    return Ensemble(spec.path_probs, spec.detector_states)


class Evaluation:
    """The quantities of one scenario that every relation reads.

    Each is computed on first use and then kept, so the relations checked on
    one scenario share one set of reduced states, one min-error solve and one
    accessible-information search. An evaluation lives as long as its
    scenario's checks do.
    """

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec

    @classmethod
    def of(cls, target: ScenarioSpec | Evaluation) -> Evaluation:
        return target if isinstance(target, Evaluation) else cls(target)

    @cached_property
    def reduced(self) -> ReducedSet:
        return scenario_reduced(self.spec)

    @cached_property
    def ensemble(self) -> Ensemble:
        return detector_ensemble(self.spec)

    @cached_property
    def solution(self) -> DiscriminationResult:
        """The min-error solve of the detector ensemble."""
        return min_error_solve(self.ensemble)

    @cached_property
    def acc_lower(self) -> float:
        """Lower bound on Acc(D) from the ascent from the min-error POVM and the PGM."""
        return accessible_info_lower(self.ensemble, self.solution.povm)


def check_l1_memory(spec: ScenarioSpec | Evaluation) -> DualityReport:
    """Main relation: (P_s - 1/N)^2 + X^2 <= (1-1/N)^2 + 2(N-1)/N^2 (Tr rho_A^2 - Tr rho_AB^2)."""
    ev = Evaluation.of(spec)
    n = ev.spec.n
    red = ev.reduced
    res = ev.solution
    x = normalized_x(red.rho_a, n)
    pur_a = purity(red.rho_a)
    pur_ab = purity(red.rho_ab)
    lhs = (res.p_success - 1.0 / n) ** 2 + x**2
    rhs = (1.0 - 1.0 / n) ** 2 + 2.0 * (n - 1) / n**2 * (pur_a - pur_ab)
    comps = {"P_s": res.p_success, "X": x, "purity_A": pur_a, "purity_AB": pur_ab,
             "certificate_gap": res.certificate_gap}
    return _report(Relation.L1_MEMORY, lhs, rhs, comps, res.certified)


def _memoryless(spec: ScenarioSpec | Evaluation) -> Evaluation:
    ev = Evaluation.of(spec)
    if ev.spec.d_b != 1:
        raise ValueError(f"memoryless relation needs d_B = 1, got {ev.spec.d_b}")
    return ev


def check_l1_no_memory(spec: ScenarioSpec | Evaluation) -> DualityReport:
    """Memoryless relation: (P_s - 1/N)^2 + X^2 <= (1-1/N)^2 (requires d_B = 1)."""
    ev = _memoryless(spec)
    n = ev.spec.n
    red = ev.reduced
    res = ev.solution
    x = normalized_x(red.rho_a, n)
    lhs = (res.p_success - 1.0 / n) ** 2 + x**2
    rhs = (1.0 - 1.0 / n) ** 2
    comps = {"P_s": res.p_success, "X": x, "certificate_gap": res.certificate_gap}
    return _report(Relation.L1_NO_MEMORY, lhs, rhs, comps, res.certified)


def check_two_path_equality(spec: ScenarioSpec | Evaluation) -> DualityReport:
    """N=2 equality via closed-form Helstrom:
    (P_s - 1/2)^2 + X^2 = 1/4 + (1/2)(Tr rho_A^2 - Tr rho_AB^2)."""
    ev = Evaluation.of(spec)
    if ev.spec.n != 2:
        raise ValueError(f"two-path equality needs N = 2, got {ev.spec.n}")
    red = ev.reduced
    res = helstrom(ev.ensemble)
    x = normalized_x(red.rho_a, 2)
    pur_a = purity(red.rho_a)
    pur_ab = purity(red.rho_ab)
    lhs = (res.p_success - 0.5) ** 2 + x**2
    rhs = 0.25 + 0.5 * (pur_a - pur_ab)
    comps = {"P_s": res.p_success, "X": x, "purity_A": pur_a, "purity_AB": pur_ab}
    return _report(Relation.TWO_PATH_EQUALITY, lhs, rhs, comps, res.certified,
                   equality=True)


def check_mixed_state(spec: ScenarioSpec | Evaluation) -> DualityReport:
    """Mixed initial state, no memory: rhs uses Tr rho_A^2 - Tr rho_D^2.

    The memory dimension of `spec` only purifies the initial particle state.
    """
    ev = Evaluation.of(spec)
    n = ev.spec.n
    _, rho_a, rho_d = build_mixed_no_memory(ev.spec)
    res = ev.solution
    x = normalized_x(rho_a, n)
    pur_a = purity(rho_a)
    pur_d = purity(rho_d)
    lhs = (res.p_success - 1.0 / n) ** 2 + x**2
    rhs = (1.0 - 1.0 / n) ** 2 + 2.0 * (n - 1) / n**2 * (pur_a - pur_d)
    if rhs > (1.0 - 1.0 / n) ** 2 + 1e-12:
        raise AssertionError("mixed-state rhs exceeds the memoryless bound")
    comps = {"P_s": res.p_success, "X": x, "purity_A": pur_a, "purity_D": pur_d,
             "certificate_gap": res.certificate_gap}
    return _report(Relation.MIXED_STATE, lhs, rhs, comps, res.certified)


def _entropic_sides(ev: Evaluation, m: Povm | None):
    red = ev.reduced
    certified = True
    if m is None:
        res = ev.solution
        m = res.povm
        certified = res.certified
    info = mutual_information(ev.ensemble, m)
    c_r = rel_ent_coherence(red.rho_a)
    h_p = shannon_entropy(red.p)
    return red, certified, info, c_r, h_p


def check_entropic_no_memory(spec: ScenarioSpec | Evaluation,
                             m: Povm | None = None) -> DualityReport:
    """Entropic memoryless relation: I(D:M) + C_r(rho_A) <= H({p_i})."""
    _, certified, info, c_r, h_p = _entropic_sides(_memoryless(spec), m)
    comps = {"I_DM": info, "C_r": c_r, "H_p": h_p}
    return _report(Relation.ENTROPIC_NO_MEMORY, info + c_r, h_p, comps, certified)


def check_entropic_memory(spec: ScenarioSpec | Evaluation,
                          m: Povm | None = None) -> DualityReport:
    """Entropic relation with memory: I(D:M) + C_r(rho_A) <= H({p_i}) + S(B|A)."""
    red, certified, info, c_r, h_p = _entropic_sides(Evaluation.of(spec), m)
    s_a = von_neumann_entropy(red.rho_a)
    s_ab = von_neumann_entropy(red.rho_ab)
    s_d = von_neumann_entropy(red.rho_d)
    # The ABD state is pure, so S(D) = S(AB); a gap means a faulty build.
    if not abs(s_d - s_ab) <= 1e-9:
        raise AssertionError(f"S(D) - S(AB) = {s_d - s_ab:.3e}: the ABD state is not pure")
    lhs = info + c_r
    rhs = h_p + (s_ab - s_a)
    comps = {"I_DM": info, "C_r": c_r, "H_p": h_p, "S_A": s_a, "S_AB": s_ab,
             "S_cond_BA": s_ab - s_a}
    return _report(Relation.ENTROPIC_MEMORY, lhs, rhs, comps, certified)


def check_accessible_relation(spec: ScenarioSpec | Evaluation) -> DualityReport:
    """Acc(D) + C_r(rho_A) <= H({p_i}) + S(B|A).

    Only a lower bound on Acc(D) is computable; the report additionally
    verifies the sufficient condition holevo + C_r <= rhs, which implies
    the relation for every POVM.
    """
    ev = Evaluation.of(spec)
    red = ev.reduced
    acc = ev.acc_lower
    c_r = rel_ent_coherence(red.rho_a)
    h_p = shannon_entropy(red.p)
    s_a = von_neumann_entropy(red.rho_a)
    s_ab = von_neumann_entropy(red.rho_ab)
    chi = holevo(ev.ensemble)
    lhs = acc + c_r
    rhs = h_p + (s_ab - s_a)
    holevo_ok = chi + c_r <= rhs + INEQ_TOL
    comps = {"Acc_lower": acc, "C_r": c_r, "H_p": h_p, "holevo": chi,
             "S_cond_BA": s_ab - s_a, "holevo_dominance": float(holevo_ok)}
    rep = _report(Relation.ACCESSIBLE, lhs, rhs, comps, True)
    return replace(rep, satisfied=rep.satisfied and bool(holevo_ok))


@dataclass(frozen=True)
class TwoParticleScenario:
    """Two entangled particles, each through its own N-path interferometer.

    amplitudes: (N, N) joint table c_ij of the initial AB pure state.
    detector_a / detector_b: per-side detector states (N rows each).
    """

    amplitudes: np.ndarray
    detector_a: np.ndarray
    detector_b: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.amplitudes, dtype=complex)
        da = np.asarray(self.detector_a, dtype=complex)
        db = np.asarray(self.detector_b, dtype=complex)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] < 2:
            raise ValueError(f"joint amplitudes must be N x N, N >= 2, got {c.shape}")
        if not all(np.isfinite(x).all() for x in (c, da, db)):
            raise ValueError("amplitudes and detector states must be finite")
        if abs(float(np.sum(np.abs(c) ** 2)) - 1.0) > 1e-9:
            raise ValueError("joint amplitudes not normalized")
        n = c.shape[0]
        for name, d in (("detector_a", da), ("detector_b", db)):
            if d.ndim != 2 or d.shape[0] != n:
                raise ValueError(f"{name} must have one state per path")
            if np.max(np.abs(np.linalg.norm(d, axis=1) - 1.0)) > 1e-9:
                raise ValueError(f"{name} states must be unit vectors")
        object.__setattr__(self, "amplitudes", c)
        object.__setattr__(self, "detector_a", da)
        object.__setattr__(self, "detector_b", db)

    @property
    def n(self) -> int:
        return self.amplitudes.shape[0]


def check_two_particle_sum(tp: TwoParticleScenario) -> DualityReport:
    """Sum of the main relation over both particles.

    Each particle's purity term is the one appearing in its own relation:
    Tr rho_X^2 - Tr rho_{X,mem}^2 where rho_{X,mem} is the particle-plus-
    memory state with only that particle's detector traced out (equal to
    the purity of that detector's reduced state). The both-detector
    Tr rho_AB^2 is recorded in the components for reference.
    """
    c = tp.amplitudes
    n = tp.n
    p_a = np.sum(np.abs(c) ** 2, axis=1)
    p_b = np.sum(np.abs(c) ** 2, axis=0)
    g_a = gram_matrix(tp.detector_a)
    g_b = gram_matrix(tp.detector_b)

    # Reduced particle states after both detector couplings.
    rho_a = (c @ c.conj().T) * g_a.T
    rho_b = (c.T @ c.conj()) * g_b.T

    ens_a = Ensemble(p_a, tp.detector_a)
    ens_b = Ensemble(p_b, tp.detector_b)
    if n == 2:
        res_a, res_b = helstrom(ens_a), helstrom(ens_b)
    else:
        res_a, res_b = min_error_solve(ens_a), min_error_solve(ens_b)

    x_a = normalized_x(rho_a, n)
    x_b = normalized_x(rho_b, n)
    pur_a = purity(rho_a)
    pur_b = purity(rho_b)
    # Per-particle memory purity = purity of that particle's detector state.
    pur_mem_a = float(np.einsum("i,j,ij->", p_a, p_a, np.abs(g_a) ** 2).real)
    pur_mem_b = float(np.einsum("i,j,ij->", p_b, p_b, np.abs(g_b) ** 2).real)
    # Both-detector AB purity, for reference only.
    w = np.abs(c) ** 2
    pur_ab_both = float(np.einsum("ij,kl,ik,jl->", w, w,
                                  np.abs(g_a) ** 2, np.abs(g_b) ** 2).real)

    lhs = ((res_a.p_success - 1.0 / n) ** 2 + (res_b.p_success - 1.0 / n) ** 2
           + x_a**2 + x_b**2)
    rhs = (2.0 * (1.0 - 1.0 / n) ** 2
           + 2.0 * (n - 1) / n**2 * (pur_a + pur_b - pur_mem_a - pur_mem_b))
    comps = {"P_s_A": res_a.p_success, "P_s_B": res_b.p_success,
             "X_A": x_a, "X_B": x_b, "purity_A": pur_a, "purity_B": pur_b,
             "purity_mem_A": pur_mem_a, "purity_mem_B": pur_mem_b,
             "purity_AB_both": pur_ab_both}
    certified = res_a.certified and res_b.certified
    return _report(Relation.TWO_PARTICLE_SUM, lhs, rhs, comps, certified)


def entanglement_witnesses(rho_ab: np.ndarray, dims: Dims) -> tuple[float, float]:
    """(purity witness, conditional-entropy witness); negative values certify
    entanglement of the bipartite state."""
    if len(dims.names) != 2:
        raise ValueError(f"expected bipartite dims, got {dims.names}")
    rho_a = partial_trace(rho_ab, dims, dims.names[0])
    purity_witness = purity(rho_a) - purity(rho_ab)
    cond_ent = von_neumann_entropy(rho_ab) - von_neumann_entropy(rho_a)
    return purity_witness, cond_ent
