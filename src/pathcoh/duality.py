"""Both sides of every duality relation, as structured pass/fail reports.

The ABD state is pure, so rho_AB and rho_D share their nonzero spectrum,
S(D) = S(AB), and chi + C_r(rho_A) = H(p) + S(B|A).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .coherence import off_diagonal_sum
from .discrimination import (
    DiscriminationResult,
    Ensemble,
    accessible_info_lower,
    min_error_solve,
    mutual_information,
)
from .interferometer import ScenarioSpec
from .linalg import check_density_matrix, purity, shannon_entropy, von_neumann_entropy

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


class NotApplicable(ValueError):
    """The relation does not apply at the scenario's (N, d_B)."""


def _refusal(relation: Relation, n: int, d_b: int) -> str | None:
    if relation in (Relation.L1_NO_MEMORY, Relation.ENTROPIC_NO_MEMORY) and d_b != 1:
        return f"memoryless relation needs d_B = 1, got {d_b}"
    if relation is Relation.TWO_PATH_EQUALITY and n != 2:
        return f"two-path equality needs N = 2, got {n}"
    return None


def applies(relation: Relation, n: int, d_b: int) -> bool:
    """Whether `relation` applies to a scenario with N paths and memory dimension d_B."""
    return _refusal(relation, n, d_b) is None


# Relation -> checker name, looked up when called, so a wrapper on the global sees each call.
CHECKS = {
    Relation.L1_MEMORY: "check_l1_memory",
    Relation.L1_NO_MEMORY: "check_l1_no_memory",
    Relation.TWO_PATH_EQUALITY: "check_two_path_equality",
    Relation.MIXED_STATE: "check_mixed_state",
    Relation.ENTROPIC_MEMORY: "check_entropic_memory",
    Relation.ENTROPIC_NO_MEMORY: "check_entropic_no_memory",
    Relation.ACCESSIBLE: "check_accessible_relation",
    Relation.TWO_PARTICLE_SUM: "check_two_particle_sum",
}


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
    one scenario share one of each: the N x N rho_A and rho_AB stand-in, the
    min-error solve, the search, X, purities, H(p) and the entropies S(A) and
    S(AB), which give C_r and chi. It lives as long as those checks do.
    """

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec

    @classmethod
    def of(cls, target: ScenarioSpec | Evaluation, relation: Relation) -> Evaluation:
        """`target` as an evaluation; NotApplicable unless `relation` applies to it."""
        ev = target if isinstance(target, Evaluation) else cls(target)
        if why := _refusal(relation, ev.spec.n, ev.spec.d_b):
            raise NotApplicable(why)
        return ev

    @cached_property
    def rho_a(self) -> np.ndarray:
        """rho_A = (A A^dag) o G_D^T: rho_A[i, j] = sum_b a_ib conj(a_jb) <phi_j|phi_i>."""
        a, phi = self.spec.amplitudes, self.spec.detector_states
        rho = (a @ a.conj().T) * (phi @ phi.conj().T)
        check_density_matrix(rho)
        return rho

    @cached_property
    def rho_ab_stand_in(self) -> np.ndarray:
        """N x N, with the nonzero spectrum (so purity and entropy) of rho_AB:
        rho_A itself at d_B = 1, else K[i, j] = sqrt(p_i p_j) <phi_i|phi_j>,
        the Gram matrix of the vectors sqrt(p_i) phi_i, whose outer products sum to rho_D."""
        if self.spec.d_b == 1:
            return self.rho_a
        sq, phi = np.sqrt(self.spec.path_probs), self.spec.detector_states
        return np.outer(sq, sq) * (phi.conj() @ phi.T)

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

    @cached_property
    def info(self) -> float:
        """I(D:M) at the min-error POVM."""
        return mutual_information(self.ensemble, self.solution.povm)

    @cached_property
    def x(self) -> float:
        """X = C_l1(rho_A) / N, read off the checked rho_A."""
        return off_diagonal_sum(self.rho_a) / self.spec.n

    @cached_property
    def purities(self) -> tuple[float, float]:
        """Tr rho_A^2 and Tr rho_AB^2 (= Tr rho_D^2)."""
        return purity(self.rho_a), purity(self.rho_ab_stand_in)

    @cached_property
    def c_r(self) -> float:
        """C_r(rho_A) = H(diag rho_A) - S(A)."""
        return shannon_entropy(np.diagonal(self.rho_a).real) - self.entropies[0]

    @cached_property
    def h_p(self) -> float:
        return shannon_entropy(self.spec.path_probs)

    @cached_property
    def entropies(self) -> tuple[float, float]:
        """S(A) and S(AB) (= S(D) = chi, the Holevo quantity of the detector
        ensemble); one eigh where the stand-in is rho_A itself (d_B = 1)."""
        s_a, stand_in = von_neumann_entropy(self.rho_a), self.rho_ab_stand_in
        return s_a, s_a if stand_in is self.rho_a else von_neumann_entropy(stand_in)


def _main_relation(ev: Evaluation, relation: Relation, purity_term: float,
                   equality: bool = False, **comps: float) -> DualityReport:
    """(P_s - 1/N)^2 + X^2 against (1-1/N)^2 + 2(N-1)/N^2 purity_term; comps after P_s, X."""
    n, res = ev.spec.n, ev.solution
    lhs = (res.p_success - 1.0 / n) ** 2 + ev.x**2
    rhs = (1.0 - 1.0 / n) ** 2 + 2.0 * (n - 1) / n**2 * purity_term
    return _report(relation, lhs, rhs, {"P_s": res.p_success, "X": ev.x, **comps},
                   res.certified, equality=equality)


def check_l1_memory(spec: ScenarioSpec | Evaluation) -> DualityReport:
    """Main relation: (P_s - 1/N)^2 + X^2 <= (1-1/N)^2 + 2(N-1)/N^2 (Tr rho_A^2 - Tr rho_AB^2)."""
    ev = Evaluation.of(spec, Relation.L1_MEMORY)
    pur_a, pur_ab = ev.purities
    return _main_relation(ev, Relation.L1_MEMORY, pur_a - pur_ab, purity_A=pur_a,
                          purity_AB=pur_ab, certificate_gap=ev.solution.certificate_gap)


def check_l1_no_memory(spec: ScenarioSpec | Evaluation) -> DualityReport:
    """Memoryless relation: (P_s - 1/N)^2 + X^2 <= (1-1/N)^2 (requires d_B = 1)."""
    ev = Evaluation.of(spec, Relation.L1_NO_MEMORY)
    return _main_relation(ev, Relation.L1_NO_MEMORY, 0.0,
                          certificate_gap=ev.solution.certificate_gap)


def check_two_path_equality(spec: ScenarioSpec | Evaluation) -> DualityReport:
    """N=2 equality: (P_s - 1/2)^2 + X^2 = 1/4 + (1/2)(Tr rho_A^2 - Tr rho_AB^2)."""
    ev = Evaluation.of(spec, Relation.TWO_PATH_EQUALITY)
    pur_a, pur_ab = ev.purities
    return _main_relation(ev, Relation.TWO_PATH_EQUALITY, pur_a - pur_ab, equality=True,
                          purity_A=pur_a, purity_AB=pur_ab)


def check_mixed_state(spec: ScenarioSpec | Evaluation) -> DualityReport:
    """Mixed initial state, no memory: rhs uses Tr rho_A^2 - Tr rho_D^2.

    The memory of `spec` only purifies the initial particle state, and
    Tr rho_D^2 = Tr rho_AB^2, so the relation reads `L1_MEMORY`'s quantities."""
    ev = Evaluation.of(spec, Relation.MIXED_STATE)
    pur_a, pur_d = ev.purities
    return _main_relation(ev, Relation.MIXED_STATE, pur_a - pur_d, purity_A=pur_a,
                          purity_D=pur_d, certificate_gap=ev.solution.certificate_gap)


def check_entropic_no_memory(spec: ScenarioSpec | Evaluation) -> DualityReport:
    """Entropic memoryless relation at the min-error POVM M: I(D:M) + C_r(rho_A)
    <= H({p_i}); certified by Holevo's bound, as ENTROPIC_MEMORY is."""
    ev = Evaluation.of(spec, Relation.ENTROPIC_NO_MEMORY)
    comps = {"I_DM": ev.info, "C_r": ev.c_r, "H_p": ev.h_p}
    return _report(Relation.ENTROPIC_NO_MEMORY, ev.info + ev.c_r, ev.h_p, comps, True)


def check_entropic_memory(spec: ScenarioSpec | Evaluation) -> DualityReport:
    """Entropic relation with memory at the min-error POVM M: I(D:M) + C_r(rho_A)
    <= H({p_i}) + S(B|A). The rhs is chi + C_r(rho_A) and Holevo's bound puts
    I(D:M) at most chi, so the row is certified whatever the solve."""
    ev = Evaluation.of(spec, Relation.ENTROPIC_MEMORY)
    s_a, s_ab = ev.entropies
    lhs = ev.info + ev.c_r
    rhs = ev.h_p + (s_ab - s_a)
    comps = {"I_DM": ev.info, "C_r": ev.c_r, "H_p": ev.h_p, "S_A": s_a, "S_AB": s_ab,
             "S_cond_BA": s_ab - s_a}
    return _report(Relation.ENTROPIC_MEMORY, lhs, rhs, comps, True)


def check_accessible_relation(spec: ScenarioSpec | Evaluation) -> DualityReport:
    """Acc(D) + C_r(rho_A) <= H({p_i}) + S(B|A) at the computed lower bound on
    Acc(D). Holevo's bound puts every I(D:M) at most chi = S(AB), so a bound
    above chi + INEQ_TOL means a faulty search."""
    ev = Evaluation.of(spec, Relation.ACCESSIBLE)
    acc, (s_a, chi) = ev.acc_lower, ev.entropies
    if not acc <= chi + INEQ_TOL:
        raise AssertionError(f"Acc_lower - holevo = {acc - chi:.3e}: above Holevo's bound")
    lhs = acc + ev.c_r
    rhs = ev.h_p + (chi - s_a)
    comps = {"Acc_lower": acc, "C_r": ev.c_r, "H_p": ev.h_p, "holevo": chi,
             "S_cond_BA": chi - s_a}
    return _report(Relation.ACCESSIBLE, lhs, rhs, comps, True)


@dataclass(frozen=True)
class TwoParticleScenario:
    """Two entangled particles, each through its own N-path interferometer.

    amplitudes: (N, N) joint table c_ij of the initial AB pure state.
    detector_a / detector_b: per-side detector states (N rows each).

    Each particle's memory is the other particle with its detector, whose
    coupling is a unitary on that memory. So particle A's reduced states are
    those of `ScenarioSpec(c, detector_a)`, and B's of
    `ScenarioSpec(c.T, detector_b)`: the two `sides`.
    """

    amplitudes: np.ndarray
    detector_a: np.ndarray
    detector_b: np.ndarray
    sides: tuple[ScenarioSpec, ScenarioSpec] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.asarray(self.amplitudes, dtype=complex)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] < 2:
            raise ValueError(f"joint amplitudes must be N x N, N >= 2, got {c.shape}")
        # The joint table alone first (ideal detectors): each error names its section.
        sides = []
        for name, amps, detector in (("amplitudes", c, np.eye(len(c))),
                                     ("detector_a", c, self.detector_a),
                                     ("detector_b", c.T, self.detector_b)):
            try:
                sides.append(ScenarioSpec(amps, detector))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from exc
        sides = tuple(sides[1:])
        object.__setattr__(self, "amplitudes", sides[0].amplitudes)
        object.__setattr__(self, "detector_a", sides[0].detector_states)
        object.__setattr__(self, "detector_b", sides[1].detector_states)
        object.__setattr__(self, "sides", sides)

    @property
    def n(self) -> int:
        return self.amplitudes.shape[0]


def check_two_particle_sum(tp: TwoParticleScenario) -> DualityReport:
    """Sum of the main relation over both particles.

    Each side is `L1_MEMORY` on the particle's own scenario (at N = 2 its
    values are those of the two-path equality). So a particle's purity term is
    Tr rho_X^2 - Tr rho_{X,mem}^2, where rho_{X,mem} leaves out only that
    particle's detector. The both-detector Tr rho_AB^2 is recorded in the
    components for reference.
    """
    rep_a, rep_b = (check_l1_memory(Evaluation(side)) for side in tp.sides)
    a, b = rep_a.components, rep_b.components
    # Both-detector AB purity, for reference only.
    w = np.abs(tp.amplitudes) ** 2
    g_a, g_b = (np.abs(d.conj() @ d.T) ** 2 for d in (tp.detector_a, tp.detector_b))
    pur_ab_both = float(np.einsum("ij,kl,ik,jl->", w, w, g_a, g_b).real)
    comps = {"P_s_A": a["P_s"], "P_s_B": b["P_s"], "X_A": a["X"], "X_B": b["X"],
             "purity_A": a["purity_A"], "purity_B": b["purity_A"],
             "purity_mem_A": a["purity_AB"], "purity_mem_B": b["purity_AB"],
             "purity_AB_both": pur_ab_both}
    return _report(Relation.TWO_PARTICLE_SUM, rep_a.lhs + rep_b.lhs, rep_a.rhs + rep_b.rhs,
                   comps, rep_a.solver_certified and rep_b.solver_certified)
