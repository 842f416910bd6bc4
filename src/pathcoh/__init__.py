"""Numerical laboratory for coherence / path-information duality relations
in N-path interferometers coupled to a which-path detector and a quantum
memory."""

from .linalg import (
    Dims,
    check_density_matrix,
    eigh,
    kron,
    partial_trace,
    purity,
    shannon_entropy,
    trace_norm,
    von_neumann_entropy,
)
from .interferometer import (
    ReducedSet,
    ScenarioSpec,
    build_mixed_no_memory,
    gram_matrix,
    gram_to_states,
    scenario_reduced,
)
from .coherence import (
    coherence_loss_bounds,
    l1_coherence,
    normalized_x,
    rel_ent_coherence,
)
from .discrimination import (
    DiscriminationResult,
    Ensemble,
    Povm,
    accessible_info_lower,
    certificate_gap,
    helstrom,
    holevo,
    min_error_solve,
    mutual_information,
    pairwise_bound,
    pretty_good_measurement,
    success_probability,
)
from .duality import (
    DualityReport,
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
)
from .sampling import haar_state, haar_unitary, sample_scenario, subseed
from .harness import (
    SweepConfig,
    SweepRow,
    emit,
    parse_scenario,
    run_sweep,
    sample_two_particle,
)

__version__ = "0.1.0"
