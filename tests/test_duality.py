import json

import numpy as np
import pytest
from click.testing import CliRunner

from pathcoh.cli import main
from pathcoh.coherence import normalized_x, rel_ent_coherence
from pathcoh.discrimination import Ensemble, helstrom, holevo, min_error_solve
from pathcoh.duality import (
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
    holds,
)
from pathcoh.harness import ScenarioParseError, parse_scenario, to_pairs, witness_report
from pathcoh.interferometer import (
    ScenarioSpec,
    build_mixed_no_memory,
    gram_matrix,
    scenario_reduced,
)
from pathcoh.linalg import Dims, partial_trace, purity, von_neumann_entropy
from pathcoh.sampling import haar_state, sample_scenario, subseed

# How far the N x N forms of `Evaluation` may sit from the same quantity read
# off `scenario_reduced`'s partial traces of the full state (measured: 8.9e-16
# for a purity, 2.7e-14 for an entropy). An entropy gets more room: each
# rounding-level eigenvalue of the (N d_B)-sided oracle adds up to ~5e-15.
PURITY_BOUND = 1e-14
ENTROPY_BOUND = 1e-12
# How far an entropic slack may sit from chi - I(D:M), where chi = S(AB) is
# read from the same `Evaluation` (measured: 8.9e-16 on 2280 scenarios at the
# grid of `entropic_cases`, 40 per cell, with and without a zero-probability path).
SLACK_BOUND = 1e-14


def oracle_cases(seed):
    """Scenarios at N 2-5, d_B 1-4 and d_D in {1, 2, N, 2N}, and one with a
    zero-probability path, each with its evaluation and the oracle's reduced
    states."""
    specs = [sample_scenario(subseed(seed, n, d_b, d_d), n, d_b, d_d)
             for n in range(2, 6) for d_b in range(1, 5) for d_d in sorted({1, 2, n, 2 * n})]
    rng = np.random.default_rng(seed)
    specs.append(ScenarioSpec([[0.6, 0], [0, 0], [0, 0.8j]],
                              [haar_state(rng, 2) for _ in range(3)]))
    for spec in specs:
        yield spec, Evaluation(spec), scenario_reduced(spec)


def entropic_cases(seed):
    """Evaluations at N 2, 3, 4, 5, 8 x d_B 1, 2, 4 x d_D in {1, 2, N, 2N}:
    one sampled scenario per cell, and the same with its first path's
    probability set to 0."""
    for n in (2, 3, 4, 5, 8):
        for d_b in (1, 2, 4):
            for d_d in sorted({1, 2, n, 2 * n}):
                spec = sample_scenario(subseed(seed, n, d_b, d_d), n, d_b, d_d)
                amps = spec.amplitudes.copy()
                amps[0] = 0
                yield Evaluation(spec)
                yield Evaluation(ScenarioSpec(amps / np.linalg.norm(amps), spec.detector_states))


def bell_identical_detectors():
    amps = np.array([[1, 0], [0, 1]], dtype=complex) / np.sqrt(2)
    phi = np.array([[1, 0], [1, 0]], dtype=complex)
    return ScenarioSpec(amps, phi)


def bell_orthogonal_detectors():
    amps = np.array([[1, 0], [0, 1]], dtype=complex) / np.sqrt(2)
    return ScenarioSpec(amps, np.eye(2, dtype=complex))


class TestL1Memory:
    def test_bell_identical_detectors_saturates_at_zero(self):
        # P_s = 1/2, X = 0, Tr rho_A^2 = 1/2, Tr rho_AB^2 = 1: both sides 0.
        rep = check_l1_memory(bell_identical_detectors())
        assert rep.lhs == pytest.approx(0.0, abs=1e-9)
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)
        assert rep.satisfied and rep.solver_certified

    def test_product_memory_reduces_to_memoryless(self):
        for s in range(10):
            spec = sample_scenario(s, 3, 1)
            with_mem = check_l1_memory(spec)
            without = check_l1_no_memory(spec)
            assert with_mem.rhs == pytest.approx(without.rhs, abs=1e-12)
            assert with_mem.lhs == pytest.approx(without.lhs, abs=1e-9)

    def test_random_scenarios_satisfied(self):
        for s in range(200):
            spec = sample_scenario(s, 2 + s % 4, 1 + s % 4)
            rep = check_l1_memory(spec)
            assert rep.satisfied, (s, rep.slack)
            assert rep.solver_certified

    def test_rhs_never_exceeds_memoryless_bound(self):
        for s in range(100):
            n = 2 + s % 4
            rep = check_l1_memory(sample_scenario(s, n, 1 + s % 3))
            assert rep.rhs <= (1 - 1 / n) ** 2 + 1e-12

    def test_entangled_memory_tightens_bound(self):
        # A strictly negative purity witness on rho_AB forces the rhs
        # strictly below the memoryless value.
        for s in range(100):
            n = 2 + s % 3
            spec = sample_scenario(s, n, 2)
            rep = check_l1_memory(spec)
            if witness_report(spec)["purity_witness"] < -1e-6:
                assert rep.rhs < (1 - 1 / n) ** 2 - 1e-8


class TestL1NoMemory:
    def test_requires_trivial_memory(self):
        with pytest.raises(ValueError):
            check_l1_no_memory(sample_scenario(0, 2, 2))

    def test_random_scenarios_satisfied(self):
        for s in range(100):
            rep = check_l1_no_memory(sample_scenario(s, 2 + s % 4, 1))
            assert rep.satisfied and rep.solver_certified
            assert rep.rhs == pytest.approx((1 - 1 / (2 + s % 4)) ** 2, abs=1e-15)


class TestTwoPathEquality:
    def test_bell_orthogonal_detectors(self):
        # Full which-path marking: both sides equal 1/4 exactly.
        rep = check_two_path_equality(bell_orthogonal_detectors())
        assert rep.lhs == pytest.approx(0.25, abs=1e-12)
        assert rep.rhs == pytest.approx(0.25, abs=1e-12)
        assert rep.equality and rep.satisfied

    def test_random_equality(self):
        for s in range(300):
            rep = check_two_path_equality(sample_scenario(s, 2, 1 + s % 4))
            assert abs(rep.slack) <= 1e-9, (s, rep.slack)

    def test_rejects_wrong_path_count(self):
        with pytest.raises(ValueError):
            check_two_path_equality(sample_scenario(0, 3, 1))


class TestMixedState:
    def test_pure_initial_state_matches_memoryless(self):
        # d_B = 1 leaves the initial particle state pure, so the mixed-state
        # rhs collapses to the memoryless constant.
        for s in range(10):
            spec = sample_scenario(s, 3, 1)
            rep = check_mixed_state(spec)
            assert rep.rhs == pytest.approx((1 - 1 / 3) ** 2, abs=1e-12)

    def test_random_scenarios_satisfied(self):
        for s in range(150):
            rep = check_mixed_state(sample_scenario(s, 2 + s % 4, 1 + s % 4))
            assert rep.satisfied and rep.solver_certified

    def test_two_path_equality(self):
        for s in range(100):
            rep = check_mixed_state(sample_scenario(s, 2, 1 + s % 4))
            assert abs(rep.slack) <= 1e-8, (s, rep.slack)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equals_its_oracle_and_l1_memory(self, n):
        # The memory purifies rho^0_A, so the relation is L1_MEMORY with
        # Tr rho_D^2 = Tr rho_AB^2; build_mixed_no_memory rebuilds rho_A and
        # rho_D on their own.
        for d_b in range(1, 5):
            for d_d in sorted({n, 2}):
                for i in range(2):
                    spec = sample_scenario(subseed(18, n, d_b, d_d, i), n, d_b, d_d)
                    rep = check_mixed_state(spec)
                    main = check_l1_memory(spec)
                    _, rho_a, rho_d = build_mixed_no_memory(spec)
                    p_s = rep.components["P_s"]
                    lhs = (p_s - 1 / n) ** 2 + normalized_x(rho_a, n) ** 2
                    rhs = (1 - 1 / n) ** 2 + 2 * (n - 1) / n**2 * (purity(rho_a) - purity(rho_d))
                    for want_lhs, want_rhs in ((lhs, rhs), (main.lhs, main.rhs)):
                        assert abs(rep.lhs - want_lhs) <= 1e-15, (d_b, d_d, i)
                        assert abs(rep.rhs - want_rhs) <= 1e-15, (d_b, d_d, i)

    def test_stand_in_purity_is_that_of_rho_ab_and_rho_d(self):
        # Tr rho_D^2 = Tr rho_AB^2 holds for every pure ABD state, and the
        # N x N stand-in both relations read carries it.
        for spec, ev, red in oracle_cases(31):
            _, pur_ab = ev.purities
            for full in (red.rho_ab, red.rho_d):
                assert abs(pur_ab - purity(full)) <= PURITY_BOUND, (spec.n, spec.d_b, spec.d_d)
            rep = check_mixed_state(ev)
            assert rep.components["purity_D"] == pur_ab


class TestEntropic:
    def test_orthonormal_detectors_no_memory_saturates(self):
        amps = np.array([[1], [1]], dtype=complex) / np.sqrt(2)
        spec = ScenarioSpec(amps, np.eye(2, dtype=complex))
        rep = check_entropic_no_memory(spec)
        # I(D:M) = H(p) = 1 bit, C_r = 0: equality.
        assert rep.lhs == pytest.approx(1.0, abs=1e-8)
        assert rep.rhs == pytest.approx(1.0, abs=1e-12)

    def test_bell_memory_identical_detectors_saturates_at_zero(self):
        # I = 0, C_r = 0, H(p) = 1, S(B|A) = -1: both sides 0.
        rep = check_entropic_memory(bell_identical_detectors())
        assert rep.lhs == pytest.approx(0.0, abs=1e-9)
        assert rep.rhs == pytest.approx(0.0, abs=1e-9)
        assert rep.satisfied

    def test_no_memory_requires_trivial_memory(self):
        with pytest.raises(ValueError):
            check_entropic_no_memory(sample_scenario(0, 2, 2))

    def test_random_scenarios_satisfied(self):
        for s in range(100):
            spec = sample_scenario(s, 2 + s % 3, 1 + s % 3)
            rep = check_entropic_memory(spec)
            assert rep.satisfied, (s, rep.slack)
            if spec.d_b == 1:
                rep0 = check_entropic_no_memory(spec)
                assert rep0.satisfied
                assert rep0.rhs == pytest.approx(rep.rhs, abs=1e-9)

    def test_stand_in_entropy_is_that_of_rho_ab_and_rho_d(self):
        # S(D) = S(AB) holds for every pure ABD state, and the N x N
        # stand-in the entropic relations read carries it.
        for spec, ev, red in oracle_cases(32):
            _, s_ab = ev.entropies
            for full in (red.rho_ab, red.rho_d):
                assert abs(s_ab - von_neumann_entropy(full)) <= ENTROPY_BOUND, (
                    spec.n, spec.d_b, spec.d_d)

    def test_holevo_component_is_the_holevo_quantity(self):
        # chi is read as S(AB); the oracle decomposes rho_D at side d_D.
        for ev in entropic_cases(34):
            chi = check_accessible_relation(ev).components["holevo"]
            assert abs(chi - holevo(ev.ensemble)) <= ENTROPY_BOUND, (
                ev.spec.n, ev.spec.d_b, ev.spec.d_d)

    def test_c_r_is_the_relative_entropy_of_coherence(self):
        for ev in entropic_cases(35):
            assert ev.c_r == rel_ent_coherence(ev.rho_a), (ev.spec.n, ev.spec.d_b, ev.spec.d_d)

    def test_x_is_normalized_x_of_rho_a(self):
        for ev in entropic_cases(37):
            want = normalized_x(ev.rho_a, ev.spec.n)
            assert float.hex(ev.x) == float.hex(want), (ev.spec.n, ev.spec.d_b, ev.spec.d_d)

    def test_s_ab_is_s_a_without_memory(self):
        # At d_B = 1 the stand-in for rho_AB is rho_A itself.
        for ev in entropic_cases(38):
            if ev.spec.d_b == 1:
                s_a, s_ab = ev.entropies
                assert float.hex(s_ab) == float.hex(s_a) == float.hex(von_neumann_entropy(ev.rho_a))

    def test_entropic_slacks_are_holevo_gaps(self):
        # chi + C_r(rho_A) = H(p) + S(B|A) for a pure ABD state, so each slack
        # is chi - I(D:M) up to the rounding of a few sums of entropies of at
        # most log2(8) bits, and of H(p) against H(diag rho_A).
        for ev in entropic_cases(36):
            mem, acc = check_entropic_memory(ev), check_accessible_relation(ev)
            c, a = mem.components, acc.components
            where = (ev.spec.n, ev.spec.d_b, ev.spec.d_d)
            assert abs(mem.slack - (c["S_AB"] - c["I_DM"])) <= SLACK_BOUND, where
            assert abs(acc.slack - (a["holevo"] - a["Acc_lower"])) <= SLACK_BOUND, where
            assert mem.solver_certified and acc.solver_certified

    def test_rho_a_is_the_partial_trace(self):
        for spec, ev, red in oracle_cases(33):
            assert ev.rho_a.shape == red.rho_a.shape
            assert np.max(np.abs(ev.rho_a - red.rho_a)) <= 1e-15, (spec.n, spec.d_b, spec.d_d)

    def test_two_path_conditional_entropy_nonpositive(self):
        for s in range(100):
            rep = check_entropic_memory(sample_scenario(s, 2, 1 + s % 3))
            assert rep.components["S_cond_BA"] <= 1e-9


class TestAccessible:
    def test_orthonormal_detectors(self):
        amps = np.array([[1], [1]], dtype=complex) / np.sqrt(2)
        spec = ScenarioSpec(amps, np.eye(2, dtype=complex))
        rep = check_accessible_relation(spec)
        assert rep.components["Acc_lower"] == pytest.approx(1.0, abs=1e-8)
        assert rep.satisfied

    def test_random_scenarios_satisfied_via_holevo(self):
        for s in range(20):
            spec = sample_scenario(s, 2 + s % 3, 1 + s % 3)
            rep = check_accessible_relation(spec)
            assert rep.satisfied, (s, rep.slack)
            # Pure ABD state: chi + C_r equals the rhs identically.
            chi_c_r = rep.components["holevo"] + rep.components["C_r"]
            assert chi_c_r == pytest.approx(rep.rhs, abs=1e-9)
            assert rep.components["Acc_lower"] <= rep.components["holevo"] + 1e-9


def random_two_particle(seed, n, d_d=None):
    rng = np.random.default_rng(seed)
    d_d = d_d or n
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    c /= np.linalg.norm(c)
    da = np.array([haar_state(rng, d_d) for _ in range(n)])
    db = np.array([haar_state(rng, d_d) for _ in range(n)])
    return TwoParticleScenario(c, da, db)


def two_particle_oracle(tp):
    """lhs, rhs and components of the two-particle sum from the closed-form
    reduced states of each particle, solved on its own."""
    c, n = tp.amplitudes, tp.n
    p_a = np.sum(np.abs(c) ** 2, axis=1)
    p_b = np.sum(np.abs(c) ** 2, axis=0)
    g_a, g_b = gram_matrix(tp.detector_a), gram_matrix(tp.detector_b)
    rho_a = (c @ c.conj().T) * g_a.T
    rho_b = (c.T @ c.conj()) * g_b.T
    solve = helstrom if n == 2 else min_error_solve
    res_a, res_b = solve(Ensemble(p_a, tp.detector_a)), solve(Ensemble(p_b, tp.detector_b))
    x_a, x_b = normalized_x(rho_a, n), normalized_x(rho_b, n)
    pur_a, pur_b = purity(rho_a), purity(rho_b)
    # A particle's memory purity is that of its detector state.
    pur_mem_a = float(np.einsum("i,j,ij->", p_a, p_a, np.abs(g_a) ** 2).real)
    pur_mem_b = float(np.einsum("i,j,ij->", p_b, p_b, np.abs(g_b) ** 2).real)
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
    return lhs, rhs, comps


class TestTwoParticleSum:
    def test_validation(self):
        with pytest.raises(ValueError):
            TwoParticleScenario(np.eye(2, dtype=complex),
                                np.eye(2, dtype=complex), np.eye(2, dtype=complex))

    def test_product_amplitudes_split(self):
        # c = a b^T: each particle sees an independent single-path scenario
        # whose marginals match the factors.
        rng = np.random.default_rng(5)
        a, b = haar_state(rng, 3), haar_state(rng, 3)
        tp = TwoParticleScenario(np.outer(a, b),
                                 np.array([haar_state(rng, 2) for _ in range(3)]),
                                 np.array([haar_state(rng, 2) for _ in range(3)]))
        rep = check_two_particle_sum(tp)
        assert rep.satisfied
        # Product input: both-detector purity factorizes into the per-side ones.
        assert rep.components["purity_AB_both"] == pytest.approx(
            rep.components["purity_mem_A"] * rep.components["purity_mem_B"],
            abs=1e-10)

    def test_two_path_equality(self):
        for s in range(150):
            rep = check_two_particle_sum(random_two_particle(s, 2))
            assert abs(rep.slack) <= 1e-8, (s, rep.slack)

    def test_three_path_satisfied(self):
        for s in range(50):
            rep = check_two_particle_sum(random_two_particle(s, 3))
            assert rep.slack >= -1e-7, (s, rep.slack)
            assert rep.solver_certified

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_is_the_sum_of_each_particles_relation(self, n):
        # Each particle's memory is the other particle with its detector.
        check = check_two_path_equality if n == 2 else check_l1_memory
        for d_d in sorted({2, n}):
            for s in range(3):
                tp = random_two_particle(100 * n + 10 * d_d + s, n, d_d)
                rep = check_two_particle_sum(tp)
                side_a = check(ScenarioSpec(tp.amplitudes, tp.detector_a))
                side_b = check(ScenarioSpec(tp.amplitudes.T, tp.detector_b))
                assert rep.lhs == side_a.lhs + side_b.lhs
                assert rep.rhs == side_a.rhs + side_b.rhs
                assert rep.solver_certified == (side_a.solver_certified
                                                and side_b.solver_certified)
                lhs, rhs, comps = two_particle_oracle(tp)
                assert abs(rep.lhs - lhs) <= 1e-15 and abs(rep.rhs - rhs) <= 1e-15, (d_d, s)
                assert rep.components.keys() == comps.keys()
                for k, v in comps.items():
                    assert abs(rep.components[k] - v) <= 1e-15, (d_d, s, k)

    def test_side_errors_name_their_detector(self, tmp_path):
        tp = random_two_particle(4, 3)
        with pytest.raises(ValueError, match="^detector_b: detector states must be unit"):
            TwoParticleScenario(tp.amplitudes, tp.detector_a, 2 * tp.detector_b)
        with pytest.raises(ValueError, match="^detector_a: need one detector state per path"):
            TwoParticleScenario(tp.amplitudes, tp.detector_a[:2], tp.detector_b)
        doc = {"type": "two_particle", "amplitudes": to_pairs(tp.amplitudes),
               "detector_a": {"vectors": to_pairs(tp.detector_a)},
               "detector_b": {"vectors": to_pairs(2 * tp.detector_b)}}
        path = tmp_path / "tp.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioParseError, match="detector_b: detector states"):
            parse_scenario(path)
        # A fault of the joint table names the amplitudes, not a detector.
        with pytest.raises(ValueError, match="^amplitudes: amplitude table not normalized"):
            TwoParticleScenario(np.eye(2), np.eye(2), np.eye(2))
        nan = tp.amplitudes.copy()
        nan[1, 2] = np.nan
        with pytest.raises(ValueError, match="^amplitudes: amplitudes and detector states must"):
            TwoParticleScenario(nan, tp.detector_a, tp.detector_b)
        for amps, message in ((2 * tp.amplitudes, "amplitudes: amplitude table not normalized"),
                              (nan, "amplitudes: entries must be finite")):
            doc.update(amplitudes=to_pairs(amps), detector_b={"vectors": to_pairs(tp.detector_b)})
            path.write_text(json.dumps(doc))
            with pytest.raises(ScenarioParseError, match=message):
                parse_scenario(path)
            res = CliRunner().invoke(main, ["check", str(path)])
            assert res.exit_code == 2 and message in res.output, res.output

    def test_detectors_of_different_widths(self):
        # N = 3 with detector A in d = 2 and detector B in d = 3: each side
        # is its own min-error problem.
        tp = random_two_particle(7, 3)
        rng = np.random.default_rng(7)
        tp = TwoParticleScenario(tp.amplitudes,
                                 np.array([haar_state(rng, 2) for _ in range(3)]),
                                 tp.detector_b)
        rep = check_two_particle_sum(tp)
        assert rep.satisfied and rep.solver_certified
        p_a = np.sum(np.abs(tp.amplitudes) ** 2, axis=1)
        assert rep.components["P_s_A"] == min_error_solve(Ensemble(p_a, tp.detector_a)).p_success


class TestWitnesses:
    def test_bell_state(self):
        rep = witness_report(bell_identical_detectors())
        assert rep["purity_witness"] == pytest.approx(-0.5, abs=1e-12)
        assert rep["cond_ent_witness"] == pytest.approx(-1.0, abs=1e-9)

    def test_product_state_nonnegative(self):
        # a_ij = alpha_i beta_j leaves the memory in a product with the rest.
        rng = np.random.default_rng(8)
        for _ in range(20):
            amps = np.outer(haar_state(rng, 2), haar_state(rng, 3))
            rep = witness_report(ScenarioSpec(amps, [haar_state(rng, 2) for _ in range(2)]))
            assert rep["purity_witness"] >= -1e-9 and rep["cond_ent_witness"] >= -1e-9

    def test_separable_mixtures_nonnegative(self):
        # Orthonormal detector states leave rho_AB = sum_i p_i |i><i| (x) |u_i><u_i|.
        for s in range(50):
            rng = np.random.default_rng(s)
            amps = haar_state(rng, 4).reshape(2, 2)
            rep = witness_report(ScenarioSpec(amps, np.eye(2, dtype=complex)))
            assert rep["purity_witness"] >= -1e-9 and rep["cond_ent_witness"] >= -1e-9

    def test_equals_the_partial_trace_of_rho_ab(self):
        # `pathcoh witness` prints what a full partial trace gives, within the
        # bounds of the N x N forms; at d_B = 1 both witnesses are bitwise 0.
        for s in range(60):
            spec = sample_scenario(s, 2 + s % 3, 1 + s % 4, 2 + s % 2)
            rho_ab = scenario_reduced(spec).rho_ab
            rho_a = partial_trace(rho_ab, Dims.of(("A", spec.n), ("B", spec.d_b)), "A")
            want = {"purity_witness": purity(rho_a) - purity(rho_ab),
                    "cond_ent_witness": von_neumann_entropy(rho_ab) - von_neumann_entropy(rho_a)}
            got = witness_report(spec)
            if spec.d_b == 1:
                assert got == want == {"purity_witness": 0.0, "cond_ent_witness": 0.0}
            assert abs(got["purity_witness"] - want["purity_witness"]) <= PURITY_BOUND, s
            assert abs(got["cond_ent_witness"] - want["cond_ent_witness"]) <= ENTROPY_BOUND, s


class TestReportShape:
    def test_slack_and_ids(self):
        rep = check_l1_memory(sample_scenario(0, 3, 2))
        assert rep.relation_id is Relation.L1_MEMORY
        assert rep.slack == pytest.approx(rep.rhs - rep.lhs, abs=1e-15)
        assert set(rep.components) >= {"P_s", "X", "purity_A", "purity_AB"}

    def test_holds_on_each_side_of_each_tolerance(self):
        # INEQ_TOL = 1e-7 and EQ_TOL = 1e-9.
        assert not holds(-1e-5, equality=False)
        assert holds(-1e-8, equality=False)
        assert not holds(2e-9, equality=True) and not holds(-2e-9, equality=True)
        assert holds(5e-10, equality=True) and holds(-5e-10, equality=True)
