import math

import numpy as np
import pytest

from pathcoh import discrimination
from pathcoh.discrimination import (
    CERT_THRESHOLD,
    DiscriminationResult,
    Ensemble,
    Povm,
    _check_povms,
    _certified,
    _cholesky,
    _dual_residual,
    _hill_climb,
    _joint,
    _mutual,
    _primal_dual,
    _renormalize,
    accessible_info_lower,
    certificate_gap,
    helstrom,
    holevo,
    min_error_solve,
    min_error_solve_block,
    mutual_information,
    pairwise_bound,
    pretty_good_measurement,
    success_probability,
)
from pathcoh.duality import check_l1_memory, detector_ensemble
from pathcoh.linalg import shannon_entropies, shannon_entropy, trace_norm
from pathcoh.sampling import haar_state, sample_scenario, subseed

RNG = np.random.default_rng(11)


def random_ensemble(rng, n, d):
    p = rng.dirichlet(np.ones(n))
    states = np.array([haar_state(rng, d) for _ in range(n)])
    return Ensemble(p, states)


def random_rank1_povm(rng, d):
    """Projectors onto the columns of a random unitary."""
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    return Povm(tuple(np.outer(u[:, k], u[:, k].conj()) for k in range(d)))


def two_state(p1, overlap):
    """Two real states in the plane with the given |<phi_1|phi_2>|."""
    theta = np.arccos(overlap)
    states = np.array([[1.0, 0.0], [np.cos(theta), np.sin(theta)]], dtype=complex)
    return Ensemble(np.array([p1, 1 - p1]), states)


def trine():
    angles = [0.0, 2 * np.pi / 3, 4 * np.pi / 3]
    states = np.array([[np.cos(a), np.sin(a)] for a in angles], dtype=complex)
    return Ensemble(np.full(3, 1 / 3), states)


class TestEnsemblePovm:
    def test_ensemble_validation(self):
        with pytest.raises(ValueError):
            Ensemble(np.array([0.5, 0.6]), np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            Ensemble(np.array([0.5, 0.5]), 2 * np.eye(2, dtype=complex))

    def test_average_state(self):
        e = trine()
        rho = e.average_state()
        assert np.max(np.abs(rho - np.eye(2) / 2)) <= 1e-12

    def test_povm_validation(self):
        with pytest.raises(ValueError):
            Povm((np.eye(2), np.eye(2)))
        with pytest.raises(ValueError):
            Povm((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))
        Povm((np.eye(2) / 2, np.eye(2) / 2))

    def test_povm_message_wrong_shape(self):
        with pytest.raises(ValueError,
                           match=r"^element 1 has shape \(3, 3\), expected \(2, 2\)$"):
            Povm((np.eye(2) / 2, np.eye(3) / 2))

    def test_povm_message_names_first_non_psd_element(self):
        # Elements 1 and 2 are both negative; the first one is named, with
        # its own (not the worst) eigenvalue.
        els = (np.diag([1.75, 1.0]), np.diag([-0.25, 0.0]), np.diag([-0.5, 0.0]))
        with pytest.raises(ValueError,
                           match=r"^element 1 is not PSD: min eigenvalue -2\.500e-01$"):
            Povm(els)

    def test_povm_rejects_nan(self):
        # eigvalsh gives [0, -0] for diag(nan, 1), so NaN must fail the
        # completeness test as well as the PSD one.
        with pytest.raises(ValueError, match=r"^POVM elements do not sum to identity$"):
            Povm((np.diag([np.nan, 1.0]), np.diag([np.nan, 0.0])))
        off = np.array([[1.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(ValueError, match=r"^element 0 is not PSD: min eigenvalue nan$"):
            Povm((off, np.diag([0.0, 1.0])))
        # A stack, as the ascent checks its proposals: one bad collection fails it.
        stack = np.array([[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]] * 2, dtype=complex)
        stack[1, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            _check_povms(stack)
        _check_povms(stack[:1])

    def test_povm_message_not_complete(self):
        with pytest.raises(ValueError, match=r"^POVM elements do not sum to identity$"):
            Povm((np.eye(2), np.eye(2)))
        with pytest.raises(ValueError, match=r"^POVM needs at least one element$"):
            Povm(())


class TestSuccessProbability:
    def test_projective_on_orthonormal(self):
        e = Ensemble(np.array([0.4, 0.6]), np.eye(2, dtype=complex))
        m = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        assert success_probability(e, m) == pytest.approx(1.0, abs=1e-12)

    def test_swapped_projectors(self):
        e = Ensemble(np.array([0.4, 0.6]), np.eye(2, dtype=complex))
        m = Povm((np.diag([0.0, 1.0]), np.diag([1.0, 0.0])))
        assert success_probability(e, m) == pytest.approx(0.0, abs=1e-12)

    def test_trace_oracle(self):
        # P_s = sum_i p_i Tr(rho_i Pi_i), computed via explicit traces.
        for s in range(100):
            rng = np.random.default_rng(s)
            e = random_ensemble(rng, 3, 3)
            m = pretty_good_measurement(e)
            want = sum(
                e.probs[i] * np.trace(np.outer(e.states[i], e.states[i].conj())
                                      @ m.elements[i]).real
                for i in range(3))
            assert success_probability(e, m) == pytest.approx(want, abs=1e-12)

    def test_too_few_outcomes(self):
        e = trine()
        with pytest.raises(ValueError):
            success_probability(e, Povm((np.eye(2),)))


class TestHelstrom:
    def test_frozen_symmetric_case(self):
        # p = 1/2 each, overlap 1/sqrt(2): P_s = 1/2 + 1/(2 sqrt 2) = 0.85355339
        res = helstrom(two_state(0.5, 1 / np.sqrt(2)))
        assert res.p_success == pytest.approx(0.8535533905932737, abs=1e-12)
        assert res.certified

    def test_identical_states(self):
        e = Ensemble(np.array([0.9, 0.1]),
                     np.array([[1, 0], [1, 0]], dtype=complex))
        res = helstrom(e)
        assert res.p_success == pytest.approx(0.9, abs=1e-12)
        assert success_probability(e, res.povm) == pytest.approx(0.9, abs=1e-10)

    def test_orthogonal_states(self):
        res = helstrom(Ensemble(np.array([0.3, 0.7]), np.eye(2, dtype=complex)))
        assert res.p_success == pytest.approx(1.0, abs=1e-12)
        assert res.certified

    def test_povm_achieves_closed_form(self):
        for s in range(50):
            rng = np.random.default_rng(s)
            e = random_ensemble(rng, 2, 3)
            res = helstrom(e)
            assert success_probability(e, res.povm) == pytest.approx(
                res.p_success, abs=1e-10)
            assert res.certificate_gap <= 1e-9

    def test_beats_projective_grid(self):
        # Brute force over a parametrized family of 2-outcome projective
        # measurements in the span never beats the closed form.
        e = two_state(0.35, 0.6)
        best = 0.0
        for theta in np.linspace(0, np.pi, 721):
            v = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
            pi1 = np.outer(v, v.conj())
            m = Povm((pi1, np.eye(2) - pi1))
            best = max(best, success_probability(e, m))
        res = helstrom(e)
        assert best <= res.p_success + 1e-12
        assert best == pytest.approx(res.p_success, abs=1e-5)

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            helstrom(trine())


def pairwise_bound_by_loop(e):
    """1/N + (1/2N) sum_{i != j} ||p_i rho_i - p_j rho_j||_1, one trace norm
    (one eigendecomposition) per ordered pair."""
    rhos = e.projectors()
    total = 0.0
    for i in range(e.n):
        for j in range(e.n):
            if i != j:
                total += trace_norm(e.probs[i] * rhos[i] - e.probs[j] * rhos[j])
    return 1.0 / e.n + total / (2.0 * e.n)


class TestPairwiseBound:
    def test_two_state_equality(self):
        for s in range(30):
            rng = np.random.default_rng(s)
            e = random_ensemble(rng, 2, 2)
            assert pairwise_bound(e) == pytest.approx(
                helstrom(e).p_success, abs=1e-10)

    def test_orthonormal(self):
        e = Ensemble(np.full(3, 1 / 3), np.eye(3, dtype=complex))
        assert pairwise_bound(e) == pytest.approx(1.0, abs=1e-12)

    def test_dominates_solver(self):
        for s in range(20):
            rng = np.random.default_rng(400 + s)
            e = random_ensemble(rng, 3, 2)
            res = min_error_solve(e)
            assert res.p_success <= pairwise_bound(e) + 1e-8

    @pytest.mark.parametrize("n", range(2, 7))
    def test_closed_form_matches_trace_norm_loop(self, n):
        # The closed form against the n(n-1) trace norms it replaces, for
        # every d <= n and, in every third ensemble, a path with probability
        # zero; d = 1 puts every pair of states on one ray.
        rng = np.random.default_rng(500 + n)
        for s in range(30):
            e = random_ensemble(rng, n, 1 + s % n)
            if s % 3 == 0:
                p = e.probs.copy()
                p[s % n], p[(s + 1) % n] = 0.0, p[(s + 1) % n] + p[s % n]
                e = Ensemble(p, e.states)
            assert abs(pairwise_bound(e) - pairwise_bound_by_loop(e)) <= 1e-15


class TestPrettyGoodMeasurement:
    def test_orthonormal_is_projective(self):
        e = Ensemble(np.full(3, 1 / 3), np.eye(3, dtype=complex))
        m = pretty_good_measurement(e)
        for i in range(3):
            want = np.zeros((3, 3))
            want[i, i] = 1.0
            assert np.array_equal(m.elements[i], want)

    @pytest.mark.parametrize("tiny", [1e-6, 1e-9, 1e-11])
    def test_tiny_probability_needs_no_renormalization(self, tiny):
        # An eigenvalue of rho just above the 1e-12 cutoff: the elements stay
        # PSD and complete to rounding, without `_renormalize`.
        rng = np.random.default_rng(4)
        for n, d in ((3, 3), (4, 3), (3, 5)):
            p = np.full(n, (1 - tiny) / (n - 1))
            p[0] = tiny
            e = Ensemble(p, np.array([haar_state(rng, d) for _ in range(n)]))
            m = pretty_good_measurement(e)
            assert np.max(np.abs(sum(m.elements) - np.eye(d))) <= 1e-13
            assert min(np.linalg.eigvalsh(el).min() for el in m.elements) >= -1e-15

    def test_symmetric_pair_is_optimal(self):
        # For two equiprobable states, the PGM (square-root measurement)
        # achieves the Helstrom optimum.
        e = two_state(0.5, 0.5)
        got = success_probability(e, pretty_good_measurement(e))
        assert got == pytest.approx(helstrom(e).p_success, abs=1e-10)

    def test_valid_and_better_than_guessing(self):
        for s in range(30):
            rng = np.random.default_rng(s)
            e = random_ensemble(rng, 3, 3)
            m = pretty_good_measurement(e)
            ps = success_probability(e, m)
            assert ps >= float(e.probs.max()) - 1e-9


class TestMinErrorSolve:
    def test_matches_helstrom(self):
        # Helstrom's optimum (1 + ||p_1 rho_1 - p_2 rho_2||_1) / 2, read off
        # the trace norm, not `helstrom`'s closed form, lies in the bracket
        # to rounding (measured at most 2.2e-16 outside it).
        for s in range(25):
            rng = np.random.default_rng(s)
            e = random_ensemble(rng, 2, 2 + s % 2)
            res = min_error_solve(e)
            assert res.certified
            rho1, rho2 = e.projectors()
            oracle = (1 + trace_norm(e.probs[0] * rho1 - e.probs[1] * rho2)) / 2
            assert res.p_success - 1e-12 <= oracle <= res.p_success + res.certificate_gap + 1e-12

    @pytest.mark.parametrize("n", range(3, 9))
    def test_geometrically_uniform_oracle(self, n):
        # phi_k = U^k phi_0 with U = diag(w^m), w = exp(2 pi i / n), and
        # uniform priors: the square-root measurement is optimal, with
        # P_s = (sum_m |c_m|)^2 / n for phi_0 = (c_m) (Ban, Kurokawa, Momose
        # & Hirota, Int. J. Theor. Phys. 36, 1269 (1997)). The oracle value
        # must lie in the solver's bracket [P_s, P_s + gap].
        rng = np.random.default_rng(3000 + n)
        m = np.arange(n)
        for _ in range(8):
            c = haar_state(rng, n)
            states = np.array([c * np.exp(2j * np.pi * k * m / n) for k in range(n)])
            oracle = float(np.sum(np.abs(c))) ** 2 / n
            res = min_error_solve(Ensemble(np.full(n, 1 / n), states))
            assert res.certified
            assert res.p_success - 1e-12 <= oracle <= res.p_success + res.certificate_gap + 1e-12

    def test_trine_frozen(self):
        res = min_error_solve(trine())
        assert res.p_success == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert res.certificate_gap <= CERT_THRESHOLD

    def test_random_ensembles_certified(self):
        for s in range(15):
            rng = np.random.default_rng(700 + s)
            n = 3 + s % 3
            e = random_ensemble(rng, n, rng.integers(2, n + 1))
            res = min_error_solve(e)
            assert res.certificate_gap <= CERT_THRESHOLD
            assert res.p_success <= pairwise_bound(e) + 1e-8
            assert res.p_success >= float(e.probs.max()) - 1e-9

    def test_certificate_upper_bounds_any_povm(self):
        # Optimal value certified: no other POVM does better.
        e = trine()
        res = min_error_solve(e)
        for s in range(20):
            rng = np.random.default_rng(s)
            u = np.linalg.qr(rng.standard_normal((2, 2))
                             + 1j * rng.standard_normal((2, 2)))[0]
            els = tuple(np.outer(u[:, k], u[:, k].conj()) for k in range(2))
            m = Povm(els + (np.zeros((2, 2), dtype=complex),))
            assert success_probability(e, m) <= res.p_success + 1e-7


def geometrically_uniform(rng, n):
    """Equiprobable states U^k |phi0>, k < n, with U = diag(w^m_l) and
    w = exp(2 pi i / n), and the exact eigenvalues of their Gram matrix,
    mu_k = n * sum_{l: m_l = k} |phi0_l|^2 (the Gram matrix is circulant)."""
    d = int(rng.integers(1, n + 1))
    phi0 = haar_state(rng, d)
    m = rng.integers(0, n, size=d)
    states = np.array([phi0 * np.exp(2j * np.pi * k * m / n) for k in range(n)])
    mu = n * np.bincount(m, weights=np.abs(phi0) ** 2, minlength=n)
    return Ensemble(np.full(n, 1 / n), states), mu


class TestGeometricallyUniform:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_square_root_measurement_optimum(self, n):
        # The square-root measurement is optimal for these ensembles, with
        # P_s = (sum_k sqrt(mu_k))^2 / n^2 (Eldar & Forney, IEEE Trans. IT
        # 47, 858 (2001)); the solver's bracket must contain it.
        rng = np.random.default_rng(1000 + n)
        for _ in range(8):
            e, mu = geometrically_uniform(rng, n)
            oracle = float(np.sum(np.sqrt(mu))) ** 2 / n**2
            res = min_error_solve(e)
            assert res.certified
            assert res.p_success <= oracle + 1e-12
            assert oracle <= res.p_success + res.certificate_gap + 1e-12


def primal_dual(ensembles):
    """`_primal_dual` of a list of ensembles of one shape."""
    probs = np.array([e.probs for e in ensembles])
    return _primal_dual(probs, np.array([e.probs[:, None, None] * e.projectors()
                                         for e in ensembles]))


class TestPrimalDualOracle:
    def test_two_states_match_helstrom(self):
        # Two states take Helstrom's closed form, so the primal-dual route is
        # run here directly, on criterion 05's two-state ensembles.
        ensembles = {2: [], 3: []}
        for s in range(500):
            rng = subseed(105, s)
            p = rng.dirichlet(np.ones(2))
            states = np.array([haar_state(rng, 2 + s % 2) for _ in range(2)])
            ensembles[2 + s % 2].append(Ensemble(p, states))
        for group in ensembles.values():
            probs = np.array([e.probs for e in group])
            states = np.array([e.states for e in group])
            weighted = np.array([e.probs[:, None, None] * e.projectors() for e in group])
            results = _certified(probs, states, weighted, *primal_dual(group))
            for e, res in zip(group, results):
                assert res.iterations > 0 and res.certified
                assert abs(res.p_success - helstrom(e).p_success) <= 1e-8

    @pytest.mark.parametrize("n", range(3, 6))
    def test_infeasible_dual_pays_its_residual(self, n):
        # Y - 1e-6 I is not dual-feasible, so the bound Tr Y holds only with
        # d*g added; the oracle P_s = (sum_m |c_m|)^2 / n of the geometrically
        # uniform ensembles of `test_geometrically_uniform_oracle` must stay
        # below P_s + gap.
        rng = np.random.default_rng(4000 + n)
        m = np.arange(n)
        for _ in range(8):
            c = haar_state(rng, n)
            e = Ensemble(np.full(n, 1 / n),
                         np.array([c * np.exp(2j * np.pi * k * m / n) for k in range(n)]))
            oracle = float(np.sum(np.abs(c))) ** 2 / n
            elements, y, iterations = primal_dual([e])
            weighted = e.probs[:, None, None] * e.projectors()
            res, = _certified(e.probs[None], e.states[None], weighted[None],
                              elements, y - 1e-6 * np.eye(n), iterations)
            assert res.p_success + res.certificate_gap >= oracle - 1e-12


class TestBarrierFallback:
    """The primal-dual solve on the cases the dual barrier it replaced was
    kept for."""

    def test_stalled_scenario_certified(self):
        # A PGM-seeded fixed-point iteration stalls on this scenario (one
        # path has p ~ 7e-5) at a residual of 6e-7 with P_s = 0.97206613,
        # below the optimum 0.97206695.
        spec = sample_scenario(subseed(101, 8, 405), 4, 1)
        e = detector_ensemble(spec)
        res = min_error_solve(e)
        assert res.certified
        assert 0 < res.iterations <= 30  # primal-dual iterations
        assert res.p_success >= 0.9720669
        assert res.p_success <= pairwise_bound(e)
        rep = check_l1_memory(spec)
        assert rep.satisfied and rep.solver_certified

    def test_dual_feasible_and_tight(self):
        for s in range(30):
            rng = np.random.default_rng(900 + s)
            n = 2 + s % 4
            e = random_ensemble(rng, n, int(rng.integers(1, n + 1)))
            elements, y, _ = primal_dual([e])
            for p, rho in zip(e.probs, e.projectors()):
                assert np.linalg.eigvalsh(y[0] - p * rho).min() >= 0.0
            gap = np.trace(y[0]).real - success_probability(e, Povm(tuple(elements[0])))
            assert -1e-12 <= gap <= CERT_THRESHOLD


def assert_stack_matches_singles(ensembles):
    """Lockstep solve bitwise equal to a stack of one per ensemble, and
    `min_error_solve_block` to one `min_error_solve` each; returns the
    iteration counts."""
    elements, y, iterations = primal_dual(ensembles)
    for j, e in enumerate(ensembles):
        els1, y1, its1 = primal_dual([e])
        assert iterations[j] == its1[0]
        assert y[j].tobytes() == y1[0].tobytes()
        assert elements[j].tobytes() == els1[0].tobytes()
    for e, res in zip(ensembles, min_error_solve_block(ensembles)):
        one = min_error_solve(e)
        assert (res.p_success, res.certificate_gap, res.iterations) == \
               (one.p_success, one.certificate_gap, one.iterations)
        assert [el.tobytes() for el in res.povm.elements] == \
               [el.tobytes() for el in one.povm.elements]
    return list(iterations)


class TestLockstepBarrier:
    """The primal-dual solve of a stack, bit for bit one ensemble at a time."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_stack_matches_one_at_a_time(self, n):
        for d in range(1, n + 1):
            rng = np.random.default_rng(40 * n + d)
            assert_stack_matches_singles([random_ensemble(rng, n, d) for _ in range(3)])

    def test_members_stop_after_different_step_counts(self):
        rng = np.random.default_rng(5)
        ensembles = [random_ensemble(rng, 4, 4) for _ in range(4)]
        ensembles += [detector_ensemble(sample_scenario(subseed(101, 8, 405), 4, 1))]
        iterations = assert_stack_matches_singles(ensembles)
        assert len(set(iterations)) >= 3

    def test_pinned_stalled_scenario(self):
        pinned = detector_ensemble(sample_scenario(subseed(101, 8, 405), 4, 1))
        others = [detector_ensemble(sample_scenario(subseed(101, 8, i), 4, 1))
                  for i in range(403, 405)]
        assert_stack_matches_singles([pinned, *others])

    def test_tiny_path_probability(self):
        p = np.array([0.97 - 1e-9, 1e-9, 0.03])
        rng = np.random.default_rng(0)
        ensembles = [Ensemble(p, np.array([haar_state(rng, 3) for _ in range(3)]))
                     for _ in range(4)]
        assert_stack_matches_singles(ensembles)
        assert all(res.certified for res in min_error_solve_block(ensembles))

    def test_sixteen_states_in_four_dimensions(self):
        rng = np.random.default_rng(1604)
        ensembles = [Ensemble(p, np.array([haar_state(rng, 4) for _ in range(16)]))
                     for p in (np.full(16, 1 / 16), rng.dirichlet(np.ones(16)))]
        assert_stack_matches_singles(ensembles)
        assert all(res.certified for res in min_error_solve_block(ensembles))

    def test_degenerate_program_certified(self):
        # Two states in d = 7: near the optimum, rounding leaves an iterate
        # of the first without a Cholesky factor, and it stops there.
        rng = np.random.default_rng(20)
        p = np.array([0.0, 0.25, 0.0, 0.0, 0.75])
        ensembles = [Ensemble(p, np.array([haar_state(rng, 7) for _ in range(5)]))
                     for _ in range(3)]
        assert_stack_matches_singles(ensembles)
        assert all(res.certified for res in min_error_solve_block(ensembles))

    def test_cholesky_marks_members_without_a_factor(self):
        good, bad = np.eye(2, dtype=complex), np.diag([1.0, -1e-17]).astype(complex)
        pairs = np.array([[[good], [bad], [good]], [[good], [good], [2 * good]]])
        chol, factored = _cholesky(pairs)
        assert factored.tolist() == [True, False, True]
        assert np.array_equal(chol[:, factored], np.linalg.cholesky(pairs[:, factored]))
        assert not chol[:, 1].any()

    def test_iteration_cap_stops_uncertified(self, monkeypatch):
        monkeypatch.setattr(discrimination, "SOLVER_MAX_ITER", 2)
        rng = np.random.default_rng(3)
        ensembles = [random_ensemble(rng, 4, 3) for _ in range(3)]
        results = min_error_solve_block(ensembles)
        assert [res.iterations for res in results] == [2, 2, 2]
        assert not any(res.certified for res in results)
        for res, e in zip(results, ensembles):
            assert res.p_success == pytest.approx(success_probability(e, res.povm), abs=1e-12)


class TestDualResidual:
    def test_matches_per_matrix_loop(self):
        for s in range(40):
            rng = np.random.default_rng(600 + s)
            n, d = int(rng.integers(2, 7)), int(rng.integers(1, 6))
            e = random_ensemble(rng, n, d)
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            y = (g + g.conj().T) / 4 + (s % 3) * np.eye(d)
            gap = 0.0
            for p, state in zip(e.probs, e.states):
                lo = float(np.linalg.eigvalsh(y - p * np.outer(state, state.conj())).min())
                gap = max(gap, -lo)
            assert _dual_residual(e.probs[:, None, None] * e.projectors(), y) == max(gap, 0.0)


def renormalize_one(elements):
    """One collection, one matrix at a time: the PSD projection of each
    element, one eigendecomposition of their sum, then the conjugation."""
    herm = [(el + el.conj().T) / 2 for el in elements]
    psd = []
    for m in herm:
        w, v = np.linalg.eigh((m + m.conj().T) / 2)
        psd.append((v * np.clip(w, 0.0, None)) @ v.conj().T)
    total = sum(psd)
    w, v = np.linalg.eigh((total + total.conj().T) / 2)
    null = (v * (w <= 1e-12).astype(float)) @ v.conj().T
    inv_root = (v * np.where(w > 1e-12, np.clip(w, 1e-12, None) ** -0.5, 0.0)) @ v.conj().T
    out = []
    for el in psd:
        m = inv_root @ el @ inv_root + null / len(psd)
        out.append((m + m.conj().T) / 2)
    return out


class TestRenormalize:
    def test_stack_matches_per_matrix_loop(self):
        for s in range(20):
            rng = np.random.default_rng(300 + s)
            k, d = int(rng.integers(2, 6)), int(rng.integers(2, 5))
            support = d - 1 if s % 2 else d  # odd s: the sum has a null space
            g = np.zeros((k, d, d), dtype=complex)
            g[:, :, :support] = (rng.standard_normal((k, d, support))
                                 + 1j * rng.standard_normal((k, d, support)))
            els = g.conj().swapaxes(-1, -2) @ g
            out = _renormalize(els)
            assert out.shape == (k, d, d)
            for got, want in zip(out, renormalize_one(els)):
                assert np.array_equal(got, want)

    def test_stack_of_collections_matches_one_at_a_time(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((4, 3, 3, 3)) + 1j * rng.standard_normal((4, 3, 3, 3))
        els = g.conj().swapaxes(-1, -2) @ g
        out = _renormalize(els)
        for r in range(4):
            assert np.array_equal(out[r], _renormalize(els[r]))
            Povm(tuple(out[r]))


class TestCertificateGap:
    def test_zero_at_optimum(self):
        e = two_state(0.5, 0.4)
        assert certificate_gap(e, helstrom(e).povm) <= 1e-12

    def test_zero_gap_is_positive_zero(self):
        # N = 2, d_D = 1: both states are the same ray, so Y - p_i rho_i has
        # lowest eigenvalue exactly 0, and the gap must print as 0, not -0.
        spec = sample_scenario(subseed(3, 0), 2, 1, 1)
        e = detector_ensemble(spec)
        assert math.copysign(1.0, certificate_gap(e, helstrom(e).povm)) == 1.0
        assert math.copysign(1.0, min_error_solve(e).certificate_gap) == 1.0
        zero = _dual_residual(np.zeros((1, 1, 1)), np.zeros((1, 1)))
        assert math.copysign(1.0, float(zero)) == 1.0

    def test_matches_per_outcome_loop(self):
        # Y = sum_j p_j rho_j Pi_j on one stack, against one outcome at a time:
        # bitwise for the two outcomes `helstrom` certifies; from four terms
        # numpy may sum a contiguous axis pairwise, so to rounding there.
        for s in range(60):
            rng = np.random.default_rng(1200 + s)
            n, d = 2 + s % 4, int(rng.integers(1, 5))
            e = random_ensemble(rng, n, d)
            m = helstrom(e).povm if n == 2 else pretty_good_measurement(e)
            y = np.zeros((d, d), dtype=complex)
            for j in range(n):
                y += e.probs[j] * (np.outer(e.states[j], e.states[j].conj()) @ m.elements[j])
            want = _dual_residual(e.probs[:, None, None] * e.projectors(), (y + y.conj().T) / 2)
            if n == 2:
                assert certificate_gap(e, m) == float(want)
            assert abs(certificate_gap(e, m) - float(want)) <= 1e-15

    def test_positive_for_bad_povm(self):
        e = two_state(0.5, 0.0)  # orthogonal states
        swapped = Povm((np.diag([0.0, 1.0]), np.diag([1.0, 0.0])))
        assert certificate_gap(e, swapped) > 0.1


def information_by_loop(e, m):
    """I(D:M) from a joint table filled one <phi_i|Pi_j|phi_i> at a time."""
    joint = np.empty((e.n, len(m.elements)))
    for i in range(e.n):
        for j, el in enumerate(m.elements):
            joint[i, j] = e.probs[i] * (e.states[i].conj() @ el @ e.states[i]).real
    joint = np.clip(joint, 0.0, None)
    return (shannon_entropy(joint.sum(axis=1)) + shannon_entropy(joint.sum(axis=0))
            - shannon_entropy(joint.ravel()))


class TestInformation:
    def test_orthonormal_full_information(self):
        e = Ensemble(np.full(2, 0.5), np.eye(2, dtype=complex))
        m = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        assert mutual_information(e, m) == pytest.approx(1.0, abs=1e-10)

    def test_useless_measurement(self):
        e = two_state(0.5, 0.5)
        m = Povm((np.eye(2) / 2, np.eye(2) / 2))
        assert mutual_information(e, m) == pytest.approx(0.0, abs=1e-10)

    def test_matches_per_pair_loop(self):
        # The joint table is built on a stack; each entry must equal the
        # per-pair <phi_i|Pi_j|phi_i> bit for bit.
        for s in range(30):
            rng = np.random.default_rng(400 + s)
            n, d = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            e = random_ensemble(rng, n, d)
            m = random_rank1_povm(rng, d)
            assert mutual_information(e, m) == information_by_loop(e, m)

    def test_holevo_values(self):
        e = Ensemble(np.full(2, 0.5), np.eye(2, dtype=complex))
        assert holevo(e) == pytest.approx(1.0, abs=1e-10)
        same = Ensemble(np.full(2, 0.5), np.array([[1, 0], [1, 0]], dtype=complex))
        assert holevo(same) == pytest.approx(0.0, abs=1e-10)

    def test_holevo_dominates_random_povms(self):
        for s in range(100):
            rng = np.random.default_rng(s)
            e = random_ensemble(rng, 3, 2)
            m = Povm(random_rank1_povm(rng, 2).elements + (np.zeros((2, 2), dtype=complex),))
            assert mutual_information(e, m) <= holevo(e) + 1e-9


def ascent_starts(es, povms):
    """The (ensembles, 2, n, d, d) start stack of `accessible_info_lower`: each
    min-error POVM and PGM, the PGM's completion element, where it has one,
    spread over its n outcomes."""
    def spread(e):
        els = np.array(pretty_good_measurement(e).elements)
        return els[:e.n] + els[e.n] / e.n if len(els) > e.n else els

    return np.array([(m.elements, spread(e)) for e, m in zip(es, povms)])


# For the detector ensemble e of sample_scenario(subseed(2024, k), N, d_B,
# d_D), k the index in this list: float.hex of
# accessible_info_lower(e, min_error_solve(e).povm), then of the best I(D:M)
# of the ascent from the min-error POVM and from the PGM. The arithmetic must
# reproduce them bit for bit.
ACCESSIBLE_HEX = [
    ((2, 1, None), '0x1.37a3addfa5448p-3',
     ('0x1.37a3addfa5448p-3', '0x1.37a3a4b8562e8p-3')),
    ((2, 2, None), '0x1.029bbb92e8c98p-2',
     ('0x1.029bbb92e8c98p-2', '0x1.029bb12dc0860p-2')),
    ((3, 1, None), '0x1.96e7646a5a8c4p-1',
     ('0x1.96e7646a5a8c4p-1', '0x1.95c8f65d697e8p-1')),
    ((3, 2, None), '0x1.633f4bdd247b4p-1',
     ('0x1.633f4bdd247b4p-1', '0x1.633a65acddc5cp-1')),
    ((4, 1, None), '0x1.2572f57aee50ep+0',
     ('0x1.2572f57aee50ep+0', '0x1.2567dc6eeeab6p+0')),
    ((4, 2, None), '0x1.193b8cafe209ep+0',
     ('0x1.19295d224a458p+0', '0x1.193b8cafe209ep+0')),
    ((5, 1, None), '0x1.d551a0d812e6cp-1',
     ('0x1.d50cacd5bc93cp-1', '0x1.d551a0d812e6cp-1')),
    ((5, 2, None), '0x1.39e3d5565c04cp+0',
     ('0x1.39e3d5565c04cp+0', '0x1.399416b33f17ep+0')),
    ((3, 1, 2), '0x1.37defacf25288p-1',
     ('0x1.37defacf25288p-1', '0x1.37dedea7e92b8p-1')),
    ((4, 2, 2), '0x1.8edd20b984b40p-2',
     ('0x1.7f08a019d74f8p-2', '0x1.8edd20b984b40p-2')),
    ((5, 1, 2), '0x1.997dccc67d120p-2',
     ('0x1.997dccc67d120p-2', '0x1.97de78e33eb18p-2')),
    ((5, 2, 2), '0x1.6427e0d1a0ab4p-1',
     ('0x1.6427e0d1a0ab4p-1', '0x1.64264f3958f50p-1')),
]


class TestAccessibleInfoLower:
    @pytest.mark.parametrize("k", range(len(ACCESSIBLE_HEX)))
    def test_bit_exact(self, k):
        (n, d_b, d_d), expected, _ = ACCESSIBLE_HEX[k]
        e = detector_ensemble(sample_scenario(subseed(2024, k), n, d_b, d_d))
        value = accessible_info_lower(e, min_error_solve(e).povm)
        assert float.hex(value) == expected

    @pytest.mark.parametrize("k", range(len(ACCESSIBLE_HEX)))
    def test_ascent_bit_exact(self, k):
        (n, d_b, d_d), _, expected = ACCESSIBLE_HEX[k]
        e = detector_ensemble(sample_scenario(subseed(2024, k), n, d_b, d_d))
        climbed = _hill_climb([e], ascent_starts([e], [min_error_solve(e).povm]))[0]
        assert tuple(float.hex(v) for v in climbed) == expected

    def test_orthonormal(self):
        e = Ensemble(np.full(2, 0.5), np.eye(2, dtype=complex))
        m = min_error_solve(e).povm
        assert accessible_info_lower(e, m) == pytest.approx(1.0, abs=1e-8)

    def test_identical_states(self):
        e = Ensemble(np.full(2, 0.5), np.array([[1, 0], [1, 0]], dtype=complex))
        m = min_error_solve(e).povm
        assert accessible_info_lower(e, m) == pytest.approx(0.0, abs=1e-8)

    def test_bracket_and_start_dominance(self):
        for s in range(5):
            rng = np.random.default_rng(s)
            e = random_ensemble(rng, 3, 2)
            m = min_error_solve(e).povm
            lo = accessible_info_lower(e, m)
            starts = max(mutual_information(e, m),
                         mutual_information(e, pretty_good_measurement(e)))
            assert starts <= lo <= holevo(e) + 1e-9

    def test_ascent_raises_the_starts(self):
        # On every pinned ensemble with N >= 3 neither start is extremal; at
        # N = 2 the min-error POVM already is, to rounding.
        for k, ((n, d_b, d_d), expected, _) in enumerate(ACCESSIBLE_HEX):
            if n == 2:
                continue
            e = detector_ensemble(sample_scenario(subseed(2024, k), n, d_b, d_d))
            m = min_error_solve(e).povm
            starts = max(mutual_information(e, m),
                         mutual_information(e, pretty_good_measurement(e)))
            assert float.fromhex(expected) > starts + 1e-4, k

    def test_null_space_completion_is_spread_over_the_pgm(self):
        # d_D = 3 > N = 2: the PGM carries a completion element, which the
        # start spreads over its two outcomes; no phi_i meets the null space,
        # so I(D:M) stays that of the PGM.
        e = detector_ensemble(sample_scenario(subseed(2024, 40), 2, 1, 3))
        m = min_error_solve(e).povm
        pgm = pretty_good_measurement(e)
        assert len(m.elements) == 2 and len(pgm.elements) == 3
        spread = Povm(tuple(ascent_starts([e], [m])[0, 1]))
        assert abs(mutual_information(e, spread) - mutual_information(e, pgm)) <= 1e-15
        lo = accessible_info_lower(e, m)
        assert max(mutual_information(e, m), mutual_information(e, pgm)) <= lo <= holevo(e) + 1e-9


class TestBlockAscent:
    """The search of a block of ensembles, bit for bit one ensemble at a time."""

    @pytest.mark.parametrize("n, d_d", [(n, d) for n in range(2, 6) for d in range(1, n + 1)])
    def test_block_matches_one_at_a_time(self, n, d_d):
        ens = [detector_ensemble(sample_scenario(subseed(31, n, d_d, i), n, 1 + i % 2, d_d))
               for i in range(3)]
        povms = [min_error_solve(e).povm for e in ens]
        block = accessible_info_lower(ens, povms)
        alone = [accessible_info_lower(e, m) for e, m in zip(ens, povms)]
        assert [float.hex(v) for v in block] == [float.hex(v) for v in alone]
        climbed = _hill_climb(ens, ascent_starts(ens, povms))
        for e, m, row in zip(ens, povms, climbed):
            want = _hill_climb([e], ascent_starts([e], [m]))[0]
            assert [float.hex(v) for v in row] == [float.hex(v) for v in want]

    def test_members_with_different_outcome_counts(self, monkeypatch):
        # Two equal states leave rho_D rank 2 < d_D = 3, so that member's PGM
        # has a completion element, which its start spreads over the three
        # outcomes; the block climbs in one call, each member as alone.
        ens = [detector_ensemble(sample_scenario(subseed(32, i), 3, 1)) for i in range(3)]
        phi = ens[1].states.copy()
        phi[2] = phi[1]
        ens[1] = Ensemble(ens[1].probs, phi)
        povms = [min_error_solve(e).povm for e in ens]
        assert [len(pretty_good_measurement(e).elements) for e in ens] == [3, 4, 3]
        alone = [accessible_info_lower(e, m) for e, m in zip(ens, povms)]
        calls = []

        def climb(block, starts):
            calls.append(starts)
            return _hill_climb(block, starts)

        monkeypatch.setattr(discrimination, "_hill_climb", climb)
        block = accessible_info_lower(ens, povms)
        assert len(calls) == 1 and np.array_equal(calls[0], ascent_starts(ens, povms))
        assert [float.hex(v) for v in block] == [float.hex(v) for v in alone]

    def test_members_accept_at_different_steps(self, monkeypatch):
        ens = [detector_ensemble(sample_scenario(subseed(2024, k), 4, 1)) for k in (4, 5, 6)]
        starts = ascent_starts(ens, [min_error_solve(e).povm for e in ens])

        def accepted(block, stack, steps):
            monkeypatch.setattr(discrimination, "ACC_STEPS", steps)
            return _hill_climb(block, stack)

        # A start's best rises after step t exactly when step t accepts.
        trail = np.array([accepted(ens, starts, t) for t in range(13)])  # (steps, block, 2)
        accepts = trail[1:] > trail[:-1]
        assert len({accepts[:, b].tobytes() for b in range(len(ens))}) == len(ens)
        assert accepts.any() and not accepts.all()
        for b, e in enumerate(ens):
            alone = [accepted([e], starts[b:b + 1], t)[0] for t in range(13)]
            assert np.array_equal(trail[:, b], np.array(alone))

    def test_block_of_one(self):
        e = detector_ensemble(sample_scenario(subseed(2024, 7), 5, 2))
        m = min_error_solve(e).povm
        assert accessible_info_lower([e], [m]) == [float.fromhex(ACCESSIBLE_HEX[7][1])]


class TestStackedChecks:
    def test_entropies_match_shannon_entropy(self):
        # Rows of 12, as the joint table of N = 4 and 3 outcomes: a masked zero
        # adds an exact 0 term in its place, so the stack's pairwise grouping
        # is each row's own, and every row is bitwise its entropy alone.
        rng = np.random.default_rng(8)
        p = rng.dirichlet(np.ones(12), size=(3, 4))
        p[0, 1, 2] = 0.0
        p[2, 3, :3] = 0.0
        p[1, 0, 4] = -0.0
        p[1, 2] = 0.0
        h = shannon_entropies(p)
        assert h.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            assert float.hex(float(h[idx])) == float.hex(shannon_entropy(p[idx]))
        # A NaN is no zero to mask: it reaches its row's entropy alone.
        h = shannon_entropies(np.array([[0.5, np.nan, 0.0], [0.5, 0.5, 0.0]]))
        assert np.isnan(h[0]) and h[1] == 1.0

    def test_information_of_a_stack_matches_one_at_a_time(self):
        rng = np.random.default_rng(9)
        ens = [random_ensemble(rng, 4, 3) for _ in range(3)]
        povms = [random_rank1_povm(rng, 3) for _ in range(2)]
        probs = np.array([e.probs for e in ens])[:, None]
        states = np.array([e.states for e in ens])[:, None]
        stack = np.array([[m.elements for m in povms]] * 3)
        got = _mutual(_joint(probs, states, stack))
        assert got.shape == (3, 2)
        for b, e in enumerate(ens):
            for r, m in enumerate(povms):
                assert float.hex(float(got[b, r])) == float.hex(information_by_loop(e, m))

    def test_povm_checks_reject_one_bad_collection(self):
        good = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
        _check_povms(np.array([[good, good]]))
        not_psd = np.array([np.diag([1.0 + 1e-8, -1e-8]), np.diag([-0.0, 1.0 + 1e-8])])
        with pytest.raises(ValueError, match="element 0 is not PSD"):
            _check_povms(np.array([[good, not_psd.astype(complex)]]))
        incomplete = good * (1.0 + 2e-9)
        with pytest.raises(ValueError, match="do not sum to identity"):
            _check_povms(np.array([[good], [incomplete]]))
        with pytest.raises(ValueError, match="do not sum to identity"):
            Povm(tuple(incomplete))


class TestDiscriminationResult:
    def test_certified_flag(self):
        m = Povm((np.eye(2),))
        assert DiscriminationResult(1.0, m, 1e-8, 0).certified
        assert not DiscriminationResult(1.0, m, 1e-6, 0).certified
