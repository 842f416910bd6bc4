import numpy as np
import pytest

from pathcoh.discrimination import (
    CERT_THRESHOLD,
    DiscriminationResult,
    Ensemble,
    Povm,
    _barrier_solve,
    _barrier_solve_stack,
    _check_povms,
    _dual_residual,
    _entropies,
    _hill_climb,
    _information,
    _random_rank1_povm,
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
from pathcoh.linalg import shannon_entropy
from pathcoh.sampling import haar_state, sample_scenario, subseed

RNG = np.random.default_rng(11)


def random_ensemble(rng, n, d):
    p = rng.dirichlet(np.ones(n))
    states = np.array([haar_state(rng, d) for _ in range(n)])
    return Ensemble(p, states)


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


class TestPrettyGoodMeasurement:
    def test_orthonormal_is_projective(self):
        e = Ensemble(np.full(3, 1 / 3), np.eye(3, dtype=complex))
        m = pretty_good_measurement(e)
        for i in range(3):
            want = np.zeros((3, 3))
            want[i, i] = 1.0
            assert np.max(np.abs(m.elements[i] - want)) <= 1e-10

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
        for s in range(25):
            rng = np.random.default_rng(s)
            e = random_ensemble(rng, 2, 2 + s % 2)
            res = min_error_solve(e)
            assert res.certified
            assert res.p_success == pytest.approx(
                helstrom(e).p_success, abs=1e-8)

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


class TestBarrierFallback:
    def test_stalled_scenario_certified(self):
        # A PGM-seeded fixed-point iteration stalls on this scenario (one
        # path has p ~ 7e-5) at a residual of 6e-7 with P_s = 0.97206613,
        # below the optimum 0.97206695.
        spec = sample_scenario(subseed(101, 8, 405), 4, 1)
        e = detector_ensemble(spec)
        res = min_error_solve(e)
        assert res.certified
        assert 0 < res.iterations <= 150  # Newton steps of the dual barrier
        assert res.p_success >= 0.9720669
        assert res.p_success <= pairwise_bound(e)
        rep = check_l1_memory(spec)
        assert rep.satisfied and rep.solver_certified

    def test_dual_feasible_and_tight(self):
        for s in range(30):
            rng = np.random.default_rng(900 + s)
            n = 2 + s % 4
            e = random_ensemble(rng, n, int(rng.integers(1, n + 1)))
            povm, y, _ = _barrier_solve(e, 1e-10)
            for p, rho in zip(e.probs, e.projectors()):
                assert np.linalg.eigvalsh(y - p * rho).min() >= 0.0
            gap = np.trace(y).real - success_probability(e, povm)
            assert -1e-12 <= gap <= CERT_THRESHOLD


def assert_same_barrier(got, want):
    (povm, y, steps), (povm1, y1, steps1) = got, want
    assert steps == steps1
    assert y.tobytes() == y1.astype(complex).tobytes()
    assert [el.tobytes() for el in povm.elements] == [el.tobytes() for el in povm1.elements]


def assert_stack_matches_singles(ensembles):
    """Lockstep solve bitwise equal to one `_barrier_solve` per ensemble, and
    `min_error_solve_block` to one `min_error_solve` each; returns the steps."""
    stacked = _barrier_solve_stack(ensembles, 1e-10)
    for e, got in zip(ensembles, stacked):
        assert_same_barrier(got, _barrier_solve(e, 1e-10))
    for e, res in zip(ensembles, min_error_solve_block(ensembles)):
        one = min_error_solve(e)
        assert (res.p_success, res.certificate_gap, res.iterations) == \
               (one.p_success, one.certificate_gap, one.iterations)
        assert [el.tobytes() for el in res.povm.elements] == \
               [el.tobytes() for el in one.povm.elements]
    return [steps for _, _, steps in stacked]


class TestLockstepBarrier:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_stack_matches_one_at_a_time(self, n):
        for d in range(1, n + 1):
            rng = np.random.default_rng(40 * n + d)
            assert_stack_matches_singles([random_ensemble(rng, n, d) for _ in range(3)])

    def test_members_stop_after_different_step_counts(self):
        rng = np.random.default_rng(5)
        ensembles = [random_ensemble(rng, 4, 4) for _ in range(4)]
        ensembles += [detector_ensemble(sample_scenario(subseed(101, 8, 405), 4, 1))]
        steps = assert_stack_matches_singles(ensembles)
        assert len(set(steps)) >= 3

    def test_first_stage_runs_into_its_step_cap(self):
        # Sixteen states in d = 4 take all 50 Newton steps of the first stage
        # without centring; the stack must cut each member's stage there too.
        rng = np.random.default_rng(1604)
        assert_stack_matches_singles([
            Ensemble(p, np.array([haar_state(rng, 4) for _ in range(16)]))
            for p in (np.full(16, 1 / 16), rng.dirichlet(np.ones(16)), np.full(16, 1 / 16))])

    def test_pinned_stalled_scenario(self):
        pinned = detector_ensemble(sample_scenario(subseed(101, 8, 405), 4, 1))
        others = [detector_ensemble(sample_scenario(subseed(101, 8, i), 4, 1))
                  for i in range(403, 405)]
        assert_stack_matches_singles([pinned, *others])

    def test_tiny_path_probability(self):
        p = np.array([0.97 - 1e-9, 1e-9, 0.03])
        rng = np.random.default_rng(0)
        assert_stack_matches_singles(
            [Ensemble(p, np.array([haar_state(rng, 3) for _ in range(3)])) for _ in range(4)])

    def test_stack_of_one_is_the_single_loop(self):
        rng = np.random.default_rng(8)
        for n, d in ((2, 2), (3, 2), (5, 5)):
            e = random_ensemble(rng, n, d)
            assert_same_barrier(_barrier_solve_stack([e], 1e-10)[0], _barrier_solve(e, 1e-10))


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
            assert _dual_residual(e, e.projectors(), y) == max(gap, 0.0)


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
            u = np.linalg.qr(rng.standard_normal((d, d))
                             + 1j * rng.standard_normal((d, d)))[0]
            m = Povm(tuple(np.outer(u[:, k], u[:, k].conj()) for k in range(d)))
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
            u = np.linalg.qr(rng.standard_normal((2, 2))
                             + 1j * rng.standard_normal((2, 2)))[0]
            m = Povm(tuple(np.outer(u[:, k], u[:, k].conj()) for k in range(2))
                     + (np.zeros((2, 2), dtype=complex),))
            assert mutual_information(e, m) <= holevo(e) + 1e-9


# For the detector ensemble e of sample_scenario(subseed(2024, k), N, d_B,
# d_D), k the index in this list: float.hex of
# accessible_info_lower(e, min_error_solve(e).povm, restarts=2, seed=101),
# then of the best I(D:M) of each of its two ascents. The min-error POVM sets
# most of the first values, so the second pin the ascent itself. The
# arithmetic and the random draws must reproduce them bit for bit.
ACCESSIBLE_HEX = [
    ((2, 1, None), '0x1.37a3addfa5460p-3',
     ('0x1.2cfde405f3518p-3', '0x1.1eaca07583920p-3')),
    ((2, 2, None), '0x1.029bbb92e8c80p-2',
     ('0x1.54f6af34d9328p-3', '0x1.c0ce9b4f16700p-5')),
    ((3, 1, None), '0x1.96cf48f7e747cp-1',
     ('0x1.beba6c58d0a08p-2', '0x1.9a936058d77a0p-2')),
    ((3, 2, None), '0x1.61a3225dd8aacp-1',
     ('0x1.7c11254541268p-2', '0x1.5faf71abac0f0p-2')),
    ((4, 1, None), '0x1.24dff3eaafd84p+0',
     ('0x1.5a26465a5f838p-1', '0x1.ccc9040375a30p-2')),
    ((4, 2, None), '0x1.17e5ab29bcbb8p+0',
     ('0x1.4c320ef3a36a0p-2', '0x1.cb646746720e0p-2')),
    ((5, 1, None), '0x1.cfeae67e20a70p-1',
     ('0x1.55dd453e61098p-2', '0x1.d1a41f1b475a0p-3')),
    ((5, 2, None), '0x1.397697842f84cp+0',
     ('0x1.c53ee34244060p-2', '0x1.c8ef797e1f240p-3')),
    ((3, 1, 2), '0x1.37c0ea3c238b8p-1',
     ('0x1.2dce8854cd9b4p-1', '0x1.be629281f0358p-2')),
    ((4, 2, 2), '0x1.e5646801b8030p-3',
     ('0x1.710af2f206ca0p-3', '0x1.369f0e2a2daf0p-3')),
    ((5, 1, 2), '0x1.75abe7b8e74c8p-2',
     ('0x1.5d26f07dff7e8p-2', '0x1.75abe7b8e74c8p-2')),
    ((5, 2, 2), '0x1.5c5bf7000c3a8p-1',
     ('0x1.c124118ef88e0p-2', '0x1.5072978d8d498p-2')),
]


class TestAccessibleInfoLower:
    @pytest.mark.parametrize("k", range(len(ACCESSIBLE_HEX)))
    def test_bit_exact(self, k):
        (n, d_b, d_d), expected, _ = ACCESSIBLE_HEX[k]
        e = detector_ensemble(sample_scenario(subseed(2024, k), n, d_b, d_d))
        value = accessible_info_lower(e, min_error_solve(e).povm, restarts=2, seed=101)
        assert float.hex(value) == expected

    @pytest.mark.parametrize("k", range(len(ACCESSIBLE_HEX)))
    def test_ascent_bit_exact(self, k):
        (n, d_b, d_d), _, expected = ACCESSIBLE_HEX[k]
        e = detector_ensemble(sample_scenario(subseed(2024, k), n, d_b, d_d))
        rngs = [subseed(101, r) for r in range(2)]
        starts = [_random_rank1_povm(rng, e.dim) for rng in rngs]
        assert tuple(float.hex(v) for v in _hill_climb([e], starts, rngs)[0]) == expected

    def test_orthonormal(self):
        e = Ensemble(np.full(2, 0.5), np.eye(2, dtype=complex))
        m = min_error_solve(e).povm
        assert accessible_info_lower(e, m, restarts=0) == pytest.approx(1.0, abs=1e-8)

    def test_identical_states(self):
        e = Ensemble(np.full(2, 0.5), np.array([[1, 0], [1, 0]], dtype=complex))
        m = min_error_solve(e).povm
        assert accessible_info_lower(e, m, restarts=1) == pytest.approx(0.0, abs=1e-8)

    def test_bracket_and_restart_monotonicity(self):
        for s in range(5):
            rng = np.random.default_rng(s)
            e = random_ensemble(rng, 3, 2)
            m = min_error_solve(e).povm
            lo0 = accessible_info_lower(e, m, restarts=0, seed=7)
            lo2 = accessible_info_lower(e, m, restarts=2, seed=7)
            assert lo0 <= lo2 + 1e-12
            assert -1e-10 <= lo2 <= holevo(e) + 1e-9


def _restart_streams(seed, restarts, dim):
    rngs = [subseed(seed, r) for r in range(restarts)]
    return [_random_rank1_povm(rng, dim) for rng in rngs], rngs


class TestBlockAscent:
    """The search of a block of ensembles, bit for bit one ensemble at a time."""

    @pytest.mark.parametrize("n, d_d", [(n, d) for n in range(2, 6) for d in range(1, n + 1)])
    def test_block_matches_one_at_a_time(self, n, d_d):
        ens = [detector_ensemble(sample_scenario(subseed(31, n, d_d, i), n, 1 + i % 2, d_d))
               for i in range(3)]
        povms = [min_error_solve(e).povm for e in ens]
        block = accessible_info_lower(ens, povms, restarts=2, seed=101)
        alone = [accessible_info_lower(e, m, restarts=2, seed=101) for e, m in zip(ens, povms)]
        assert [float.hex(v) for v in block] == [float.hex(v) for v in alone]
        climbed = _hill_climb(ens, *_restart_streams(101, 2, d_d))
        for e, row in zip(ens, climbed):
            want = _hill_climb([e], *_restart_streams(101, 2, d_d))[0]
            assert [float.hex(v) for v in row] == [float.hex(v) for v in want]

    def test_members_accept_at_different_steps(self):
        ens = [detector_ensemble(sample_scenario(subseed(2024, k), 4, 1)) for k in (4, 5, 6)]

        def accepted(block, steps):
            return _hill_climb(block, *_restart_streams(101, 2, 4), steps=steps)

        # A start's best rises after step t exactly when step t accepts.
        trail = np.array([accepted(ens, t) for t in range(13)])  # (steps, block, restarts)
        accepts = trail[1:] > trail[:-1]
        assert len({accepts[:, b].tobytes() for b in range(len(ens))}) == len(ens)
        assert accepts.any() and not accepts.all()
        for b, e in enumerate(ens):
            assert np.array_equal(trail[:, b], np.array([accepted([e], t)[0] for t in range(13)]))

    def test_block_of_one(self):
        e = detector_ensemble(sample_scenario(subseed(2024, 7), 5, 2))
        m = min_error_solve(e).povm
        assert accessible_info_lower([e], [m], restarts=2, seed=101) == \
            [float.fromhex(ACCESSIBLE_HEX[7][1])]


class TestStackedChecks:
    def test_entropies_match_shannon_entropy(self):
        # Rows of 12, as the joint table of N = 4 and 3 outcomes: from 8 terms
        # on, numpy sums in a pairwise grouping that a dropped zero shifts.
        rng = np.random.default_rng(8)
        p = rng.dirichlet(np.ones(12), size=(3, 4))
        p[0, 1, 2] = 0.0
        p[2, 3, :3] = 0.0
        p[1, 0, 4] = -0.0
        h = _entropies(p)
        assert h.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            assert float.hex(float(h[idx])) == float.hex(shannon_entropy(p[idx]))

    def test_information_of_a_stack_matches_one_at_a_time(self):
        rng = np.random.default_rng(9)
        ens = [random_ensemble(rng, 4, 3) for _ in range(3)]
        povms = [_random_rank1_povm(rng, 3) for _ in range(2)]
        probs = np.array([e.probs for e in ens])[:, None]
        states = np.array([e.states for e in ens])[:, None]
        stack = np.array([[m.elements for m in povms]] * 3)
        got = _information(probs, states, stack)
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
