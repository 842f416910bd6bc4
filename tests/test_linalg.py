import math

import numpy as np
import pytest

from pathcoh.linalg import (
    Dims,
    check_density_matrix,
    clip_spectrum,
    dagger,
    eigh,
    kron,
    partial_trace,
    purity,
    shannon_entropies,
    shannon_entropy,
    trace_norm,
    von_neumann_entropy,
)

RNG = np.random.default_rng(20260823)


def random_hermitian(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (m + m.conj().T) / 2


def random_density(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_pure_density(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def kron_oracle(a, b):
    # Quadruple loop over the entry index formula.
    ar, ac = a.shape
    br, bc = b.shape
    out = np.zeros((ar * br, ac * bc), dtype=complex)
    for i in range(ar):
        for j in range(ac):
            for k in range(br):
                for l in range(bc):
                    out[i * br + k, j * bc + l] = a[i, j] * b[k, l]
    return out


def partial_trace_oracle_keep_first(rho, da, db):
    # Explicit double sum over the traced index.
    out = np.zeros((da, da), dtype=complex)
    for i in range(da):
        for j in range(da):
            for k in range(db):
                out[i, j] += rho[i * db + k, j * db + k]
    return out


class TestDagger:
    def test_stack_is_per_matrix_conjugate_transpose(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((2, 3, 4, 5)) + 1j * rng.standard_normal((2, 3, 4, 5))
        out = dagger(m)
        assert out.shape == (2, 3, 5, 4)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(out[idx], m[idx].conj().T)

    def test_eigh_of_stack(self):
        rng = np.random.default_rng(9)
        h = np.array([random_hermitian(rng, 3) for _ in range(4)])
        w, v = eigh(h)
        for i in range(4):
            w1, v1 = eigh(h[i])
            assert np.array_equal(w[i], w1) and np.array_equal(v[i], v1)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_projectors(self):
        got = kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.array_equal(got, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_random_matches_index_formula(self):
        for _ in range(100):
            a = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
            b = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
            assert np.max(np.abs(kron(a, b) - kron_oracle(a, b))) <= 1e-12

    def test_overflow_guard(self):
        big = np.zeros((10000, 10000))
        with pytest.raises(ValueError):
            kron(big, big)


class TestPartialTrace:
    def test_bell_state(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        red = partial_trace(rho, Dims.of(("A", 2), ("B", 2)), "A")
        assert np.max(np.abs(red - np.eye(2) / 2)) <= 1e-12

    def test_product_state_factorizes(self):
        ra = random_density(RNG, 2)
        rb = random_density(RNG, 3)
        red = partial_trace(np.kron(ra, rb), Dims.of(("A", 2), ("B", 3)), "A")
        assert np.max(np.abs(red - ra)) <= 1e-12

    def test_random_pure_matches_summation_oracle(self):
        for _ in range(100):
            rho = random_pure_density(RNG, 6)
            dims = Dims.of(("A", 2), ("B", 3))
            got = partial_trace(rho, dims, "A")
            want = partial_trace_oracle_keep_first(rho, 2, 3)
            assert np.max(np.abs(got - want)) <= 1e-12
            # keep B: relabel via transpose trick is error-prone, sum directly
            got_b = partial_trace(rho, dims, "B")
            want_b = np.zeros((3, 3), dtype=complex)
            for k in range(2):
                want_b += rho[k * 3:(k + 1) * 3, k * 3:(k + 1) * 3]
            assert np.max(np.abs(got_b - want_b)) <= 1e-12

    def test_composition_and_trace_preservation(self):
        dims = Dims.of(("A", 2), ("B", 2), ("D", 3))
        for _ in range(20):
            rho = random_density(RNG, 12)
            once = partial_trace(rho, dims, "A")
            stepwise = partial_trace(
                partial_trace(rho, dims, {"A", "D"}), Dims.of(("A", 2), ("D", 3)), "A")
            assert np.max(np.abs(once - stepwise)) <= 1e-12
            assert abs(np.trace(once) - np.trace(rho)) <= 1e-12

    def test_errors(self):
        rho = random_density(RNG, 4)
        with pytest.raises(ValueError):
            partial_trace(rho, Dims.of(("A", 2), ("B", 3)), "A")
        with pytest.raises(ValueError):
            partial_trace(rho, Dims.of(("A", 2), ("B", 2)), "C")
        with pytest.raises(ValueError):
            partial_trace(rho, Dims.of(("A", 2), ("B", 2)), set())


class TestEigh:
    def test_diagonal(self):
        w, _ = eigh(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(w, [1.0, 2.0, 3.0])

    def test_known_spectrum(self):
        w, _ = eigh(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(w, [-1.0, 1.0])

    def test_random_reconstruction(self):
        for _ in range(50):
            h = random_hermitian(RNG, 5)
            w, v = eigh(h)
            assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - h)) <= 1e-9
            assert np.max(np.abs(v.conj().T @ v - np.eye(5))) <= 1e-9
            assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eigh(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_is_not_an_input_error(self, bad):
        # NaN passes `dev > HERM_TOL`; it must raise, and not as a ValueError,
        # which the CLI reads as bad input.
        m = np.eye(2, dtype=complex)
        m[0, 1] = bad
        with pytest.raises(FloatingPointError, match="non-finite"):
            eigh(m)
        with pytest.raises(FloatingPointError):
            von_neumann_entropy(np.full((2, 2), np.nan))


class TestTraceNorm:
    def test_diagonal(self):
        assert trace_norm(np.diag([1.0, -1.0]).astype(complex)) == pytest.approx(2.0)

    def test_zero(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_two_state_closed_form(self):
        # ||p1 P1 - p2 P2||_1 = 2 sqrt(((p1+p2)/2)^2 - p1 p2 |<v1|v2>|^2)
        for _ in range(50):
            p1 = RNG.uniform(0.05, 0.95)
            p2 = 1 - p1
            v1 = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
            v2 = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
            v1 /= np.linalg.norm(v1)
            v2 /= np.linalg.norm(v2)
            t = p1 * np.outer(v1, v1.conj()) - p2 * np.outer(v2, v2.conj())
            ov = abs(np.vdot(v1, v2))
            want = 2 * np.sqrt(((p1 + p2) / 2) ** 2 - p1 * p2 * ov**2)
            assert trace_norm(t) == pytest.approx(want, abs=1e-10)

    def test_dominates_abs_trace(self):
        for _ in range(50):
            h = random_hermitian(RNG, 4)
            assert trace_norm(h) >= abs(np.trace(h).real) - 1e-12


class TestPurityEntropy:
    def test_pure_state(self):
        rho = random_pure_density(RNG, 4)
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed(self):
        for n in (2, 3, 5):
            rho = np.eye(n) / n
            assert purity(rho) == pytest.approx(1.0 / n, abs=1e-12)
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_entropy_frozen_value(self):
        # -0.75 log2 0.75 - 0.25 log2 0.25 = 2 - 0.75 log2(3)
        want = 2.0 - 0.75 * np.log2(3.0)
        assert want == pytest.approx(0.811278, abs=5e-7)
        got = von_neumann_entropy(np.diag([0.75, 0.25]).astype(complex))
        assert got == pytest.approx(want, abs=1e-12)

    def test_purity_matches_spectrum(self):
        for _ in range(30):
            rho = random_density(RNG, 4)
            w, _ = eigh(rho)
            assert purity(rho) == pytest.approx(float(np.sum(w**2)), abs=1e-10)

    def test_entropy_basis_invariant(self):
        for _ in range(20):
            rho = random_density(RNG, 4)
            z = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
            q, r = np.linalg.qr(z)
            u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            rot = u @ rho @ u.conj().T
            assert von_neumann_entropy(rot) == pytest.approx(
                von_neumann_entropy(rho), abs=1e-9)

    def test_shannon_entropy(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0)
        assert shannon_entropy([1.0, 0.0]) == 0.0

    @pytest.mark.parametrize("k", [8, 9, 16, 25])
    def test_entropies_with_zeros_match_fsum(self, k):
        # From 8 terms on numpy sums pairwise, and the zeros take part in the
        # grouping; each row must still lie within 4 ulp of a correctly
        # rounded sum of its nonzero terms.
        rng = np.random.default_rng(7000 + k)
        p = rng.dirichlet(np.ones(k), size=200)
        p[rng.random(p.shape) < 0.3] = 0.0
        assert 0.2 < np.mean(p == 0.0) < 0.4
        for row, h in zip(p, shannon_entropies(p)):
            want = -math.fsum(x * math.log2(x) for x in row if x != 0.0)
            assert abs(float(h) - want) <= 4 * math.ulp(want)

    def test_zero_entropy_is_positive_zero(self):
        # -(1 log2 1) is -0; a point mass must print as 0, not -0.
        assert math.copysign(1.0, shannon_entropy([1.0, 0.0])) == 1.0
        assert math.copysign(1.0, shannon_entropy([1.0])) == 1.0
        assert math.copysign(1.0, von_neumann_entropy(np.diag([0.0, 1.0]))) == 1.0
        assert np.signbit(shannon_entropies(np.array([[0.0, 1.0], [1.0, 0.0]]))).tolist() == [
            False, False]

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_clip_spectrum_refuses_non_finite(self, bad):
        # `nan < -PSD_TOL` is False; NaN must raise, and not as a ValueError.
        with pytest.raises(FloatingPointError, match="non-finite"):
            clip_spectrum([bad, 0.5])
        with pytest.raises(ValueError, match="genuinely negative"):
            clip_spectrum([-1e-6, 0.5])
        assert clip_spectrum([-1e-12, 0.5]).tolist() == [0.0, 0.5]

    @pytest.mark.parametrize("w", [[np.inf, 0.5], [0.5, np.inf], [0.0, np.inf, np.inf]])
    def test_clip_spectrum_refuses_infinity_at_the_maximum(self, w):
        # The minimum is finite here; only the maximum shows the infinity.
        with pytest.raises(FloatingPointError, match="non-finite"):
            clip_spectrum(w)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_shannon_entropy_refuses_non_finite(self, bad):
        # `p[p > 0]` would drop a NaN with the zeros and leave a finite entropy.
        with pytest.raises(FloatingPointError, match="non-finite"):
            shannon_entropy([bad, 0.5])
        with pytest.raises(FloatingPointError, match="non-finite"):
            shannon_entropy([0.25, bad, 0.0])


class TestDensityCheck:
    def test_accepts_valid(self):
        check_density_matrix(random_density(RNG, 3))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            check_density_matrix(np.eye(2))

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            check_density_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            check_density_matrix(m)

    def test_accepts_views(self):
        # A transpose or a strided slice is a valid density matrix too.
        rho = random_density(RNG, 3)
        big = np.zeros((6, 6), dtype=complex)
        big[::2, ::2] = rho
        for view in (rho.T, big[::2, ::2], rho[::-1, ::-1]):
            assert not view.flags.c_contiguous
            check_density_matrix(view)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = bad
        with pytest.raises(ValueError, match="^density matrix has non-finite entries$"):
            check_density_matrix(m)
        with pytest.raises(ValueError, match="^density matrix has non-finite entries$"):
            check_density_matrix(m.T)
