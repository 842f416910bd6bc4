"""Property-based checks for the core linear-algebra and coherence layers, the
min-error solve, and the CLI's refusal of non-finite input."""
import json
import tempfile
from pathlib import Path

import numpy as np
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from pathcoh.cli import main
from pathcoh.coherence import l1_coherence
from pathcoh.discrimination import Ensemble, min_error_solve, min_error_solve_block, pairwise_bound
from pathcoh.harness import sample_two_particle, to_pairs
from pathcoh.linalg import Dims, kron, partial_trace, trace_norm
from pathcoh.sampling import haar_state, sample_scenario

settings.register_profile("suite", max_examples=50, deadline=None)
settings.load_profile("suite")


def _complex_matrix(seed, rows, cols):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _density(seed, d):
    m = _complex_matrix(seed, d, d)
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(2, 3))
def test_kron_mixed_product_identity(seed, da, db):
    # (A ⊗ B)(C ⊗ D) = AC ⊗ BD
    a = _complex_matrix(seed, da, da)
    b = _complex_matrix(seed + 1, db, db)
    c = _complex_matrix(seed + 2, da, da)
    d = _complex_matrix(seed + 3, db, db)
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    scale = max(1.0, np.max(np.abs(rhs)))
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 4))
def test_partial_trace_preserves_trace(seed, da, db):
    rho = _density(seed, da * db)
    dims = Dims.of(("A", da), ("B", db))
    for keep in ("A", "B"):
        red = partial_trace(rho, dims, keep)
        assert abs(np.trace(red) - np.trace(rho)) <= 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_partial_trace_of_product_factorizes(seed, d):
    ra = _density(seed, d)
    rb = _density(seed + 1, d)
    red = partial_trace(kron(ra, rb), Dims.of(("A", d), ("B", d)), "A")
    assert np.max(np.abs(red - ra)) <= 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_l1_coherence_invariant_under_diagonal_unitaries(seed, d):
    rng = np.random.default_rng(seed)
    rho = _density(seed, d)
    u = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, d)))
    rotated = u @ rho @ u.conj().T
    assert abs(l1_coherence(rotated) - l1_coherence(rho)) <= 1e-10


@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_trace_norm_dominates_trace(seed, d):
    m = _complex_matrix(seed, d, d)
    h = (m + m.conj().T) / 2
    assert trace_norm(h) >= abs(np.trace(h).real) - 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(2, 4),
       st.floats(0.0, 1.0))
def test_trace_norm_convexity(seed, d, t):
    a = _complex_matrix(seed, d, d)
    b = _complex_matrix(seed + 1, d, d)
    ha, hb = (a + a.conj().T) / 2, (b + b.conj().T) / 2
    mix = t * ha + (1 - t) * hb
    bound = t * trace_norm(ha) + (1 - t) * trace_norm(hb)
    assert trace_norm(mix) <= bound + 1e-10 * max(1.0, bound)


@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.data())
def test_min_error_solve_certified_and_blockwise(seed, n, data):
    # Path probabilities mix exact zeros, 1e-9 and ordinary weights.
    d = data.draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    ensembles = []
    for _ in range(3):
        w = np.array(data.draw(st.lists(st.sampled_from([0.0, 1e-9, None]),
                                        min_size=n, max_size=n)), dtype=float)
        free = np.isnan(w)
        w[free] = rng.uniform(0.05, 1.0, free.sum())
        w[0] = w[0] if w[0] > 1e-9 else 1.0  # at least one ordinary weight
        ensembles.append(Ensemble(w / w.sum(), np.array([haar_state(rng, d) for _ in range(n)])))
    block = min_error_solve_block(ensembles)
    for e, res in zip(ensembles, block):
        assert res.certified, res.certificate_gap
        assert res.p_success <= pairwise_bound(e) + 1e-12
        one = min_error_solve(e)
        assert (res.p_success, res.certificate_gap, res.iterations) == \
               (one.p_success, one.certificate_gap, one.iterations)


# (command, file type, field that receives the non-finite entry)
NON_FINITE_CASES = [
    ("check", "scenario", "amplitudes"),
    ("check", "scenario", "detector"),
    ("witness", "scenario", "amplitudes"),
    ("witness", "scenario", "detector"),
    ("check", "two_particle", "amplitudes"),
    ("check", "two_particle", "detector_a"),
    ("check", "two_particle", "detector_b"),
    ("discriminate", "ensemble", "probs"),
    ("discriminate", "ensemble", "states"),
]


def _valid_doc(kind, seed, n, d_b):
    """A file of `kind` that its command accepts."""
    spec = sample_scenario(seed, n, d_b)
    if kind == "scenario":
        return {"type": kind, "amplitudes": to_pairs(spec.amplitudes),
                "detector": {"vectors": to_pairs(spec.detector_states)}}
    if kind == "two_particle":
        tp = sample_two_particle(np.random.default_rng(seed), n)
        return {"type": kind, "amplitudes": to_pairs(tp.amplitudes),
                "detector_a": {"vectors": to_pairs(tp.detector_a)},
                "detector_b": {"vectors": to_pairs(tp.detector_b)}}
    return {"type": kind, "probs": spec.path_probs.tolist(),
            "states": to_pairs(spec.detector_states)}


@given(st.sampled_from(NON_FINITE_CASES), st.integers(0, 2**32 - 1), st.integers(2, 4),
       st.integers(1, 3), st.integers(0, 10**6),
       st.sampled_from([float("nan"), float("inf"), float("-inf")]))
def test_non_finite_entry_is_an_input_error(case, seed, n, d_b, pos, bad):
    command, kind, name = case
    doc = _valid_doc(kind, seed, n, d_b)
    holder, key = (doc[name], "vectors") if isinstance(doc[name], dict) else (doc, name)
    values = np.array(holder[key], dtype=float)
    values.flat[pos % values.size] = bad
    holder[key] = values.tolist()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(json.dumps(doc))
        res = CliRunner().invoke(main, [command, str(path)])
    assert res.exit_code == 2, res.output
    assert "must be finite" in res.output
