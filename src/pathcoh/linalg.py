"""Dense complex linear algebra for small Hilbert spaces.

Everything operates on plain numpy arrays (complex128). Matrices here are
tiny (dimension <= ~64), so routines favour clarity and strict validation;
`dagger` and `eigh` also take stacks (..., d, d) and act on each matrix, so
callers can batch many small decompositions into one call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tolerances used throughout the package.
HERM_TOL = 1e-10
TRACE_TOL = 1e-9
PSD_TOL = 1e-9

# Refuse kron products beyond this total entry count.
_MAX_ENTRIES = 2**26


@dataclass(frozen=True)
class Dims:
    """Ordered list of named subsystem dimensions, e.g. A:2, B:3, D:2."""

    names: tuple[str, ...]
    sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.names) != len(self.sizes):
            raise ValueError("names and sizes must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate subsystem names: {self.names}")
        if any(s < 1 for s in self.sizes):
            raise ValueError(f"subsystem sizes must be >= 1, got {self.sizes}")

    @classmethod
    def of(cls, *pairs: tuple[str, int]) -> "Dims":
        return cls(tuple(n for n, _ in pairs), tuple(s for _, s in pairs))

    @property
    def total(self) -> int:
        return int(np.prod(self.sizes))

    def keep(self, names) -> "Dims":
        names = set(names)
        pairs = [(n, s) for n, s in zip(self.names, self.sizes) if n in names]
        return Dims(tuple(n for n, _ in pairs), tuple(s for _, s in pairs))


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def require_hermitian(m: np.ndarray) -> None:
    """ValueError unless Hermitian; FloatingPointError on NaN or Infinity."""
    dev = float(np.max(np.abs(m - dagger(m))))
    if not dev <= HERM_TOL:
        if not np.isfinite(dev):
            raise FloatingPointError("matrix has non-finite entries")
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e} > {HERM_TOL:.0e})")


def check_density_matrix(rho: np.ndarray) -> None:
    """Raise ValueError unless rho is Hermitian, unit trace and PSD within tolerance."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has non-finite entries")
    require_hermitian(rho)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace is {tr:.12g}, not 1 within {TRACE_TOL:.0e}")
    lo = float(np.linalg.eigvalsh((rho + dagger(rho)) / 2).min())
    if lo < -PSD_TOL:
        raise ValueError(f"matrix is not PSD: min eigenvalue {lo:.3e} < -{PSD_TOL:.0e}")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor (Kronecker) product of two matrices."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size * b.size > _MAX_ENTRIES:
        raise ValueError(f"kron result too large: {a.shape} x {b.shape}")
    return np.kron(a, b)


def partial_trace(rho: np.ndarray, dims: Dims, keep) -> np.ndarray:
    """Trace out every subsystem not named in `keep`.

    Kept subsystems stay in their original relative order; the trace is
    preserved.
    """
    keep = {keep} if isinstance(keep, str) else set(keep)
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    unknown = keep - set(dims.names)
    if unknown:
        raise ValueError(f"unknown subsystem names: {sorted(unknown)}")
    rho = np.asarray(rho)
    d = dims.total
    if rho.shape != (d, d):
        raise ValueError(f"dims {dims.sizes} imply shape {(d, d)}, got {rho.shape}")

    n = len(dims.sizes)
    t = rho.reshape(dims.sizes + dims.sizes)
    # Trace out the highest axis index first so earlier positions stay valid.
    traced = 0
    for idx in reversed(range(n)):
        if dims.names[idx] not in keep:
            t = np.trace(t, axis1=idx, axis2=idx + n - traced)
            traced += 1
    kd = dims.keep(keep).total
    return t.reshape(kd, kd)


def eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each in a stack.

    Returns (eigenvalues ascending, eigenvector columns). Raises on
    non-Hermitian input.
    """
    require_hermitian(h)
    w, v = np.linalg.eigh((h + dagger(h)) / 2)
    return w, v


def trace_norm(m: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix: sum of absolute eigenvalues."""
    w, _ = eigh(m)
    return float(np.sum(np.abs(w)))


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2)."""
    rho = np.asarray(rho)
    return float(np.trace(rho @ rho).real)


def clip_spectrum(w: np.ndarray) -> np.ndarray:
    """Clip eigenvalues in [-PSD_TOL, 0) to 0; anything below -PSD_TOL is an
    error, and FloatingPointError reports NaN or Infinity."""
    w = np.asarray(w, dtype=float)
    lo, hi = (float(w.min()), float(w.max())) if w.size else (0.0, 0.0)
    if not (lo >= -PSD_TOL and hi < math.inf):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise FloatingPointError("spectrum has non-finite entries")
        raise ValueError(f"genuinely negative eigenvalue {lo:.3e} (below -{PSD_TOL:.0e})")
    return np.clip(w, 0.0, None)


def shannon_entropies(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each distribution along the last axis of a
    nonnegative stack; 0 log 0 := 0, a point mass gives +0 (not -0), while
    NaN and Infinity propagate.

    One masked sum over the last axis: a zero entry adds an exact 0 term, so
    each value is bitwise that of its row by itself.
    """
    nz = p != 0.0
    return 0.0 - np.where(nz, p * np.log2(np.where(nz, p, 1.0)), 0.0).sum(axis=-1)


def shannon_entropy(p) -> float:
    """Shannon entropy in bits; 0 log 0 := 0; FloatingPointError on NaN or Infinity."""
    h = float(shannon_entropies(clip_spectrum(np.asarray(p, dtype=float))))
    if not math.isfinite(h):
        raise FloatingPointError("distribution has non-finite entries")
    return h


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits, -sum lambda log2 lambda."""
    w, _ = eigh(rho)
    w = np.clip(clip_spectrum(w), 0.0, 1.0)
    return shannon_entropy(w)
