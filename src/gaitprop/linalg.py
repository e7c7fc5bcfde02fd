"""Dense float64 matrix kernels: inversion, initialization, orthogonality.

Matrices are plain 2-D ``numpy.ndarray`` in float64. Every routine that
consumes randomness takes a ``numpy.random.Generator``; streams are built
with the counter-based Philox engine so that per-layer child streams are
independent of the order in which they are drawn.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg as _sla

# Relative pivot threshold below which a matrix is treated as singular.
SINGULAR_PIVOT_RTOL = 1e-12


class SingularMatrix(Exception):
    """Raised when a matrix cannot be inverted (rank-deficient weights)."""


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; same seed gives the same stream everywhere."""
    return np.random.Generator(np.random.Philox(seed))


def split_rng(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """n independent child streams, insensitive to consumption order."""
    return list(rng.spawn(n))


def as_matrix(values) -> np.ndarray:
    """Validate and return a float64 2-D matrix.

    Rejects empty shapes and non-finite entries so that bad values fail at
    construction instead of deep inside a product chain.
    """
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be >= 1, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def invert(m: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix via pivoted LU.

    A matrix is rejected as singular when any U-factor pivot falls below
    ``SINGULAR_PIVOT_RTOL`` times the largest entry magnitude. One
    Newton-Schulz correction step is applied to tighten the residual
    ``max|m @ inv(m) - I|`` for ill-conditioned inputs.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"invert expects a square matrix, got {m.shape}")
    scale = np.abs(m).max()
    if scale == 0.0:
        raise SingularMatrix("zero matrix")
    with warnings.catch_warnings():
        # A zero pivot is reported through our own SingularMatrix below.
        warnings.simplefilter("ignore", _sla.LinAlgWarning)
        lu, piv = _sla.lu_factor(m, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if not np.all(np.isfinite(lu)) or pivots.min() < SINGULAR_PIVOT_RTOL * scale:
        raise SingularMatrix(
            f"pivot {pivots.min():.3e} below {SINGULAR_PIVOT_RTOL:.0e} * max|entry|"
        )
    eye = np.eye(m.shape[0])
    inv = _sla.lu_solve((lu, piv), eye, check_finite=False)
    inv = inv + inv @ (eye - m @ inv)
    return inv


def orthogonal_init(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random n x n orthogonal matrix, Haar-distributed and seed-deterministic.

    QR of a standard Gaussian matrix; the R diagonal signs are folded into Q
    so the factorization (and hence the draw) is unique.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return q * d


def xavier_init(n_rows: int, n_cols: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw on +-sqrt(6 / (n_rows + n_cols))."""
    if n_rows < 1 or n_cols < 1:
        raise ValueError("dimensions must be >= 1")
    bound = np.sqrt(6.0 / (n_rows + n_cols))
    return rng.uniform(-bound, bound, size=(n_rows, n_cols))


def orthogonality_error(w: np.ndarray) -> float:
    """Frobenius norm of W W^T - I; zero iff rows are orthonormal."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square matrix, got {w.shape}")
    return float(np.linalg.norm(w @ w.T - np.eye(w.shape[0])))
