"""Dense float64 matrix kernels: inversion, initialization, orthogonality.

Matrices are plain 2-D ``numpy.ndarray`` in float64. Every routine that
consumes randomness takes a ``numpy.random.Generator``; streams are built
with the counter-based Philox engine so that per-layer child streams are
independent of the order in which they are drawn.
"""

from __future__ import annotations

import numpy as np

# 1-norm reciprocal condition number below which a matrix is treated as singular.
SINGULAR_RCOND = 1e-12


class SingularMatrix(Exception):
    """Raised when a matrix cannot be inverted (rank-deficient weights)."""


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; same seed gives the same stream everywhere."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.Philox(seed))


def split_rng(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """n independent child streams, insensitive to consumption order."""
    return list(rng.spawn(n))


def as_matrix(values) -> np.ndarray:
    """Validate and return a float64 non-empty square matrix.

    Rejects non-finite entries and empty or non-square shapes so that bad
    values fail at construction instead of deep inside a product chain.
    """
    m = np.asarray(values, dtype=np.float64)
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a non-empty square matrix, got shape {m.shape}")
    return m


def invert(m: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix via LAPACK's pivoted LU in numpy.

    A matrix is rejected as singular when the LU meets an exact zero pivot,
    or when the 1-norm reciprocal condition number
    ``1 / (|m|_1 |inv(m)|_1)`` is non-finite or below ``SINGULAR_RCOND``.
    One Newton-Schulz correction step is applied to tighten the residual
    ``max|m @ inv(m) - I|`` for ill-conditioned inputs.
    """
    m = as_matrix(m)
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        raise SingularMatrix("exact zero pivot in the LU factorization") from None
    # the 1-norms are column sums' maxima, as np.linalg.norm(., 1) computes them
    with np.errstate(all="ignore"):  # an overflow here is reported as rcond 0
        rcond = 1.0 / (np.abs(m).sum(axis=0).max() * np.abs(inv).sum(axis=0).max())
    if not np.isfinite(rcond) or rcond < SINGULAR_RCOND:
        raise SingularMatrix(
            f"reciprocal condition number {rcond:.3e} below {SINGULAR_RCOND:.0e}"
        )
    eye = np.eye(m.shape[0])
    inv = inv + inv @ (eye - m @ inv)
    return inv


def orthogonal_init(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random n x n orthogonal matrix, Haar-distributed and seed-deterministic.

    QR of a standard Gaussian matrix; the R diagonal signs are folded into Q
    so the factorization (and hence the draw) is unique.
    """
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return q * d


def xavier_init(n_rows: int, n_cols: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw on +-sqrt(6 / (n_rows + n_cols))."""
    bound = np.sqrt(6.0 / (n_rows + n_cols))
    return rng.uniform(-bound, bound, size=(n_rows, n_cols))


def orthogonality_error(w: np.ndarray) -> float:
    """Frobenius norm of W W^T - I; zero iff rows are orthonormal."""
    w = as_matrix(w)
    return float(np.linalg.norm(w @ w.T - np.eye(w.shape[0])))
