"""Dense float64 matrix kernels: inversion, solves, initialization,
orthogonality.

Matrices are plain 2-D ``numpy.ndarray`` in float64; the weight routines
also take a stack ``(cells, n, n)`` of them. Every routine that
consumes randomness takes a ``numpy.random.Generator``; streams are built
with the counter-based Philox engine, and per-layer child streams come from
``Generator.spawn``, so they are independent of the order in which they are
drawn.
"""

from __future__ import annotations

import functools

import numpy as np

# 1-norm reciprocal condition number below which a matrix is treated as singular.
SINGULAR_RCOND = 1e-12
# Width from which ``solve`` is faster than applying the refined ``invert``:
# per layer at batch 64, one matrix or a 12-cell stack, ``invert`` wins up
# to 64, the two are within noise at 80, and ``solve`` wins from 96 (README).
SOLVE_WIDTH = 96


class SingularMatrix(Exception):
    """Raised when a matrix cannot be inverted (rank-deficient weights)."""


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; same seed gives the same stream everywhere."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.Philox(seed))


def as_matrix(values, stack: bool = False) -> np.ndarray:
    """Validate and return a float64 non-empty square matrix, or with
    ``stack`` also a stack ``(cells, n, n)`` of them.

    Rejects non-finite entries and empty or non-square shapes so that bad
    values fail at construction instead of deep inside a product chain.
    """
    m = np.asarray(values, dtype=np.float64)
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    if (m.ndim not in ((2, 3) if stack else (2,)) or m.shape[-1] != m.shape[-2]
            or 0 in m.shape):
        raise ValueError(f"expected a non-empty square matrix, got shape {m.shape}")
    return m


def invert(m: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix via LAPACK's pivoted LU in numpy.

    A matrix is rejected as singular when the LU meets an exact zero pivot,
    or when the 1-norm reciprocal condition number
    ``1 / (|m|_1 |inv(m)|_1)`` is non-finite or below ``SINGULAR_RCOND``.
    One Newton-Schulz correction step is applied to tighten the residual
    ``max|m @ inv(m) - I|`` for ill-conditioned inputs.

    A stack ``(cells, n, n)`` is inverted by the same calls on the stack,
    which run LAPACK and BLAS once per matrix, so each inverse has the bytes
    it has alone. A stack is singular if any member is, and reports the
    smallest reciprocal condition number among its members.
    """
    m = as_matrix(m, stack=True)
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        raise SingularMatrix("exact zero pivot in the LU factorization") from None
    # the 1-norms are column sums' maxima, as np.linalg.norm(., 1) computes them
    with np.errstate(all="ignore"):  # an overflow here is reported as rcond 0
        rcond = 1.0 / (np.abs(m).sum(axis=-2).max(axis=-1)
                       * np.abs(inv).sum(axis=-2).max(axis=-1))
    if m.ndim == 3:  # a one-matrix call, the common one, pays for no reduction
        rcond = rcond.min()
    if not np.isfinite(rcond) or rcond < SINGULAR_RCOND:
        raise SingularMatrix(
            f"reciprocal condition number {rcond:.3e} below {SINGULAR_RCOND:.0e}"
        )
    eye = np.eye(m.shape[-1])
    inv = inv + inv @ (eye - m @ inv)
    return inv


@functools.cache
def _probe(n: int) -> np.ndarray:
    """A fixed Gaussian column of height n, read-only. No coordinate of it
    is zero, and only a direction built against these very draws is
    orthogonal to it."""
    p = make_rng(0).standard_normal((n, 1))
    p.flags.writeable = False
    return p


def solve(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``m^-1 v`` for a near-orthogonal ``m``, without forming the inverse:
    one LU solve, then one correction ``x += m^T (v - m x)``, in which
    ``m^T`` stands in for ``m^-1`` on a residual of order u (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 12 and 14).

    ``m`` is trusted to be finite and square, as a ``Layer`` keeps it; it may
    be a stack ``(cells, n, n)`` with ``v`` ``(cells, n, b)``, and each
    member then gets the bytes of its own call. ``SingularMatrix`` is raised
    on an exact zero pivot (``invert``'s text), on a non-finite solution, and
    when the solved columns prove the condition too poor: since
    ``|x_j|_1 <= |m^-1|_1 |v_j|_1`` for every column,
    ``rcond <= 1 / (|m|_1 max_j |x_j|_1 / |v_j|_1)`` over the columns with
    ``v_j != 0``, and a bound below ``SINGULAR_RCOND`` raises, with the worst
    member's bound for a stack. The columns are those of ``v`` and one
    fixed probe column (``_probe``) solved with them, so the bound sees
    every coordinate even where ``v`` has zero rows, as the auxiliary rows
    of a target gap do. The exact rcond never exceeds the bound, so
    ``solve`` never rejects a matrix that ``invert`` accepts; it misses
    some that ``invert`` rejects, by up to a factor of about 20 in the
    condition (see README).
    """
    b = v.shape[-1]
    rhs = np.concatenate(
        [v, np.broadcast_to(_probe(m.shape[-1]), v.shape[:-1] + (1,))], axis=-1)
    try:
        x = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        raise SingularMatrix("exact zero pivot in the LU factorization") from None
    with np.errstate(all="ignore"):  # overflow is reported as singularity below
        x += m.mT @ (rhs - m @ x)
        x_norms = np.abs(x).sum(axis=-2)
        if not np.isfinite(x_norms).all():
            raise SingularMatrix("non-finite solution of a linear system")
        v_norms = np.abs(rhs).sum(axis=-2)
        growth = np.where(v_norms > 0, x_norms / v_norms, 0.0).max(axis=-1)
        bound = np.min(1.0 / (np.abs(m).sum(axis=-2).max(axis=-1) * growth))
    if not bound >= SINGULAR_RCOND:
        raise SingularMatrix(
            f"reciprocal condition number at most {bound:.3e} below {SINGULAR_RCOND:.0e}"
        )
    return x[..., :b]


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


def xavier_init(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random n x n uniform draw on +-sqrt(6 / (n + n))."""
    bound = np.sqrt(6.0 / (n + n))
    return rng.uniform(-bound, bound, size=(n, n))


def orthogonality_error(w: np.ndarray) -> float:
    """Frobenius norm of W W^T - I; zero iff rows are orthonormal."""
    w = as_matrix(w)
    return float(np.linalg.norm(w @ w.T - np.eye(w.shape[0])))
