"""Two-layer firing-rate circuit whose equilibrium realizes incremental targets.

The circuit couples a hidden population u1 and an output population u2:

    tau du1/dt = -u1 + x + nu * W^-1 u2
    tau du2/dt = -u2 + W u1 + t2          (t2 active from the onset time)

For coupling nu < 1 the system is stable; its steady state shifts by
gamma * W^-1 t2 when the target switches on, where gamma = nu / (1 - nu) is
the effective incremental factor. Integration is explicit Euler, whose fixed
point coincides with the ODE equilibrium, so long horizons converge to the
analytic steady state up to roundoff.

The inputs x and t2 must be finite. Divergence is found after integration:
the first sample whose state magnitude exceeds the limit, or is NaN, names
the time reported. Circuits that differ only in nu, x and t2 can be
integrated together, in one lockstep loop.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import linalg

_DIVERGENCE_LIMIT = 1e12


class Divergence(Exception):
    """Integration blew past the magnitude limit (unstable configuration)."""


@dataclass(frozen=True)
class CircuitConfig:
    weight: np.ndarray
    coupling: float            # nu
    tau: float
    x: np.ndarray              # constant input, present from time zero
    t2: np.ndarray             # output target, applied from `onset`
    dt: float
    duration: float
    onset: float

    def __post_init__(self):
        w = linalg.as_matrix(self.weight)
        if not 0.0 <= self.coupling < 1.0:
            raise ValueError(f"coupling nu must lie in [0, 1), got {self.coupling}")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if not 0.0 < self.dt < self.tau / 10.0:
            raise ValueError(f"dt must lie in (0, tau/10), got {self.dt}")
        if self.duration <= 0 or not 0 <= self.onset <= self.duration:
            raise ValueError("need 0 <= onset <= duration and duration > 0")
        n = w.shape[0]
        if np.asarray(self.x).shape != (n,) or np.asarray(self.t2).shape != (n,):
            raise ValueError("x and t2 must be length-n vectors")
        if not (np.isfinite(self.x).all() and np.isfinite(self.t2).all()):
            raise ValueError("x and t2 must be finite")

    @property
    def gamma(self) -> float:
        return self.coupling / (1.0 - self.coupling)


@dataclass
class Trajectory:
    times: np.ndarray          # (n_steps + 1,)
    u1: np.ndarray             # (n_steps + 1, n); (n_steps + 1, circuits, n) for a batch
    u2: np.ndarray
    # per circuit of a batch: the time of its first sample past the limit,
    # or None if it stayed within it
    diverged_at: list[float | None] = field(default_factory=list)


def simulate(cfg: CircuitConfig | Sequence[CircuitConfig]) -> Trajectory:
    """Explicit-Euler integration from rest (u1 = u2 = 0).

    A single config raises Divergence at the first sample whose state
    magnitude is not within the limit (NaN included), after integrating the
    whole horizon. A sequence of configs that share weight, tau, dt, duration
    and onset is integrated in lockstep, each circuit byte-identical to its
    own run; u1 and u2 gain a circuit axis and ``diverged_at`` reports each
    circuit's divergence instead of raising.
    """
    batch = [cfg] if isinstance(cfg, CircuitConfig) else list(cfg)
    if not batch:
        raise ValueError("need at least one circuit")
    first = batch[0]
    if any(not np.array_equal(c.weight, first.weight)
           or (c.tau, c.dt, c.duration, c.onset)
           != (first.tau, first.dt, first.duration, first.onset) for c in batch):
        raise ValueError("circuits of a batch must share weight, tau, dt, "
                         "duration and onset")
    w = np.asarray(first.weight, dtype=np.float64)
    w_inv = linalg.invert(w)
    n_steps = int(round(first.duration / first.dt))
    times = np.arange(n_steps + 1) * first.dt
    k_onset = int(np.count_nonzero(times[:-1] < first.onset))
    a = first.dt / first.tau
    nu = np.array([[c.coupling] for c in batch])
    # state[k, c] is circuit c's [u1; u2] at sample k. Per step, drive holds
    # [x; W u1] and feed [nu W^-1 u2; target], so that
    #   du = (drive - state[k] + feed) * a
    # is the IEEE operation sequence of -u1 + x + nu (W^-1 u2) and
    # -u2 + W u1 + target: x - u1 and W u1 - u2 round exactly as -u1 + x and
    # -u2 + W u1. Each stacked matmul runs one gemv per circuit, which rounds
    # as w @ v does; the gemm form V @ w.T does not.
    state = np.zeros((n_steps + 1, len(batch), 2, w.shape[0]))
    drive = np.zeros(state.shape[1:])
    drive[:, 0] = [np.asarray(c.x, dtype=np.float64) for c in batch]
    feed = np.zeros_like(drive)
    du = np.empty_like(drive)
    w_u1, w_inv_u2 = drive[:, 1, :, None], feed[:, 0, :, None]
    nu_w_inv_u2 = feed[:, 0]
    u1, u2 = state[:, :, 0], state[:, :, 1]
    steps = zip(state[:-1], state[1:], u1[:, :, :, None], u2[:, :, :, None])
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (now, after, u1_cols, u2_cols) in enumerate(steps):
            if k == k_onset:
                feed[:, 1] = [np.asarray(c.t2, dtype=np.float64) for c in batch]
            np.matmul(w, u1_cols, out=w_u1)
            np.matmul(w_inv, u2_cols, out=w_inv_u2)
            np.multiply(nu, nu_w_inv_u2, out=nu_w_inv_u2)
            np.subtract(drive, now, out=du)
            du += feed
            du *= a
            np.add(now, du, out=after)
        # max(state, -min(state)) is max |state|, NaN included, with no
        # full-size copy of the state
        peak = np.maximum(state.max(axis=(2, 3)), -state.min(axis=(2, 3)))
        bad = ~(peak <= _DIVERGENCE_LIMIT)
    diverged_at = [float(times[bad[:, c].argmax()]) if bad[:, c].any() else None
                   for c in range(len(batch))]
    if isinstance(cfg, CircuitConfig):
        if diverged_at[0] is not None:
            raise Divergence(f"state magnitude exceeded {_DIVERGENCE_LIMIT:g} "
                             f"at t={diverged_at[0]:.6g}")
        u1, u2 = u1[:, 0], u2[:, 0]
    return Trajectory(times=times, u1=u1, u2=u2, diverged_at=diverged_at)


def equilibria(cfg: CircuitConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """Closed-form steady states of u1 before and after target onset.

    Returns (y1, y1_shifted, gamma) with y1 = (1 + gamma) x and
    y1_shifted = y1 + gamma W^-1 t2.
    """
    w_inv = linalg.invert(np.asarray(cfg.weight, dtype=np.float64))
    gamma = cfg.gamma
    y1 = (1.0 + gamma) * np.asarray(cfg.x, dtype=np.float64)
    y1_shifted = y1 + gamma * (w_inv @ np.asarray(cfg.t2, dtype=np.float64))
    return y1, y1_shifted, gamma
