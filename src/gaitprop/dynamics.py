"""Two-layer firing-rate circuit whose equilibrium realizes incremental targets.

The circuit couples a hidden population u1 and an output population u2:

    tau du1/dt = -u1 + x + nu * W^-1 u2
    tau du2/dt = -u2 + W u1 + t2          (t2 active from the onset time)

For coupling nu < 1 the system is stable; its steady state shifts by
gamma * W^-1 t2 when the target switches on, where gamma = nu / (1 - nu) is
the effective incremental factor. Integration is explicit Euler, whose fixed
point coincides with the ODE equilibrium, so long horizons converge to the
analytic steady state up to roundoff.

The inputs x and t2 must be finite. One config is one circuit run at one or
more couplings, all integrated together in one lockstep loop. Each
coupling's divergence is found after integration: the first sample whose
state magnitude exceeds the limit, or is NaN, names the time reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg

_DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True)
class CircuitConfig:
    weight: np.ndarray
    couplings: tuple[float, ...]  # nu, one circuit run per value
    tau: float
    x: np.ndarray              # constant input, present from time zero
    t2: np.ndarray             # output target, applied from `onset`
    dt: float
    duration: float
    onset: float

    def __post_init__(self):
        w = linalg.as_matrix(self.weight)
        if not self.couplings:
            raise ValueError("need at least one coupling nu")
        for nu in self.couplings:
            if not 0.0 <= nu < 1.0:
                raise ValueError(f"coupling nu must lie in [0, 1), got {nu}")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if not 0.0 < self.dt < self.tau / 10.0:
            raise ValueError(f"dt must lie in (0, tau/10), got {self.dt}")
        if self.duration <= 0 or not 0 <= self.onset <= self.duration:
            raise ValueError("need 0 <= onset <= duration and duration > 0")
        if not self.duration / self.dt <= np.iinfo(np.intp).max:  # an infinite count too
            raise ValueError(f"duration / dt = {self.duration / self.dt:g} steps is past "
                             "numpy's largest index")
        n = w.shape[0]
        if np.asarray(self.x).shape != (n,) or np.asarray(self.t2).shape != (n,):
            raise ValueError("x and t2 must be length-n vectors")
        if not (np.isfinite(self.x).all() and np.isfinite(self.t2).all()):
            raise ValueError("x and t2 must be finite")


@dataclass
class Trajectory:
    times: np.ndarray          # (n_steps + 1,)
    u1: np.ndarray             # (n_steps + 1, couplings, n)
    u2: np.ndarray
    # per coupling: the time of its first sample past the limit, or None if
    # it stayed within it
    diverged_at: list[float | None]


def simulate(cfg: CircuitConfig) -> Trajectory:
    """Explicit-Euler integration from rest (u1 = u2 = 0) at every coupling
    in lockstep, each byte-identical to its own step-by-step run."""
    w = np.asarray(cfg.weight, dtype=np.float64)
    w_inv = linalg.invert(w)
    n_steps = int(round(cfg.duration / cfg.dt))
    times = np.arange(n_steps + 1) * cfg.dt
    k_onset = int(np.count_nonzero(times[:-1] < cfg.onset))
    a = cfg.dt / cfg.tau
    nu = np.array(cfg.couplings, dtype=np.float64).reshape(-1, 1)
    # state[k, c] is coupling c's [u1; u2] at sample k. Per step, drive holds
    # [x; W u1] and feed [nu W^-1 u2; target], so that
    #   du = (drive - state[k] + feed) * a
    # is the IEEE operation sequence of -u1 + x + nu (W^-1 u2) and
    # -u2 + W u1 + target: x - u1 and W u1 - u2 round exactly as -u1 + x and
    # -u2 + W u1. Each stacked matmul runs one gemv per coupling, which rounds
    # as w @ v does; the gemm form V @ w.T does not.
    state = np.zeros((n_steps + 1, len(nu), 2, w.shape[0]))
    drive = np.zeros(state.shape[1:])
    drive[:, 0] = cfg.x
    feed = np.zeros_like(drive)
    du = np.empty_like(drive)
    w_u1, w_inv_u2 = drive[:, 1, :, None], feed[:, 0, :, None]
    nu_w_inv_u2 = feed[:, 0]
    u1, u2 = state[:, :, 0], state[:, :, 1]
    steps = zip(state[:-1], state[1:], u1[:, :, :, None], u2[:, :, :, None])
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (now, after, u1_cols, u2_cols) in enumerate(steps):
            if k == k_onset:
                feed[:, 1] = cfg.t2
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
    diverged_at = [float(times[col.argmax()]) if col.any() else None for col in bad.T]
    return Trajectory(times=times, u1=u1, u2=u2, diverged_at=diverged_at)


def equilibria(cfg: CircuitConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form steady states of u1 before and after target onset, one
    row per coupling.

    Returns (y1, y1_shifted, gamma) with gamma = nu / (1 - nu) per coupling,
    y1 = (1 + gamma) x and y1_shifted = y1 + gamma W^-1 t2.
    """
    w_inv = linalg.invert(np.asarray(cfg.weight, dtype=np.float64))
    nu = np.array(cfg.couplings, dtype=np.float64)
    gamma = nu / (1.0 - nu)
    y1 = (1.0 + gamma)[:, None] * np.asarray(cfg.x, dtype=np.float64)
    y1_shifted = y1 + gamma[:, None] * (w_inv @ np.asarray(cfg.t2, dtype=np.float64))
    return y1, y1_shifted, gamma
