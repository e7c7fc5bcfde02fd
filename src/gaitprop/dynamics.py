"""Two-layer firing-rate circuit whose equilibrium realizes incremental targets.

The circuit couples a hidden population u1 and an output population u2:

    tau du1/dt = -u1 + x + nu * W^-1 u2
    tau du2/dt = -u2 + W u1 + t2          (t2 active from the onset time)

For coupling nu < 1 the system is stable; its steady state shifts by
gamma * W^-1 t2 when the target switches on, where gamma = nu / (1 - nu) is
the effective incremental factor. Integration is explicit Euler, whose fixed
point coincides with the ODE equilibrium, so long horizons converge to the
analytic steady state up to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if w.shape[0] != w.shape[1]:
            raise ValueError("circuit weight must be square")
        if not 0.0 <= self.coupling < 1.0:
            raise ValueError("coupling nu must lie in [0, 1)")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if not self.dt < self.tau / 10.0:
            raise ValueError("dt must be below tau/10 for a stable transient")
        if self.duration <= 0 or not 0 <= self.onset <= self.duration:
            raise ValueError("need 0 <= onset <= duration and duration > 0")
        n = w.shape[0]
        if np.asarray(self.x).shape != (n,) or np.asarray(self.t2).shape != (n,):
            raise ValueError("x and t2 must be length-n vectors")

    @property
    def gamma(self) -> float:
        return self.coupling / (1.0 - self.coupling)


@dataclass
class Trajectory:
    times: np.ndarray          # (n_steps + 1,)
    u1: np.ndarray             # (n_steps + 1, n)
    u2: np.ndarray


def simulate(cfg: CircuitConfig) -> Trajectory:
    """Explicit-Euler integration from rest (u1 = u2 = 0)."""
    w = np.asarray(cfg.weight, dtype=np.float64)
    w_inv = linalg.invert(w)
    x = np.asarray(cfg.x, dtype=np.float64)
    t2 = np.asarray(cfg.t2, dtype=np.float64)
    n_steps = int(round(cfg.duration / cfg.dt))
    times = np.arange(n_steps + 1) * cfg.dt
    u1 = np.zeros((n_steps + 1, w.shape[0]))
    u2 = np.zeros_like(u1)
    a = cfg.dt / cfg.tau
    for k in range(n_steps):
        target = t2 if times[k] >= cfg.onset else 0.0
        du1 = -u1[k] + x + cfg.coupling * (w_inv @ u2[k])
        du2 = -u2[k] + w @ u1[k] + target
        u1[k + 1] = u1[k] + a * du1
        u2[k + 1] = u2[k] + a * du2
        if max(np.abs(u1[k + 1]).max(), np.abs(u2[k + 1]).max()) > _DIVERGENCE_LIMIT:
            raise Divergence(f"state magnitude exceeded {_DIVERGENCE_LIMIT:g} "
                             f"at t={times[k + 1]:.6g}")
    return Trajectory(times=times, u1=u1, u2=u2)


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
