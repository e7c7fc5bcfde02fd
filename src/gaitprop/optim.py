"""Adam optimizer operating on per-layer update lists.

Updates already point in the descent direction, so the optimizer treats
their negation as the gradient. Moments live per layer, matching weight
shapes exactly, and are updated in place.
"""

from __future__ import annotations

import numpy as np

from .network import Network


class AdamState:
    """First/second moment buffers and the shared step counter."""

    def __init__(self, net: Network, eta: float = 1e-4, beta1: float = 0.9,
                 beta2: float = 0.99, eps: float = 1e-8):
        if not 0.0 < eta < np.inf:
            raise ValueError(f"eta must lie in (0, inf), got {eta}")
        if not 0.0 < eps < np.inf:
            raise ValueError(f"eps must lie in (0, inf), got {eps}")
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        self.eta = eta
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(layer.weight) for layer in net.layers]
        self.v = [np.zeros_like(layer.weight) for layer in net.layers]


def adam_step(state: AdamState, net: Network, deltas: list[np.ndarray]
              ) -> tuple[AdamState, Network]:
    """One bias-corrected Adam step, applied to the network in place.

    Mutates ``state`` and ``net`` under the caller's exclusive access and
    returns them for chaining.
    """
    if len(deltas) != net.depth:
        raise ValueError(f"update has {len(deltas)} layers, network has {net.depth}")
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for i, (layer, delta) in enumerate(zip(net.layers, deltas)):
        if delta.shape != layer.weight.shape:
            raise ValueError(f"layer {i}: update shape {delta.shape} != weight "
                             f"shape {layer.weight.shape}")
        # g = -delta is folded into the constants: (1 - beta1) * g is
        # delta * -(1 - beta1), and in ((1 - beta2) * g) * g the signs cancel.
        m, v = state.m[i], state.v[i]
        buf = np.multiply(delta, -(1.0 - state.beta1))
        m *= state.beta1
        m += buf
        np.multiply(delta, 1.0 - state.beta2, out=buf)
        buf *= delta
        v *= state.beta2
        v += buf
        np.divide(v, bc2, out=buf)
        np.sqrt(buf, out=buf)
        buf += state.eps
        step = m / bc1
        step *= state.eta
        step /= buf
        layer.weight = np.subtract(layer.weight, step, out=step)
    return state, net
