"""Adam optimizer operating on per-layer update lists.

Updates already point in the descent direction, so the optimizer treats
their negation as the gradient. Moments live per layer, matching weight
shapes exactly, and are updated in place. A network of stacked cells steps
every cell at once, each with its own learning rate.
"""

from __future__ import annotations

import numpy as np

from .network import Network

# The one Adam setting every rule and sweep cell trains with.
BETA1, BETA2, EPS = 0.9, 0.99, 1e-8


class AdamState:
    """First/second moment buffers and the shared step counter.

    ``eta`` is a float, or for stacked cells an array ``(cells, 1, 1)``.
    """

    def __init__(self, net: Network, eta: float | np.ndarray = 1e-4):
        if not ((0.0 < np.asarray(eta)) & (np.asarray(eta) < np.inf)).all():
            raise ValueError(f"eta must lie in (0, inf), got {eta}")
        self.eta = eta
        self.t = 0
        self.m = [np.zeros_like(layer.weight) for layer in net.layers]
        self.v = [np.zeros_like(layer.weight) for layer in net.layers]


def adam_step(state: AdamState, net: Network, deltas: list[np.ndarray]) -> None:
    """One bias-corrected Adam step, applied to the network in place.

    Mutates ``state`` and ``net`` under the caller's exclusive access. A
    non-finite new weight raises ValueError from the weight setter, and
    that layer keeps its old weight.
    """
    if len(deltas) != net.depth:
        raise ValueError(f"update has {len(deltas)} layers, network has {net.depth}")
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for i, (layer, delta) in enumerate(zip(net.layers, deltas)):
        if delta.shape != layer.weight.shape:
            raise ValueError(f"layer {i}: update shape {delta.shape} != weight "
                             f"shape {layer.weight.shape}")
        # g = -delta is folded into the constants: (1 - BETA1) * g is
        # delta * -(1 - BETA1), and in ((1 - BETA2) * g) * g the signs cancel.
        m, v = state.m[i], state.v[i]
        buf = np.multiply(delta, -(1.0 - BETA1))
        m *= BETA1
        m += buf
        np.multiply(delta, 1.0 - BETA2, out=buf)
        buf *= delta
        v *= BETA2
        v += buf
        np.divide(v, bc2, out=buf)
        np.sqrt(buf, out=buf)
        buf += EPS
        step = m / bc1
        step *= state.eta
        step /= buf
        layer.weight = np.subtract(layer.weight, step, out=step)
