"""Shared builders for networks, controlled random matrices, and
finite-difference, exact-inverse, absolute-target, Euler-loop, masked
regularizer, Adam-step and select-based leaky-ReLU kernel oracles."""

import numpy as np
import pytest

from gaitprop import (Activation, ForwardTrace, Layer, Network, TargetStack, build_network,
                      forward)
from gaitprop.dynamics import _DIVERGENCE_LIMIT, CircuitConfig, Trajectory
from gaitprop.linalg import invert, make_rng, orthogonal_init
from gaitprop.network import _as_columns


def controlled_matrix(n: int, rng: np.random.Generator,
                      smin: float = 0.5, smax: float = 2.0) -> np.ndarray:
    """Random invertible matrix with singular values in [smin, smax].

    Keeps condition numbers bounded so product chains in the linear
    equivalence tests stay far from the float64 noise floor.
    """
    u = orthogonal_init(n, rng)
    v = orthogonal_init(n, rng)
    return u @ np.diag(rng.uniform(smin, smax, n)) @ v


def net_from_weights(weights, classes, kind="leaky_relu", alpha=0.01) -> Network:
    act = Activation(kind, alpha) if kind == "leaky_relu" else Activation("linear")
    layers = []
    for i, w in enumerate(weights):
        fwd = weights[i + 1].shape[0] if i + 1 < len(weights) else classes
        layers.append(Layer(np.asarray(w, dtype=np.float64), act, fwd))
    return Network(layers)


def make_net(widths, classes, kind="leaky_relu", alpha=0.01,
             init="orthogonal", seed=0) -> Network:
    act = Activation(kind, alpha) if kind == "leaky_relu" else Activation("linear")
    return build_network(list(widths), classes, act, init, seed)


def quadratic_loss(net: Network, x: np.ndarray, t: np.ndarray) -> float:
    out = forward(net, x).output()[:, 0]
    return float(0.5 * np.sum((out - t) ** 2))


def fd_weight_grad(loss_fn, net: Network, layer_idx: int, step: float = 1e-6
                   ) -> np.ndarray:
    """Central finite differences of a scalar loss w.r.t. one weight matrix."""
    layer = net.layers[layer_idx]
    base = layer.weight.copy()
    grad = np.zeros_like(base)
    for i in range(base.shape[0]):
        for j in range(base.shape[1]):
            w = base.copy()
            w[i, j] = base[i, j] + step
            layer.weight = w
            up = loss_fn()
            w[i, j] = base[i, j] - step
            layer.weight = w
            down = loss_fn()
            grad[i, j] = (up - down) / (2 * step)
    layer.weight = base
    return grad


def activation_inverse(act: Activation, y: np.ndarray) -> np.ndarray:
    """Exact inverse of a strictly increasing activation, elementwise."""
    if act.kind == "linear":
        return np.asarray(y, dtype=np.float64).copy()
    return np.where(y >= 0, y, y / act.slope)


def leaky_forward_oracle(act: Activation, x: np.ndarray) -> np.ndarray:
    """The leaky ReLU as a select on the sign mask; ``Activation.forward``
    must match it byte for byte."""
    return np.where(x >= 0, x, act.slope * x)


def leaky_deriv_oracle(act: Activation, x: np.ndarray) -> np.ndarray:
    """The leaky-ReLU gain as a select; ``Activation.deriv`` must match it."""
    return np.where(x >= 0, 1.0, act.slope)


def inverse_displacement_oracle(act: np.ndarray, disp: np.ndarray, slope: float):
    """f^-1(act) - f^-1(act - disp) as one select per pair of linear pieces;
    ``rules._inverse_displacement`` must match it byte for byte."""
    moved = act - disp
    before = act >= 0
    after = moved >= 0
    v = np.where(before, np.where(after, disp, act - moved / slope),
                 np.where(after, act / slope - moved, disp / slope))
    return v, before != after


def local_updates_oracle(trace: ForwardTrace, errs, gamma: float = 1.0):
    """The local update as ``-(d x^T) / n * s`` with every scale applied;
    ``rules._local_updates`` must match it byte for byte."""
    top = trace.depth - 1
    deltas = []
    for l in range(trace.depth):
        aux = trace.activations[l].shape[0] - errs[l].shape[0]
        d = trace.gains[l] * np.pad(errs[l], ((0, aux), (0, 0)))
        delta = -(d @ trace.layer_input(l).T) / trace.n_samples
        delta *= gamma ** -(top - l)
        deltas.append(delta)
    return deltas


def inverse_layer(layer: Layer, y: np.ndarray) -> np.ndarray:
    """Exact pre-image of a full activation vector: W^-1 f^-1(y)."""
    y = _as_columns(y, layer.total_width, "activation")
    return layer.weight_inv @ activation_inverse(layer.activation, y)


def augmented_inverse(layer: Layer, target_forward: np.ndarray,
                      trace_aux: np.ndarray) -> np.ndarray:
    """Invert a layer given a target only for its forward units.

    The auxiliary coordinates are filled with the activations recorded on
    the forward pass, which is what makes the square inversion well posed.
    The rules' gap recursion is held to this independent chain.
    """
    target_forward = _as_columns(target_forward, layer.forward_width, "target_forward")
    trace_aux = _as_columns(trace_aux, layer.aux_width, "trace_aux") if layer.aux_width \
        else np.zeros((0, target_forward.shape[1]))
    if trace_aux.shape[1] != target_forward.shape[1]:
        raise ValueError("target and auxiliary batch sizes differ")
    full = np.vstack([target_forward, trace_aux])
    return inverse_layer(layer, full)


def loss_to_target(y_out: np.ndarray, loss_gradient: np.ndarray) -> np.ndarray:
    """Rewrite an arbitrary output-loss gradient as a quadratic-style target.

    Feeding the returned target to any rule reproduces the gradient of the
    original loss, since output - target equals the loss gradient.
    """
    y = np.asarray(y_out, dtype=np.float64)
    g = np.asarray(loss_gradient, dtype=np.float64)
    if y.shape != g.shape:
        raise ValueError(f"shape mismatch {y.shape} vs {g.shape}")
    return y - g


def stack_targets(trace: ForwardTrace, stack: TargetStack) -> list[np.ndarray]:
    """Absolute per-layer targets of a target stack: forward part minus gap."""
    return [trace.forward_part(l) - gap for l, gap in enumerate(stack.gaps)]


def min_abs_preactivation(net: Network, x: np.ndarray) -> float:
    trace = forward(net, x)
    return min(float(np.abs(layer.weight @ trace.layer_input(l)).min())
               for l, layer in enumerate(net.layers))


def sample_away_from_kinks(net: Network, rng: np.random.Generator,
                           margin: float = 1e-4, tries: int = 200) -> np.ndarray:
    """Input whose pre-activations all sit at least `margin` from zero, so
    finite differencing never steps across a leaky-ReLU kink."""
    for _ in range(tries):
        x = rng.uniform(0.0, 1.0, net.input_width)
        if min_abs_preactivation(net, x) > margin:
            return x
    raise AssertionError("no kink-free sample found; widen margin or reseed")


def euler_oracle(cfg: CircuitConfig, nu: float) -> Trajectory:
    """The circuit's Euler loop at one coupling, written step by step, with
    the divergence check inside the loop; ``simulate`` must match it byte for
    byte. A diverging run stops at the first sample past the limit (NaN
    included) and reports that sample's time."""
    w = np.asarray(cfg.weight, dtype=np.float64)
    w_inv = invert(w)
    x = np.asarray(cfg.x, dtype=np.float64)
    t2 = np.asarray(cfg.t2, dtype=np.float64)
    n_steps = int(round(cfg.duration / cfg.dt))
    times = np.arange(n_steps + 1) * cfg.dt
    u1 = np.zeros((n_steps + 1, w.shape[0]))
    u2 = np.zeros_like(u1)
    a = cfg.dt / cfg.tau
    for k in range(n_steps):
        target = t2 if times[k] >= cfg.onset else 0.0
        du1 = -u1[k] + x + nu * (w_inv @ u2[k])
        du2 = -u2[k] + w @ u1[k] + target
        u1[k + 1] = u1[k] + a * du1
        u2[k + 1] = u2[k] + a * du2
        if not (np.abs(u1[k + 1]).max() <= _DIVERGENCE_LIMIT
                and np.abs(u2[k + 1]).max() <= _DIVERGENCE_LIMIT):
            return Trajectory(times=times, u1=u1, u2=u2,
                              diverged_at=[float(times[k + 1])])
    return Trajectory(times=times, u1=u1, u2=u2, diverged_at=[None])


def masked_ortho_oracle(w: np.ndarray, lam: float) -> tuple[float, np.ndarray]:
    """The mask-mode regularizer with the mask J - I built and multiplied in,
    as (penalty, gradient); ``ortho_penalty`` and ``ortho_reg_grad`` must
    match it byte for byte."""
    off = (w @ w.T) * (1.0 - np.eye(w.shape[0]))
    return float(lam * np.sum(off * off)), 4.0 * lam * (off @ w)


def adam_step_oracle(state, net, deltas) -> None:
    """Adam written with fresh arrays for every moment and term;
    ``adam_step`` must match it byte for byte."""
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for i, (layer, delta) in enumerate(zip(net.layers, deltas)):
        g = -delta
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * g * g
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        layer.weight = layer.weight - state.eta * m_hat / (np.sqrt(v_hat) + state.eps)


@pytest.fixture
def rng():
    return make_rng(12345)
