"""Learning rules: backprop, target propagation, and incremental variants.

All rules are pure functions of (network, trace, output target, gamma) and
return a list of per-layer weight updates, one array per layer, that already
point in the descent direction; the optimizer applies the learning rate.

Every rule is one backward recursion ``e_{l-1} = P_l(e_l)`` from
``e = output - target``, followed by one local update
``dW_l = -s_l (g_l * pad(e_l)) x_l^T / n``. Only the propagation operator
``P_l`` and the scale ``s_l`` differ:

* bp: ``P_l = W^T (g * pad(.))``, ``s_l = 1``;
* tp, itp, gait: ``P_l = W^-1`` after the exact inverse-activation
  displacement of ``pad(blend_l * .)``, with blend 1 (tp), gamma (itp) or
  gamma * g^2 (gait), and ``s_l = gamma^-(top - l)`` for itp and gait
  (1 for tp), which restores bp's update magnitudes layer by layer.

For the target rules ``e_l`` is the gap (forward activation minus target).
Computing gaps directly matters: a gap at the deepest layer of a
gamma=1e-3, depth-4 network is of order gamma^3 = 1e-9 relative to the
activations, so forming absolute targets first and subtracting would lose
half the mantissa to cancellation. The gap recursion keeps every
intermediate at the scale of the gap itself.

Every array may carry a leading cell axis (see :mod:`gaitprop.network`):
products and slices act on the last two axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .network import ForwardTrace, Network, _as_columns


@dataclass
class TargetStack:
    """Per-layer gaps (forward activation minus target) of one target rule.

    ``gaps`` is the numerically primary representation (see module
    docstring); a layer's target is ``trace.forward_part(l) - gaps[l]``.
    ``sign_flips`` counts, per sample, how many units crossed the leaky-ReLU
    kink while blending; zero means the piecewise-linear inversion was exact
    for that sample. ``gamma`` is the base of the rule's update scale
    ``s_l = gamma^-(top - l)``: 1.0 for tp, the blend factor for itp and gait.
    """

    flavor: str
    gamma: float
    gaps: list[np.ndarray]
    sign_flips: np.ndarray


def _pad_rows(x: np.ndarray, total: int) -> np.ndarray:
    """Extend a forward-coordinate block with zero rows for auxiliary units."""
    if x.shape[-2] == total:
        return x
    out = np.zeros(x.shape[:-2] + (total, x.shape[-1]))
    out[..., : x.shape[-2], :] = x
    return out


def _backward(trace: ForwardTrace, t_out: np.ndarray, propagate) -> list[np.ndarray]:
    """The one backward recursion: ``e_{l-1} = propagate(l, e_l)`` from
    ``output - target``; each ``e_l`` lives on layer l's forward units."""
    t = _as_columns(t_out, trace.forward_widths[-1], "output target")
    if t.shape[-1] != trace.n_samples:
        raise ValueError(f"target batch {t.shape[-1]} != trace batch {trace.n_samples}")
    errs: list[np.ndarray] = [np.empty(0)] * trace.depth
    errs[-1] = trace.output() - t
    for l in range(trace.depth - 1, 0, -1):
        errs[l - 1] = propagate(l, errs[l])
    return errs


def update_scale(gamma: float, depth: int, layer: int) -> float:
    """``s_l = gamma^-(depth - 1 - layer)``, the factor that restores bp's
    update size at layer ``layer`` of a ``depth``-layer network.

    ``gamma`` is the fraction of the distance toward the target that a
    blended activation moves per layer, in (0, 1]: unscaled, a deep layer's
    itp or gait update is of order gamma^(depth-1) of bp's, far below Adam's
    epsilon. ValueError for a gamma outside (0, 1], or when the scale
    overflows float64, which it first does at layer 0."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    try:
        return float(gamma) ** -(depth - 1 - layer)
    except OverflowError:
        raise ValueError(f"gamma {gamma} is too small for depth {depth}: "
                         f"gamma^-{depth - 1} overflows float64") from None


def _local_updates(
    trace: ForwardTrace, errs: list[np.ndarray], gamma: float = 1.0,
    gained: dict[int, np.ndarray] | None = None,
) -> list[np.ndarray]:
    """The one local update, with ``s_l = gamma^-(top - l)``, one delta per
    layer; batched traces yield the mean of the per-sample updates.

    ``gained[l]``, where the propagation already formed it, is the gained
    error ``g_l * pad(e_l)`` of layer l. The sign rides on the divisor,
    since ``(-a) / n == a / (-n)`` in IEEE arithmetic, and a scale of
    exactly 1 (bp, tp and every top layer) is not applied, so the update
    takes one pass after the product."""
    n = trace.n_samples
    deltas = []
    for l in range(trace.depth):
        if gained and l in gained:
            d = gained[l]
        else:
            d = trace.gains[l] * _pad_rows(errs[l], trace.activations[l].shape[-2])
        delta = d @ trace.layer_input(l).mT
        np.divide(delta, -n, out=delta)
        scale = update_scale(gamma, trace.depth, l)
        if scale != 1.0:
            delta *= scale
        deltas.append(delta)
    return deltas


def bp_updates(net: Network, trace: ForwardTrace, t_out: np.ndarray) -> list[np.ndarray]:
    """Gradient-descent updates for the quadratic output loss.

    The error goes down through ``W^T`` after the gain. Auxiliary output
    units receive no error; at every layer the backward product is
    restricted to the forward sub-block, mirroring the forward pass.
    """
    gained = {}

    def propagate(l: int, err: np.ndarray) -> np.ndarray:
        d = gained[l] = trace.gains[l] * _pad_rows(err, net.layers[l].total_width)
        return net.layers[l].weight.mT @ d

    return _local_updates(trace, _backward(trace, t_out, propagate), 1.0, gained)


def _inverse_displacement(act: np.ndarray, disp: np.ndarray, slope: float):
    """Exact f^-1(act) - f^-1(act - disp) for the piecewise-linear activation.

    With the slopes ``g_b`` at ``act`` and ``g_a`` at ``moved = act - disp``
    (1 or ``slope``), the result is ``disp / g_b`` when both points share a
    linear piece, with no cancellation, and ``act / g_b - moved / g_a`` when
    they straddle the kink. Division by 1.0 is exact, so each case does the
    operations of its own branch-wise formula. The slopes come from
    branch-free maxima, and the one select is on the crossing mask, which
    is rare for itp and gait. Returns the displacement in pre-activation
    space and the per-entry kink-crossing mask.
    """
    moved = act - disp
    before = act >= 0
    after = moved >= 0
    crossed = before != after
    g_b = np.maximum(before, slope)
    g_a = np.maximum(after, slope)
    v = np.where(crossed, act / g_b - moved / g_a, disp / g_b)
    return v, crossed


def _target_stack(
    net: Network, trace: ForwardTrace, t_out: np.ndarray, blend, flavor: str,
    gamma: float,
) -> TargetStack:
    """Gap recursion of the target rules: layer l's activation moves
    ``blend(l) * gap`` toward its target (auxiliary units stay put) and the
    exact pre-image of that displacement is the next gap. A gamma without a
    finite update scale fails here, before anything propagates."""
    update_scale(gamma, trace.depth, 0)
    flips = np.zeros(trace.inputs.shape[:-2] + (trace.n_samples,), dtype=np.int64)

    def propagate(l: int, gap: np.ndarray) -> np.ndarray:
        layer = net.layers[l]
        disp = _pad_rows(blend(l) * gap, layer.total_width)
        if layer.activation.kind == "linear":
            v = disp
        else:
            v, crossed = _inverse_displacement(
                trace.activations[l], disp, layer.activation.slope
            )
            flips[:] += crossed.sum(axis=-2)
        return layer.weight_inv @ v

    gaps = _backward(trace, t_out, propagate)
    return TargetStack(flavor=flavor, gamma=gamma, gaps=gaps, sign_flips=flips)


def tp_targets(net: Network, trace: ForwardTrace, t_out: np.ndarray) -> TargetStack:
    """Layer-wise targets from exact inversion of the output target: the
    gap recursion with the whole gap blended in at every layer."""
    return _target_stack(net, trace, t_out, lambda l: 1.0, "tp", 1.0)


def itp_targets(
    net: Network, trace: ForwardTrace, t_out: np.ndarray, gamma: float
) -> TargetStack:
    """Incremental targets: blend a fixed fraction gamma toward the target
    before each inversion. gamma = 1 degenerates to plain target propagation."""
    return _target_stack(net, trace, t_out, lambda l: gamma, "itp", gamma)


def gait_targets(
    net: Network, trace: ForwardTrace, t_out: np.ndarray, gamma: float
) -> TargetStack:
    """Gradient-adjusted incremental targets: the blend fraction is
    gamma times the squared activation gain, per unit. It must stay below
    1, so gamma must: a gain is at most 1 (a leaky slope lies in (0, 1) and
    a linear gain is 1), so no blend exceeds gamma."""
    if not gamma < 1.0:
        raise ValueError(f"gait needs gamma < 1 (its blend is gamma * gain^2), got {gamma}")
    return _target_stack(
        net, trace, t_out,
        lambda l: gamma * trace.gains[l][..., : trace.forward_widths[l], :] ** 2,
        "gait", gamma)


def _target_updates(
    trace: ForwardTrace, targets: TargetStack, flavor: str
) -> list[np.ndarray]:
    if targets.flavor != flavor:
        raise ValueError(f"expected {flavor} targets, got {targets.flavor!r}")
    return _local_updates(trace, targets.gaps, targets.gamma)


def tp_updates(trace: ForwardTrace, targets: TargetStack) -> list[np.ndarray]:
    """Local delta-rule updates toward propagated targets; auxiliary rows
    stay exactly zero because auxiliary targets equal the forward pass."""
    return _target_updates(trace, targets, "tp")


def itp_updates(trace: ForwardTrace, targets: TargetStack) -> list[np.ndarray]:
    """Updates from incremental targets, rescaled by the stack's own
    gamma^-(depth-1-l) so magnitudes match backprop layer by layer."""
    return _target_updates(trace, targets, "itp")


def gait_updates(trace: ForwardTrace, targets: TargetStack) -> list[np.ndarray]:
    """Updates from gradient-adjusted targets, rescaled as for itp_updates.
    With orthogonal weights and no kink crossings these equal bp_updates."""
    return _target_updates(trace, targets, "gait")


def _check_lambda(lam: float) -> None:
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lambda must be non-negative and finite, got {lam}")


def ortho_penalty(w: np.ndarray, lam: float, mode: str = "mask") -> float:
    """Row-orthogonality penalty lambda * ||W W^T (J - I)||^2.

    ``mode="mask"`` reads (J - I) as an elementwise mask that discards the
    diagonal of W W^T (the reading that directly penalizes row cross
    products); ``mode="product"`` reads it as a matrix product.
    """
    w = linalg.as_matrix(w)
    _check_lambda(lam)
    off = w @ w.T
    if mode == "mask":
        # the diagonal is a sum of squares, so zeroing it gives the same
        # +0.0 that multiplying by the mask does
        np.fill_diagonal(off, 0.0)
    elif mode == "product":
        off = off @ (1.0 - np.eye(w.shape[0]))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return float(lam * np.sum(off * off))


def ortho_reg_grad(w: np.ndarray, lam: float, mode: str = "mask") -> np.ndarray:
    """Gradient of ortho_penalty with respect to W (same mode semantics),
    for one matrix or each of a stack ``(cells, n, n)``."""
    w = linalg.as_matrix(w, stack=True)
    _check_lambda(lam)
    if lam == 0.0:
        return np.zeros_like(w)
    n = w.shape[-1]
    gram = w @ w.mT
    if mode == "mask":
        gram.reshape(-1, n * n)[:, :: n + 1] = 0.0  # each diagonal, as in ortho_penalty
        grad = gram @ w
        grad *= 4.0 * lam
        return grad
    if mode == "product":
        k = 1.0 - np.eye(n)
        k2 = k @ k
        x = gram @ k2 + k2 @ gram
        grad = x @ w
        grad *= 2.0 * lam
        return grad
    raise ValueError(f"unknown mode {mode!r}")


class CorrectionMatrices(NamedTuple):
    """Linear operators mapping incremental updates, scaled by
    ``update_scale``, onto backprop updates."""

    itp: np.ndarray
    gait: np.ndarray


def correction_matrices(
    net: Network, trace: ForwardTrace, layer_index: int
) -> CorrectionMatrices:
    """Exact operators relating incremental updates at one layer to backprop.

    The gait operator collapses to the identity when all weight matrices are
    orthogonal; the itp operator does not, which is what motivates the
    gain-squared blend. Requires a single-sample trace (the operators are
    activation-dependent) and auxiliary-free layers strictly between
    ``layer_index`` and the output, so the products stay square.
    """
    depth = trace.depth
    if not 0 <= layer_index < depth:
        raise ValueError(f"layer_index {layer_index} out of range")
    if trace.n_samples != 1:
        raise ValueError("correction matrices are defined per sample")
    for l in range(layer_index, depth - 1):
        if net.layers[l].forward_width != net.layers[l].total_width:
            raise ValueError(
                "correction matrices need auxiliary-free layers between "
                f"layer_index and the output (layer {l} has auxiliaries)"
            )
    width = net.layers[layer_index].total_width
    back = np.eye(width)
    fwd_itp = np.eye(width)
    fwd_gait = np.eye(width)
    for j in range(layer_index + 1, depth):
        w = net.layers[j].weight
        a = trace.gains[j][:, 0]
        back = back @ (w.T * a)
        fwd_itp = (a[:, None] * w) @ fwd_itp
        fwd_gait = (w / a[:, None]) @ fwd_gait
    a_here = trace.gains[layer_index][:, 0]
    sandwich = lambda middle: (a_here[:, None] * middle) / a_here[None, :]
    return CorrectionMatrices(itp=sandwich(back @ fwd_itp), gait=sandwich(back @ fwd_gait))
