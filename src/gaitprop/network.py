"""Invertible layered perceptrons.

A layer owns a square ``total_width x total_width`` weight matrix. Only the
first ``forward_width`` units of a layer project to the next layer; the
remaining units are auxiliary: they carry task-irrelevant information so the
weight matrix can stay square (and hence invertible) while the effective
width shrinks. Width chaining is therefore
``layer[i].forward_width == layer[i+1].total_width``.

Vectors are handled batched: arrays of shape ``(width, n_samples)`` whose
columns are samples. 1-D inputs are promoted to a single column.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import files, linalg

@dataclass(frozen=True)
class Activation:
    """Strictly increasing elementwise nonlinearity, invertible on all reals.

    ``leaky_relu`` uses slope 1 for non-negative pre-activations and
    ``slope`` (in (0, 1)) for negative ones; the derivative at exactly zero
    is taken as 1 (right limit) so traces are deterministic.

    Both are computed without a select on the sign mask, which costs about
    four times as much as a branch-free pass on random signs. For slope in
    (0, 1) rounding is monotone, so ``|fl(slope * x)| <= |x|`` and
    ``max(x, slope * x)`` is ``x`` for ``x >= 0`` and ``slope * x`` below,
    the same bytes as the select, ±0, subnormals and ±inf included.
    """

    kind: str = "leaky_relu"
    slope: float = 0.01

    def __post_init__(self):
        if self.kind not in ("linear", "leaky_relu"):
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if self.kind == "leaky_relu" and not 0.0 < self.slope < 1.0:
            raise ValueError(f"leaky_relu slope (alpha) must lie in (0, 1), got {self.slope}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "linear":
            return np.asarray(x, dtype=np.float64).copy()
        return np.maximum(x, self.slope * x)

    def deriv(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "linear":
            return np.ones_like(np.asarray(x, dtype=np.float64))
        return np.maximum(x >= 0, self.slope)


class Layer:
    """Square invertible layer with a forward/auxiliary unit split.

    The weight inverse is computed lazily and cached; assigning to
    ``weight`` drops the cache. Singularity is only detected when an
    inversion is actually requested.
    """

    def __init__(self, weight: np.ndarray, activation: Activation, forward_width: int):
        weight = linalg.as_matrix(weight)
        if not 1 <= forward_width <= weight.shape[0]:
            raise ValueError(
                f"forward_width {forward_width} out of range for width {weight.shape[0]}"
            )
        self._weight = weight
        self._weight_inv: np.ndarray | None = None
        self.activation = activation
        self.forward_width = int(forward_width)

    @property
    def weight(self) -> np.ndarray:
        return self._weight

    @weight.setter
    def weight(self, value: np.ndarray):
        self._weight = linalg.as_matrix(value)
        self._weight_inv = None

    @property
    def weight_inv(self) -> np.ndarray:
        if self._weight_inv is None:
            self._weight_inv = linalg.invert(self._weight)
        return self._weight_inv

    @property
    def total_width(self) -> int:
        return self._weight.shape[0]

    @property
    def aux_width(self) -> int:
        return self.total_width - self.forward_width


class Network:
    """Ordered stack of invertible layers with consistent width chaining."""

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise ValueError("network needs at least one layer")
        for i in range(len(layers) - 1):
            if layers[i].forward_width != layers[i + 1].total_width:
                raise ValueError(
                    f"layer {i} forward_width {layers[i].forward_width} != "
                    f"layer {i + 1} total_width {layers[i + 1].total_width}"
                )
        self.layers = layers

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def input_width(self) -> int:
        return self.layers[0].total_width

    @property
    def output_width(self) -> int:
        """Width of the task-relevant (non-auxiliary) output."""
        return self.layers[-1].forward_width

    def forward_widths(self) -> list[int]:
        return [layer.forward_width for layer in self.layers]


@dataclass
class ForwardTrace:
    """Everything one pass records, batched column-wise.

    ``activations[l]`` and ``gains[l]`` both have shape
    ``(total_width_l, n_samples)``; ``gains`` holds the activation
    derivative evaluated at the pre-activations.
    """

    inputs: np.ndarray
    activations: list[np.ndarray] = field(default_factory=list)
    gains: list[np.ndarray] = field(default_factory=list)
    forward_widths: list[int] = field(default_factory=list)

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[1]

    @property
    def depth(self) -> int:
        return len(self.activations)

    def forward_part(self, l: int) -> np.ndarray:
        """Activations of layer l that project onward (or are class outputs)."""
        return self.activations[l][: self.forward_widths[l]]

    def aux_part(self, l: int) -> np.ndarray:
        return self.activations[l][self.forward_widths[l]:]

    def layer_input(self, l: int) -> np.ndarray:
        """What layer l multiplied by its weight: the input, or the previous
        layer's forward part."""
        if l == 0:
            return self.inputs
        return self.forward_part(l - 1)

    def output(self) -> np.ndarray:
        return self.forward_part(self.depth - 1)


def _as_columns(x: np.ndarray, width: int, label: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] != width:
        raise ValueError(f"{label}: expected {width} rows, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{label}: entries must be finite")
    return x


def forward(net: Network, x: np.ndarray) -> ForwardTrace:
    """Forward pass recording activations and gains.

    Each layer consumes only the forward part of the layer below; auxiliary
    activations stay local to their layer.
    """
    x = _as_columns(x, net.input_width, "input")
    trace = ForwardTrace(inputs=x, forward_widths=net.forward_widths())
    cur = x
    for layer in net.layers:
        h = layer.weight @ cur
        a = layer.activation.forward(h)
        trace.activations.append(a)
        trace.gains.append(layer.activation.deriv(h))
        cur = a[: layer.forward_width]
    return trace


def output(net: Network, x: np.ndarray) -> np.ndarray:
    """The network's output alone, equal bit for bit to
    ``forward(net, x).output()``, for callers that read nothing else.

    It records no trace and computes no gains, and activates only the forward
    rows. Those rows are sliced from the full product rather than multiplied
    alone: OpenBLAS may round a row block differently from the same rows of
    the whole product.
    """
    cur = _as_columns(x, net.input_width, "input")
    for layer in net.layers:
        cur = layer.activation.forward((layer.weight @ cur)[: layer.forward_width])
    return cur


def check_widths(total_widths, output_width: int) -> None:
    """Raise ValueError unless widths are >= 1, non-increasing and fit output_width."""
    widths = list(total_widths)
    if not widths or min(widths) < 1 or widths != sorted(widths, reverse=True):
        raise ValueError(f"widths {tuple(widths)} must be >= 1 and non-increasing")
    if not 1 <= output_width <= widths[-1]:
        raise ValueError(f"output width (classes) {output_width} must lie in [1, {widths[-1]}]")


def build_network(
    total_widths: list[int],
    output_width: int,
    activation: Activation,
    init: str,
    seed: int,
) -> Network:
    """Construct a network from per-layer total widths.

    Forward widths are implied by the chaining rule; the last layer's is
    ``output_width``. ``init`` is "orthogonal" or "xavier". Each layer gets
    its own child RNG stream, so adding layers does not perturb the draws
    of earlier ones.
    """
    check_widths(total_widths, output_width)
    if init not in ("orthogonal", "xavier"):
        raise ValueError(f"unknown init {init!r}")

    streams = linalg.split_rng(linalg.make_rng(seed), len(total_widths))
    layers = []
    for i, width in enumerate(total_widths):
        if init == "orthogonal":
            w = linalg.orthogonal_init(width, streams[i])
        else:
            w = linalg.xavier_init(width, width, streams[i])
        fwd = total_widths[i + 1] if i + 1 < len(total_widths) else output_width
        layers.append(Layer(w, activation, fwd))
    return Network(layers)


# ---------------------------------------------------------------------------
# Checkpoint container. Big-endian throughout:
#   magic "INET", version u32, layer count u32, then per layer:
#   total_width u32, forward_width u32, activation kind u8 (0 linear,
#   1 leaky_relu), slope f64, then total_width^2 weight f64 row-major.
# ---------------------------------------------------------------------------

_CHECKPOINT_MAGIC = b"INET"
_CHECKPOINT_VERSION = 1
_KIND_CODES = {"linear": 0, "leaky_relu": 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


class CheckpointError(Exception):
    """Malformed or truncated checkpoint file."""


def save_checkpoint(net: Network, path) -> None:
    parts = [_CHECKPOINT_MAGIC, struct.pack(">II", _CHECKPOINT_VERSION, net.depth)]
    for layer in net.layers:
        parts.append(struct.pack(">IIBd", layer.total_width, layer.forward_width,
                                 _KIND_CODES[layer.activation.kind],
                                 layer.activation.slope))
        parts.append(layer.weight.astype(">f8").tobytes())
    files.write_bytes(path, b"".join(parts))


def load_checkpoint(path) -> Network:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {blob[:4]!r}")
    try:
        version, n_layers = struct.unpack_from(">II", blob, 4)
    except struct.error as exc:
        raise CheckpointError("truncated header") from exc
    if version != _CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported version {version}")
    offset = 12
    layers = []
    for i in range(n_layers):
        try:
            total, fwd, kind_code, slope = struct.unpack_from(">IIBd", blob, offset)
        except struct.error as exc:
            raise CheckpointError(f"truncated at layer {i} header") from exc
        offset += struct.calcsize(">IIBd")
        if kind_code not in _KIND_NAMES:
            raise CheckpointError(f"unknown activation code {kind_code}")
        n_bytes = total * total * 8
        if offset + n_bytes > len(blob):
            raise CheckpointError(f"truncated at layer {i} weights")
        w = np.frombuffer(blob, dtype=">f8", count=total * total, offset=offset)
        offset += n_bytes
        try:  # the stored values are checked by the objects they build
            act = Activation(_KIND_NAMES[kind_code], slope)
            layers.append(Layer(w.reshape(total, total).astype(np.float64), act, fwd))
        except ValueError as exc:
            raise CheckpointError(f"layer {i}: {exc}") from None
    if offset != len(blob):
        raise CheckpointError(f"{len(blob) - offset} trailing bytes")
    try:
        return Network(layers)
    except ValueError as exc:
        raise CheckpointError(str(exc)) from None
