"""Dataset ingestion: IDX image/label files, one-hot encoding, batching,
and a synthetic teacher-network task for fast desk-scale experiments.

The IDX container is the standard distribution format of the MNIST-family
datasets: a big-endian magic word, big-endian u32 dimension sizes, then a
raw unsigned-byte payload.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

from . import files, linalg
from .network import Activation, build_network, check_size, output

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxError(Exception):
    """Base for malformed IDX input."""


class BadMagic(IdxError):
    pass


class TruncatedFile(IdxError):
    pass


class CountMismatch(IdxError):
    pass


@dataclass
class Dataset:
    """Flattened inputs in [0, 1], integer labels in [0, n_classes)."""

    inputs: np.ndarray      # (n_samples, n_features) float64
    labels: np.ndarray      # (n_samples,) int64
    n_classes: int

    def __post_init__(self):
        if self.inputs.ndim != 2:
            raise ValueError("inputs must be 2-D (samples x features)")
        if len(self.inputs) != len(self.labels):
            raise CountMismatch(
                f"{len(self.inputs)} inputs vs {len(self.labels)} labels"
            )
        if len(self.labels) and not (0 <= self.labels.min() and
                                     self.labels.max() < self.n_classes):
            raise ValueError(f"labels must lie in [0, {self.n_classes}), got "
                             f"{self.labels.min()}..{self.labels.max()}")

    def __len__(self) -> int:
        return len(self.labels)


def _read_exact(fh, n: int, what: str) -> bytes:
    blob = fh.read(n)
    if len(blob) != n:
        raise TruncatedFile(f"expected {n} bytes for {what}, got {len(blob)}")
    return blob


def _read_idx_array(path, expected_magic: int, n_dims: int, what: str) -> np.ndarray:
    with open(path, "rb") as fh:
        magic, = struct.unpack(">I", _read_exact(fh, 4, f"{what} magic"))
        if magic != expected_magic:
            raise BadMagic(f"{what}: magic 0x{magic:08x}, expected 0x{expected_magic:08x}")
        dims = struct.unpack(f">{n_dims}I", _read_exact(fh, 4 * n_dims, f"{what} dims"))
        count = math.prod(dims)  # exact, where np.prod wraps past 2**63
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if count > left:
            raise TruncatedFile(f"expected {count} bytes for {what} payload, got {left}")
        if count < left:
            raise IdxError(f"{what}: trailing bytes after payload")
        payload = _read_exact(fh, count, f"{what} payload")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_idx(images_path, labels_path, n_classes: int = 10) -> Dataset:
    """Load an IDX image/label file pair; pixels are scaled by 1/255."""
    images = _read_idx_array(images_path, IMAGE_MAGIC, 3, "images")
    labels = _read_idx_array(labels_path, LABEL_MAGIC, 1, "labels")
    if images.shape[0] != labels.shape[0]:
        raise CountMismatch(f"{images.shape[0]} images vs {labels.shape[0]} labels")
    flat = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
    return Dataset(inputs=flat, labels=labels.astype(np.int64), n_classes=n_classes)


def write_idx(images: np.ndarray, labels: np.ndarray, images_path, labels_path) -> None:
    """Write images (n, rows, cols) and labels (n,) as an IDX pair of bytes.
    ValueError for an entry outside [0, 255], which one byte cannot hold."""
    for name, a in (("images", np.asarray(images)), ("labels", np.asarray(labels))):
        if a.size and not (a.min() >= 0 and a.max() <= 255):
            raise ValueError(f"{name} must lie in [0, 255], got {a.min()}..{a.max()}")
    images = np.ascontiguousarray(images, dtype=np.uint8)
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    if images.ndim != 3:
        raise ValueError("images must be (n, rows, cols)")
    if images.shape[0] != labels.shape[0]:
        raise CountMismatch(f"{images.shape[0]} images vs {labels.shape[0]} labels")
    files.write_bytes(images_path,
                      struct.pack(">IIII", IMAGE_MAGIC, *images.shape) + images.tobytes())
    files.write_bytes(labels_path,
                      struct.pack(">II", LABEL_MAGIC, labels.shape[0]) + labels.tobytes())


def one_hot_batch(labels: np.ndarray, classes: int) -> np.ndarray:
    """Column-wise one-hot block, shape (classes, n_labels); a stack of label
    rows (cells, n_labels) gives one block per cell."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and not (labels.min() >= 0 and labels.max() < classes):
        raise ValueError("labels out of range")
    out = np.zeros(labels.shape[:-1] + (classes, labels.shape[-1]))
    np.put_along_axis(out, labels[..., None, :], 1.0, axis=-2)
    return out


def check_teacher(n_in: int, depth: int, n_classes: int, samples: int) -> None:
    """Raise ValueError unless a teacher of this shape can label n_classes
    and numpy can size the ``(samples, n_in)`` float64 inputs."""
    if not 1 <= depth <= sys.maxsize or not 1 <= n_classes <= n_in:
        raise ValueError(f"need 1 <= teacher depth <= {sys.maxsize} (the largest "
                         f"sequence length) and 1 <= classes <= n_in = {n_in}")
    if samples * n_in * 8 > np.iinfo(np.intp).max:
        raise ValueError(f"a draw of {samples} samples of {n_in} inputs is too large: its "
                         "float64 array exceeds numpy's maximum array size")


def _teacher_draw(n_in: int, depth: int, n_classes: int, samples: int,
                  rng: np.random.Generator):
    """The frozen orthogonal leaky-ReLU teacher, seeded by the rng's first
    draw, and the uniform [0, 1] inputs drawn after it.

    Every layer is ``n_in`` wide and the last one projects only its first
    ``n_classes`` units, the only outputs a label reads. Each layer draws its
    weight from its own spawned stream whatever its forward width, and
    ``output`` activates the forward rows sliced from the full product, so
    the labels are those of an ``n_in``-output teacher, byte for byte,
    without its last full-size activation.
    """
    check_teacher(n_in, depth, n_classes, samples)
    check_size([(n_in, depth)])  # before the depth-long widths list
    teacher = build_network([n_in] * depth, n_classes, Activation("leaky_relu", 0.01),
                            "orthogonal", int(rng.integers(0, 2**63 - 1)))
    return teacher, rng.uniform(0.0, 1.0, size=(samples, n_in))


def _teacher_labels(teacher, inputs: np.ndarray) -> np.ndarray:
    if len(inputs) == 0:
        return np.zeros(0, dtype=np.int64)
    return np.argmax(output(teacher, inputs.T), axis=0).astype(np.int64)


def synthetic_teacher(n_in: int, depth: int, n_classes: int, samples: int,
                      rng: np.random.Generator) -> Dataset:
    """Labels are the argmax over the first n_classes outputs of a frozen
    random orthogonal leaky-ReLU network applied to uniform [0, 1] inputs.

    The teacher weights are derived from the rng's own stream, so a single
    seed pins the whole dataset.
    """
    teacher, inputs = _teacher_draw(n_in, depth, n_classes, samples, rng)
    return Dataset(inputs=inputs, labels=_teacher_labels(teacher, inputs),
                   n_classes=n_classes)


def synthetic_teacher_quantized(n_in: int, depth: int, n_classes: int,
                                samples: int, seed: int):
    """Byte-quantized variant for writing IDX files.

    Labels are computed from the quantized pixels so that loading the files
    reproduces the dataset exactly. Returns (pixels uint8 (n, n_in), labels
    int64).

    The draw is scaled, rounded and clipped in place, and the pixels divided
    by 255 go back into the same buffer for labelling, so the float64 draw
    is the only full-size float array; the values are those of the
    expression ``clip(round(inputs * 255), 0, 255) / 255``.
    """
    teacher, inputs = _teacher_draw(n_in, depth, n_classes, samples, linalg.make_rng(seed))
    np.multiply(inputs, 255.0, out=inputs)
    np.round(inputs, out=inputs)
    np.clip(inputs, 0, 255, out=inputs)
    pixels = inputs.astype(np.uint8)
    np.divide(pixels, 255.0, out=inputs)
    return pixels, _teacher_labels(teacher, inputs)


def batches(ds: Dataset, batch_size: int,
            rng: np.random.Generator | list[np.random.Generator]):
    """Yield (inputs, targets) column blocks covering the dataset once, in
    an order drawn from the rng, so deterministic under its seed.

    inputs has shape (n_features, b), targets is the one-hot block
    (n_classes, b); the final partial batch is included. For a list of
    rngs, one per cell, each block stacks every cell's own block on a
    leading axis, with the same values and memory layout.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if isinstance(rng, list):
        order = np.stack([r.permutation(len(ds)) for r in rng])
    else:
        order = rng.permutation(len(ds))
    for start in range(0, len(ds), batch_size):
        idx = order[..., start:start + batch_size]
        yield ds.inputs[idx].mT, one_hot_batch(ds.labels[idx], ds.n_classes)
