"""Quantitative comparison of per-layer updates and orthogonality tracking."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import files, linalg
from .network import Network

# Norms below this are treated as zero updates with undefined direction.
_NORM_FLOOR = 1e-300
# Scatter pairs kept per layer; a larger layer is sampled without replacement.
SCATTER_PAIRS = 2000


@dataclass
class AlignmentReport:
    """Per-layer alignment of two update lists.

    ``cosines[l]`` is None when either update has no direction (norm under
    the floor); scatter holds up to ``SCATTER_PAIRS`` sampled (element_a,
    element_b) pairs per layer for plotting.
    """

    cosines: list[float | None] = field(default_factory=list)
    norm_ratios: list[float | None] = field(default_factory=list)
    scatter: list[np.ndarray] = field(default_factory=list)


def align(a: list[np.ndarray], b: list[np.ndarray],
          rng: np.random.Generator) -> AlignmentReport:
    """Cosine similarity and norm ratio between flattened per-layer updates.

    Layers with more than ``SCATTER_PAIRS`` elements keep a scatter sample
    drawn from the rng, so deterministic under its seed.
    """
    if len(a) != len(b):
        raise ValueError("update lists have different depths")
    report = AlignmentReport()
    for da, db in zip(a, b):
        if da.shape != db.shape:
            raise ValueError(f"layer shape mismatch {da.shape} vs {db.shape}")
        fa = da.ravel()
        fb = db.ravel()
        na = float(np.linalg.norm(fa))
        nb = float(np.linalg.norm(fb))
        if na < _NORM_FLOOR or nb < _NORM_FLOOR:
            report.cosines.append(None)
            report.norm_ratios.append(None if nb < _NORM_FLOOR else 0.0)
        else:
            report.cosines.append(float(fa @ fb / (na * nb)))
            report.norm_ratios.append(na / nb)
        if fa.size > SCATTER_PAIRS:
            idx = rng.choice(fa.size, size=SCATTER_PAIRS, replace=False)
            fa, fb = fa[idx], fb[idx]
        report.scatter.append(np.column_stack([fa, fb]))
    return report


def ortho_drift(net: Network) -> list[float]:
    """Per-layer row-orthogonality error, for logging during training."""
    return [linalg.orthogonality_error(layer.weight) for layer in net.layers]


def write_alignment_csv(report: AlignmentReport, path) -> None:
    """Summary CSV: layer, cosine, norm_ratio. Undefined cosines are empty."""
    files.write_csv(path, ["layer", "cosine", "norm_ratio"],
                    ([l, "" if c is None else f"{c:.12g}",
                      "" if r is None else f"{r:.12g}"]
                     for l, (c, r) in enumerate(zip(report.cosines,
                                                    report.norm_ratios))))


def write_scatter_csv(report: AlignmentReport, path) -> None:
    """Scatter CSV: layer, elem_a, elem_b; one row per sampled element."""
    files.write_csv(path, ["layer", "elem_a", "elem_b"],
                    ([l, f"{ea:.12g}", f"{eb:.12g}"]
                     for l, pairs in enumerate(report.scatter) for ea, eb in pairs))
