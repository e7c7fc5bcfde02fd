"""Quantitative comparison of update sets and orthogonality tracking."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import files, linalg
from .network import Network
from .rules import UpdateSet

# Norms below this are treated as zero updates with undefined direction.
_NORM_FLOOR = 1e-300


@dataclass
class AlignmentReport:
    """Per-layer alignment of two update sets.

    ``cosines[l]`` is None when either update has no direction (norm under
    the floor); scatter holds subsampled (element_a, element_b) pairs per
    layer for plotting.
    """

    rule_a: str
    rule_b: str
    cosines: list[float | None] = field(default_factory=list)
    norm_ratios: list[float | None] = field(default_factory=list)
    scatter: list[np.ndarray] = field(default_factory=list)


def align(a: UpdateSet, b: UpdateSet, subsample: int = 2000,
          rng: np.random.Generator | None = None) -> AlignmentReport:
    """Cosine similarity and norm ratio between flattened per-layer updates.

    Subsampling of scatter pairs is deterministic under the provided rng;
    with no rng the first ``subsample`` elements are taken.
    """
    if len(a.deltas) != len(b.deltas):
        raise ValueError("update sets have different depths")
    report = AlignmentReport(rule_a=a.rule, rule_b=b.rule)
    for da, db in zip(a.deltas, b.deltas):
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
        k = min(subsample, fa.size)
        if k < fa.size:
            if rng is None:
                idx = np.arange(k)
            else:
                idx = rng.choice(fa.size, size=k, replace=False)
            pairs = np.column_stack([fa[idx], fb[idx]])
        else:
            pairs = np.column_stack([fa, fb])
        report.scatter.append(pairs)
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
