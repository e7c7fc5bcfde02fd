"""Spans around the program's layer calls, recorded from outside the program.

The benchmark does not edit the program. It replaces the module and class
attributes that the program looks up at call time (``harness.forward``,
``linalg.invert``, the ``Layer.weight_inv`` property, ...) with wrappers that
record a span, and puts the originals back when the traced block ends.

A span has a layer name, a start, an end, a parent span and a run id. Spans
are kept in plain lists while the program runs, so recording one costs two
clock reads and a few appends; analysis happens after the run.
"""

from __future__ import annotations

import contextlib
import functools
import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

_ABSENT = object()


@dataclass(frozen=True)
class Target:
    """One attribute to wrap.

    ``layer`` names the span (the layer's home module, e.g. ``network.forward``),
    ``owner.attr`` is where the program looks the callable up. ``info``, if
    given, maps ``(args, kwargs, result)`` to a value stored on the span, so
    counts are taken at the same boundary as the time.
    """

    layer: str
    owner: Any
    attr: str
    info: Callable | None = None


class Tracer:
    """In-memory span recorder that can wrap and restore attributes."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.infos: list[Any] = []
        self.run_labels: list[str] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._run = -1

    # -- recording -------------------------------------------------------

    def begin_run(self, label: str) -> int:
        """Start a new run id; later spans belong to it."""
        self.run_labels.append(label)
        self._run = len(self.run_labels) - 1
        return self._run

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self._run)
        self.infos.append(None)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was open")

    def wrap(self, name: str, fn: Callable, info: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if info is not None:
                self.infos[idx] = info(args, kwargs, result)
            return result

        return traced

    # -- installing ------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        """Wrap every target that exists; warn about and skip the rest.

        A skipped layer keeps its name in ``missing`` and reports zero calls,
        so a later refactor that removes a name does not stop the benchmark.
        """
        for t in targets:
            original = vars(t.owner).get(t.attr, _ABSENT)
            if original is _ABSENT:
                if t.layer not in self.missing:
                    self.missing.append(t.layer)
                    warnings.warn(f"trace target {t.layer} ({t.attr}) not found; "
                                  "reported with zero calls", RuntimeWarning,
                                  stacklevel=2)
                continue
            if isinstance(original, property):
                replacement = property(self.wrap(t.layer, original.fget, t.info),
                                       original.fset, original.fdel, original.__doc__)
            else:
                replacement = self.wrap(t.layer, original, t.info)
            self._saved.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, replacement)

    def restore(self) -> None:
        """Put back every wrapped attribute, most recent first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def traced(self, targets: list[Target], label: str):
        """A new run id with ``targets`` wrapped throughout, restored on exit."""
        self.begin_run(label)
        try:
            self.install(targets)
            yield self
        finally:
            self.restore()

    # -- analysis --------------------------------------------------------

    def table(self) -> "SpanTable":
        return SpanTable(self)

    def dump_csv(self, path) -> None:
        """Write every span as one CSV row, for offline inspection."""
        with open(path, "w") as fh:
            fh.write("span,name,run,label,parent,start_s,end_s,info\n")
            for i, name in enumerate(self.names):
                run = self.runs[i]
                label = self.run_labels[run] if run >= 0 else ""
                info = "" if self.infos[i] is None else str(self.infos[i]).replace(",", ";")
                fh.write(f"{i},{name},{run},{label},{self.parents[i]},"
                         f"{self.starts[i]:.9f},{self.ends[i]:.9f},{info}\n")


class SpanTable:
    """Array view of a tracer's spans with self times.

    Self time is a span's duration minus the durations of its direct
    children. Spans come from one thread, so children never overlap and
    their durations add up to the part of the parent they cover.
    """

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.infos = list(tracer.infos)
        self.run_labels = list(tracer.run_labels)
        self.start = np.asarray(tracer.starts, dtype=float)
        self.end = np.asarray(tracer.ends, dtype=float)
        self.parent = np.asarray(tracer.parents, dtype=np.int64)
        self.run = np.asarray(tracer.runs, dtype=np.int64)
        ids: dict[str, int] = {}
        self.name_id = np.array([ids.setdefault(n, len(ids)) for n in self.names],
                                dtype=np.int64)
        self._ids = ids
        self.dur = self.end - self.start
        nested = self.parent >= 0
        child = np.bincount(self.parent[nested], weights=self.dur[nested],
                            minlength=len(self.names))
        self.self_s = self.dur - child

    def in_runs(self, runs: list[int]) -> np.ndarray:
        return np.flatnonzero(np.isin(self.run, runs))

    def named(self, idx: np.ndarray, name: str) -> np.ndarray:
        """The spans among ``idx`` whose layer is ``name`` (none if never seen)."""
        if name not in self._ids:
            return idx[:0]
        return idx[self.name_id[idx] == self._ids[name]]

    def roots(self, idx: np.ndarray) -> np.ndarray:
        return idx[self.parent[idx] < 0]

    def children(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.parent == i)
