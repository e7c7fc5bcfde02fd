"""Workloads, correctness checks and metrics of the gaitprop benchmark.

Every workload runs the same four public entry points of ``gaitprop.harness``
(``train`` per rule, ``gridsearch``, ``align_experiment`` and
``equilibrium_sweep``) on the synthetic teacher task, but at its own scale and
with its own weight on each, so that a given optimisation does most of its
work on one workload and little on another (see README.md).

A run has three parts:

1. A reference pass: one optimizer step of each rule at ``REF_SEED`` on the
   workload's network. It warms up lazy imports and the BLAS thread pool, and
   checks each rule's final loss against ``reference.json``.
2. Timed rounds at the workload seed. A round takes one sample of each phase,
   a sample being a fixed number of back-to-back calls; rounds repeat until
   the time budget is used. Each timing is a trimmed mean over the samples
   (``trimmed_mean``); ``setup_s`` is their median.
3. With tracing on, every sample is taken twice, untraced and then traced,
   so the tracing overhead is measured in the same run.

Every operation's output is checked; a failed check makes the run report
failure instead of metrics.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, replace

import numpy as np

from gaitprop import harness, linalg, network
from tracer import Target, Tracer

RULES = ("bp", "tp", "itp", "gait")
REF_SEED = 0
NUS = (0.0, 0.1, 0.25, 0.4)
# gait equals bp at orthogonal init on kink-free samples (README, "Key
# equivalences"); the program reaches 1 - cos <= 5e-16 on seeds 0-11 at
# widths 64 and 256.
COSINE_TOL = 1e-9
# Acceptance criterion 7: simulated circuit equilibria within 1e-5 of analytic.
EQUILIBRIUM_TOL = 1e-5

ENTRY_POINTS = ("harness.train", "harness.gridsearch", "harness.align_experiment",
                "harness.equilibrium_sweep")
TARGET_RULES = ("tp", "itp", "gait")
RULE_PHASES = {"bp": ("bp_updates",), "tp": ("tp_targets", "tp_updates"),
               "itp": ("itp_targets", "itp_updates"),
               "gait": ("gait_targets", "gait_updates")}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``plan`` lists each phase with the number of back-to-back calls that make
    one timed sample; a round takes one sample per entry. ``setup`` stands
    for one set-up phase per rule. A phase listed more than once gets a
    sample at each of those points of every round, so that its mean is
    taken over more samples spread over the whole run: the host's speed
    drifts within a run. ``samples`` gives each rule's training set size
    (one epoch): bp steps are cheap, so bp takes more of them so that its
    time is not lost next to set-up and evaluation. ``nus`` are the
    couplings of the circuit sweep: one on train-256, where the sweep is a
    secondary phase sampled twice per round, all four on small-64.
    """

    name: str
    train: harness.ExperimentConfig    # rule and train_samples are set per phase
    samples: dict[str, int]
    grid: harness.ExperimentConfig     # gridsearch base (gait)
    etas: tuple[float, ...]
    lambdas: tuple[float, ...]
    plan: tuple[tuple[str, int], ...]
    min_rounds: int
    align_samples: int = 64
    nus: tuple[float, ...] = NUS       # couplings of the circuit sweep

    @property
    def width(self) -> int:
        return self.train.resolved_widths()[0]

    def steps_per_train(self, rule: str) -> int:
        return math.ceil(self.samples[rule] / self.train.batch_size)

    def seeded(self, cfg: harness.ExperimentConfig, seed: int):
        """The workload's inputs are pinned by ``seed`` alone."""
        return replace(cfg, seed=seed, data_seed=10_000 + seed)

    def train_config(self, rule: str, seed: int) -> harness.ExperimentConfig:
        return replace(self.seeded(self.train, seed), rule=rule,
                       train_samples=self.samples[rule])

    def reference_config(self, rule: str) -> harness.ExperimentConfig:
        """One optimizer step of ``rule`` at REF_SEED on the workload's network."""
        return replace(self.train_config(rule, REF_SEED),
                       train_samples=self.train.batch_size, epochs=1)

    def rounds_plan(self) -> list[tuple[str, int]]:
        out = []
        for phase, calls in self.plan:
            if phase == "setup":
                out += [(f"setup.{r}", calls) for r in RULES]
            else:
                out.append((phase, calls))
        return out


def _synthetic(arch: str, width: int, depth: int, train_samples: int,
               test_samples: int) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        rule="gait", arch=arch, width=width, depth=depth, classes=10,
        batch_size=64, epochs=1, train_samples=train_samples,
        test_samples=test_samples)


def _samples(bp: int, others: int) -> dict[str, int]:
    return {"bp": bp, "tp": others, "itp": others, "gait": others}


# train-256 keeps a small grid so that every workload reports every end-to-end
# metric: one cell skips the regularizer (lam = 0) and one runs it.
_HALVING = _synthetic("halving", 64, 4, 640, 128)

WORKLOADS = {
    w.name: w for w in (
        # Desk scale: each 256x256 weight (0.5 MB) fits in L2. Inversion
        # dominates tp/itp/gait; bp is forward, Adam and its sweep.
        Workload(
            name="train-256",
            train=_synthetic("fixed", 256, 5, 320, 128),
            samples=_samples(bp=960, others=320),
            grid=_synthetic("fixed", 256, 5, 64, 64),
            etas=(1e-4,), lambdas=(0.0, 0.1),
            plan=(("setup", 3), ("train.bp", 1), ("train.tp", 1),
                  ("train.itp", 1), ("train.gait", 1), ("align", 1),
                  ("grid", 1), ("equilibrium", 1), ("train.bp", 1),
                  ("train.tp", 1), ("train.itp", 1), ("train.gait", 1),
                  ("grid", 1), ("align", 1), ("equilibrium", 1), ("grid", 1),
                  ("align", 1)),
            min_rounds=3,
            nus=(0.25,),
        ),
        # The 64-32-16-10 halving net: O(n^3) work is negligible, so per-call
        # overhead, BLAS thread wake-up and per-cell set-up (the teacher data
        # is rebuilt for every grid cell) dominate.
        Workload(
            name="small-64",
            train=_HALVING,
            samples=_samples(bp=3840, others=640),
            grid=_HALVING,
            etas=harness.DEFAULT_ETAS, lambdas=harness.DEFAULT_LAMBDAS,
            plan=(("setup", 20), ("train.bp", 10), ("train.tp", 10),
                  ("grid", 1), ("train.itp", 10), ("train.gait", 10),
                  ("align", 20), ("equilibrium", 1), ("train.tp", 10),
                  ("grid", 1), ("train.itp", 10), ("train.gait", 10),
                  ("align", 20)),
            min_rounds=3,
        ),
    )
}

END_TO_END = (
    ("setup_s", "s"),
    *((f"steps_per_s.{r}", "1/s") for r in RULES),
    ("grid_cells_per_s", "1/s"),
    ("align_s", "s"),
    ("equilibrium_s", "s"),
    ("peak_rss_mb", "MB"),
)

_PER_RULE_LAYER = (
    ("linalg.invert.calls", "count"),
    ("linalg.invert.self_s", "s"),
    ("linalg.invert.ms_per_call", "ms"),
    ("linalg.invert.gflops_computed", "GFLOP/s"),
    ("network.forward.self_s", "s"),
    ("network.weight_inv.reads", "count"),
    ("network.weight_inv.hit_ratio", "ratio"),
    ("rules.ortho_reg_grad.calls", "count"),
    ("rules.ortho_reg_grad.self_s", "s"),
    ("rules.ortho_reg_grad.gflops_computed", "GFLOP/s"),
    ("optim.adam_step.self_s", "s"),
    ("harness.evaluate.self_s", "s"),
    ("diagnostics.ortho_drift.self_s", "s"),
    ("harness.train.step_ms.p50", "ms"),
    ("harness.train.step_ms.ptail", "ms"),
    ("harness.train.step_ms.ptail_pct", "%"),
    ("harness.train.steps", "count"),
    ("trace.covered_share", "ratio"),
)

PER_LAYER = (
    *((f"{name}.{r}", unit) for r in RULES for name, unit in _PER_RULE_LAYER),
    *((f"rules.{fn}.self_s", "s") for r in RULES for fn in RULE_PHASES[r]),
    *((f"rules.kink_free_share.{r}", "ratio") for r in TARGET_RULES),
    ("network.build_network.s", "s"),
    ("data.synthetic_teacher.s", "s"),
    ("harness.gridsearch.cell_s.p50", "s"),
    ("harness.gridsearch.cell_s.max", "s"),
    ("linalg.invert.calls.grid", "count"),
    ("rules.ortho_reg_grad.calls.grid", "count"),
    ("linalg.invert.calls.align", "count"),
    ("linalg.invert.self_s.align", "s"),
    ("network.weight_inv.reads.align", "count"),
    ("network.weight_inv.hit_ratio.align", "ratio"),
    ("diagnostics.align.self_s", "s"),
    ("dynamics.simulate.self_s", "s"),
    ("dynamics.simulate.euler_steps_per_s", "1/s"),
    ("blas.gemm_gflops", "GFLOP/s"),
    ("trace.covered_share", "ratio"),
    ("trace.overhead_share", "ratio"),
)


def _ortho_info(args, kwargs, result):
    """Matrix size of a call that does the O(n^3) work (lam > 0), else 0."""
    lam = kwargs.get("lam", args[1] if len(args) > 1 else 0.0)
    return result.shape[0] if lam > 0 else 0


def _is_orthogonal(net) -> bool:
    return all(linalg.orthogonality_error(layer.weight) < 1e-9 for layer in net.layers)


def _kink_info(args, kwargs, stack):
    flips = np.asarray(stack.sign_flips)
    return int(np.sum(flips == 0)), int(flips.size)


def trace_targets() -> list[Target]:
    """Where each layer is looked up at call time, named by its home module."""
    h = harness
    targets = [Target(f"harness.{fn}", h, fn) for fn in
               ("train", "evaluate", "gridsearch", "align_experiment",
                "equilibrium_sweep")]
    targets += [
        Target("network.forward", h, "forward"),
        Target("network.build_network", h, "build_network"),
        Target("data.synthetic_teacher", h, "synthetic_teacher"),
        Target("optim.adam_step", h, "adam_step"),
        Target("diagnostics.ortho_drift", h, "ortho_drift"),
        Target("diagnostics.align", h, "align"),
        Target("dynamics.simulate", h, "simulate",
               lambda a, kw, traj: len(traj.times) - 1),
        Target("dynamics.equilibria", h, "equilibria"),
        Target("rules.ortho_reg_grad", h, "ortho_reg_grad", _ortho_info),
        Target("linalg.invert", linalg, "invert", lambda a, kw, inv: inv.shape[0]),
        Target("network.weight_inv", network.Layer, "weight_inv"),
    ]
    for fn in ("bp_updates", "tp_targets", "tp_updates", "itp_targets",
               "itp_updates", "gait_targets", "gait_updates"):
        info = _kink_info if fn.endswith("_targets") else None
        targets.append(Target(f"rules.{fn}", h, fn, info))
    return targets


class Bench:
    """One run of one workload: samples, checks, counts and timings."""

    def __init__(self, wl: Workload, seed: int, trace: bool,
                 reference: dict[str, float], rtol: float):
        self.wl = wl
        self.seed = seed
        self.trace = trace
        self.reference = reference
        self.rtol = rtol
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.walls: dict[str, list[float]] = defaultdict(list)
        self.traced_walls: dict[str, list[float]] = defaultdict(list)
        self.losses: dict[str, list[float]] = defaultdict(list)
        self.cells: list[int] = []
        self.align_kinked = 0
        self._kinked: dict[int, bool] = {}
        self.rounds = 0
        self.tracer = Tracer() if trace else None
        self.targets = trace_targets() if trace else []

    def _fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(what)

    # -- one operation per phase -----------------------------------------

    def _operation(self, phase: str, seed: int, reference: bool):
        """The call one sample of ``phase`` repeats, as a thunk."""
        wl = self.wl
        kind, _, rule = phase.partition(".")
        if kind == "setup":
            cfg = replace(wl.train_config(rule, seed), epochs=0)
            return lambda: harness.train(cfg)
        if kind == "train":
            cfg = wl.reference_config(rule) if reference else wl.train_config(rule, seed)
            return lambda: harness.train(cfg)
        if kind == "grid":
            cfg = wl.seeded(wl.grid, seed)
            return lambda: harness.gridsearch(cfg, wl.etas, wl.lambdas)
        if kind == "align":
            cfg = wl.seeded(wl.train, seed)
            return lambda: harness.align_experiment(cfg, wl.align_samples)
        if kind == "equilibrium":
            return lambda: harness.equilibrium_sweep(wl.nus, seed=seed)
        raise ValueError(f"unknown phase {phase!r}")

    def _check(self, phase: str, seed: int, out, reference: bool) -> bool:
        """Count the operations in one call's output and check them."""
        wl = self.wl
        kind, _, rule = phase.partition(".")
        if kind == "setup":
            self.attempted += 1
            return True
        if kind == "train":
            self.attempted += 1
            losses = [e["mean_loss"] for e in out.epochs]
            if len(losses) != out.config["epochs"] or not all(map(math.isfinite, losses)):
                self._fail(f"{phase}: mean_loss not finite for every epoch: {losses}")
                return False
            if not reference:
                self.losses[rule].append(losses[-1])
                return True
            want = self.reference.get(rule)
            if want is None or not abs(losses[-1] - want) <= self.rtol * abs(want):
                self._fail(f"{phase}: final mean_loss {losses[-1]!r} is not the "
                           f"reference {want!r} within rtol {self.rtol:g}")
                return False
            return True
        if kind == "grid":
            cells = len(out.records) + len(out.failures)
            self.attempted += cells
            self.cells.append(cells)
            bad = [k for k, rec in out.records.items()
                   if not all(math.isfinite(e["mean_loss"]) for e in rec.epochs)]
            if out.failures or bad:
                self._fail(f"grid: failed cells {out.failures}, non-finite "
                           f"mean_loss in cells {bad}", len(out.failures) + len(bad))
                return False
            if cells != len(wl.etas) * len(wl.lambdas):
                self._fail(f"grid: {cells} cells for a "
                           f"{len(wl.etas)}x{len(wl.lambdas)} grid")
                return False
            return True
        if kind == "align":
            self.attempted += sum(len(by_rule) for by_rule in out.values())
            cosines = [c for c in out["orthogonal"]["gait"].cosines if c is not None]
            worst = max((abs(1.0 - c) for c in cosines), default=float("nan"))
            if worst <= COSINE_TOL:
                return True
            if self._align_batch_crosses_kink(seed):
                # gait equals bp only on samples that cross no kink; this
                # batch lies outside the theorem, so the exact check does
                # not apply to it.
                self.align_kinked += 1
                return True
            self._fail(f"align: gait-vs-bp cosine at orthogonal init is "
                       f"{worst:.3g} from 1 (tolerance {COSINE_TOL:g}) on a "
                       "batch that crosses no kink")
            return False
        if kind == "equilibrium":
            self.attempted += len(out)
            bad = [r["nu"] for r in out if r["diverged"] or not
                   max(r["err_before_onset"], r["err_after_onset"]) < EQUILIBRIUM_TOL]
            if bad or len(out) != len(wl.nus):
                self._fail(f"equilibrium: rows {bad} of {len(out)} diverged or "
                           f"missed {EQUILIBRIUM_TOL:g}", max(len(bad), 1))
                return False
            return True
        raise ValueError(f"unknown phase {phase!r}")

    def _align_batch_crosses_kink(self, seed: int) -> bool:
        """Whether a sample of the align batch crosses a leaky-ReLU kink in
        the gait targets at orthogonal init, read from ``sign_flips`` by
        tracing one more (untimed) ``align_experiment`` call."""
        if seed not in self._kinked:
            tr = Tracer()
            target = Target("rules.gait_targets", harness, "gait_targets",
                            lambda a, kw, stack: (_is_orthogonal(a[0]),
                                                  _kink_info(a, kw, stack)))
            with tr.traced([target], "kink-check"):
                harness.align_experiment(self.wl.seeded(self.wl.train, seed),
                                         self.wl.align_samples)
            self._kinked[seed] = any(ortho and free < total
                                     for ortho, (free, total) in tr.infos)
        return self._kinked[seed]

    def sample(self, phase: str, seed: int, calls: int, traced: bool = False,
               reference: bool = False) -> float | None:
        """Time ``calls`` back-to-back calls of ``phase`` and check each.

        Returns the wall time per call, or None if a call raised or failed a
        check. A traced call gets its own run id. ``reference`` marks the
        reference pass, whose losses are checked against the stored ones.
        """
        op = self._operation(phase, seed, reference)
        outs = []
        t0 = time.perf_counter()
        try:
            for _ in range(calls):
                if traced:
                    with self.tracer.traced(self.targets, phase):
                        outs.append(op())
                else:
                    outs.append(op())
        except Exception as exc:  # the program's failure is a result to report
            self.attempted += 1
            self._fail(f"{phase}: {type(exc).__name__}: {exc}")
            return None
        wall = (time.perf_counter() - t0) / calls
        ok = [self._check(phase, seed, out, reference) for out in outs]
        return wall if all(ok) else None

    # -- the run ---------------------------------------------------------

    def reference_pass(self) -> None:
        """One step of each rule at REF_SEED: warm-up and stored-loss check."""
        for rule in RULES:
            self.sample(f"train.{rule}", None, 1, reference=True)

    def timed_rounds(self, seconds: float) -> None:
        """Rounds of one sample per phase until ``seconds`` would be exceeded."""
        start = time.perf_counter()
        round_s: list[float] = []
        min_rounds = 1 if self.trace else self.wl.min_rounds
        while True:
            r0 = time.perf_counter()
            for phase, calls in self.wl.rounds_plan():
                wall = self.sample(phase, self.seed, calls)
                if wall is not None:
                    self.walls[phase].append(wall)
                if self.trace:
                    wall = self.sample(phase, self.seed, calls, traced=True)
                    if wall is not None:
                        self.traced_walls[phase].append(wall)
            self.rounds += 1
            round_s.append(time.perf_counter() - r0)
            if self.rounds >= min_rounds and (
                    time.perf_counter() + statistics.median(round_s) > start + seconds):
                break
        for rule, losses in self.losses.items():
            spread = max(losses) - min(losses)
            if not spread <= self.rtol * abs(statistics.median(losses)):
                self._fail(f"train.{rule}: calls with one seed disagree: {losses}")

    @property
    def correct(self) -> bool:
        return not self.problems

    # -- metrics ---------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        wall = {p: trimmed_mean(w) for p, w in self.walls.items()}
        out = {"setup_s": statistics.median(self.walls["setup.gait"])}
        for r in RULES:
            busy = wall[f"train.{r}"] - wall[f"setup.{r}"]
            if busy <= 0:
                raise RuntimeError(f"train.{r} took no longer than its set-up")
            out[f"steps_per_s.{r}"] = self.wl.steps_per_train(r) / busy
        out["grid_cells_per_s"] = statistics.median(self.cells) / wall["grid"]
        out["align_s"] = wall["align"]
        out["equilibrium_s"] = wall["equilibrium"]
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return out

    def per_layer(self) -> dict[str, float]:
        calls = dict(self.wl.rounds_plan())
        traced = sum(calls[p] * sum(w) for p, w in self.traced_walls.items())
        plain = sum(calls[p] * sum(self.walls[p][:len(w)])
                    for p, w in self.traced_walls.items())
        out = layer_metrics(self.tracer.table(), gemm_gflops(self.wl.width))
        # Paired samples: each traced sample follows an untraced one of the
        # same phase in the same round.
        out["trace.overhead_share"] = _ratio(traced, plain) - 1.0
        return out


def trimmed_mean(values: list[float], share: float = 0.1) -> float:
    """Mean of the samples left after dropping ``share`` of them at each end.

    Sample times on a shared host have a long upper tail (BLAS threads that
    wait for a descheduled core). This estimate uses more of the samples
    than the median does, so it spreads less between runs, while a single
    stall cannot move it much.
    """
    values = sorted(values)
    cut = int(len(values) * share)
    return statistics.fmean(values[cut:len(values) - cut])


def gemm_gflops(n: int, repeats: int = 7) -> float:
    """Reference rate: median of timed n x n GEMM batches at the workload width."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    per_batch = max(1, int(2e8 // (2 * n ** 3)))
    a @ b
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(per_batch):
            a @ b
        rates.append(2 * n ** 3 * per_batch / (time.perf_counter() - t0) / 1e9)
    return statistics.median(rates)


def _tail(values: list[float]) -> tuple[float, float, float]:
    """p50, and the highest percentile with at least 10 samples beyond it.

    Up to 20 samples no such percentile lies above the median, and p50 is
    reported for both.
    """
    if not values:
        return 0.0, 0.0, 0.0
    pct = math.floor(100 * (1 - 10 / len(values)))
    p50 = float(np.percentile(values, 50))
    if pct <= 50:
        return p50, p50, 50.0
    return p50, float(np.percentile(values, pct)), float(pct)


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _train_steps(t, root: int) -> list[float]:
    """Step times of one train span. A step ends where ``adam_step`` ends and
    starts at the end of the previous step or of the last set-up/epoch-end
    call (data, build, evaluate, drift) before it."""
    steps = []
    boundary = None
    for c in t.children(root):
        name = t.names[c]
        if name == "optim.adam_step":
            if boundary is not None:
                steps.append(t.end[c] - boundary)
            boundary = t.end[c]
        elif name in ("data.synthetic_teacher", "network.build_network",
                      "harness.evaluate", "diagnostics.ortho_drift"):
            boundary = t.end[c]
    return steps


def _run_summary(t, run: int) -> dict:
    idx = t.in_runs([run])
    s = {}
    for name in set(t.names[i] for i in idx):
        sel = t.named(idx, name)
        s[name] = (len(sel), float(t.self_s[sel].sum()))
    inv = t.named(idx, "linalg.invert")
    reads = t.named(idx, "network.weight_inv")
    s["_inv_flops"] = float(sum(2.0 * t.infos[i] ** 3 for i in inv))
    s["_inv_in_reads"] = int(np.isin(t.parent[inv], reads).sum())
    ortho = t.named(idx, "rules.ortho_reg_grad")
    s["_ortho_flops"] = float(sum(4.0 * t.infos[i] ** 3 for i in ortho))
    kinks = [t.infos[i] for name in ("rules.tp_targets", "rules.itp_targets",
                                     "rules.gait_targets")
             for i in t.named(idx, name) if t.infos[i] is not None]
    s["_kink_free"] = sum(k[0] for k in kinks)
    s["_kink_total"] = sum(k[1] for k in kinks)
    roots = t.roots(idx)
    s["_root_dur"] = float(t.dur[roots].sum())
    s["_root_self"] = float(sum(t.self_s[i] for i in idx
                                if t.names[i] in ENTRY_POINTS))
    s["_steps"] = [x for r in roots if t.names[r] == "harness.train"
                   for x in _train_steps(t, r)]
    s["_cells"] = [float(t.dur[i]) for i in t.named(idx, "harness.train")
                   if t.parent[i] >= 0 and t.names[t.parent[i]] == "harness.gridsearch"]
    s["_euler"] = sum(t.infos[i] for i in t.named(idx, "dynamics.simulate"))
    return s


def _calls(s, name):
    return s.get(name, (0, 0.0))[0]


def _self(s, name):
    return s.get(name, (0, 0.0))[1]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(t, gemm: float) -> dict[str, float]:
    """Per-layer metrics from the traced reps.

    Per-run quantities (calls, self time) are medians over the runs of a
    phase; rates and ratios are taken over the sums of all its runs.
    """
    out: dict[str, float] = {}
    by_label = defaultdict(list)
    for run, label in enumerate(t.run_labels):
        by_label[label].append(_run_summary(t, run))

    for r in RULES:
        runs = by_label[f"train.{r}"]
        med = lambda f: _median(f(s) for s in runs)
        total = lambda f: sum(f(s) for s in runs)
        inv_self = total(lambda s: _self(s, "linalg.invert"))
        inv_calls = total(lambda s: _calls(s, "linalg.invert"))
        reads = total(lambda s: _calls(s, "network.weight_inv"))
        ortho_self = total(lambda s: _self(s, "rules.ortho_reg_grad"))
        p50, ptail, pct = _tail([x for s in runs for x in s["_steps"]])
        out.update({
            f"linalg.invert.calls.{r}": med(lambda s: _calls(s, "linalg.invert")),
            f"linalg.invert.self_s.{r}": med(lambda s: _self(s, "linalg.invert")),
            f"linalg.invert.ms_per_call.{r}": 1e3 * _ratio(inv_self, inv_calls),
            f"linalg.invert.gflops_computed.{r}":
                _ratio(total(lambda s: s["_inv_flops"]), inv_self) / 1e9,
            f"network.forward.self_s.{r}": med(lambda s: _self(s, "network.forward")),
            f"network.weight_inv.reads.{r}":
                med(lambda s: _calls(s, "network.weight_inv")),
            f"network.weight_inv.hit_ratio.{r}":
                1.0 - _ratio(total(lambda s: s["_inv_in_reads"]), reads) if reads else 0.0,
            f"rules.ortho_reg_grad.calls.{r}":
                med(lambda s: _calls(s, "rules.ortho_reg_grad")),
            f"rules.ortho_reg_grad.self_s.{r}":
                med(lambda s: _self(s, "rules.ortho_reg_grad")),
            f"rules.ortho_reg_grad.gflops_computed.{r}":
                _ratio(total(lambda s: s["_ortho_flops"]), ortho_self) / 1e9,
            f"optim.adam_step.self_s.{r}": med(lambda s: _self(s, "optim.adam_step")),
            f"harness.evaluate.self_s.{r}": med(lambda s: _self(s, "harness.evaluate")),
            f"diagnostics.ortho_drift.self_s.{r}":
                med(lambda s: _self(s, "diagnostics.ortho_drift")),
            f"harness.train.step_ms.p50.{r}": 1e3 * p50,
            f"harness.train.step_ms.ptail.{r}": 1e3 * ptail,
            f"harness.train.step_ms.ptail_pct.{r}": pct,
            f"harness.train.steps.{r}": float(sum(len(s["_steps"]) for s in runs)),
            f"trace.covered_share.{r}":
                1.0 - _ratio(total(lambda s: s["_root_self"]),
                             total(lambda s: s["_root_dur"])),
        })
        for fn in RULE_PHASES[r]:
            out[f"rules.{fn}.self_s"] = med(lambda s: _self(s, f"rules.{fn}"))
        if r in TARGET_RULES:
            out[f"rules.kink_free_share.{r}"] = _ratio(
                total(lambda s: s["_kink_free"]), total(lambda s: s["_kink_total"]))

    setup = by_label["setup.gait"]
    out["network.build_network.s"] = _median(
        _self(s, "network.build_network") / max(_calls(s, "network.build_network"), 1)
        for s in setup)
    out["data.synthetic_teacher.s"] = _median(
        _self(s, "data.synthetic_teacher") / max(_calls(s, "data.synthetic_teacher"), 1)
        for s in setup)

    grid = by_label["grid"]
    cells = [c for s in grid for c in s["_cells"]]
    out["harness.gridsearch.cell_s.p50"] = _median(cells)
    out["harness.gridsearch.cell_s.max"] = max(cells, default=0.0)
    out["linalg.invert.calls.grid"] = _median(_calls(s, "linalg.invert") for s in grid)
    out["rules.ortho_reg_grad.calls.grid"] = _median(
        _calls(s, "rules.ortho_reg_grad") for s in grid)

    align = by_label["align"]
    reads = sum(_calls(s, "network.weight_inv") for s in align)
    out["linalg.invert.calls.align"] = _median(_calls(s, "linalg.invert") for s in align)
    out["linalg.invert.self_s.align"] = _median(_self(s, "linalg.invert") for s in align)
    out["network.weight_inv.reads.align"] = _median(
        _calls(s, "network.weight_inv") for s in align)
    out["network.weight_inv.hit_ratio.align"] = (
        1.0 - _ratio(sum(s["_inv_in_reads"] for s in align), reads) if reads else 0.0)
    out["diagnostics.align.self_s"] = _median(_self(s, "diagnostics.align") for s in align)

    eq = by_label["equilibrium"]
    sim_self = sum(_self(s, "dynamics.simulate") for s in eq)
    out["dynamics.simulate.self_s"] = _median(_self(s, "dynamics.simulate") for s in eq)
    out["dynamics.simulate.euler_steps_per_s"] = _ratio(
        sum(s["_euler"] for s in eq), sim_self)

    out["blas.gemm_gflops"] = gemm
    every = [s for runs in by_label.values() for s in runs]
    out["trace.covered_share"] = 1.0 - _ratio(sum(s["_root_self"] for s in every),
                                              sum(s["_root_dur"] for s in every))
    return out
