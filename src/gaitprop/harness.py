"""Experiment orchestration: training runs, grid search, alignment and
equilibrium experiments, with reproducible seeded configs and CSV/JSON output.

Config files are flat ``key = value`` text (``#`` comments allowed); CLI
flags override file values. Every run record embeds the fully resolved
config, which is sufficient to reproduce the run.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__, files, linalg
from .data import Dataset, batches, check_teacher, load_idx, one_hot_batch, synthetic_teacher
from .diagnostics import AlignmentReport, align, ortho_drift
from .dynamics import CircuitConfig, equilibria, simulate
from .network import Activation, Layer, Network, build_network, check_widths, forward, \
    output, save_checkpoint
from .optim import AdamState, adam_step
from .rules import bp_updates, gait_targets, gait_updates, itp_targets, itp_updates, \
    ortho_reg_grad, tp_targets, tp_updates, update_scale

RULES = ("bp", "tp", "itp", "gait")

# Grid-search cells that were stable across depths, per rule. itp is not a
# reported rule; it borrows the gait cell.
BOLD_CELLS = {
    "bp": (1e-4, 0.0),
    "gait": (1e-4, 0.1),
    "itp": (1e-4, 0.1),
    "tp": (1e-5, 1000.0),
}

DEFAULT_ETAS = (1e-3, 1e-4, 1e-5)
DEFAULT_LAMBDAS = (0.0, 0.1, 10.0, 1000.0)
# Budget for the stacked weights of one lockstep group of sweep cells. The
# 12 default cells of the 64-32-16-10 halving net (525 KB) share one group;
# a 256x5 cell (2.6 MB) trains alone, since two of them in lockstep measured
# 0.94x the speed and a fifth more peak memory.
LOCKSTEP_BYTES = 1 << 20


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


class TrainingDiverged(Exception):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class ExperimentConfig:
    rule: str = "gait"
    arch: str = "fixed"            # fixed | halving (ignored when widths given)
    width: int = 784
    depth: int = 5
    widths: tuple[int, ...] | None = None
    classes: int = 10
    activation: str = "leaky_relu"
    alpha: float = 0.01
    init: str = "auto"             # auto | orthogonal | xavier
    eta: float | None = None       # None -> per-rule stable cell
    lam: float | None = None
    gamma: float = 1e-3
    reg_mode: str = "mask"
    batch_size: int = 64
    epochs: int = 50
    seed: int = 0
    data_seed: int = 1234
    dataset: str = "synthetic"     # synthetic | idx
    teacher_depth: int = 2
    train_samples: int = 2000
    test_samples: int = 500
    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    allow_init_mismatch: bool = False
    save_checkpoint: str | None = None

    def resolved_widths(self) -> tuple[int, ...]:
        if self.widths is not None:
            return tuple(self.widths)
        if not 1 <= self.depth <= sys.maxsize:  # no widths tuple that long can exist
            raise ConfigError(f"depth must lie in [1, {sys.maxsize}], got {self.depth}")
        if self.arch == "fixed":
            return (self.width,) * self.depth
        if self.arch == "halving":  # width >> i reaches 0 after width.bit_length() layers
            head = tuple(max(self.width >> i, self.classes)
                         for i in range(min(self.depth, self.width.bit_length())))
            return head + (self.classes,) * (self.depth - len(head))
        raise ConfigError(f"unknown arch {self.arch!r}")

    def resolved_eta(self) -> float:
        return self.eta if self.eta is not None else BOLD_CELLS[self.rule][0]

    def resolved_lam(self) -> float:
        return self.lam if self.lam is not None else BOLD_CELLS[self.rule][1]

    def resolved_init(self) -> str:
        lam = self.resolved_lam()
        paired = "xavier" if lam == 0.0 else "orthogonal"
        if self.init == "auto":
            return paired
        if self.init != paired and not self.allow_init_mismatch:
            raise ConfigError(
                f"init={self.init} with lam={lam} breaks the lam/init pairing "
                "(xavier iff lam == 0); set allow_init_mismatch to override"
            )
        return self.init

    def __post_init__(self):
        """Raise ConfigError unless the run can start. Every config, including
        each ``dataclasses.replace`` of one, is checked when it is built."""
        if self.rule not in RULES:
            raise ConfigError(f"unknown rule {self.rule!r}; choose from {RULES}")
        if self.dataset not in ("synthetic", "idx"):
            raise ConfigError(f"unknown dataset {self.dataset!r}")
        if self.dataset == "idx":
            missing = [k for k in ("train_images", "train_labels",
                                   "test_images", "test_labels")
                       if getattr(self, k) is None]
            if missing:
                raise ConfigError(f"dataset=idx needs paths: {', '.join(missing)}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be >= 1 and epochs >= 0")
        if min(self.train_samples, self.test_samples) < 0:
            raise ConfigError("train_samples and test_samples must be >= 0")
        if self.init not in ("auto", "orthogonal", "xavier"):
            raise ConfigError(f"unknown init {self.init!r}")
        if not self.gamma < 1.0:
            raise ConfigError(f"gamma must be < 1 for every rule, since align runs gait, "
                              f"whose blend is gamma * gain^2; got {self.gamma}")
        if self.reg_mode not in ("mask", "product"):
            raise ConfigError(f"unknown reg_mode {self.reg_mode!r}")
        eta, lam = self.resolved_eta(), self.resolved_lam()
        if not (0.0 < eta < np.inf and 0.0 <= lam < np.inf):
            raise ConfigError(f"eta must lie in (0, inf) and lam in [0, inf), "
                              f"got eta={eta}, lam={lam}")
        widths = self.resolved_widths()
        try:  # each range that a library object enforces is checked by that object
            update_scale(self.gamma, len(widths), 0)
            Activation(self.activation, self.alpha)
            check_widths(widths, self.classes)
            # the counts size a synthetic draw, but only cut idx files
            samples = self.train_samples + self.test_samples if self.dataset == "synthetic" else 0
            check_teacher(widths[0], self.teacher_depth, self.classes, samples)
            linalg.make_rng(self.seed)
            linalg.make_rng(self.data_seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        self.resolved_init()

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["widths"] = list(self.resolved_widths())
        out["eta"] = self.resolved_eta()
        out["lam"] = self.resolved_lam()
        out["init"] = self.resolved_init()
        return out


_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
# Keyed by annotation text: annotations in this module are strings
# (``from __future__ import annotations``).
_PARSERS = {"bool": lambda v: _BOOLS[v.lower()], "int": int, "float": float, "str": str,
            "tuple[int, ...]": lambda v: tuple(int(x) for x in v.split(","))}
_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _parse_value(key: str, value: str):
    """Convert one string value by its field's annotation; ``auto`` selects
    None for optional non-string fields."""
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    annotation = _FIELD_TYPES[key]
    kind = annotation.removesuffix(" | None")
    if kind != annotation and kind != "str" and value.lower() == "auto":
        return None
    try:
        return _PARSERS[kind](value)
    except (ValueError, KeyError):
        raise ConfigError(f"{key}: expected {kind}, got {value!r}") from None


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().lower()] = value.strip()
    return out


def config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    """Build a config from string values, type-checking every key."""
    return ExperimentConfig(**{key: _parse_value(key, value)
                               for key, value in mapping.items()})


def load_config(path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            mapping = parse_config_text(fh.read())
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None
    if overrides:
        mapping.update(overrides)
    return config_from_mapping(mapping)


@dataclass
class RunRecord:
    config: dict
    epochs: list[dict] = field(default_factory=list)
    peak_train_acc: float = 0.0
    peak_test_acc: float = 0.0
    final_train_acc: float = 0.0
    final_test_acc: float = 0.0
    wall_clock_s: float = 0.0
    version: str = __version__


def _load_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    n_in = cfg.resolved_widths()[0]
    if cfg.dataset == "idx":
        return (_load_idx_split(cfg, n_in, cfg.train_images, cfg.train_labels,
                                cfg.train_samples),
                _load_idx_split(cfg, n_in, cfg.test_images, cfg.test_labels,
                                cfg.test_samples))
    # One draw for train and test together, so both come from the same teacher.
    ds = _draw_teacher(cfg, cfg.train_samples + cfg.test_samples)
    train = Dataset(ds.inputs[:cfg.train_samples], ds.labels[:cfg.train_samples],
                    cfg.classes)
    test = Dataset(ds.inputs[cfg.train_samples:], ds.labels[cfg.train_samples:],
                   cfg.classes)
    return train, test


def _draw_teacher(cfg: ExperimentConfig, samples: int) -> Dataset:
    """The config's synthetic dataset, cut to its first ``samples`` rows: a
    draw's first rows do not depend on how many rows follow them."""
    return synthetic_teacher(cfg.resolved_widths()[0], cfg.teacher_depth, cfg.classes,
                             samples, linalg.make_rng(cfg.data_seed))


def _load_idx_split(cfg: ExperimentConfig, n_in: int, images, labels,
                    limit: int) -> Dataset:
    """One IDX pair, checked against the config's classes and input width and
    cut to its first ``limit`` samples (0 keeps all)."""
    try:
        ds = load_idx(images, labels, cfg.classes)
    except ValueError as exc:  # the Dataset rejects labels at or above classes
        raise ConfigError(f"{labels}: {exc}; classes={cfg.classes} is too small") from None
    if ds.inputs.shape[1] != n_in:
        raise ConfigError(f"{images}: {ds.inputs.shape[1]} pixels per image, but the "
                          f"input width is {n_in}")
    if limit and limit < len(ds):
        ds = Dataset(ds.inputs[:limit], ds.labels[:limit], cfg.classes)
    return ds


def build_from_config(cfg: ExperimentConfig) -> Network:
    return build_network(list(cfg.resolved_widths()), cfg.classes,
                         Activation(cfg.activation, cfg.alpha), cfg.resolved_init(),
                         cfg.seed)


def rule_updates(rule: str, net: Network, trace, t_out, gamma: float):
    if rule == "bp":
        return bp_updates(net, trace, t_out)
    if rule == "tp":
        return tp_updates(trace, tp_targets(net, trace, t_out))
    if rule == "itp":
        return itp_updates(trace, itp_targets(net, trace, t_out, gamma))
    if rule == "gait":
        return gait_updates(trace, gait_targets(net, trace, t_out, gamma))
    raise ConfigError(f"unknown rule {rule!r}")


def evaluate(net: Network, ds: Dataset) -> tuple[float, float]:
    """(accuracy, mean quadratic loss) over a dataset, in output-only passes
    of at most 2048 samples; argmax ties go to the lowest class index."""
    if len(ds) == 0:
        return 0.0, 0.0
    chunk = 2048
    hits = 0
    loss_sum = 0.0
    for start in range(0, len(ds), chunk):
        block = ds.inputs[start:start + chunk]
        labels = ds.labels[start:start + chunk]
        out = output(net, block.T)
        hits += int(np.sum(np.argmax(out, axis=0) == labels))
        t = one_hot_batch(labels, ds.n_classes)
        loss_sum += float(0.5 * np.sum((out - t) ** 2))
    return hits / len(ds), loss_sum / len(ds)


def train(cfg: ExperimentConfig,
          data: tuple[Dataset, Dataset] | None = None) -> RunRecord:
    """Full training run; deterministic under (config, seed).

    ``data`` is the (train, test) pair to use in place of loading the
    config's own; a sweep loads it once and passes it to every cell. A run
    is the lockstep training of a single cell, on plain 2-D weights.
    """
    return _train_cells([cfg], data)[0]


# The finiteness checks in the loop report divergence, not numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def _train_cells(cfgs: list[ExperimentConfig],
                 data: tuple[Dataset, Dataset] | None = None) -> list[RunRecord]:
    """Train cells that differ only in eta, lambda and seed in lockstep.

    The cells form one network whose weights carry a leading cell axis, so
    a step makes one numpy call per operation for all of them; one cell
    alone keeps plain 2-D weights. Each cell keeps its own seed, init,
    batch order, eta and lambda, and computes the bytes it computes alone.
    The group raises at the first failure of any cell, as a single run
    does. Every record's ``wall_clock_s`` is the group's wall time.
    """
    base = cfgs[0]
    if base.save_checkpoint:  # a run of one cell: gridsearch rejects checkpoints
        files.make_dir(os.path.dirname(base.save_checkpoint))
    started = time.perf_counter()
    train_ds, test_ds = _load_datasets(base) if data is None else data
    nets = [build_from_config(cfg) for cfg in cfgs]
    net = nets[0] if len(nets) == 1 else Network([
        Layer(np.stack([n.layers[i].weight for n in nets]), layer.activation,
              layer.forward_width) for i, layer in enumerate(nets[0].layers)])
    del nets  # a stack holds copies of the cells' weights
    etas = [cfg.resolved_eta() for cfg in cfgs]
    state = AdamState(net, eta=etas[0] if len(cfgs) == 1 else np.array(etas)[:, None, None])
    # Each distinct nonzero lambda with its cells, ``...`` for all: the
    # regularizer keeps a scalar lambda, and a cell with lambda 0 skips it, so
    # that no zero gradient turns a -0.0 update into +0.0.
    lams = np.array([cfg.resolved_lam() for cfg in cfgs])
    reg = [(lam, ... if (lams == lam).all() else np.flatnonzero(lams == lam))
           for lam in dict.fromkeys(lams.tolist()) if lam > 0.0]
    # labeled derivation keeps the batch-order stream disjoint from the layer
    # init streams, which are spawned children of the bare seed
    order_rngs = [linalg.make_rng(_derived_seed(cfg.seed, 1)) for cfg in cfgs]
    rngs = order_rngs[0] if len(cfgs) == 1 else order_rngs
    records = [RunRecord(config=cfg.to_dict()) for cfg in cfgs]

    for epoch in range(base.epochs):
        for x, t in batches(train_ds, base.batch_size, rngs):
            trace = forward(net, x)
            loss = 0.5 * np.sum((trace.output() - t) ** 2, axis=(-2, -1)) / x.shape[-1]
            if not np.isfinite(loss).all():
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}, rule {base.rule}")
            deltas = rule_updates(base.rule, net, trace, t, base.gamma)
            for lam, sel in reg:
                for i, layer in enumerate(net.layers):
                    deltas[i][sel] -= ortho_reg_grad(layer.weight[sel], lam, base.reg_mode)
            try:
                adam_step(state, net, deltas)
            except ValueError:  # the weight setter rejects non-finite entries
                raise TrainingDiverged(
                    f"non-finite weights at epoch {epoch}, rule {base.rule}") from None
        cells = [net] if len(cfgs) == 1 else [
            Network([Layer(layer.weight[c], layer.activation, layer.forward_width)
                     for layer in net.layers]) for c in range(len(cfgs))]
        for cell, record in zip(cells, records):
            train_acc, train_loss = evaluate(cell, train_ds)
            test_acc, test_loss = evaluate(cell, test_ds)
            if not np.isfinite(train_loss + test_loss):
                raise TrainingDiverged(f"non-finite loss after epoch {epoch}, "
                                       f"rule {base.rule}")
            record.epochs.append({
                "epoch": epoch,
                "train_acc": train_acc,
                "test_acc": test_acc,
                "mean_loss": train_loss,
                "ortho_errors": ortho_drift(cell),
            })

    wall = time.perf_counter() - started
    for record in records:
        if record.epochs:
            record.peak_train_acc = max(e["train_acc"] for e in record.epochs)
            record.peak_test_acc = max(e["test_acc"] for e in record.epochs)
            record.final_train_acc = record.epochs[-1]["train_acc"]
            record.final_test_acc = record.epochs[-1]["test_acc"]
        record.wall_clock_s = wall
    if base.save_checkpoint:
        save_checkpoint(net, base.save_checkpoint)
    return records


def write_run_outputs(record: RunRecord, out_dir) -> None:
    """run.json with the full record, epochs.csv with the per-epoch table."""
    files.write_bytes(os.path.join(out_dir, "run.json"),
                      json.dumps(asdict(record), indent=2).encode())
    n_layers = len(record.epochs[0]["ortho_errors"]) if record.epochs else 0
    files.write_csv(
        os.path.join(out_dir, "epochs.csv"),
        ["epoch", "train_acc", "test_acc", "mean_loss"]
        + [f"ortho_err_{i}" for i in range(n_layers)],
        ([e["epoch"], f"{e['train_acc']:.6f}", f"{e['test_acc']:.6f}",
          f"{e['mean_loss']:.9g}"] + [f"{v:.6g}" for v in e["ortho_errors"]]
         for e in record.epochs))


def _derived_seed(seed: int, *labels: int) -> int:
    return int(np.random.SeedSequence([seed, *labels]).generate_state(1)[0])


@dataclass
class GridResult:
    etas: list[float]
    lambdas: list[float]
    records: dict = field(default_factory=dict)   # (eta, lam) -> RunRecord
    failures: dict = field(default_factory=dict)  # (eta, lam) -> error string


def gridsearch(base: ExperimentConfig, etas, lambdas) -> GridResult:
    """Cross-product sweep over learning rate and regularizer strength.

    Cells are seeded independently but reproducibly from the base seed, and
    all are built, and so checked, before any trains; a repeated eta or
    lambda is rejected, since its cells would train once but be tabled twice,
    and so is a checkpoint path, which every cell would overwrite. The cells
    differ only in eta, lambda and seed, so the dataset is loaded once and
    shared. A failing run is recorded and the sweep continues.

    Cells train in lockstep groups (``_train_cells``) whose stacked weights
    fit in ``LOCKSTEP_BYTES``, each cell byte-identical to its own ``train``;
    a cell above that budget trains alone through ``train``. A group stops
    at its first failure, and its cells then retrain alone, each for its own
    record or error. A lockstep record's ``wall_clock_s`` is its group's
    wall time; a record trained alone has its own.
    """
    etas, lambdas = list(etas), list(lambdas)
    if not etas or not lambdas:
        raise ConfigError("gridsearch needs non-empty eta and lambda lists")
    if base.save_checkpoint:
        raise ConfigError("save_checkpoint applies to train only; every gridsearch "
                          "cell would overwrite it")
    for name, values in (("etas", etas), ("lambdas", lambdas)):
        if len(set(values)) != len(values):
            raise ConfigError(f"gridsearch {name} {values} repeat a value")
    cells = {(eta, lam): replace(base, eta=eta, lam=lam, seed=_derived_seed(base.seed, i, j))
             for i, eta in enumerate(etas) for j, lam in enumerate(lambdas)}
    data = _load_datasets(base)
    result = GridResult(etas=etas, lambdas=lambdas)
    keys = list(cells)
    cell_bytes = 8 * sum(n * n for n in base.resolved_widths())
    size = max(1, LOCKSTEP_BYTES // cell_bytes)
    for group in (keys[i:i + size] for i in range(0, len(keys), size)):
        cfgs = [cells[cell] for cell in group]
        try:
            outcomes = (_train_cells(cfgs, data) if size > 1
                        else [_train_alone(cfgs[0], data)])
        except (TrainingDiverged, linalg.SingularMatrix):  # the group stopped
            outcomes = [_train_alone(cfg, data) for cfg in cfgs]
        for cell, out in zip(group, outcomes):
            if isinstance(out, Exception):
                result.failures[cell] = f"{type(out).__name__}: {out}"
            else:
                result.records[cell] = out
    return result


def _train_alone(cfg: ExperimentConfig,
                 data: tuple[Dataset, Dataset]) -> RunRecord | Exception:
    """A sweep cell's RunRecord, or the exception its own run raises."""
    try:
        return train(cfg, data)
    except (TrainingDiverged, linalg.SingularMatrix) as exc:
        return exc


def write_grid_csv(result: GridResult, path) -> None:
    """Peak/final train-accuracy table: one row per eta, one column per lambda."""
    def cell(eta, lam) -> str:
        rec = result.records.get((eta, lam))
        if rec is None:
            return f"failed: {result.failures[(eta, lam)]}"
        return f"{100 * rec.peak_train_acc:.2f} / {100 * rec.final_train_acc:.2f}"

    files.write_csv(path, ["eta"] + [f"lambda={lam:g}" for lam in result.lambdas],
                    ([f"{eta:g}"] + [cell(eta, lam) for lam in result.lambdas]
                     for eta in result.etas))


def align_experiment(cfg: ExperimentConfig, n_samples: int
                     ) -> dict[str, dict[str, AlignmentReport]]:
    """Alignment of TP and GAIT updates against BP on an untrained network,
    for both init modes. Returns reports keyed [init][rule]."""
    if n_samples < 1:
        raise ConfigError("n_samples must be >= 1")
    available = cfg.train_samples
    if cfg.dataset == "idx":  # the train pair only; loading it counts its rows
        train_ds = _load_idx_split(cfg, cfg.resolved_widths()[0], cfg.train_images,
                                   cfg.train_labels, cfg.train_samples)
        available = len(train_ds)
    if n_samples > available:
        raise ConfigError(f"only {available} samples available")
    if cfg.dataset != "idx":  # draw only the rows that are read
        train_ds = _draw_teacher(cfg, n_samples)
    x = train_ds.inputs[:n_samples].T
    t = one_hot_batch(train_ds.labels[:n_samples], train_ds.n_classes)
    reports: dict[str, dict[str, AlignmentReport]] = {}
    for init in ("orthogonal", "xavier"):
        net = build_from_config(replace(cfg, init=init, allow_init_mismatch=True))
        trace = forward(net, x)
        bp = rule_updates("bp", net, trace, t, cfg.gamma)
        reports[init] = {}
        for rule in ("tp", "gait"):
            reports[init][rule] = align(rule_updates(rule, net, trace, t, cfg.gamma), bp,
                                        rng=linalg.make_rng(cfg.seed))
    return reports


def equilibrium_sweep(nus, seed: int = 0, dt: float = 0.01, onset: float = 50.0,
                      duration: float = 130.0) -> list[dict]:
    """Simulated vs analytic equilibria of the feedback circuit per coupling.

    The circuit has 4 units and tau = 1. Its weight is a random invertible
    matrix with singular values in [0.5, 2]; x and t2 are standard normal
    draws, all pinned by the seed. All couplings run in one lockstep
    ``simulate`` call.
    """
    nus = tuple(float(nu) for nu in nus)
    size = 4
    rng = linalg.make_rng(seed)
    u = linalg.orthogonal_init(size, rng)
    v = linalg.orthogonal_init(size, rng)
    w = u @ np.diag(rng.uniform(0.5, 2.0, size)) @ v
    cfg = CircuitConfig(weight=w, couplings=nus, tau=1.0, x=rng.standard_normal(size),
                        t2=rng.standard_normal(size), dt=dt, duration=duration,
                        onset=onset)
    traj = simulate(cfg)
    y1, y1_shifted, gamma = equilibria(cfg)
    k_onset = int(round(onset / dt))
    rows = []
    for i, nu in enumerate(nus):
        row = {"nu": nu, "gamma": float(gamma[i]),
               "diverged": traj.diverged_at[i] is not None,
               "err_before_onset": float("nan"), "err_after_onset": float("nan")}
        if not row["diverged"]:
            row["err_before_onset"] = float(np.abs(traj.u1[k_onset - 1, i] - y1[i]).max())
            row["err_after_onset"] = float(np.abs(traj.u1[-1, i] - y1_shifted[i]).max())
        rows.append(row)
    return rows


def write_equilibrium_csv(rows: list[dict], path) -> None:
    files.write_csv(path, ["nu", "gamma", "err_before_onset", "err_after_onset",
                           "diverged"],
                    ([f"{r['nu']:g}", f"{r['gamma']:.12g}",
                      f"{r['err_before_onset']:.6g}", f"{r['err_after_onset']:.6g}",
                      int(r["diverged"])] for r in rows))
