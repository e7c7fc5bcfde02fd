"""Command-line interface.

Subcommands: train, gridsearch, align, equilibrium, datagen,
checkpoint-inspect. Exit code 0 on success; 2 for configuration problems;
1 for runtime failures (singular weights, divergence, bad or unwritable
files, memory exhausted), always with a typed one-line error on stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import files, linalg
from .data import IdxError, synthetic_teacher_quantized, write_idx
from .diagnostics import write_alignment_csv, write_scatter_csv
from .harness import (
    ConfigError,
    DEFAULT_ETAS,
    DEFAULT_LAMBDAS,
    ExperimentConfig,
    TrainingDiverged,
    align_experiment,
    config_from_mapping,
    equilibrium_sweep,
    gridsearch,
    load_config,
    train,
    write_equilibrium_csv,
    write_grid_csv,
    write_run_outputs,
)
from .network import CheckpointError, load_checkpoint


def _resolve_config(args) -> ExperimentConfig:
    overrides = dict(args.set or [])
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.config:
        return load_config(args.config, overrides)
    return config_from_mapping(overrides)


def _key_value(s: str) -> tuple[str, str]:
    if "=" not in s:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {s!r}")
    key, value = s.split("=", 1)
    return key.strip(), value.strip()


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", type=int, help="override the run seed")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   type=_key_value, help="override any config key (repeatable)")
    p.add_argument("--out", default="out", help="output directory")


def _cmd_train(args) -> int:
    cfg = _resolve_config(args)
    record = train(cfg)
    write_run_outputs(record, args.out)
    print(f"rule={cfg.rule} peak_train={100 * record.peak_train_acc:.2f}% "
          f"peak_test={100 * record.peak_test_acc:.2f}% "
          f"final_train={100 * record.final_train_acc:.2f}% "
          f"final_test={100 * record.final_test_acc:.2f}% "
          f"({record.wall_clock_s:.1f}s)")
    print(f"outputs in {args.out}/run.json and {args.out}/epochs.csv")
    return 0


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None


def _cmd_gridsearch(args) -> int:
    cfg = _resolve_config(args)
    etas = _parse_floats(args.etas) if args.etas is not None else list(DEFAULT_ETAS)
    lambdas = (_parse_floats(args.lambdas) if args.lambdas is not None
               else list(DEFAULT_LAMBDAS))
    result = gridsearch(cfg, etas, lambdas)
    table = os.path.join(args.out, f"grid_{cfg.rule}.csv")
    write_grid_csv(result, table)
    for (eta, lam), rec in sorted(result.records.items()):
        print(f"eta={eta:g} lambda={lam:g}: "
              f"{100 * rec.peak_train_acc:.2f} / {100 * rec.final_train_acc:.2f}")
    for (eta, lam), err in sorted(result.failures.items()):
        print(f"eta={eta:g} lambda={lam:g}: FAILED ({err})")
    print(f"table written to {table}")
    return 0


def _cmd_align(args) -> int:
    cfg = _resolve_config(args)
    reports = align_experiment(cfg, args.samples)
    for init, by_rule in reports.items():
        for rule, rep in by_rule.items():
            stem = os.path.join(args.out, f"align_{init}_{rule}_vs_bp")
            write_alignment_csv(rep, stem + ".csv")
            write_scatter_csv(rep, stem + "_scatter.csv")
            cosines = ", ".join("undef" if c is None else f"{c:.6f}"
                                for c in rep.cosines)
            print(f"{init:>10} {rule}-vs-bp cosines: [{cosines}]")
    print(f"CSV files in {args.out}/")
    return 0


def _cmd_equilibrium(args) -> int:
    try:  # the sweep's one config checks every coupling before any runs
        rows = equilibrium_sweep(_parse_floats(args.nus), seed=args.seed, dt=args.dt)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    path = os.path.join(args.out, "equilibrium.csv")
    write_equilibrium_csv(rows, path)
    for r in rows:
        status = "diverged" if r["diverged"] else (
            f"err_before={r['err_before_onset']:.3g} "
            f"err_after={r['err_after_onset']:.3g}")
        print(f"nu={r['nu']:g} gamma={r['gamma']:.6g} {status}")
    print(f"table written to {path}")
    return 0


def _cmd_datagen(args) -> int:
    side = math.isqrt(max(args.n_in, 0))
    if args.n_in < 1 or side * side != args.n_in:
        raise ConfigError("n_in must be a positive perfect square to emit IDX images")
    if min(args.train, args.test) < 0:
        raise ConfigError("--train and --test must be >= 0")
    if args.classes > 256:
        raise ConfigError("--classes must be at most 256: an IDX label is one byte")
    try:  # the teacher and the seed are checked before anything is drawn
        pixels, labels = synthetic_teacher_quantized(
            args.n_in, args.depth, args.classes, args.train + args.test, args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    splits = {"train": slice(0, args.train), "test": slice(args.train, None)}
    for name, sl in splits.items():
        imgs = pixels[sl].reshape(-1, side, side)
        write_idx(imgs, labels[sl],
                  os.path.join(args.out, f"{name}-images-idx3-ubyte"),
                  os.path.join(args.out, f"{name}-labels-idx1-ubyte"))
        print(f"{name}: {imgs.shape[0]} samples")
    print(f"IDX files in {args.out}/")
    return 0


# A stored weight near float64's limit reports a norm of inf, not a warning.
@np.errstate(over="ignore", invalid="ignore")
def _cmd_inspect(args) -> int:
    net = load_checkpoint(args.checkpoint)
    print(f"layers: {net.depth}, input width: {net.input_width}, "
          f"output width: {net.output_width}")
    for i, layer in enumerate(net.layers):
        err = linalg.orthogonality_error(layer.weight)
        act = layer.activation
        act_desc = act.kind + (f"(slope={act.slope:g})" if act.kind == "leaky_relu" else "")
        print(f"  layer {i}: total={layer.total_width} forward={layer.forward_width} "
              f"aux={layer.aux_width} act={act_desc} "
              f"|W|_F={np.linalg.norm(layer.weight):.4g} ortho_err={err:.4g}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a malformed command line is a config mistake
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gaitprop",
        description="Train and cross-validate invertible MLPs with "
                    "backprop, target propagation, and incremental variants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="single training run")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("gridsearch", help="eta x lambda sweep")
    _add_config_flags(p)
    p.add_argument("--etas", help="comma-separated learning rates")
    p.add_argument("--lambdas", help="comma-separated regularizer strengths")
    p.set_defaults(func=_cmd_gridsearch)

    p = sub.add_parser("align", help="update alignment on an untrained network")
    _add_config_flags(p)
    p.add_argument("--samples", type=int, default=64)
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("equilibrium", help="feedback-circuit equilibrium sweep")
    p.add_argument("--nus", default="0,0.1,0.25,0.4")
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_equilibrium)

    p = sub.add_parser("datagen", help="write a synthetic teacher dataset as IDX")
    p.add_argument("--n-in", type=int, default=16, dest="n_in")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--train", type=int, default=2000)
    p.add_argument("--test", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_datagen)

    p = sub.add_parser("checkpoint-inspect", help="describe a checkpoint file")
    p.add_argument("checkpoint")
    p.set_defaults(func=_cmd_inspect)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if hasattr(args, "out"):  # checkpoint-inspect writes nothing
            files.make_dir(args.out)
            files.check_writable(args.out)
        return args.func(args)
    except ConfigError as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"error[divergence]: {exc}", file=sys.stderr)
        return 1
    except linalg.SingularMatrix as exc:
        print(f"error[singular-matrix]: {exc}", file=sys.stderr)
        return 1
    except (IdxError, CheckpointError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error[missing-file]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # an input sized past this machine's memory
        print(f"error[memory]: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
