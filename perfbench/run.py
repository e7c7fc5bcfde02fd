"""Benchmark of gaitprop: per-rule training throughput, the sweep paths and
an outside-in layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload train-256 --seed 1 --seconds 60 --trace 0

The program is imported from ``src/`` next to this directory, never from an
installed copy. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The line before it records the environment. The full result, and with
``--trace 1`` every span, is also written under ``perfbench/out/``.

BLAS thread variables are recorded but never set: the program runs as users
run it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_revision() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_revision": _git_revision(),
    }


def _metrics(values: dict[str, float], names) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "gaitprop" / "__init__.py").is_file():
        print(f"error: the program's source {SRC / 'gaitprop'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gaitprop
    if Path(gaitprop.__file__).resolve().parent != (SRC / "gaitprop").resolve():
        print(f"error: imported gaitprop from {gaitprop.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import workloads as wls

    if args.workload not in wls.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(wls.WORKLOADS)}")
    wl = wls.WORKLOADS[args.workload]
    ref = json.loads((HERE / "reference.json").read_text())
    bench = wls.Bench(wl, args.seed, bool(args.trace),
                      ref["losses"][wl.name], ref["rtol"])
    bench.reference_pass()
    bench.timed_rounds(args.seconds)

    metrics: dict = {}
    if bench.correct:
        if args.trace:
            metrics = _metrics(bench.per_layer(), wls.PER_LAYER)
        else:
            metrics = _metrics(bench.end_to_end(), wls.END_TO_END)
    else:
        for problem in bench.problems:
            print(f"check failed: {problem}", file=sys.stderr)

    env = environment(wl.name, args.seed)
    result = {"correct": bench.correct, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump({"env": env, "result": result, "problems": bench.problems,
                   "rounds": bench.rounds, "walls_s": bench.walls,
                   "align_calls_outside_theorem": bench.align_kinked,
                   "traced_walls_s": bench.traced_walls,
                   "missing_layers": bench.tracer.missing if bench.tracer else []},
                  fh, indent=1)
    if bench.tracer is not None:
        bench.tracer.dump_csv(stem.with_suffix(".spans.csv"))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if bench.correct else 1


if __name__ == "__main__":
    sys.exit(main())
