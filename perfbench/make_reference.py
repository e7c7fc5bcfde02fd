"""Compute the reference losses that the benchmark checks against.

The stored value is each rule's final ``mean_loss`` after one optimizer step
at the reference seed on each workload's network (``Workload.reference_config``). The relative tolerance comes from the
spread between runs under different BLAS thread counts. Run once per thread
count, then merge, from the repository root:

    OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py > perfbench/out/ref-1.json
    OPENBLAS_NUM_THREADS=2 python3 perfbench/make_reference.py > perfbench/out/ref-2.json
    python3 perfbench/make_reference.py --merge perfbench/out/ref-1.json perfbench/out/ref-2.json

``--merge`` writes ``perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# The tolerance is this many times the largest relative difference seen
# across thread counts, and never below the floor.
RTOL_MARGIN = 100.0
RTOL_FLOOR = 1e-10


def losses() -> dict:
    from gaitprop import harness
    import workloads as wls

    out = {}
    for name, wl in wls.WORKLOADS.items():
        out[name] = {}
        for rule in wls.RULES:
            rec = harness.train(wl.reference_config(rule))
            out[name][rule] = rec.epochs[-1]["mean_loss"]
    return {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS"), "losses": out}


def merge(paths: list[str]) -> dict:
    runs = []
    for p in paths:
        with open(p) as fh:
            runs.append(json.load(fh))
    first = runs[0]["losses"]
    worst = 0.0
    for run in runs[1:]:
        for name, by_rule in first.items():
            for rule, want in by_rule.items():
                got = run["losses"][name][rule]
                worst = max(worst, abs(got - want) / abs(want))
    return {
        "seed": 0,
        "threads_compared": [r["threads_env"] for r in runs],
        "max_rel_diff": worst,
        "rtol": max(RTOL_FLOOR, RTOL_MARGIN * worst),
        "losses": first,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--merge", nargs="+", metavar="JSON")
    args = parser.parse_args(argv)
    if args.merge:
        with open(HERE / "reference.json", "w") as fh:
            json.dump(merge(args.merge), fh, indent=1)
            fh.write("\n")
    else:
        print(json.dumps(losses(), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
