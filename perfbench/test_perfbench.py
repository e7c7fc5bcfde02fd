"""Tests of the benchmark itself. From the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wls  # noqa: E402
from gaitprop import harness, linalg, network  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(wl: wls.Workload) -> wls.Workload:
    """The workload's shape at a size that runs in about a second."""
    def shrink(cfg):
        if cfg.arch == "fixed":
            return replace(cfg, width=16, depth=3, train_samples=128, test_samples=32)
        return replace(cfg, width=32, depth=3, train_samples=128, test_samples=32)

    return replace(wl, train=shrink(wl.train), grid=shrink(wl.grid),
                   samples={r: 128 for r in wls.RULES},
                   plan=tuple((phase, 3 if phase.startswith("train") else 1)
                              for phase, _ in wl.plan),
                   min_rounds=1, align_samples=16)


def tiny_bench(name: str, trace: bool) -> wls.Bench:
    wl = tiny(wls.WORKLOADS[name])
    reference = {r: harness.train(wl.reference_config(r)).epochs[-1]["mean_loss"]
                 for r in wls.RULES}
    bench = wls.Bench(wl, seed=3, trace=trace, reference=reference, rtol=1e-9)
    bench.reference_pass()
    bench.timed_rounds(0.01)
    assert bench.correct, bench.problems
    assert bench.failed == 0 and bench.attempted > 0
    return bench


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(wls.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(wls.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(wls.PER_LAYER)


@pytest.mark.parametrize("name", list(wls.WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(name):
    metrics = run._metrics(tiny_bench(name, trace=False).end_to_end(), wls.END_TO_END)
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]) and got["value"] > 0, m["name"]


def test_tiny_traced_run_emits_every_per_layer_metric():
    bench = tiny_bench("train-256", trace=True)
    values = bench.per_layer()
    assert set(values) == {m["name"] for m in SPEC["per_layer"]}
    assert all(math.isfinite(v) for v in values.values())
    assert values["linalg.invert.calls.bp"] == 0
    assert values["linalg.invert.calls.gait"] == 2 * 2  # 2 steps x 2 inverted layers
    assert values["network.weight_inv.hit_ratio.align"] == 0.5
    assert values["rules.ortho_reg_grad.calls.grid"] > 0
    gait_calls = sum(n for phase, n in bench.wl.rounds_plan() if phase == "train.gait")
    assert values["harness.train.steps.gait"] == gait_calls * 2  # one round, 2 steps a call


def test_self_time_subtracts_direct_children():
    # a: 0-10 holds b: 1-5 (which holds c: 2-4) and d: 6-9.
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 9.0, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    tr.begin_run("r")
    a = tr.open("a")
    b = tr.open("b")
    c = tr.open("c")
    tr.close(c)
    tr.close(b)
    d = tr.open("d")
    tr.close(d)
    tr.close(a)
    t = tr.table()
    assert list(t.parent) == [-1, a, b, a]
    assert list(t.dur) == [10.0, 4.0, 2.0, 3.0]
    assert list(t.self_s) == [3.0, 2.0, 2.0, 3.0]
    assert list(t.roots(t.in_runs([0]))) == [a]


def test_wrapped_calls_nest_and_store_info():
    tr = Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = tr.wrap("inner", inner, info=lambda args, kw, out: out * 10)
    outer = tr.wrap("outer", lambda x: wrapped_inner(x) * 2)
    tr.begin_run("r")
    assert outer(1) == 4
    t = tr.table()
    assert t.names == ["outer", "inner"]
    assert list(t.parent) == [-1, 0]
    assert t.infos == [None, 20]
    assert t.self_s[0] == pytest.approx(t.dur[0] - t.dur[1])


def _attrs(obj) -> dict:
    return dict(vars(obj))


def test_tracer_restores_what_it_wraps():
    owners = (harness, linalg, network.Layer)
    before = [_attrs(o) for o in owners]
    tiny_bench("small-64", trace=True)
    tr = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tr.traced(wls.trace_targets(), "raises"):
            assert harness.train is not before[0]["train"]
            1 / 0
    for owner, snap in zip(owners, before):
        after = _attrs(owner)
        assert after.keys() == snap.keys()
        assert all(after[k] is snap[k] for k in snap), owner


def test_missing_layer_is_warned_and_reports_zero_calls():
    tr = Tracer()
    targets = [Target("harness.removed_later", harness, "removed_later"),
               Target("linalg.invert", linalg, "invert",
                      lambda a, kw, inv: inv.shape[0])]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tr.traced(targets, "r"):
            linalg.invert(linalg.orthogonal_init(4, linalg.make_rng(0)))
    assert tr.missing == ["harness.removed_later"]
    assert any("harness.removed_later" in str(w.message) for w in caught)
    assert not hasattr(harness, "removed_later")
    t = tr.table()
    idx = t.in_runs([0])
    assert len(t.named(idx, "harness.removed_later")) == 0
    assert len(t.named(idx, "linalg.invert")) == 1
    assert t.infos == [4]


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "small-64",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_trimmed_mean_drops_a_tenth_at_each_end():
    assert wls.trimmed_mean([3.0, 1.0, 2.0]) == 2.0  # under 10 samples none is dropped
    assert wls.trimmed_mean([float(x) for x in range(1, 10)] + [0.0, 100.0]) == 5.0
