"""The branch-free leaky-ReLU kernels and the one-pass local update must give
the bytes of the select-based forms they replace, on every float64 class:
random magnitudes from 1e-320 to 1e300, ±0, ±subnormals, the extremes of
the normal range and ±inf."""

from dataclasses import replace

import numpy as np
import pytest

from gaitprop import Activation, forward, harness, rules
from gaitprop.harness import ExperimentConfig

from conftest import (inverse_displacement_oracle, leaky_deriv_oracle, leaky_forward_oracle,
                      local_updates_oracle, make_net, masked_ortho_oracle)

SLOPES = (1e-12, 0.01, 0.5, 1 - 1e-12)
TINY = np.nextafter(0.0, 1.0)
SPECIALS = np.array([0.0, TINY, 1e-310, 2.2250738585072014e-308, 1.0,
                     np.finfo(np.float64).max, np.inf])
SPECIALS = np.concatenate([SPECIALS, -SPECIALS])


def spread(rng, n: int) -> np.ndarray:
    """n values of random sign with log-uniform magnitudes in [1e-320, 1e300]."""
    return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-320, 300, n)


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("slope", SLOPES)
def test_leaky_forward_and_gain_match_select(slope, rng):
    act = Activation("leaky_relu", slope)
    for x in (SPECIALS, spread(rng, 1000), spread(rng, 600).reshape(20, 30),
              rng.standard_normal((64, 16))):
        assert same_bytes(act.forward(x), leaky_forward_oracle(act, x))
        assert same_bytes(act.deriv(x), leaky_deriv_oracle(act, x))


@pytest.mark.parametrize("slope", SLOPES)
@np.errstate(all="ignore")  # inf - inf and inf / inf give NaN in both forms
def test_inverse_displacement_matches_select(slope, rng):
    values = np.concatenate([SPECIALS, spread(rng, 40)])
    act, disp = np.meshgrid(values, values)  # every pair of classes
    act_n = rng.standard_normal((64, 32))
    cases = [(act, disp), (spread(rng, 1000), spread(rng, 1000)),
             # small blends of realistic activations, crossing rarely
             (act_n, act_n * rng.uniform(-2.0, 2.0, act_n.shape) * 1e-3),
             (act_n, rng.standard_normal(act_n.shape))]
    for a, d in cases:
        v, crossed = rules._inverse_displacement(a, d, slope)
        v_ref, crossed_ref = inverse_displacement_oracle(a, d, slope)
        assert same_bytes(v, v_ref)
        assert same_bytes(crossed, crossed_ref)


@pytest.mark.parametrize("gamma", [1.0, 1e-3, 0.37, 1e-6])
def test_local_updates_match_unfused_form(gamma, rng):
    for widths, classes, batch in (([12, 9, 5], 3, 7), ([8], 8, 1), ([16] * 4, 10, 64)):
        net = make_net(widths, classes, seed=3)
        trace = forward(net, rng.standard_normal((widths[0], batch)))
        errs = [rng.standard_normal((w, batch)) for w in trace.forward_widths]
        errs[0][0] = 0.0  # a zero row of updates must keep the sign of its zeros
        for got, want in zip(rules._local_updates(trace, errs, gamma),
                             local_updates_oracle(trace, errs, gamma)):
            assert same_bytes(got, want)


def old_ortho_grad(w, lam, mode):
    assert mode == "mask"
    return masked_ortho_oracle(w, lam)[1]


@pytest.mark.parametrize("rule", ["bp", "tp", "itp", "gait"])
def test_training_bytes_match_select_kernels(rule, tmp_path, monkeypatch):
    # The halving net has auxiliary units, and every rule's default cell but
    # bp's trains with the regularizer.
    cfg = ExperimentConfig(rule=rule, arch="halving", width=32, depth=3, classes=4,
                           epochs=2, train_samples=96, test_samples=32, batch_size=16,
                           seed=4)

    def run(name):
        path = tmp_path / name / "net.ckpt"
        record = harness.train(replace(cfg, save_checkpoint=str(path)))
        return record.epochs, path.read_bytes()

    new = run("new")
    calls = dict.fromkeys(["forward", "deriv", "_inverse_displacement", "_local_updates",
                           "ortho_reg_grad"], 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Activation, "forward", counted("forward", leaky_forward_oracle))
    monkeypatch.setattr(Activation, "deriv", counted("deriv", leaky_deriv_oracle))
    monkeypatch.setattr(rules, "_inverse_displacement",
                        counted("_inverse_displacement", inverse_displacement_oracle))
    monkeypatch.setattr(rules, "_local_updates",
                        counted("_local_updates", local_updates_oracle))
    monkeypatch.setattr(harness, "ortho_reg_grad", counted("ortho_reg_grad", old_ortho_grad))
    old = run("old")
    assert new == old
    unused = {"_inverse_displacement", "ortho_reg_grad"} if rule == "bp" else set()
    assert all((n > 0) != (name in unused) for name, n in calls.items()), calls
