"""The equivalence theorems on random shapes: depth 1-6, non-increasing
widths 2-64 (so auxiliary units), any class count the last layer holds,
leaky slope 0.01-0.9, gamma 1e-6 to 1e-2 and batches of 1-8, at orthogonal
init, where gait's updates equal bp's (PAPER.md, arXiv 2006.06438). Fixed
nets from 96 to 784 wide cover the target rules' solve path, which starts
at ``linalg.SOLVE_WIDTH``; the random widths, 64 at most, never reach it."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gaitprop import (Activation, bp_updates, build_network,
                      correction_matrices, forward, gait_targets, itp_targets,
                      load_checkpoint, output, save_checkpoint, target_updates, tp_targets)
from gaitprop.linalg import make_rng

EPS = np.finfo(np.float64).eps


def check_theorems(net, x, t, gamma: float, path) -> None:
    trace = forward(net, x)
    assert output(net, x).tobytes() == trace.output().tobytes()

    tp = target_updates(trace, tp_targets(net, trace, t))
    itp_one = target_updates(trace, itp_targets(net, trace, t, 1.0))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(itp_one, tp))
    gait_stack = gait_targets(net, trace, t, gamma)
    updates = [tp, target_updates(trace, itp_targets(net, trace, t, gamma)),
               target_updates(trace, gait_stack)]
    for upd in updates:
        for l, layer in enumerate(net.layers):
            assert np.all(upd[l][layer.forward_width:] == 0.0)

    # gait is bp on the samples that crossed no kink while blending
    calm = gait_stack.sign_flips == 0
    if calm.any():
        sub = forward(net, x[:, calm])
        stack = gait_targets(net, sub, t[:, calm], gamma)
        assert np.all(stack.sign_flips == 0)
        bp = bp_updates(net, sub, t[:, calm])
        for g, b in zip(target_updates(sub, stack), bp):
            assert np.abs(g - b).max() <= 1e-14 * np.abs(b).max()

    save_checkpoint(net, path)
    blob = path.read_bytes()
    again = load_checkpoint(path)
    assert all(a.weight.tobytes() == b.weight.tobytes()
               for a, b in zip(net.layers, again.layers))
    save_checkpoint(again, path)
    assert path.read_bytes() == blob


def check_gait_correction_is_identity(net, x, gamma: float) -> None:
    """On a net whose layers below the output have no auxiliary units. The
    operator conjugates ``W^T W = I + O(n u)`` by the gain ratios of the
    layers it spans, each up to 1/slope, so that is the rounding budget."""
    trace = forward(net, x[:, :1])
    ratios = [g.max() / g.min() for g in trace.gains]
    for l in range(net.depth - 1):
        n = net.layers[l].total_width
        m = correction_matrices(net, trace, l)
        budget = 16 * n * EPS * np.prod(ratios[l:-1])
        assert np.abs(m.gait - np.eye(n)).max() <= budget


@st.composite
def problems(draw):
    depth = draw(st.integers(1, 6))
    widths = sorted(draw(st.lists(st.integers(2, 64), min_size=depth, max_size=depth)),
                    reverse=True)
    classes = draw(st.integers(1, widths[-1]))
    slope = draw(st.floats(0.01, 0.9))
    gamma = 10.0 ** draw(st.floats(-6.0, -2.0))
    batch = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**16))
    return widths, classes, slope, gamma, batch, seed


def make_problem(widths, classes, slope, batch, seed):
    net = build_network(widths, classes, Activation("leaky_relu", slope), "orthogonal", seed)
    rng = make_rng(seed + 1)
    x = rng.uniform(0.0, 1.0, (widths[0], batch))
    t = output(net, x) + rng.normal(0.0, 0.5, (classes, batch))
    return net, x, t


@settings(max_examples=150, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(problem=problems())
def test_theorems_hold_across_shapes(problem, tmp_path):
    widths, classes, slope, gamma, batch, seed = problem
    net, x, t = make_problem(widths, classes, slope, batch, seed)
    check_theorems(net, x, t, gamma, tmp_path / "net.ckpt")
    square, _, _ = make_problem([widths[0]] * len(widths), classes, slope, batch, seed)
    check_gait_correction_is_identity(square, x, gamma)


@pytest.mark.parametrize("widths, classes, batch", [
    ([784, 784], 10, 4),
    ([784, 392, 196], 10, 3),
    ([96, 96, 96], 10, 8),
    ([128, 96, 48, 32], 10, 8),  # solves at 96, inverts at 48 and 32
])
def test_theorems_hold_at_paper_width(widths, classes, batch, tmp_path):
    net, x, t = make_problem(widths, classes, 0.01, batch, seed=7)
    check_theorems(net, x, t, 1e-3, tmp_path / "net.ckpt")
