import csv

import numpy as np
import pytest

from gaitprop import (
    align,
    bp_updates,
    forward,
    gait_targets,
    ortho_drift,
    target_updates,
    tp_targets,
)
from gaitprop.diagnostics import SCATTER_PAIRS, write_alignment_csv, write_scatter_csv
from gaitprop.linalg import make_rng

from conftest import make_net


def toy_updates(rng, shapes):
    return [rng.standard_normal(s) for s in shapes]


class TestAlign:
    def test_self_alignment(self, rng):
        a = toy_updates(rng, [(4, 4), (3, 3)])
        rep = align(a, a, make_rng(0))
        assert rep.cosines == [pytest.approx(1.0), pytest.approx(1.0)]
        assert rep.norm_ratios == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_negated(self, rng):
        a = toy_updates(rng, [(4, 4)])
        b = [-d for d in a]
        rep = align(a, b, make_rng(0))
        assert rep.cosines[0] == pytest.approx(-1.0)

    def test_zero_norm_is_undefined_not_nan(self, rng):
        a = [np.zeros((3, 3))]
        b = toy_updates(rng, [(3, 3)])
        rep = align(a, b, make_rng(0))
        assert rep.cosines[0] is None
        assert rep.norm_ratios[0] == 0.0

    def test_cosine_symmetric(self, rng):
        a = toy_updates(rng, [(5, 5)])
        b = toy_updates(rng, [(5, 5)])
        ab = align(a, b, make_rng(0)).cosines[0]
        assert ab == pytest.approx(align(b, a, make_rng(0)).cosines[0])

    def test_scatter_on_diagonal_when_equal(self, rng):
        a = toy_updates(rng, [(6, 6)])
        rep = align(a, a, make_rng(0))
        pairs = rep.scatter[0]
        assert np.array_equal(pairs[:, 0], pairs[:, 1])

    def test_subsample_count_and_determinism(self, rng):
        a = toy_updates(rng, [(50, 50)])
        b = toy_updates(rng, [(50, 50)])
        r1 = align(a, b, make_rng(9))
        r2 = align(a, b, make_rng(9))
        assert r1.scatter[0].shape == (SCATTER_PAIRS, 2)
        assert np.array_equal(r1.scatter[0], r2.scatter[0])

    def test_shape_mismatch(self, rng):
        a = toy_updates(rng, [(3, 3)])
        b = toy_updates(rng, [(4, 4)])
        with pytest.raises(ValueError):
            align(a, b, make_rng(0))


class TestRuleAlignment:
    def test_gait_close_to_bp_tp_visibly_lower(self, rng):
        net = make_net([16] * 4, 10, seed=30)
        xs = rng.uniform(0, 1, (16, 64))
        trace = forward(net, xs)
        ts = trace.output() + rng.normal(0, 0.5, (10, 64))
        bp = bp_updates(net, trace, ts)
        gait = target_updates(trace, gait_targets(net, trace, ts, 1e-3))
        tp = target_updates(trace, tp_targets(net, trace, ts))
        gait_rep = align(gait, bp, make_rng(0))
        tp_rep = align(tp, bp, make_rng(0))
        for cg in gait_rep.cosines:
            assert cg > 0.999
        # at the output layer every rule reduces to the same local update,
        # so the separation shows up in the layers below
        for cg, ct in zip(gait_rep.cosines[:-1], tp_rep.cosines[:-1]):
            assert ct < cg


class TestOrthoDrift:
    def test_fresh_orthogonal_net(self):
        net = make_net([32, 32], 8, seed=31)
        assert all(e < 1e-9 for e in ortho_drift(net))

    def test_xavier_net_drifts(self):
        net = make_net([128, 128], 8, init="xavier", seed=32)
        errs = ortho_drift(net)
        assert all(e > 0.1 for e in errs)

    def test_finite_nonnegative(self):
        net = make_net([16, 12], 4, init="xavier", seed=33)
        for e in ortho_drift(net):
            assert np.isfinite(e) and e >= 0.0


class TestCsvOutput:
    def test_alignment_csv(self, tmp_path, rng):
        a = toy_updates(rng, [(4, 4), (3, 3)])
        rep = align(a, a, make_rng(0))
        path = tmp_path / "summary.csv"
        write_alignment_csv(rep, path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["layer", "cosine", "norm_ratio"]
        assert len(rows) == 3
        assert float(rows[1][1]) == pytest.approx(1.0)

    def test_scatter_csv(self, tmp_path, rng):
        a = toy_updates(rng, [(4, 4)])
        rep = align(a, a, make_rng(0))
        path = tmp_path / "scatter.csv"
        write_scatter_csv(rep, path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["layer", "elem_a", "elem_b"]
        assert len(rows) == 17  # a layer under SCATTER_PAIRS keeps every element

    def test_undefined_cosine_written_empty(self, tmp_path, rng):
        a = [np.zeros((3, 3))]
        b = toy_updates(rng, [(3, 3)])
        path = tmp_path / "undef.csv"
        write_alignment_csv(align(a, b, make_rng(0)), path)
        rows = list(csv.reader(path.open()))
        assert rows[1][1] == ""
