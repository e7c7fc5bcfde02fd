import copy

import numpy as np
import pytest

from gaitprop import AdamState, adam_step
from gaitprop.linalg import make_rng

from conftest import adam_step_oracle, make_net


def constant_update(net, value):
    return [np.full_like(l.weight, value) for l in net.layers]


class TestAdamStep:
    def test_zero_update_leaves_weights(self):
        net = make_net([6, 6], 3, seed=1)
        before = [l.weight.copy() for l in net.layers]
        state = AdamState(net)
        adam_step(state, net, constant_update(net, 0.0))
        assert state.t == 1
        for w0, layer in zip(before, net.layers):
            assert np.array_equal(w0, layer.weight)

    def test_first_step_magnitude_is_eta(self):
        net = make_net([5, 5], 2, seed=2)
        before = [l.weight.copy() for l in net.layers]
        state = AdamState(net, eta=1e-3)
        adam_step(state, net, constant_update(net, 0.5))
        for w0, layer in zip(before, net.layers):
            moved = np.abs(layer.weight - w0)
            # bias-corrected ratio is 1 up to the eps term
            assert np.abs(moved - 1e-3).max() < 1e-9

    def test_scalar_quadratic_converges(self):
        # minimize 0.5 (w - 3)^2 from w = 0
        w = np.array([[0.0]])
        state = AdamState.__new__(AdamState)
        state.eta, state.beta1, state.beta2, state.eps = 1e-2, 0.9, 0.99, 1e-8
        state.t = 0
        state.m = [np.zeros((1, 1))]
        state.v = [np.zeros((1, 1))]

        class Shim:
            def __init__(self):
                self.weight = w

        class NetShim:
            layers = [Shim()]
            depth = 1

        net = NetShim()
        losses = []
        for _ in range(400):
            g = net.layers[0].weight - 3.0            # gradient
            adam_step(state, net, [-g])
            losses.append(float(0.5 * (net.layers[0].weight[0, 0] - 3.0) ** 2))
        assert losses[-1] < losses[50] < losses[10]
        assert losses[-1] < 0.05

    def test_beta_zero_reduces_to_sign_sgd(self):
        net = make_net([4, 4], 2, seed=3)
        before = [l.weight.copy() for l in net.layers]
        state = AdamState(net, eta=1e-3, beta1=0.0, beta2=0.0, eps=1e-300)
        rng = make_rng(4)
        upd = [rng.standard_normal(l.weight.shape) for l in net.layers]
        adam_step(state, net, upd)
        for w0, layer, d in zip(before, net.layers, upd):
            step = layer.weight - w0
            assert np.abs(step - 1e-3 * np.sign(d)).max() < 1e-12

    def test_deterministic(self):
        results = []
        for _ in range(2):
            net = make_net([6, 6], 3, seed=5)
            state = AdamState(net, eta=1e-3)
            upd = [np.ones_like(l.weight) * 0.1 for l in net.layers]
            for _ in range(3):
                adam_step(state, net, upd)
            results.append([l.weight.copy() for l in net.layers])
        for a, b in zip(*results):
            assert np.array_equal(a, b)

    def test_bytes_match_fresh_array_step(self):
        # in-place moments must round exactly as the fresh-array formulas;
        # zero entries check that the sign of a zero survives too
        net = make_net([12, 9, 7], 5, seed=9)
        state = AdamState(net, eta=1e-3)
        ref_net, ref_state = copy.deepcopy(net), copy.deepcopy(state)
        rng = make_rng(10)
        for _ in range(30):
            upd = [rng.standard_normal(l.weight.shape) * (rng.random(l.weight.shape) > 0.2)
                   for l in net.layers]
            adam_step(state, net, upd)
            adam_step_oracle(ref_state, ref_net, upd)
        assert state.t == ref_state.t == 30
        for i, (layer, ref) in enumerate(zip(net.layers, ref_net.layers)):
            assert layer.weight.tobytes() == ref.weight.tobytes()
            assert state.m[i].tobytes() == ref_state.m[i].tobytes()
            assert state.v[i].tobytes() == ref_state.v[i].tobytes()

    def test_shape_mismatch_rejected(self):
        net = make_net([6, 6], 3, seed=6)
        state = AdamState(net)
        bad = [np.zeros((2, 2)), np.zeros((6, 6))]
        with pytest.raises(ValueError, match="shape"):
            adam_step(state, net, bad)

    def test_weight_inverse_refreshed_after_step(self):
        # the cached inverse must track the mutated weights
        net = make_net([5], 5, seed=7)
        _ = net.layers[0].weight_inv
        state = AdamState(net, eta=1e-2)
        adam_step(state, net, constant_update(net, 0.3))
        w = net.layers[0].weight
        assert np.abs(w @ net.layers[0].weight_inv - np.eye(5)).max() < 1e-10

    def test_bad_hyperparameters(self):
        net = make_net([4], 2, seed=8)
        with pytest.raises(ValueError):
            AdamState(net, eta=0.0)
        with pytest.raises(ValueError):
            AdamState(net, beta1=1.0)

    @pytest.mark.parametrize("eta", [np.nan, np.inf])
    def test_non_finite_eta_rejected(self, eta):
        with pytest.raises(ValueError, match="eta must lie in"):
            AdamState(make_net([4], 2, seed=8), eta=eta)

    @pytest.mark.parametrize("eps", [-1.0, np.nan, 0.0, np.inf])
    def test_eps_outside_open_half_line_rejected(self, eps):
        with pytest.raises(ValueError, match="eps must lie in"):
            AdamState(make_net([4], 2, seed=8), eps=eps)
