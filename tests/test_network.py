import numpy as np
import pytest

from gaitprop import (
    Activation,
    Layer,
    Network,
    build_network,
    forward,
    load_checkpoint,
    output,
    save_checkpoint,
)
from gaitprop.linalg import SingularMatrix, make_rng, orthogonal_init, xavier_init
from gaitprop.network import CheckpointError

from conftest import activation_inverse, augmented_inverse, inverse_layer, make_net, traced_peak


class TestActivation:
    def test_leaky_relu_values(self):
        a = Activation("leaky_relu", 0.01)
        assert a.forward(np.array([2.0]))[0] == 2.0
        assert a.forward(np.array([-2.0]))[0] == pytest.approx(-0.02)
        assert a.deriv(np.array([-2.0]))[0] == 0.01
        assert a.deriv(np.array([0.0]))[0] == 1.0  # right limit at the kink

    def test_linear_round_trip_exact(self):
        a = Activation("linear")
        x = make_rng(0).standard_normal(50)
        assert np.array_equal(activation_inverse(a, a.forward(x)), x)

    def test_leaky_round_trip(self):
        a = Activation("leaky_relu", 0.01)
        x = make_rng(1).standard_normal(200)
        assert np.abs(activation_inverse(a, a.forward(x)) - x).max() < 1e-12

    def test_leaky_forward_allocates_one_array(self):
        # the maximum goes back into the slope * x scratch: one array, not two
        x = make_rng(2).standard_normal((256, 4096))
        assert traced_peak(Activation("leaky_relu", 0.01).forward, x) < 1.5 * x.nbytes

    @pytest.mark.parametrize("kind", ["leaky_relu", "linear"])
    def test_passes_leave_their_input_untouched(self, kind):
        net = make_net([16, 8, 4], 2, kind=kind, seed=3)
        x = make_rng(4).standard_normal((16, 50))
        before = x.copy()
        net.layers[0].activation.forward(x)
        forward(net, x)
        output(net, x)
        assert x.tobytes() == before.tobytes()

    def test_bad_slope_rejected(self):
        with pytest.raises(ValueError):
            Activation("leaky_relu", 0.0)
        with pytest.raises(ValueError):
            Activation("leaky_relu", 1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Activation("tanh")


class TestForward:
    def test_identity_weights_linear(self):
        act = Activation("linear")
        layers = [Layer(np.eye(6), act, 4), Layer(np.eye(4), act, 3)]
        net = Network(layers)
        x = np.arange(1.0, 7.0)
        out = forward(net, x).output()[:, 0]
        assert np.array_equal(out, x[:3])

    def test_single_layer_matches_formula(self):
        net = make_net([8], 8, seed=3)
        x = make_rng(4).uniform(0, 1, 8)
        out = forward(net, x).output()[:, 0]
        h = net.layers[0].weight @ x
        expected = np.where(h >= 0, h, 0.01 * h)
        assert np.abs(out - expected).max() < 1e-15

    def test_trace_shapes(self):
        net = make_net([10, 8, 6], 4, seed=5)
        trace = forward(net, make_rng(6).uniform(0, 1, (10, 7)))
        assert trace.depth == 3
        for l, width in enumerate([10, 8, 6]):
            assert trace.activations[l].shape == (width, 7)
            assert trace.gains[l].shape == (width, 7)
        assert trace.output().shape == (4, 7)

    def test_gains_are_slope_or_one(self):
        net = make_net([12, 12], 5, seed=8)
        trace = forward(net, make_rng(9).standard_normal((12, 20)))
        for g in trace.gains:
            assert np.all((g == 1.0) | (g == 0.01))
            assert np.all(g > 0)

    def test_deterministic(self):
        net = make_net([9, 9], 3, seed=1)
        x = make_rng(2).uniform(0, 1, (9, 5))
        t1, t2 = forward(net, x), forward(net, x)
        for a, b in zip(t1.activations, t2.activations):
            assert np.array_equal(a, b)

    def test_width_mismatch(self):
        net = make_net([6, 6], 2, seed=0)
        with pytest.raises(ValueError, match="rows"):
            forward(net, np.ones(5))

    def test_rejects_nonfinite_input(self):
        net = make_net([4], 2, seed=0)
        with pytest.raises(ValueError, match="finite"):
            forward(net, np.array([1.0, np.inf, 0.0, 0.0]))


class TestOutput:
    @pytest.mark.parametrize("batch", [1, 300])
    @pytest.mark.parametrize("kind", ["leaky_relu", "linear"])
    @pytest.mark.parametrize("init", ["orthogonal", "xavier"])
    @pytest.mark.parametrize("widths", [[64] * 4, [64, 32, 16, 10]],
                             ids=["fixed", "halving"])
    def test_equals_forward_bit_for_bit(self, widths, init, kind, batch):
        net = make_net(widths, 10, kind=kind, init=init, seed=7)
        x = make_rng(8).uniform(0, 1, (64, batch))
        assert np.array_equal(output(net, x), forward(net, x).output())

    @pytest.mark.parametrize("x", [np.ones(5), np.array([1.0, np.inf, 0.0, 0.0, 0.0, 0.0])],
                             ids=["rows", "finite"])
    def test_rejects_what_forward_rejects(self, x):
        net = make_net([6, 6], 2, seed=0)
        with pytest.raises(ValueError) as by_forward:
            forward(net, x)
        with pytest.raises(ValueError) as by_output:
            output(net, x)
        assert str(by_output.value) == str(by_forward.value)


class TestInverseLayer:
    def test_round_trip(self):
        net = make_net([10], 10, seed=11)
        layer = net.layers[0]
        x = make_rng(12).uniform(-1, 1, 10)
        y = forward(Network([layer]), x).activations[0]
        assert np.abs(inverse_layer(layer, y)[:, 0] - x).max() < 1e-9

    def test_identity_linear_is_identity(self):
        layer = Layer(np.eye(5), Activation("linear"), 5)
        y = np.arange(5.0)
        assert np.allclose(inverse_layer(layer, y)[:, 0], y)

    def test_round_trip_many_vectors(self):
        layer = Layer(orthogonal_init(8, make_rng(13)), Activation("leaky_relu", 0.01), 8)
        xs = make_rng(14).standard_normal((8, 100))
        ys = layer.activation.forward(layer.weight @ xs)
        assert np.abs(inverse_layer(layer, ys) - xs).max() < 1e-10

    def test_singular_propagates(self):
        layer = Layer(np.ones((3, 3)), Activation("linear"), 3)
        with pytest.raises(SingularMatrix):
            inverse_layer(layer, np.ones(3))


class TestAugmentedInverse:
    def test_no_aux_equals_inverse_layer(self):
        layer = Layer(orthogonal_init(6, make_rng(15)), Activation("leaky_relu", 0.01), 6)
        y = make_rng(16).standard_normal(6)
        a = augmented_inverse(layer, y, np.zeros((0, 1)))
        b = inverse_layer(layer, y)
        assert np.array_equal(a, b)

    def test_forward_round_trip(self):
        net = make_net([8, 8], 5, seed=17)   # first layer: 8 forward of 8
        net2 = make_net([8, 5], 3, seed=17)
        layer = net2.layers[0]               # 8 total, 5 forward, 3 aux
        x = make_rng(18).uniform(0, 1, 8)
        trace = forward(net2, x)
        aux = trace.activations[0][trace.forward_widths[0]:]
        got = augmented_inverse(layer, trace.forward_part(0), aux)
        assert np.abs(got[:, 0] - x).max() < 1e-9

    def test_blockwise_hand_computation(self):
        w = orthogonal_init(4, make_rng(19))
        layer = Layer(w, Activation("leaky_relu", 0.01), 2)  # 2 aux units
        target_fwd = np.array([0.3, -0.4])
        aux = np.array([0.7, -0.1])
        got = augmented_inverse(layer, target_fwd, aux)[:, 0]
        full = np.concatenate([target_fwd, aux])
        pre = np.where(full >= 0, full, full / 0.01)
        expected = np.linalg.solve(w, pre)
        assert np.abs(got - expected).max() < 1e-12

    def test_width_mismatch(self):
        layer = Layer(np.eye(4), Activation("linear"), 2)
        with pytest.raises(ValueError):
            augmented_inverse(layer, np.ones(3), np.ones(1))


class TestFullNetworkRoundTrip:
    # The inverse chain amplifies rounding by up to 1/slope per layer, so
    # the slope for deep stacks must be large enough that (1/slope)^depth
    # stays clear of 1e-8 / eps. slope 0.01 is good to depth 4; depth 8
    # needs slope 0.1.
    @pytest.mark.parametrize("widths,classes,alpha", [
        ([6] * 3, 6, 0.01), ([12, 10, 8, 6], 4, 0.01), ([16] * 8, 5, 0.1),
    ])
    def test_layerwise_inversion_recovers_input(self, widths, classes, alpha):
        net = make_net(widths, classes, alpha=alpha, seed=20)
        x = make_rng(21).uniform(0, 1, widths[0])
        trace = forward(net, x)
        cur = trace.forward_part(net.depth - 1)
        for l in range(net.depth - 1, -1, -1):
            aux = trace.activations[l][trace.forward_widths[l]:]
            cur = augmented_inverse(net.layers[l], cur, aux)
        assert np.abs(cur[:, 0] - x).max() < 1e-8


class TestNetworkConstruction:
    def test_width_chain_enforced(self):
        act = Activation("linear")
        good = [Layer(np.eye(6), act, 4), Layer(np.eye(4), act, 2)]
        Network(good)
        bad = [Layer(np.eye(6), act, 4), Layer(np.eye(5), act, 2)]
        with pytest.raises(ValueError, match="forward_width"):
            Network(bad)

    def test_build_network_nonincreasing(self):
        with pytest.raises(ValueError, match="non-increasing"):
            build_network([4, 8], 2, Activation("linear"), "orthogonal", 0)
        with pytest.raises(ValueError, match="non-increasing"):
            build_network(np.array([4, 8]), 2, Activation("linear"), "orthogonal", 0)

    def test_weight_assignment_invalidates_inverse(self):
        net = make_net([5], 5, seed=22)
        layer = net.layers[0]
        inv1 = layer.weight_inv.copy()
        layer.weight = 2.0 * layer.weight
        assert np.abs(layer.weight_inv - inv1 / 2.0).max() < 1e-12

    def test_layer_init_deterministic_per_layer(self):
        # adding a layer must not change earlier layers' weights
        a = build_network([8, 8], 4, Activation("linear"), "orthogonal", 7)
        b = build_network([8, 8, 8], 4, Activation("linear"), "orthogonal", 7)
        assert np.array_equal(a.layers[0].weight, b.layers[0].weight)
        # a numpy array of widths builds the same network as a list
        c = build_network(np.array([8, 8, 8]), 4, Activation("linear"), "orthogonal", 7)
        for lb, lc in zip(b.layers, c.layers, strict=True):
            assert np.array_equal(lb.weight, lc.weight)
            assert lb.forward_width == lc.forward_width

    @pytest.mark.parametrize("init", ["orthogonal", "xavier"])
    def test_layer_streams_are_the_seeds_spawned_children(self, init):
        # build_network spawns one child at a time; the streams must equal
        # those of spawning every child at once
        net = build_network([6, 6, 5, 3], 2, Activation("linear"), init, 11)
        streams = make_rng(11).spawn(4)
        for layer, width, stream in zip(net.layers, (6, 6, 5, 3), streams):
            want = (orthogonal_init(width, stream) if init == "orthogonal"
                    else xavier_init(width, width, stream))
            assert layer.weight.tobytes() == want.tobytes()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        net = make_net([10, 8], 5, seed=23)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        back = load_checkpoint(path)
        assert back.depth == net.depth
        for la, lb in zip(net.layers, back.layers):
            assert np.array_equal(la.weight, lb.weight)
            assert la.forward_width == lb.forward_width
            assert la.activation == lb.activation

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        net = make_net([6], 3, seed=24)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        net = make_net([6], 3, seed=25)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)
