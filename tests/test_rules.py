import numpy as np
import pytest

from gaitprop import (
    Activation,
    Layer,
    Network,
    bp_updates,
    correction_matrices,
    forward,
    gait_targets,
    itp_targets,
    ortho_penalty,
    ortho_reg_grad,
    rules,
    target_updates,
    tp_targets,
)
from gaitprop.linalg import make_rng, orthogonal_init, xavier_init

from conftest import (
    augmented_inverse,
    controlled_matrix,
    fd_weight_grad,
    local_updates_oracle,
    loss_to_target,
    make_net,
    masked_ortho_oracle,
    net_from_weights,
    quadratic_loss,
    sample_away_from_kinks,
    stack_targets,
)

GAMMA = 1e-3


def linear_net(n, depth, rng, orthogonal=False, classes=None):
    make = (lambda: orthogonal_init(n, rng)) if orthogonal \
        else (lambda: controlled_matrix(n, rng))
    return net_from_weights([make() for _ in range(depth)],
                            classes or n, kind="linear")


def update_chain_f(net, l):
    """F_l = W_last ... W_(l+1), the forward map from layer l to the output."""
    f = np.eye(net.layers[l].forward_width)
    for j in range(l + 1, net.depth):
        f = net.layers[j].weight @ f
    return f


class TestBpUpdates:
    def test_zero_error_gives_zero_updates(self, rng):
        net = make_net([8, 8], 4, seed=1)
        trace = forward(net, rng.uniform(0, 1, 8))
        upd = bp_updates(net, trace, trace.output())
        for d in upd:
            assert np.all(d == 0.0)

    def test_single_linear_layer_formula(self, rng):
        w = controlled_matrix(5, rng)
        net = net_from_weights([w], 5, kind="linear")
        x = rng.standard_normal(5)
        trace = forward(net, x)
        t = rng.standard_normal(5)
        upd = bp_updates(net, trace, t)
        expected = -np.outer(trace.output()[:, 0] - t, x)
        assert np.abs(upd[0] - expected).max() < 1e-12

    def test_matches_finite_differences_quadratic(self, rng):
        net = make_net([8, 8, 8], 5, seed=2)
        x = sample_away_from_kinks(net, rng, margin=1e-4)
        t = rng.standard_normal(5)
        trace = forward(net, x)
        upd = bp_updates(net, trace, t)
        for l in range(net.depth):
            fd = fd_weight_grad(lambda: quadratic_loss(net, x, t), net, l)
            analytic = -upd[l]
            assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) < 1e-5

    def test_batch_is_mean_of_samples(self, rng):
        net = make_net([6, 6], 3, seed=3)
        xs = rng.uniform(0, 1, (6, 4))
        ts = rng.standard_normal((3, 4))
        batch = bp_updates(net, forward(net, xs), ts)
        singles = [bp_updates(net, forward(net, xs[:, [i]]), ts[:, [i]])
                   for i in range(4)]
        for l in range(net.depth):
            mean = sum(s[l] for s in singles) / 4
            assert np.abs(batch[l] - mean).max() < 1e-14


class TestTpTargets:
    def test_forward_output_is_fixed_point(self, rng):
        net = make_net([10, 8], 5, seed=4)
        trace = forward(net, rng.uniform(0, 1, 10))
        stack = tp_targets(net, trace, trace.output())
        for l, target in enumerate(stack_targets(trace, stack)):
            assert np.abs(target - trace.forward_part(l)).max() < 1e-9

    def test_identity_linear_net_passes_target_through(self):
        act = Activation("linear")
        net = Network([Layer(np.eye(4), act, 4), Layer(np.eye(4), act, 4)])
        trace = forward(net, np.zeros(4))
        t = np.array([1.0, -2.0, 3.0, 0.5])
        stack = tp_targets(net, trace, t)
        for target in stack_targets(trace, stack):
            assert np.allclose(target[:, 0], t)

    def test_deep_target_reproduces_output_when_fed_forward(self, rng):
        net = linear_net(6, 3, rng, orthogonal=True)
        trace = forward(net, rng.standard_normal(6))
        t = rng.standard_normal(6)
        stack = tp_targets(net, trace, t)
        # feeding t_0 through layers 1.. must land on the output target
        replay = stack_targets(trace, stack)[0]
        for layer in net.layers[1:]:
            replay = layer.activation.forward(layer.weight @ replay)[:layer.forward_width]
        assert np.abs(replay - t[:, None]).max() < 1e-9

    def test_sign_flips_count_kink_crossings(self, rng):
        # At depth 2 only the output layer blends, and tp's blended
        # activation is the target itself: a unit crosses the kink exactly
        # when its target has the other sign from its activation.
        net = make_net([10, 8], 5, seed=21)
        xs = np.column_stack([sample_away_from_kinks(net, rng, margin=1e-2)
                              for _ in range(3)])
        trace = forward(net, xs)
        out = trace.output()
        assert np.all(tp_targets(net, trace, out).sign_flips == 0)
        t = 1.5 * out
        for j in range(3):
            t[:j, j] = -out[:j, j]      # sample j crosses on j units
        assert tp_targets(net, trace, t).sign_flips.tolist() == [0, 1, 2]


class TestTpUpdates:
    def test_zero_at_fixed_point(self, rng):
        net = make_net([7, 7], 4, seed=5)
        trace = forward(net, rng.uniform(0, 1, 7))
        stack = tp_targets(net, trace, trace.output())
        for d in target_updates(trace, stack):
            assert np.abs(d).max() < 1e-9

    def test_linear_relation_to_bp(self, rng):
        # BP update = (F^T F) times the TP update in a deep linear network
        net = linear_net(16, 4, rng)
        trace = forward(net, rng.standard_normal(16))
        t = rng.standard_normal(16)
        bp = bp_updates(net, trace, t)
        tp = target_updates(trace, tp_targets(net, trace, t))
        for l in range(net.depth):
            f = update_chain_f(net, l)
            lhs = bp[l]
            rhs = f.T @ f @ tp[l]
            assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) < 1e-10

    def test_orthogonal_linear_equality(self, rng):
        net = linear_net(16, 4, rng, orthogonal=True)
        trace = forward(net, rng.standard_normal(16))
        t = rng.standard_normal(16)
        bp = bp_updates(net, trace, t)
        tp = target_updates(trace, tp_targets(net, trace, t))
        for l in range(net.depth):
            rel = np.linalg.norm(bp[l] - tp[l]) \
                / np.linalg.norm(bp[l])
            assert rel < 1e-10

    def test_shared_fixed_points_linear(self, rng):
        # Zero output error forces both rules to zero; nonzero error forces
        # both nonzero (F^T F is positive definite).
        net = linear_net(8, 3, rng)
        x = rng.standard_normal(8)
        trace = forward(net, x)
        at_optimum = bp_updates(net, trace, trace.output())
        tp_at_optimum = target_updates(trace, tp_targets(net, trace, trace.output()))
        for dbp, dtp in zip(at_optimum, tp_at_optimum):
            assert np.abs(dbp).max() < 1e-12 and np.abs(dtp).max() < 1e-12
        t = trace.output()[:, 0] + 1.0
        off = bp_updates(net, trace, t)
        tp_off = target_updates(trace, tp_targets(net, trace, t))
        for dbp, dtp in zip(off, tp_off):
            assert np.abs(dbp).max() > 1e-8 and np.abs(dtp).max() > 1e-8


class TestTargetUpdates:
    @pytest.mark.parametrize("targets", [itp_targets, gait_targets], ids=["itp", "gait"])
    def test_scale_is_the_stacks_own_gamma(self, targets, rng):
        # the stack carries the gamma it was built with, so no other gamma
        # can scale its updates
        net = make_net([6, 5, 4], 3, seed=6)
        trace = forward(net, rng.uniform(0, 1, (6, 4)))
        t = trace.output() + rng.normal(0, 0.1, (3, 4))
        for gamma in (1e-3, 0.25):
            stack = targets(net, trace, t, gamma)
            assert stack.gamma == gamma
            for got, want in zip(target_updates(trace, stack),
                                 local_updates_oracle(trace, stack.gaps, gamma)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestItpTargets:
    def test_gamma_one_equals_tp(self, rng):
        # tp and itp at gamma = 1 share the gap recursion, so both are held
        # to the independent augmented_inverse chain on a net with
        # auxiliary units.
        net = make_net([9, 7], 4, seed=7)
        trace = forward(net, rng.uniform(0, 1, 9))
        t = trace.output() + rng.standard_normal((4, 1))
        reference = [t] * net.depth
        for l in range(net.depth - 1, 0, -1):
            aux = trace.activations[l][trace.forward_widths[l]:]
            reference[l - 1] = augmented_inverse(net.layers[l], reference[l], aux)
        tp = tp_targets(net, trace, t)
        itp = itp_targets(net, trace, t, 1.0)
        for ref, a, b in zip(reference, stack_targets(trace, tp),
                             stack_targets(trace, itp)):
            assert np.abs(a - ref).max() < 1e-10
            assert np.abs(b - ref).max() < 1e-10

    def test_fixed_point(self, rng):
        net = make_net([8, 8], 4, seed=8)
        trace = forward(net, rng.uniform(0, 1, 8))
        stack = itp_targets(net, trace, trace.output(), GAMMA)
        for l, target in enumerate(stack_targets(trace, stack)):
            assert np.abs(target - trace.forward_part(l)).max() < 1e-12

    def test_linear_closed_form(self, rng):
        # gamma^-(L-1-l) * gap_l equals the inverse weight chain applied to
        # the output error, exactly, in a linear network.
        net = linear_net(12, 4, rng)
        trace = forward(net, rng.standard_normal(12))
        t = rng.standard_normal(12)
        stack = itp_targets(net, trace, t, GAMMA)
        expected = trace.output()[:, 0] - t
        for l in range(net.depth - 1, 0, -1):
            expected = np.linalg.solve(net.layers[l].weight, expected)
            scaled = stack.gaps[l - 1][:, 0] * GAMMA ** -(net.depth - l)
            assert np.linalg.norm(scaled - expected) / np.linalg.norm(expected) < 1e-9


    def test_gamma_zero_raises_before_propagating(self, rng, monkeypatch):
        net = make_net([6, 6], 3, seed=10)
        trace = forward(net, rng.uniform(0, 1, 6))

        def no_recursion(*args):
            raise AssertionError("the gap recursion ran")

        monkeypatch.setattr(rules, "_backward", no_recursion)
        with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\], got 0.0"):
            itp_targets(net, trace, trace.output(), 0.0)


class TestGaitTargets:
    def test_linear_activation_reduces_to_itp(self, rng):
        net = linear_net(8, 3, rng)
        trace = forward(net, rng.standard_normal(8))
        t = rng.standard_normal(8)
        itp = itp_targets(net, trace, t, GAMMA)
        gait = gait_targets(net, trace, t, GAMMA)
        for a, b in zip(stack_targets(trace, itp), stack_targets(trace, gait)):
            assert np.array_equal(a, b)

    def test_fixed_point(self, rng):
        net = make_net([8, 6], 4, seed=9)
        trace = forward(net, rng.uniform(0, 1, 8))
        stack = gait_targets(net, trace, trace.output(), GAMMA)
        for l, target in enumerate(stack_targets(trace, stack)):
            assert np.abs(target - trace.forward_part(l)).max() < 1e-12
        assert np.all(stack.sign_flips == 0)

    def test_blend_precondition(self, rng):
        net = make_net([6, 6], 3, seed=10)
        trace = forward(net, rng.uniform(0, 1, 6))
        with pytest.raises(ValueError, match="gait needs gamma < 1"):
            gait_targets(net, trace, trace.output(), 1.0)

    def test_blend_precondition_holds_whatever_the_gains(self, rng):
        # Every pre-activation is negative, so every gain is the slope and
        # every blend is gamma * 1e-4; gamma = 1 is still refused, since a
        # gain of 1 would make the blend 1.
        eye = np.eye(6)
        net = net_from_weights([-eye, eye, eye], 6)
        trace = forward(net, rng.uniform(0.5, 1, 6))
        assert all(np.all(g == 0.01) for g in trace.gains)
        with pytest.raises(ValueError, match="gait needs gamma < 1"):
            gait_targets(net, trace, trace.output(), 1.0)

    def test_purity(self, rng):
        net = make_net([7, 7], 3, seed=11)
        trace = forward(net, rng.uniform(0, 1, 7))
        t = trace.output() + 0.5
        a = gait_targets(net, trace, t, GAMMA)
        b = gait_targets(net, trace, t, GAMMA)
        for ga, gb in zip(a.gaps, b.gaps):
            assert np.array_equal(ga, gb)


class TestGaitBpEquivalence:
    def test_exact_on_flip_free_samples(self):
        # Orthogonal weights, no kink crossed while blending: the rescaled
        # gait update IS the backprop update.
        checked = 0
        for seed in range(6):
            rng = make_rng(200 + seed)
            net = make_net([16] * 4, 10, seed=seed)
            x = rng.uniform(0, 1, 16)
            trace = forward(net, x)
            t = trace.output()[:, 0] + rng.normal(0, 0.5, 10)
            stack = gait_targets(net, trace, t, GAMMA)
            if int(stack.sign_flips[0]) != 0:
                continue
            checked += 1
            bp = bp_updates(net, trace, t)
            gait = target_updates(trace, stack)
            for l in range(net.depth):
                rel = np.linalg.norm(gait[l] - bp[l]) \
                    / np.linalg.norm(bp[l])
                assert rel < 1e-9
        assert checked >= 4  # flip-free samples must dominate at gamma = 1e-3

    @pytest.mark.parametrize("seed", range(4))
    def test_machine_precision_at_width(self, seed):
        # The README's gait = bp "to about 1e-15" at a realistic width: the
        # inverses' Newton correction keeps the error near 3e-15 here; without
        # it the error grows to about 2e-14.
        rng = make_rng(seed)
        net = make_net([256] * 5, 10, seed=seed)
        trace = forward(net, rng.uniform(0, 1, (256, 8)))
        t = trace.output() + rng.normal(0, 0.5, (10, 8))
        stack = gait_targets(net, trace, t, GAMMA)
        assert np.all(stack.sign_flips == 0)
        bp = bp_updates(net, trace, t)
        gait = target_updates(trace, stack)
        for l in range(net.depth):
            rel = np.abs(gait[l] - bp[l]).max() / np.abs(bp[l]).max()
            assert rel < 1e-14

    def test_single_layer_scaled_gait_equals_bp(self, rng):
        net = make_net([10], 6, seed=12)
        trace = forward(net, rng.uniform(0, 1, 10))
        t = rng.standard_normal(6)
        bp = bp_updates(net, trace, t)
        gait = target_updates(trace, gait_targets(net, trace, t, GAMMA))
        assert np.abs(bp[0] - gait[0]).max() < 1e-15

    def test_cosine_above_threshold_across_samples(self, rng):
        net = make_net([16] * 4, 10, seed=13)
        xs = rng.uniform(0, 1, (16, 100))
        trace = forward(net, xs)
        ts = trace.output() + rng.normal(0, 0.5, (10, 100))
        bp = bp_updates(net, trace, ts)
        gait = target_updates(trace, gait_targets(net, trace, ts, GAMMA))
        for l in range(net.depth):
            a, b = gait[l].ravel(), bp[l].ravel()
            cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            assert cos > 0.999

    def test_zero_updates_at_fixed_point(self, rng):
        net = make_net([8, 8], 4, seed=14)
        trace = forward(net, rng.uniform(0, 1, 8))
        stack = gait_targets(net, trace, trace.output(), GAMMA)
        for d in target_updates(trace, stack):
            assert np.abs(d).max() < 1e-9


class TestAuxiliaryFreeze:
    @pytest.mark.parametrize("flavor", ["tp", "itp", "gait"])
    def test_aux_rows_exactly_zero(self, flavor, rng):
        net = make_net([16, 12, 8], 4, seed=15)
        xs = rng.uniform(0, 1, (16, 100))
        trace = forward(net, xs)
        ts = trace.output() + rng.normal(0, 0.3, (4, 100))
        if flavor == "tp":
            upd = target_updates(trace, tp_targets(net, trace, ts))
        elif flavor == "itp":
            upd = target_updates(trace, itp_targets(net, trace, ts, GAMMA))
        else:
            upd = target_updates(trace, gait_targets(net, trace, ts, GAMMA))
        for l, layer in enumerate(net.layers):
            aux_rows = upd[l][layer.forward_width:]
            assert np.all(aux_rows == 0.0)


class TestLossToTarget:
    def test_recovers_quadratic_target(self, rng):
        y = rng.standard_normal(6)
        t = rng.standard_normal(6)
        assert np.allclose(loss_to_target(y, y - t), t)

    def test_zero_gradient_returns_output(self, rng):
        y = rng.standard_normal(6)
        assert np.array_equal(loss_to_target(y, np.zeros(6)), y)

    def test_softmax_cross_entropy_matches_fd(self, rng):
        net = make_net([8, 8, 8], 5, seed=16)
        x = sample_away_from_kinks(net, rng, margin=1e-4)
        label = 2

        def ce_loss():
            out = forward(net, x).output()[:, 0]
            z = out - out.max()
            logp = z - np.log(np.exp(z).sum())
            return -logp[label]

        trace = forward(net, x)
        out = trace.output()[:, 0]
        soft = np.exp(out - out.max())
        soft /= soft.sum()
        grad = soft - np.eye(5)[label]
        target = loss_to_target(out, grad)
        upd = bp_updates(net, trace, target)
        for l in range(net.depth):
            fd = fd_weight_grad(ce_loss, net, l)
            analytic = -upd[l]
            assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) < 1e-5


class TestOrthoRegularizer:
    def test_orthogonal_matrix_has_zero_penalty_and_gradient(self, rng):
        q = orthogonal_init(8, rng)
        assert ortho_penalty(q, 1.0) < 1e-10
        assert np.abs(ortho_reg_grad(q, 1.0)).max() < 1e-9

    def test_lambda_zero(self, rng):
        w = rng.standard_normal((5, 5))
        assert np.all(ortho_reg_grad(w, 0.0) == 0.0)

    def test_matches_finite_differences(self, rng):
        w = rng.standard_normal((6, 6))
        lam = 0.7
        grad = ortho_reg_grad(w, lam)
        step = 1e-6
        fd = np.zeros_like(w)
        for i in range(6):
            for j in range(6):
                up, down = w.copy(), w.copy()
                up[i, j] += step
                down[i, j] -= step
                fd[i, j] = (ortho_penalty(up, lam)
                            - ortho_penalty(down, lam)) / (2 * step)
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-5

    def test_negative_lambda_rejected(self):
        for fn in (ortho_penalty, ortho_reg_grad):
            with pytest.raises(ValueError, match="lambda must be non-negative"):
                fn(2.0 * np.eye(3), -1.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    @pytest.mark.parametrize("fn", [ortho_penalty, ortho_reg_grad])
    def test_non_finite_lambda_rejected(self, fn, lam):
        with pytest.raises(ValueError, match="lambda must be non-negative and finite"):
            fn(2.0 * np.eye(3), lam)

    @pytest.mark.parametrize("n", [1, 2, 5, 64, 256])
    def test_mask_bytes_match_multiplied_mask(self, n, rng):
        for w in (rng.standard_normal((n, n)), orthogonal_init(n, rng),
                  xavier_init(n, rng), np.zeros((n, n))):
            for lam in (1e-3, 0.7):
                penalty, grad = masked_ortho_oracle(w, lam)
                assert ortho_penalty(w, lam) == penalty
                assert ortho_reg_grad(w, lam).tobytes() == grad.tobytes()


def crafted_kink_family(seed, gamma_big=1e-3, m=60, n=12, depth=4):
    """Family of non-orthogonal nets, identical except that one output
    unit's pre-activation is pinned on a grid sweeping the blend window.

    A kink crossing contributes a deviation proportional to how far the
    blend overshoots the pin, so averaging over a uniform grid of pins
    realizes the O(gamma) law exactly: the family-mean deviation is the
    integral of the overshoot triangle, linear in gamma. Returns
    (instances, x, pins) where each instance is (net, t).
    """
    rng = make_rng(seed)
    weights = [xavier_init(n, rng) for _ in range(depth)]
    base = net_from_weights(weights, n, kind="leaky_relu", alpha=0.01)
    x = sample_away_from_kinks(base, rng, margin=1e-2)
    trace = forward(base, x)
    out = trace.output()[:, 0]
    k = int(np.argmax(out))            # a positive-gain output unit
    gap_k = 1.0                        # fixed target error on the pinned unit
    prev = trace.layer_input(depth - 1)[:, 0]
    h_k = float(weights[depth - 1][k] @ prev)
    offsets = rng.normal(0, 0.2, n)
    window = 1.2 * gamma_big * gap_k
    pins = (np.arange(m) + 0.5) / m * window
    instances = []
    for pin in pins:
        w = [wi.copy() for wi in weights]
        w[depth - 1][k] -= (h_k - pin) / (prev @ prev) * prev
        net = net_from_weights(w, n, kind="leaky_relu", alpha=0.01)
        tr = forward(net, x)
        h = net.layers[depth - 1].weight @ tr.layer_input(depth - 1)
        assert abs(h[k, 0] - pin) < 1e-12
        t = tr.output()[:, 0] - offsets
        t[k] = tr.output()[k, 0] - gap_k   # blend pushes the pin toward zero
        instances.append((net, t))
    return instances, x, pins


class TestCorrectionMatrices:
    def test_linear_orthogonal_collapse_to_identity(self, rng):
        net = linear_net(8, 3, rng, orthogonal=True)
        trace = forward(net, rng.standard_normal(8))
        for l in range(net.depth):
            m = correction_matrices(net, trace, l)
            assert np.abs(m.itp - np.eye(8)).max() < 1e-10
            assert np.abs(m.gait - np.eye(8)).max() < 1e-10

    def test_linear_nonorthogonal_equals_weight_chain(self, rng):
        net = linear_net(6, 3, rng)
        trace = forward(net, rng.standard_normal(6))
        for l in range(net.depth):
            f = update_chain_f(net, l)
            m = correction_matrices(net, trace, l)
            assert np.abs(m.itp - f.T @ f).max() < 1e-12
            assert np.abs(m.gait - f.T @ f).max() < 1e-12

    def test_leaky_orthogonal_gait_identity_itp_not(self, rng):
        net = make_net([10] * 4, 10, seed=17)
        x = rng.uniform(0, 1, 10)
        trace = forward(net, x)
        for l in range(net.depth - 1):
            m = correction_matrices(net, trace, l)
            assert np.abs(m.gait - np.eye(10)).max() < 1e-10
            assert np.abs(m.itp - np.eye(10)).max() > 0.1

    def test_requires_single_sample(self, rng):
        net = make_net([6] * 3, 6, seed=18)
        trace = forward(net, rng.uniform(0, 1, (6, 2)))
        with pytest.raises(ValueError, match="per sample"):
            correction_matrices(net, trace, 0)

    def test_rejects_hidden_auxiliaries(self, rng):
        net = make_net([8, 6, 4], 3, seed=19)
        trace = forward(net, rng.uniform(0, 1, 8))
        with pytest.raises(ValueError, match="auxiliary-free"):
            correction_matrices(net, trace, 0)

    def test_corrected_gait_matches_bp_without_flips(self, rng):
        # With no kink crossings the relation is exact up to roundoff even
        # for non-orthogonal weights.
        weights = [xavier_init(10, make_rng(40 + i)) for i in range(3)]
        net = net_from_weights(weights, 10, kind="leaky_relu", alpha=0.01)
        x = sample_away_from_kinks(net, rng, margin=1e-2)
        trace = forward(net, x)
        t = trace.output()[:, 0] + rng.normal(0, 0.2, 10)
        stack = gait_targets(net, trace, t, GAMMA)
        assert int(stack.sign_flips[0]) == 0
        bp = bp_updates(net, trace, t)
        gait = target_updates(trace, stack)
        for l in range(net.depth - 1):
            n_mat = correction_matrices(net, trace, l).gait
            lhs = n_mat @ gait[l]
            rel = np.linalg.norm(lhs - bp[l]) / np.linalg.norm(bp[l])
            assert rel < 1e-10

    def test_deviation_shrinks_linearly_in_gamma(self):
        # Family-mean deviation of corrected gait updates from backprop
        # drops about tenfold when gamma drops tenfold.
        instances, x, pins = crafted_kink_family(seed=300)

        def mean_deviation(gamma):
            total = 0.0
            for (net, t), pin in zip(instances, pins):
                trace = forward(net, x)
                stack = gait_targets(net, trace, t, gamma)
                # the pinned unit flips exactly when the blend passes it
                assert int(stack.sign_flips[0]) == (1 if pin < gamma else 0)
                gait = target_updates(trace, stack)
                bp = bp_updates(net, trace, t)
                worst = 0.0
                for l in range(net.depth - 1):
                    n_mat = correction_matrices(net, trace, l).gait
                    rel = np.linalg.norm(n_mat @ gait[l] - bp[l]) \
                        / np.linalg.norm(bp[l])
                    worst = max(worst, rel)
                total += worst
            return total / len(instances)

        ratio = mean_deviation(1e-3) / mean_deviation(1e-4)
        assert 3.0 <= ratio <= 30.0
