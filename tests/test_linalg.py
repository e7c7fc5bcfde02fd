import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gaitprop import Activation, Layer, ortho_penalty, ortho_reg_grad
from gaitprop.dynamics import CircuitConfig
from gaitprop.linalg import (
    SingularMatrix,
    as_matrix,
    invert,
    make_rng,
    orthogonal_init,
    orthogonality_error,
    solve,
    xavier_init,
)

from conftest import controlled_matrix


def conditioned(kappa: float, seed: int, n: int = 16) -> np.ndarray:
    """n x n matrix with 2-norm condition number kappa."""
    r = make_rng(seed)
    u, v = orthogonal_init(n, r), orthogonal_init(n, r)
    return u @ np.diag(np.geomspace(1.0, 1.0 / kappa, n)) @ v


class TestInvert:
    def test_identity(self):
        assert np.allclose(invert(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        inv = invert(np.diag([2.0, 4.0]))
        assert np.allclose(inv, np.diag([0.5, 0.25]))

    def test_rank_one_is_singular(self):
        with pytest.raises(SingularMatrix):
            invert(np.ones((2, 2)))

    def test_zero_matrix(self):
        with pytest.raises(SingularMatrix):
            invert(np.zeros((3, 3)))

    def test_orthogonal_inverse_is_transpose(self):
        q = orthogonal_init(12, make_rng(7))
        assert np.abs(invert(q) - q.T).max() < 1e-10

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            invert(np.ones((2, 3)))

    @pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6])
    def test_residual_under_moderate_conditioning(self, kappa):
        m = conditioned(kappa, int(kappa))
        assert np.abs(m @ invert(m) - np.eye(16)).max() < 1e-9

    def test_residual_near_float64_limit(self):
        # At condition 1e8 the residual evaluation itself rounds at the
        # 1e-9 scale; only a looser bound is checkable in float64.
        m = conditioned(1e8, 99)
        assert np.abs(m @ invert(m) - np.eye(16)).max() < 1e-7

    # The 1-norm condition number lies within a factor n = 16 of the 2-norm
    # one, so 1e10 stays above SINGULAR_RCOND = 1e-12 and 1e14 falls below.
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_condition_1e10_is_accepted(self, seed):
        m = conditioned(1e10, seed)
        assert np.all(np.isfinite(invert(m)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_condition_1e14_is_singular(self, seed):
        with pytest.raises(SingularMatrix, match="reciprocal condition number"):
            invert(conditioned(1e14, seed))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("diag,rcond", [
        ([1.0, 1e-300], "1.000e-300"),
        ([1e300, 1e-300], "0.000e+00"),   # the norm product overflows
    ])
    def test_tiny_pivot_is_singular_without_warning(self, diag, rcond):
        with pytest.raises(SingularMatrix,
                           match=re.escape(f"reciprocal condition number {rcond} below 1e-12")):
            invert(np.diag(diag))

    @pytest.mark.parametrize("n", [10, 64, 256])
    def test_stack_gives_each_matrix_its_own_bytes(self, n):
        r = make_rng(n)
        stack = np.stack([controlled_matrix(n, r) for _ in range(3)])
        inv = invert(stack)
        assert inv.shape == stack.shape
        for member, got in zip(stack, inv):
            assert got.tobytes() == invert(member.copy()).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [
        np.ones((4, 4)),                  # an exact zero pivot fails numpy's whole stack
        np.diag([1.0, 1.0, 1.0, 1e-300]),  # a condition number past the floor
    ])
    def test_stack_with_a_singular_member_raises_its_text(self, bad):
        r = make_rng(3)
        stack = np.stack([controlled_matrix(4, r), bad, controlled_matrix(4, r)])
        with pytest.raises(SingularMatrix) as caught:
            invert(stack)
        with pytest.raises(SingularMatrix) as alone:
            invert(bad)
        assert str(caught.value) == str(alone.value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stack_reports_its_smallest_rcond(self):
        stack = np.stack([np.diag([1.0, 1.0, 1e-13]), np.diag([1.0, 1.0, 1e-300]),
                          np.eye(3)])
        with pytest.raises(SingularMatrix, match="reciprocal condition number") as caught:
            invert(stack)
        with pytest.raises(SingularMatrix) as alone:
            invert(stack[1])
        assert str(caught.value) == str(alone.value)

    def test_double_inverse_round_trip(self):
        r = make_rng(5)
        for _ in range(5):
            m = controlled_matrix(10, r, 0.01, 1.0)  # condition <= 1e2
            back = invert(invert(m))
            assert np.abs(back - m).max() / np.abs(m).max() < 1e-8


def refined_reference(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``w^-1 v`` refined three times with residuals formed in longdouble,
    independent of ``solve``'s correction and of ``invert``."""
    wl = w.astype(np.longdouble)
    x = np.linalg.solve(w, v).astype(np.longdouble)
    for _ in range(3):
        x += np.linalg.solve(w, (v - wl @ x).astype(np.float64))
    return x


def weight_class(name: str, n: int, seed: int) -> np.ndarray:
    r = make_rng(seed)
    if name == "xavier":
        return xavier_init(n, r)
    noise = {"orthogonal": 0.0, "orthogonal+0.003": 0.003, "orthogonal+0.03": 0.03}[name]
    return orthogonal_init(n, r) + noise * r.standard_normal((n, n))


class TestSolve:
    """``solve`` (one LU solve and a ``W^T`` correction) at 64 and 256 wide;
    the target rules use it from ``SOLVE_WIDTH`` (96) up."""

    BATCH = make_rng(11).standard_normal((256, 64))

    def batch(self, n: int) -> np.ndarray:
        return self.BATCH[:n].copy()

    # Worst max-relative error over seeds 0-3 and n = 64, 256 against
    # refined_reference, with invert(w) @ v in brackets: orthogonal 7.1e-16
    # (1.3e-15), +0.003 N(0,1) 9.3e-16 (1.3e-15), +0.03 N(0,1) 5.2e-15
    # (1.4e-15), xavier 3.7e-13 (8.7e-14). Each bound is 2.7-4x the worst.
    # Trained weights stay within the +0.003 class or a little beyond;
    # xavier is the lam = 0 pairing, where W^T is a poor inverse and the
    # result has one-solve accuracy.
    @pytest.mark.parametrize("name,bound", [
        ("orthogonal", 2.5e-15), ("orthogonal+0.003", 2.5e-15),
        ("orthogonal+0.03", 2e-14), ("xavier", 1.5e-12),
    ])
    @pytest.mark.parametrize("n", [64, 256])
    def test_accuracy_by_weight_class(self, name, bound, n):
        for seed in range(4):
            w, v = weight_class(name, n, seed), self.batch(n)
            ref = refined_reference(w, v)
            err = np.abs(solve(w, v) - ref).max() / np.abs(ref).max()
            assert err <= bound, (seed, err)

    def test_stack_gives_each_member_its_own_bytes(self):
        r = make_rng(4)
        w = np.stack([controlled_matrix(64, r) for _ in range(3)])
        v = r.standard_normal((3, 64, 16))
        got = solve(w, v)
        for c in range(3):
            assert got[c].tobytes() == solve(w[c].copy(), v[c].copy()).tobytes()

    def test_zero_pivot_has_invert_text(self):
        with pytest.raises(SingularMatrix, match="exact zero pivot") as caught:
            solve(np.ones((64, 64)), self.batch(64))
        with pytest.raises(SingularMatrix) as inverted:
            invert(np.ones((64, 64)))
        assert str(caught.value) == str(inverted.value)

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_condition_1e14_is_singular(self, n, seed):
        with pytest.raises(SingularMatrix, match="reciprocal condition number at most"):
            solve(conditioned(1e14, seed, n), self.batch(n))

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_condition_1e10_is_accepted_as_by_invert(self, n, seed):
        w = conditioned(1e10, seed, n)
        assert np.all(np.isfinite(invert(w)))
        assert np.all(np.isfinite(solve(w, self.batch(n))))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_row_is_singular_without_warning(self):
        w = orthogonal_init(64, make_rng(5))
        w[0] *= 1e-300
        with pytest.raises(SingularMatrix,
                           match=r"reciprocal condition number at most \S+e-30\d below 1e-12"):
            solve(w, self.batch(64))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_solution_is_singular(self):
        w = orthogonal_init(64, make_rng(6))
        w[0] *= 1e-10
        with pytest.raises(SingularMatrix, match="non-finite solution"):
            solve(w, 1e300 * self.batch(64))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stack_reports_its_worst_member(self):
        members = []
        for scale in (1.0, 1e-20, 1e-300, 1e-15):
            w = orthogonal_init(64, make_rng(7))
            w[3] *= scale
            members.append(w)
        v = np.stack([self.batch(64)] * 4)
        with pytest.raises(SingularMatrix, match="at most") as caught:
            solve(np.stack(members), v)
        with pytest.raises(SingularMatrix) as alone:
            solve(members[2], v[2].copy())
        assert str(caught.value) == str(alone.value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("forward", [64, 32, 10])
    def test_singular_auxiliary_rows_are_caught_by_the_probe(self, forward):
        # A target gap is zero on a layer's auxiliary rows (from `forward`
        # on), so the batch alone never sees a near-null direction there.
        v = self.batch(64)
        v[forward:] = 0.0
        tiny = orthogonal_init(64, make_rng(9))
        tiny[-1] *= 1e-300
        twins = orthogonal_init(64, make_rng(10))
        twins[-1] = twins[-2] + 1e-15 * twins[0]
        for w in (tiny, twins):
            with pytest.raises(SingularMatrix,
                               match="reciprocal condition number at most"):
                solve(w, v)
            with pytest.raises(SingularMatrix):
                invert(w)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_columns_solve_to_zero_and_the_probe_still_bounds(self):
        v = self.batch(64)[:, :8]
        v[:, 2] = 0.0
        x = solve(orthogonal_init(64, make_rng(8)), v)
        assert not x[:, 2].any() and np.isfinite(x).all()
        with pytest.raises(SingularMatrix, match="reciprocal condition number at most"):
            solve(conditioned(1e14, 0, 64), np.zeros((64, 8)))


def test_training_loads_no_scipy():
    """scipy bundles a second OpenBLAS whose thread pool competes with
    numpy's for the same cores; one training step of every rule must not
    load it."""
    script = (
        "import sys\n"
        "from gaitprop.harness import RULES, ExperimentConfig, train\n"
        "for rule in RULES:\n"
        "    train(ExperimentConfig(rule=rule, width=8, depth=3, classes=4,\n"
        "                           train_samples=16, test_samples=8,\n"
        "                           batch_size=16, epochs=1))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestOrthogonalInit:
    def test_one_by_one(self):
        q = orthogonal_init(1, make_rng(0))
        assert q.shape == (1, 1)
        assert abs(abs(q[0, 0]) - 1.0) < 1e-15

    @pytest.mark.parametrize("n,seed", [(3, 0), (16, 1), (64, 2), (128, 3)])
    def test_orthogonality(self, n, seed):
        q = orthogonal_init(n, make_rng(seed))
        assert np.abs(q @ q.T - np.eye(n)).max() < 1e-10

    def test_deterministic(self):
        a = orthogonal_init(8, make_rng(42))
        b = orthogonal_init(8, make_rng(42))
        assert np.array_equal(a, b)

    def test_unit_determinant_magnitude(self):
        for seed in range(5):
            q = orthogonal_init(9, make_rng(seed))
            assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-8


class TestXavierInit:
    def test_bound_at_three(self):
        # sqrt(6 / (3 + 3)) = 1
        w = xavier_init(3, make_rng(0))
        assert np.abs(w).max() <= 1.0

    def test_variance(self):
        w = xavier_init(1000, make_rng(1))
        expected = 2.0 / 2000
        assert abs(w.var() - expected) / expected < 0.05

    def test_deterministic(self):
        assert np.array_equal(xavier_init(4, make_rng(9)), xavier_init(4, make_rng(9)))


class TestOrthogonalityError:
    def test_orthogonal_is_zero(self):
        q = orthogonal_init(20, make_rng(3))
        assert orthogonality_error(q) < 1e-10

    def test_scaled_identity(self):
        # || (2I)(2I)^T - I ||_F = ||3I||_F = 3 sqrt(2) for n = 2
        assert abs(orthogonality_error(2 * np.eye(2)) - 3 * np.sqrt(2)) < 1e-12

    def test_xavier_is_positive(self):
        w = xavier_init(784, make_rng(4))
        assert orthogonality_error(w) > 0.0


class TestRng:
    def test_same_seed_same_stream(self):
        assert np.array_equal(make_rng(7).standard_normal(10),
                              make_rng(7).standard_normal(10))

    def test_spawned_streams_differ(self):
        kids = make_rng(7).spawn(3)
        draws = [k.standard_normal(4) for k in kids]
        assert not np.allclose(draws[0], draws[1])
        assert not np.allclose(draws[1], draws[2])

    def test_spawn_order_independent(self):
        a = make_rng(7).spawn(3)
        b = make_rng(7).spawn(3)
        # consume in a different order; streams must be unaffected
        b[2].standard_normal(100)
        assert np.array_equal(a[0].standard_normal(5), b[0].standard_normal(5))


class TestAsMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            as_matrix([[1.0, np.nan]])

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            as_matrix([1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((0, 3)))

    @pytest.mark.parametrize("consumer", [
        as_matrix,
        invert,
        orthogonality_error,
        lambda w: ortho_penalty(w, 1.0),
        lambda w: ortho_reg_grad(w, 1.0),
        lambda w: Layer(w, Activation(), 2),
        lambda w: CircuitConfig(weight=w, couplings=(0.25,), tau=1.0, x=np.zeros(2),
                                t2=np.zeros(2), dt=0.01, duration=1.0, onset=0.5),
    ], ids=["as_matrix", "invert", "orthogonality_error", "ortho_penalty",
            "ortho_reg_grad", "Layer", "CircuitConfig"])
    def test_is_the_one_square_check(self, consumer):
        with pytest.raises(ValueError, match="non-empty square matrix"):
            consumer(np.ones((2, 3)))
