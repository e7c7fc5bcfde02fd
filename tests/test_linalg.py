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
    split_rng,
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

    def test_double_inverse_round_trip(self):
        r = make_rng(5)
        for _ in range(5):
            m = controlled_matrix(10, r, 0.01, 1.0)  # condition <= 1e2
            back = invert(invert(m))
            assert np.abs(back - m).max() / np.abs(m).max() < 1e-8


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
        w = xavier_init(3, 3, make_rng(0))
        assert np.abs(w).max() <= 1.0

    def test_variance(self):
        w = xavier_init(1000, 1000, make_rng(1))
        expected = 2.0 / 2000
        assert abs(w.var() - expected) / expected < 0.05

    def test_deterministic(self):
        assert np.array_equal(xavier_init(4, 5, make_rng(9)),
                              xavier_init(4, 5, make_rng(9)))


class TestOrthogonalityError:
    def test_orthogonal_is_zero(self):
        q = orthogonal_init(20, make_rng(3))
        assert orthogonality_error(q) < 1e-10

    def test_scaled_identity(self):
        # || (2I)(2I)^T - I ||_F = ||3I||_F = 3 sqrt(2) for n = 2
        assert abs(orthogonality_error(2 * np.eye(2)) - 3 * np.sqrt(2)) < 1e-12

    def test_xavier_is_positive(self):
        w = xavier_init(784, 784, make_rng(4))
        assert orthogonality_error(w) > 0.0


class TestRng:
    def test_same_seed_same_stream(self):
        assert np.array_equal(make_rng(7).standard_normal(10),
                              make_rng(7).standard_normal(10))

    def test_spawned_streams_differ(self):
        kids = split_rng(make_rng(7), 3)
        draws = [k.standard_normal(4) for k in kids]
        assert not np.allclose(draws[0], draws[1])
        assert not np.allclose(draws[1], draws[2])

    def test_spawn_order_independent(self):
        a = split_rng(make_rng(7), 3)
        b = split_rng(make_rng(7), 3)
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
