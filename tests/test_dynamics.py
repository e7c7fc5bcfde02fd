import numpy as np
import pytest
import scipy.linalg as sla

from gaitprop.dynamics import (
    CircuitConfig,
    Divergence,
    Trajectory,
    equilibria,
    simulate,
)
from gaitprop.linalg import make_rng

from conftest import controlled_matrix, euler_oracle


def circuit(w, nu, x, t2, tau=1.0, dt=0.01, duration=100.0, onset=40.0):
    return CircuitConfig(weight=np.asarray(w, dtype=np.float64), coupling=nu,
                         tau=tau, x=np.asarray(x, dtype=np.float64),
                         t2=np.asarray(t2, dtype=np.float64), dt=dt,
                         duration=duration, onset=onset)


def exact_state(cfg: CircuitConfig, horizon: float) -> np.ndarray:
    """Matrix-exponential solution of the (pre-onset) linear system; the
    independent oracle for the Euler integrator."""
    n = cfg.weight.shape[0]
    w_inv = np.linalg.inv(cfg.weight)
    a = np.block([[-np.eye(n), cfg.coupling * w_inv],
                  [cfg.weight, -np.eye(n)]]) / cfg.tau
    b = np.concatenate([cfg.x, np.zeros(n)]) / cfg.tau
    steady = -np.linalg.solve(a, b)
    u0 = -steady
    return sla.expm(a * horizon) @ u0 + steady


def circuit_of(batch: Trajectory, i: int) -> Trajectory:
    return Trajectory(times=batch.times, u1=batch.u1[:, i], u2=batch.u2[:, i])


def assert_same_bytes(got: Trajectory, want: Trajectory, where) -> None:
    for name in ("times", "u1", "u2"):
        assert getattr(got, name).shape == getattr(want, name).shape, (name, where)
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (name, where)


class TestSimulate:
    def test_decoupled_integrator_converges_to_input(self):
        x = np.array([0.7, -0.3])
        cfg = circuit(np.eye(2), 0.0, x, np.zeros(2), duration=50.0, onset=50.0)
        traj = simulate(cfg)
        assert np.abs(traj.u1[-1] - x).max() < 1e-9

    def test_identity_weight_equilibrium_value(self):
        # nu = 0.25 gives gamma = 1/3 and a pre-onset equilibrium of 4/3
        cfg = circuit(np.eye(1), 0.25, [1.0], [0.0], duration=80.0, onset=80.0)
        traj = simulate(cfg)
        assert abs(traj.u1[-1][0] - 4.0 / 3.0) < 1e-6

    def test_identity_weight_shifted_equilibrium(self):
        # with the target on, the equilibrium shifts by gamma * W^-1 t2
        cfg = circuit(np.eye(1), 0.25, [1.0], [1.0], duration=120.0, onset=40.0)
        traj = simulate(cfg)
        assert abs(traj.u1[-1][0] - 5.0 / 3.0) < 1e-6

    def test_sample_count(self):
        cfg = circuit(np.eye(2), 0.1, [1.0, 0.0], [0.0, 0.0],
                      duration=2.0, dt=0.01, onset=1.0)
        traj = simulate(cfg)
        assert traj.times.size == 201
        assert traj.u1.shape == (201, 2)

    def test_matches_matrix_exponential_mid_transient(self):
        rng = make_rng(50)
        w = controlled_matrix(3, rng)
        x = rng.standard_normal(3)
        cfg = circuit(w, 0.3, x, np.zeros(3), dt=0.001, duration=2.0, onset=2.0)
        traj = simulate(cfg)
        exact = exact_state(cfg, 2.0)
        got = np.concatenate([traj.u1[-1], traj.u2[-1]])
        assert np.abs(got - exact).max() < 2e-3

    def test_halving_dt_halves_transient_error(self):
        rng = make_rng(51)
        w = controlled_matrix(3, rng)
        x = rng.standard_normal(3)
        errs = []
        for dt in (0.02, 0.01):
            cfg = circuit(w, 0.3, x, np.zeros(3), dt=dt, duration=3.0, onset=3.0)
            traj = simulate(cfg)
            exact = exact_state(cfg, 3.0)
            errs.append(np.abs(np.concatenate([traj.u1[-1], traj.u2[-1]]) - exact).max())
        assert errs[1] / errs[0] == pytest.approx(0.5, abs=0.15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
    def test_bytes_match_step_by_step_loop(self, n):
        # alone and in lockstep batches of 1-5, every circuit equals its own
        # step-by-step run
        rng = make_rng(60 + n)
        w = controlled_matrix(n, rng)
        nus = (0.0, 0.25, 0.9, 0.5, 0.1)
        xs = rng.standard_normal((len(nus), n))
        t2s = rng.standard_normal((len(nus), n))
        for onset in (0.0, 1.5, 3.0):
            for tau in (0.5, 1.0):
                cfgs = [circuit(w, nu, x, t2, tau=tau, duration=3.0, onset=onset)
                        for nu, x, t2 in zip(nus, xs, t2s)]
                wants = [euler_oracle(cfg) for cfg in cfgs]
                for cfg, want in zip(cfgs, wants):
                    assert_same_bytes(simulate(cfg), want, (cfg.coupling, onset, tau))
                for size in range(1, len(cfgs) + 1):
                    got = simulate(cfgs[:size])
                    assert got.diverged_at == [None] * size
                    for i, want in enumerate(wants[:size]):
                        assert_same_bytes(circuit_of(got, i), want, (size, i, onset, tau))

    def test_divergence_detected(self):
        # force unstable couplings past validation to exercise the guard; at
        # 1e300 the state overflows to inf and NaN after the limit is passed
        for coupling in (150.0, 1e300):
            cfg = circuit(np.eye(2), 0.4, [1.0, -0.5], [0.0, 0.0],
                          duration=50.0, onset=50.0)
            object.__setattr__(cfg, "coupling", coupling)
            with pytest.raises(Divergence) as want:
                euler_oracle(cfg)
            with pytest.raises(Divergence) as got:
                simulate(cfg)
            assert str(got.value) == str(want.value)

    def test_divergence_in_a_batch_flags_only_its_circuit(self):
        for coupling in (150.0, 1e300):
            cfgs = [circuit(np.eye(2), nu, [1.0, -0.5], [0.3, 0.2],
                            duration=50.0, onset=20.0) for nu in (0.1, 0.4, 0.25)]
            object.__setattr__(cfgs[1], "coupling", coupling)
            got = simulate(cfgs)
            with pytest.raises(Divergence) as want:
                euler_oracle(cfgs[1])
            assert got.diverged_at[0] is None and got.diverged_at[2] is None
            assert str(want.value).endswith(f"at t={got.diverged_at[1]:.6g}")
            for i in (0, 2):
                assert_same_bytes(circuit_of(got, i), euler_oracle(cfgs[i]), i)

    @pytest.mark.parametrize("change", [
        {"w": 2.0 * np.eye(2)}, {"dt": 0.02}, {"tau": 0.5}, {"onset": 10.0},
        {"duration": 60.0},
    ])
    def test_batch_must_share_all_but_coupling_and_inputs(self, change):
        base = dict(w=np.eye(2), nu=0.25, x=[1.0, 0.0], t2=[0.0, 1.0])
        cfgs = [circuit(**base), circuit(**{**base, "nu": 0.1, **change})]
        with pytest.raises(ValueError, match="share"):
            simulate(cfgs)
        with pytest.raises(ValueError, match="at least one"):
            simulate([])

    def test_non_finite_state_diverges(self):
        # a NaN input forced past validation is caught at the first step
        cfg = circuit(np.eye(2), 0.25, [1.0, 1.0], [0.0, 0.0], duration=1.0, onset=1.0)
        object.__setattr__(cfg, "x", np.array([np.nan, 1.0]))
        with pytest.raises(Divergence, match=r"at t=0\.01$"):
            simulate(cfg)


class TestEquilibria:
    def test_zero_coupling(self):
        x = np.array([0.5, 1.5])
        cfg = circuit(np.eye(2), 0.0, x, np.ones(2))
        y1, y1s, gamma = equilibria(cfg)
        assert gamma == 0.0
        assert np.array_equal(y1, x)
        assert np.array_equal(y1s, x)

    def test_quarter_coupling_gamma(self):
        cfg = circuit(np.eye(2), 0.25, np.ones(2), np.ones(2))
        assert equilibria(cfg)[2] == pytest.approx(1.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("nu", [0.1, 0.25, 0.4])
    def test_simulation_reaches_closed_form(self, nu):
        rng = make_rng(52)
        w = controlled_matrix(4, rng)
        x = rng.standard_normal(4)
        t2 = rng.standard_normal(4)
        cfg = circuit(w, nu, x, t2, duration=100.0, onset=40.0)
        y1, y1_shifted, gamma = equilibria(cfg)
        traj = simulate(cfg)
        before = traj.u1[int(40.0 / cfg.dt) - 1]
        assert np.abs(before - y1).max() < 1e-6
        assert np.abs(traj.u1[-1] - y1_shifted).max() < 1e-6

    def test_blend_reconstruction_from_equilibria(self):
        # the two steady states encode gamma * W^-1 t2, the incremental
        # target shift, up to integration tolerance
        rng = make_rng(53)
        w = controlled_matrix(4, rng)
        x = rng.standard_normal(4)
        t2 = rng.standard_normal(4)
        cfg = circuit(w, 0.25, x, t2, duration=120.0, onset=50.0)
        traj = simulate(cfg)
        gamma = cfg.gamma
        before = traj.u1[int(50.0 / cfg.dt) - 1]
        shift = traj.u1[-1] - before
        expected = gamma * np.linalg.solve(w, t2)
        assert np.abs(shift - expected).max() < 1e-6


class TestConfigValidation:
    def test_rejects_unstable_coupling(self):
        with pytest.raises(ValueError, match="coupling"):
            circuit(np.eye(2), 1.0, np.zeros(2), np.zeros(2))

    def test_rejects_large_dt(self):
        with pytest.raises(ValueError, match="dt"):
            circuit(np.eye(2), 0.1, np.zeros(2), np.zeros(2), dt=0.2, tau=1.0)
        for dt in (0.0, -0.01):
            with pytest.raises(ValueError, match="dt"):
                circuit(np.eye(2), 0.1, np.zeros(2), np.zeros(2), dt=dt, tau=1.0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="vectors"):
            circuit(np.eye(2), 0.1, np.zeros(3), np.zeros(2))

    def test_rejects_non_finite_inputs(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                circuit(np.eye(2), 0.1, [bad, 1.0], np.zeros(2))
            with pytest.raises(ValueError, match="finite"):
                circuit(np.eye(2), 0.1, np.zeros(2), [1.0, bad])

    def test_rejects_singular_weight(self):
        from gaitprop.linalg import SingularMatrix
        cfg = circuit(np.ones((2, 2)), 0.1, np.zeros(2), np.zeros(2))
        with pytest.raises(SingularMatrix):
            simulate(cfg)

