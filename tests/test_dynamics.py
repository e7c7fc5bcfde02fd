import numpy as np
import pytest
import scipy.linalg as sla

from gaitprop.dynamics import CircuitConfig, equilibria, simulate
from gaitprop.linalg import make_rng

from conftest import controlled_matrix, euler_oracle


def circuit(w, nus, x, t2, tau=1.0, dt=0.01, duration=100.0, onset=40.0):
    return CircuitConfig(weight=np.asarray(w, dtype=np.float64), couplings=tuple(nus),
                         tau=tau, x=np.asarray(x, dtype=np.float64),
                         t2=np.asarray(t2, dtype=np.float64), dt=dt,
                         duration=duration, onset=onset)


def exact_state(cfg: CircuitConfig, horizon: float) -> np.ndarray:
    """Matrix-exponential solution of the (pre-onset) linear system at the
    config's one coupling; the independent oracle for the Euler integrator."""
    nu, = cfg.couplings
    n = cfg.weight.shape[0]
    w_inv = np.linalg.inv(cfg.weight)
    a = np.block([[-np.eye(n), nu * w_inv],
                  [cfg.weight, -np.eye(n)]]) / cfg.tau
    b = np.concatenate([cfg.x, np.zeros(n)]) / cfg.tau
    steady = -np.linalg.solve(a, b)
    u0 = -steady
    return sla.expm(a * horizon) @ u0 + steady


def assert_matches_oracle(cfg: CircuitConfig) -> list:
    """One ``simulate`` call against the step-by-step loop of each coupling:
    the same onset step and divergence time, and the same bytes where neither
    diverged.
    Returns the divergence times."""
    got = simulate(cfg)
    for i, nu in enumerate(cfg.couplings):
        want = euler_oracle(cfg, nu)
        assert got.onset_step == want.onset_step
        assert got.diverged_at[i] == want.diverged_at[0], (i, nu)
        if want.diverged_at[0] is None:
            assert got.times.tobytes() == want.times.tobytes()
            assert got.u1[:, i].tobytes() == want.u1.tobytes(), (i, nu)
            assert got.u2[:, i].tobytes() == want.u2.tobytes(), (i, nu)
    return got.diverged_at


class TestSimulate:
    def test_decoupled_integrator_converges_to_input(self):
        x = np.array([0.7, -0.3])
        cfg = circuit(np.eye(2), (0.0,), x, np.zeros(2), duration=50.0, onset=50.0)
        traj = simulate(cfg)
        assert np.abs(traj.u1[-1, 0] - x).max() < 1e-9

    def test_identity_weight_equilibrium_value(self):
        # nu = 0.25 gives gamma = 1/3 and a pre-onset equilibrium of 4/3
        cfg = circuit(np.eye(1), (0.25,), [1.0], [0.0], duration=80.0, onset=80.0)
        traj = simulate(cfg)
        assert abs(traj.u1[-1, 0, 0] - 4.0 / 3.0) < 1e-6

    def test_identity_weight_shifted_equilibrium(self):
        # with the target on, the equilibrium shifts by gamma * W^-1 t2
        cfg = circuit(np.eye(1), (0.25,), [1.0], [1.0], duration=120.0, onset=40.0)
        traj = simulate(cfg)
        assert abs(traj.u1[-1, 0, 0] - 5.0 / 3.0) < 1e-6

    def test_sample_count(self):
        cfg = circuit(np.eye(2), (0.1, 0.2, 0.3), [1.0, 0.0], [0.0, 0.0],
                      duration=2.0, dt=0.01, onset=1.0)
        traj = simulate(cfg)
        assert traj.times.size == 201
        assert traj.u1.shape == traj.u2.shape == (201, 3, 2)
        assert traj.diverged_at == [None] * 3

    def test_matches_matrix_exponential_mid_transient(self):
        rng = make_rng(50)
        w = controlled_matrix(3, rng)
        x = rng.standard_normal(3)
        cfg = circuit(w, (0.3,), x, np.zeros(3), dt=0.001, duration=2.0, onset=2.0)
        traj = simulate(cfg)
        exact = exact_state(cfg, 2.0)
        got = np.concatenate([traj.u1[-1, 0], traj.u2[-1, 0]])
        assert np.abs(got - exact).max() < 2e-3

    def test_halving_dt_halves_transient_error(self):
        rng = make_rng(51)
        w = controlled_matrix(3, rng)
        x = rng.standard_normal(3)
        errs = []
        for dt in (0.02, 0.01):
            cfg = circuit(w, (0.3,), x, np.zeros(3), dt=dt, duration=3.0, onset=3.0)
            traj = simulate(cfg)
            exact = exact_state(cfg, 3.0)
            errs.append(np.abs(np.concatenate([traj.u1[-1, 0], traj.u2[-1, 0]]) - exact).max())
        assert errs[1] / errs[0] == pytest.approx(0.5, abs=0.15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
    def test_bytes_match_step_by_step_loop(self, n):
        # batches of 1-5 couplings, for a few inputs each: every coupling
        # equals its own step-by-step run
        rng = make_rng(60 + n)
        w = controlled_matrix(n, rng)
        nus = (0.0, 0.25, 0.9, 0.5, 0.1)
        for onset in (0.0, 1.5, 3.0):
            for tau in (0.5, 1.0):
                for x, t2 in rng.standard_normal((2, 2, n)):
                    for size in range(1, len(nus) + 1):
                        cfg = circuit(w, nus[:size], x, t2, tau=tau, duration=3.0,
                                      onset=onset)
                        assert assert_matches_oracle(cfg) == [None] * size

    def test_divergence_detected(self):
        # an unstable coupling forced past validation; at 1e300 the state
        # overflows to inf and NaN after the limit is passed
        for coupling in (150.0, 1e300):
            cfg = circuit(np.eye(2), (0.4,), [1.0, -0.5], [0.0, 0.0],
                          duration=50.0, onset=50.0)
            object.__setattr__(cfg, "couplings", (coupling,))
            assert assert_matches_oracle(cfg)[0] is not None

    def test_divergence_in_a_batch_flags_only_its_circuit(self):
        for coupling in (150.0, 1e300):
            cfg = circuit(np.eye(2), (0.1, 0.4, 0.25), [1.0, -0.5], [0.3, 0.2],
                          duration=50.0, onset=20.0)
            object.__setattr__(cfg, "couplings", (0.1, coupling, 0.25))
            diverged = assert_matches_oracle(cfg)
            assert diverged[0] is None and diverged[1] is not None and diverged[2] is None

    def test_non_finite_state_diverges(self):
        # NaN forced past validation is caught at the first step: a NaN
        # coupling in its own circuit only, a NaN input in every circuit
        cfg = circuit(np.eye(2), (0.25, 0.1, 0.4), [1.0, 1.0], [0.0, 0.0],
                      duration=1.0, onset=1.0)
        object.__setattr__(cfg, "couplings", (0.25, np.nan, 0.4))
        assert assert_matches_oracle(cfg) == [None, 0.01, None]
        object.__setattr__(cfg, "x", np.array([np.nan, 1.0]))
        assert assert_matches_oracle(cfg) == [0.01] * 3


class TestEquilibria:
    def test_zero_coupling(self):
        x = np.array([0.5, 1.5])
        cfg = circuit(np.eye(2), (0.0,), x, np.ones(2))
        y1, y1s, gamma = equilibria(cfg)
        assert gamma.tolist() == [0.0]
        assert np.array_equal(y1, [x])
        assert np.array_equal(y1s, [x])

    def test_quarter_coupling_gamma(self):
        # one row per coupling, each that coupling's own closed form
        cfg = circuit(np.eye(2), (0.25, 0.0, 0.5), np.ones(2), np.ones(2))
        y1, y1s, gamma = equilibria(cfg)
        assert gamma == pytest.approx([1.0 / 3.0, 0.0, 1.0], abs=1e-12)
        assert y1.shape == y1s.shape == (3, 2)
        assert np.array_equal(y1[1], np.ones(2)) and np.array_equal(y1s[1], np.ones(2))
        assert y1s[2] == pytest.approx([3.0, 3.0], abs=1e-12)

    @pytest.mark.parametrize("nu", [0.1, 0.25, 0.4])
    def test_simulation_reaches_closed_form(self, nu):
        rng = make_rng(52)
        w = controlled_matrix(4, rng)
        x = rng.standard_normal(4)
        t2 = rng.standard_normal(4)
        cfg = circuit(w, (nu,), x, t2, duration=100.0, onset=40.0)
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
        cfg = circuit(w, (0.25,), x, t2, duration=120.0, onset=50.0)
        traj = simulate(cfg)
        gamma = equilibria(cfg)[2][0]
        before = traj.u1[int(50.0 / cfg.dt) - 1, 0]
        shift = traj.u1[-1, 0] - before
        expected = gamma * np.linalg.solve(w, t2)
        assert np.abs(shift - expected).max() < 1e-6


class TestConfigValidation:
    def test_rejects_unstable_coupling(self):
        for nus in ((1.0,), (0.25, -0.1), (0.25, np.nan), ()):
            with pytest.raises(ValueError, match="coupling"):
                circuit(np.eye(2), nus, np.zeros(2), np.zeros(2))

    def test_rejects_large_dt(self):
        with pytest.raises(ValueError, match="dt"):
            circuit(np.eye(2), (0.1,), np.zeros(2), np.zeros(2), dt=0.2, tau=1.0)
        for dt in (0.0, -0.01):
            with pytest.raises(ValueError, match="dt"):
                circuit(np.eye(2), (0.1,), np.zeros(2), np.zeros(2), dt=dt, tau=1.0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="vectors"):
            circuit(np.eye(2), (0.1,), np.zeros(3), np.zeros(2))

    def test_rejects_non_finite_inputs(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                circuit(np.eye(2), (0.1,), [bad, 1.0], np.zeros(2))
            with pytest.raises(ValueError, match="finite"):
                circuit(np.eye(2), (0.1,), np.zeros(2), [1.0, bad])

    def test_rejects_singular_weight(self):
        from gaitprop.linalg import SingularMatrix
        cfg = circuit(np.ones((2, 2)), (0.1,), np.zeros(2), np.zeros(2))
        with pytest.raises(SingularMatrix):
            simulate(cfg)
