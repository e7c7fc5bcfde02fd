import csv
import importlib
import json
import os
import re
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from gaitprop import Activation, forward, harness, make_rng, network
from gaitprop.data import (Dataset, load_idx, synthetic_teacher, synthetic_teacher_quantized,
                           write_idx)
from gaitprop.dynamics import equilibria, simulate
from gaitprop.linalg import SingularMatrix
from gaitprop.harness import (
    ConfigError,
    ExperimentConfig,
    TrainingDiverged,
    align_experiment,
    config_from_mapping,
    equilibrium_sweep,
    gridsearch,
    load_config,
    parse_config_text,
    train,
    write_equilibrium_csv,
    write_grid_csv,
    write_run_outputs,
    _derived_seed,
)

from conftest import euler_oracle, make_net

DESK = ExperimentConfig(width=16, depth=3, classes=4,
                        teacher_depth=2, train_samples=2000, test_samples=1000,
                        batch_size=16, epochs=10, seed=0, data_seed=1234)

TINY = replace(DESK, train_samples=120, test_samples=40, epochs=2)


class TestConfigParsing:
    def test_key_value_text(self):
        mapping = parse_config_text("""
            # a comment
            rule = gait
            widths = 16, 12, 8
            classes = 4
            eta = 1e-3
            allow_init_mismatch = true
        """)
        cfg = config_from_mapping(mapping)
        assert cfg.rule == "gait"
        assert cfg.resolved_widths() == (16, 12, 8)
        assert cfg.eta == 1e-3
        assert cfg.allow_init_mismatch is True

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_mapping({"learning_rate": "0.1"})

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words\n")

    def test_eta_auto(self):
        cfg = config_from_mapping({"rule": "tp", "eta": "auto"})
        assert cfg.resolved_eta() == 1e-5
        assert cfg.resolved_lam() == 1000.0

    def test_bold_cells_per_rule(self):
        assert ExperimentConfig(rule="bp").resolved_eta() == 1e-4
        assert ExperimentConfig(rule="bp").resolved_lam() == 0.0
        assert ExperimentConfig(rule="gait").resolved_lam() == 0.1
        assert ExperimentConfig(rule="tp").resolved_lam() == 1000.0

    def test_init_pairing_enforced(self):
        with pytest.raises(ConfigError, match="pairing"):
            ExperimentConfig(rule="gait", init="xavier")  # lam defaults to 0.1
        ok = ExperimentConfig(rule="gait", init="xavier", allow_init_mismatch=True)
        assert ok.resolved_init() == "xavier"

    def test_auto_init_follows_lambda(self):
        assert ExperimentConfig(lam=0.0).resolved_init() == "xavier"
        assert ExperimentConfig(lam=0.5).resolved_init() == "orthogonal"

    def test_halving_arch(self):
        cfg = ExperimentConfig(arch="halving", width=64, depth=4, classes=10)
        assert cfg.resolved_widths() == (64, 32, 16, 10)

    def test_widths_override_arch(self):
        cfg = ExperimentConfig(arch="halving", widths=(20, 20), classes=5)
        assert cfg.resolved_widths() == (20, 20)

    def test_config_file_with_overrides(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("rule = bp\nepochs = 3\n")
        cfg = load_config(path, overrides={"epochs": "5"})
        assert cfg.rule == "bp"
        assert cfg.epochs == 5

    def test_to_dict_is_resolved(self):
        d = ExperimentConfig(rule="tp").to_dict()
        assert d["eta"] == 1e-5
        assert d["init"] == "orthogonal"
        assert d["widths"] == [784] * 5

    @pytest.mark.parametrize("build", [
        lambda: ExperimentConfig(rule="bogus"),
        lambda: ExperimentConfig(gamma=0),
        lambda: replace(DESK, lam=float("inf")),
    ], ids=["rule", "gamma", "replace_lam"])
    def test_checked_when_built(self, build):
        with pytest.raises(ConfigError):
            build()

    def test_idx_dataset_requires_paths(self):
        # all four IDX paths select IDX data and none the teacher; some but
        # not all are a mistake that names the missing ones
        for given, missing in ((("train_images", "train_labels"), "test_images, test_labels"),
                               (("train_images", "test_images", "test_labels"),
                                "train_labels")):
            with pytest.raises(ConfigError, match=f"missing {missing}$"):
                config_from_mapping(dict.fromkeys(given, "data.idx"))

    def test_readme_config_table_lists_every_field(self):
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        keys = [key for line in table.splitlines() if line.startswith("| `")
                for key in re.findall(r"`(\w+)`", line.split("|")[1])]
        assert keys == [f.name for f in fields(ExperimentConfig)]


class TestTrain:
    def test_record_shape_and_determinism(self):
        rec1 = train(TINY)
        rec2 = train(TINY)
        assert len(rec1.epochs) == 2
        for e1, e2 in zip(rec1.epochs, rec2.epochs):
            assert e1["train_acc"] == e2["train_acc"]
            assert e1["mean_loss"] == e2["mean_loss"]
            assert e1["ortho_errors"] == e2["ortho_errors"]
        assert 0.0 <= rec1.peak_train_acc <= 1.0
        assert 0.0 <= rec1.peak_test_acc <= 1.0
        assert rec1.final_train_acc == rec1.epochs[-1]["train_acc"]

    def test_all_rules_run(self):
        for rule in ("bp", "tp", "itp", "gait"):
            rec = train(replace(TINY, rule=rule, epochs=1))
            assert len(rec.epochs) == 1

    def test_run_outputs_written(self, tmp_path):
        rec = train(TINY)
        write_run_outputs(rec, tmp_path / "out")
        run = json.loads((tmp_path / "out" / "run.json").read_text())
        assert run["config"]["rule"] == "gait"
        assert len(run["epochs"]) == 2
        rows = list(csv.reader((tmp_path / "out" / "epochs.csv").open()))
        assert rows[0][:4] == ["epoch", "train_acc", "test_acc", "mean_loss"]
        assert len(rows) == 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self):
        with pytest.raises(TrainingDiverged):
            train(replace(TINY, rule="bp", eta=1e150, epochs=3))

    def test_idx_dataset_path(self, tmp_path, monkeypatch):
        # the four paths alone select the IDX files; 0 samples keeps them all
        loaded = []

        def spy(images, labels, n_classes):
            loaded.append(os.path.basename(images))
            return load_idx(images, labels, n_classes)

        monkeypatch.setattr(harness, "load_idx", spy)
        monkeypatch.setattr(harness, "synthetic_teacher", _no_training)
        rec = train(replace(idx_config(tmp_path), train_samples=0, test_samples=0,
                            epochs=1))
        assert len(rec.epochs) == 1
        assert loaded == ["train-img", "test-img"]

    def test_checkpoint_saved(self, tmp_path):
        from gaitprop import load_checkpoint
        path = tmp_path / "final.ckpt"
        train(replace(TINY, epochs=1, save_checkpoint=str(path)))
        net = load_checkpoint(path)
        assert net.depth == 3

    def test_desk_scale_regression_baseline(self):
        # pinned run (eta 2e-3, batch 8, seed 0): both rules fit the teacher
        # task to >= 95% within 50 epochs and land within 2 points of each
        # other; the exact margins are seed-pinned, see measured values
        # recorded in the asserts
        base = replace(DESK, batch_size=8, epochs=50, eta=2e-3, seed=0)
        bp = train(replace(base, rule="bp"))
        gait = train(replace(base, rule="gait"))
        assert bp.peak_train_acc >= 0.95       # measured 0.9705
        assert gait.peak_train_acc >= 0.95     # measured 0.9515
        assert abs(bp.final_train_acc - gait.final_train_acc) <= 0.02  # 0.0175


def idx_config(tmp_path) -> ExperimentConfig:
    """TINY on IDX files: 60 train and 20 test images of 4x4 pixels."""
    pixels, labels = synthetic_teacher_quantized(16, 2, 4, 80, seed=9)
    for name, sl in (("train", slice(0, 60)), ("test", slice(60, None))):
        write_idx(pixels[sl].reshape(-1, 4, 4), labels[sl].astype(np.uint8),
                  tmp_path / f"{name}-img", tmp_path / f"{name}-lab")
    return replace(TINY, classes=4,
                   train_images=str(tmp_path / "train-img"),
                   train_labels=str(tmp_path / "train-lab"),
                   test_images=str(tmp_path / "test-img"),
                   test_labels=str(tmp_path / "test-lab"))


def _no_training(*args, **kwargs):
    raise AssertionError("work started before every input was checked")


class TestGridsearch:
    def test_table_shape(self, tmp_path):
        result = gridsearch(TINY, etas=[1e-3, 1e-4], lambdas=[0.0, 0.1])
        assert len(result.records) + len(result.failures) == 4
        path = tmp_path / "grid.csv"
        write_grid_csv(result, path)
        rows = list(csv.reader(path.open()))
        assert len(rows) == 3            # header + one row per eta
        assert len(rows[1]) == 3         # eta column + one per lambda

    def test_single_cell_equals_train(self):
        result = gridsearch(TINY, etas=[1e-3], lambdas=[0.1])
        rec = result.records[(1e-3, 0.1)]
        direct = train(replace(TINY, eta=1e-3, lam=0.1,
                               seed=_derived_seed(TINY.seed, 0, 0)))
        assert rec.epochs == direct.epochs

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failures_recorded_not_fatal(self):
        result = gridsearch(replace(TINY, epochs=3),
                            etas=[1e150, 1e-3], lambdas=[0.0])
        assert (1e150, 0.0) in result.failures
        assert (1e-3, 0.0) in result.records

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_on_any_step_fails_the_cell(self):
        # One batch: with eta=1e300 only the epoch-end loss is non-finite;
        # with lam=1e308 the regularizer makes Adam write non-finite weights.
        result = gridsearch(replace(TINY, train_samples=16, epochs=1),
                            etas=[1e300], lambdas=[0.0, 1e308])
        assert sorted(result.failures) == [(1e300, 0.0), (1e300, 1e308)]
        assert not result.records

    def test_dataset_loaded_once_and_cells_equal_train(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return synthetic_teacher(*args)

        base = replace(TINY, arch="halving", width=32, depth=3, epochs=1)
        monkeypatch.setattr(harness, "synthetic_teacher", spy)
        result = gridsearch(base, etas=harness.DEFAULT_ETAS,
                            lambdas=harness.DEFAULT_LAMBDAS)
        assert len(calls) == 1
        assert len(result.records) == 12 and not result.failures

        def fields_but_wall(rec):
            out = asdict(rec)
            del out["wall_clock_s"]
            return out

        for i, eta in enumerate(harness.DEFAULT_ETAS):
            for j, lam in enumerate(harness.DEFAULT_LAMBDAS):
                direct = train(replace(base, eta=eta, lam=lam,
                                       seed=_derived_seed(base.seed, i, j)))
                assert fields_but_wall(result.records[(eta, lam)]) == fields_but_wall(direct)

    def test_every_cell_validated_before_any_trains(self, monkeypatch):
        monkeypatch.setattr(harness, "train", _no_training)
        with pytest.raises(ConfigError, match="lam"):
            gridsearch(TINY, etas=[1e-3], lambdas=[0.1, float("inf")])

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            gridsearch(TINY, etas=[], lambdas=[0.1])


def fields_but_wall(rec) -> dict:
    out = asdict(rec)
    del out["wall_clock_s"]
    return out


def standalone(base, etas, lambdas, eta, lam):
    """What the sweep's cell (eta, lam) gives when it trains alone: its
    record without the wall time, or its failure text."""
    cfg = replace(base, eta=eta, lam=lam,
                  seed=_derived_seed(base.seed, etas.index(eta), lambdas.index(lam)))
    try:
        return fields_but_wall(train(cfg))
    except (TrainingDiverged, SingularMatrix) as exc:
        return f"{type(exc).__name__}: {exc}"


def sweep(base, etas, lambdas) -> dict:
    """Each cell of a gridsearch: its record without the wall time, or its
    failure text."""
    result = gridsearch(base, etas, lambdas)
    return {**{cell: fields_but_wall(rec) for cell, rec in result.records.items()},
            **result.failures}


HALVING = replace(TINY, arch="halving", width=32, depth=3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestLockstep:
    @pytest.fixture
    def groups(self, monkeypatch):
        """The cell count of every call of the lockstep group loop."""
        sizes = []
        real = harness._train_cells

        def spy(cfgs, data=None):
            sizes.append(len(cfgs))
            return real(cfgs, data)

        monkeypatch.setattr(harness, "_train_cells", spy)
        return sizes

    @pytest.mark.parametrize("rule", harness.RULES)
    def test_cells_equal_their_own_train(self, rule, groups):
        base = replace(HALVING, rule=rule)
        etas, lambdas = [1e-3, 1e-4], [0.0, 0.1]
        got = sweep(base, etas, lambdas)
        assert groups == [4]
        for (eta, lam), cell in got.items():
            assert cell == standalone(base, etas, lambdas, eta, lam)

    @pytest.mark.parametrize("samples", [16, 120])  # one batch an epoch, or several
    def test_failed_cells_leave_and_the_rest_go_on(self, samples, groups):
        base = replace(HALVING, rule="gait", train_samples=samples)
        etas, lambdas = [1e150, 1e-3, 1e-4], [0.0, 0.1, 1e308]
        got = sweep(base, etas, lambdas)
        assert groups == [9] + [1] * 9  # the group stops, and each cell retrains alone
        for (eta, lam), cell in got.items():
            assert cell == standalone(base, etas, lambdas, eta, lam)
        failures = [cell for cell in got.values() if isinstance(cell, str)]
        assert len(failures) == 5
        assert any("non-finite loss" in f for f in failures)     # eta = 1e150
        assert any("non-finite weights" in f for f in failures)  # lam = 1e308

    def test_singular_cell_fails_with_its_own_text(self, groups, monkeypatch):
        base = replace(HALVING, rule="gait")
        etas, lambdas = [1e-3, 1e-4], [0.0, 0.1]
        pivot, rcond = _derived_seed(base.seed, 0, 1), _derived_seed(base.seed, 1, 0)
        build = harness.build_from_config

        def broken(cfg):
            net = build(cfg)
            if cfg.seed == pivot:  # two equal rows: an exact zero pivot
                w = net.layers[1].weight.copy()
                w[1] = w[0]
                net.layers[1].weight = w
            if cfg.seed == rcond:  # the top layer, inverted first, is nearly singular
                w = net.layers[2].weight.copy()
                w[0] *= 1e-300
                net.layers[2].weight = w
            return net

        monkeypatch.setattr(harness, "build_from_config", broken)
        got = sweep(base, etas, lambdas)
        assert groups == [4] + [1] * 4
        assert got[(1e-3, 0.1)].startswith("SingularMatrix: exact zero pivot")
        assert got[(1e-4, 0.0)].startswith("SingularMatrix: reciprocal condition number")
        for (eta, lam), cell in got.items():
            assert cell == standalone(base, etas, lambdas, eta, lam)

    def test_singular_wide_cell_fails_with_its_own_text(self, groups, monkeypatch):
        # A 96x3 fixed net: both inverted layers are linalg.SOLVE_WIDTH wide,
        # so its target steps solve instead of inverting.
        base = replace(TINY, rule="gait", arch="fixed", width=96, depth=3)
        etas, lambdas = [1e-3, 1e-4], [0.0, 0.1]
        pivot, tiny_row, kappa = (_derived_seed(base.seed, *cell)
                                  for cell in ((0, 1), (1, 0), (1, 1)))
        build = harness.build_from_config

        def broken(cfg):
            net = build(cfg)
            w = net.layers[1].weight.copy()
            if cfg.seed == pivot:  # a zero row: an exact zero pivot
                w[1] = 0.0
            if cfg.seed == kappa:  # condition 1e14, in the deepest inverted layer
                w = w @ np.diag(np.geomspace(1.0, 1e-14, 96))
            net.layers[1].weight = w
            if cfg.seed == tiny_row:  # an auxiliary row of the top layer, solved first:
                w = net.layers[2].weight.copy()  # its gap rows there are all zero
                w[-1] *= 1e-300
                net.layers[2].weight = w
            return net

        monkeypatch.setattr(harness, "build_from_config", broken)
        got = sweep(base, etas, lambdas)
        assert groups == [4] + [1] * 4
        assert got[(1e-3, 0.1)].startswith("SingularMatrix: exact zero pivot")
        for cell in ((1e-4, 0.0), (1e-4, 0.1)):
            assert got[cell].startswith("SingularMatrix: reciprocal condition number at most")
        assert isinstance(got[(1e-3, 0.0)], dict)
        for (eta, lam), cell in got.items():
            assert cell == standalone(base, etas, lambdas, eta, lam)

    @pytest.mark.parametrize("budget,sizes", [(2.5, [2, 2, 2]), (0.9, [1] * 6)])
    def test_groups_fill_the_budget(self, budget, sizes, groups, monkeypatch):
        trained = []
        real = harness.train

        def spy(cfg, data=None):
            trained.append(cfg)
            return real(cfg, data)

        monkeypatch.setattr(harness, "train", spy)
        cell_bytes = 8 * 3 * 16 * 16
        monkeypatch.setattr(harness, "LOCKSTEP_BYTES", int(budget * cell_bytes))
        gridsearch(replace(TINY, epochs=1), etas=[1e-3, 1e-4], lambdas=[0.0, 0.1, 10.0])
        assert groups == sizes
        assert len(trained) == (6 if sizes[0] == 1 else 0)  # a cell alone runs as train

    @pytest.mark.parametrize("rule", harness.RULES)
    def test_default_sweep_trains_as_one_group(self, rule, groups, monkeypatch):
        # A failing cell sends its whole group to serial training, so a
        # default sweep of the 64-32-16-10 net that starts to fail would
        # lose the lockstep speed silently.
        alone = []
        monkeypatch.setattr(harness, "train", lambda cfg, data=None: alone.append(cfg))
        base = ExperimentConfig(rule=rule, arch="halving", width=64, depth=4, classes=10,
                                batch_size=64, epochs=2, train_samples=640,
                                test_samples=128)
        result = gridsearch(base, harness.DEFAULT_ETAS, harness.DEFAULT_LAMBDAS)
        assert groups == [12]
        assert alone == [] and result.failures == {}
        assert len(result.records) == 12

    @pytest.mark.parametrize("width,depth,etas,lambdas,sizes", [
        (64, 4, harness.DEFAULT_ETAS, harness.DEFAULT_LAMBDAS, [12]),  # 525 KB
        (256, 5, [1e-4], [0.0, 0.1], [1, 1]),                          # 2.6 MB a cell
    ])
    def test_default_budget(self, width, depth, etas, lambdas, sizes, groups):
        base = replace(TINY, arch="halving" if width == 64 else "fixed", width=width,
                       depth=depth, classes=10, epochs=0)
        gridsearch(base, etas, lambdas)
        assert groups == sizes


def test_evaluation_and_teacher_labels_compute_no_gains(monkeypatch):
    # Neither reads a gain, so neither may pay for one.
    def no_gains(self, x):
        raise AssertionError("a gain was computed")

    monkeypatch.setattr(Activation, "deriv", no_gains)
    ds = synthetic_teacher(16, 2, 4, 50, make_rng(3))
    assert len(ds) == 50
    assert 0.0 <= harness.evaluate(harness.build_from_config(TINY), ds)[0] <= 1.0


class TestAlignExperiment:
    def test_orthogonal_beats_xavier_for_gait(self):
        reports = align_experiment(replace(TINY, train_samples=64), n_samples=64)
        ortho = reports["orthogonal"]["gait"].cosines
        xavier = reports["xavier"]["gait"].cosines
        assert all(c > 0.999 for c in ortho)
        for co, cx in zip(ortho[:-1], xavier[:-1]):
            assert cx < co

    def test_single_sample_report_well_formed(self):
        reports = align_experiment(replace(TINY, train_samples=8), n_samples=1)
        for by_rule in reports.values():
            for rep in by_rule.values():
                assert len(rep.cosines) == 3

    def test_bad_config_fails_before_data_loads(self, monkeypatch):
        monkeypatch.setattr(harness, "_draw_teacher", _no_training)
        monkeypatch.setattr(harness, "_load_idx_split", _no_training)
        with pytest.raises(ConfigError, match="n_samples"):
            align_experiment(TINY, n_samples=0)
        with pytest.raises(ConfigError, match="only 8 samples available"):
            align_experiment(replace(TINY, train_samples=8), n_samples=99)

    def test_too_many_samples_rejected(self):
        with pytest.raises(ConfigError, match="available"):
            align_experiment(replace(TINY, train_samples=8), n_samples=99)

    def test_draws_only_the_samples_it_reads(self, monkeypatch):
        # the reports must equal those of a run that draws the whole
        # train + test set and keeps its first rows
        drawn = []

        def spy(n_in, depth, classes, samples, rng):
            drawn.append(samples)
            return synthetic_teacher(n_in, depth, classes, samples, rng)

        def full_draw(n_in, depth, classes, samples, rng):
            full = synthetic_teacher(n_in, depth, classes,
                                     TINY.train_samples + TINY.test_samples, rng)
            return Dataset(full.inputs[:samples], full.labels[:samples], classes)

        monkeypatch.setattr(harness, "synthetic_teacher", spy)
        reports = align_experiment(TINY, n_samples=16)
        assert drawn == [16]
        monkeypatch.setattr(harness, "synthetic_teacher", full_draw)
        full = align_experiment(TINY, n_samples=16)
        for init in ("orthogonal", "xavier"):
            for rule in ("tp", "gait"):
                got, want = reports[init][rule], full[init][rule]
                assert got.cosines == want.cosines
                assert got.norm_ratios == want.norm_ratios
                for a, b in zip(got.scatter, want.scatter, strict=True):
                    assert np.array_equal(a, b)


    def test_idx_reads_only_the_train_pair(self, tmp_path, monkeypatch):
        cfg = idx_config(tmp_path)
        loaded = []

        def spy(images, labels, n_classes):
            loaded.append((os.path.basename(images), os.path.basename(labels)))
            return load_idx(images, labels, n_classes)

        monkeypatch.setattr(harness, "load_idx", spy)
        reports = align_experiment(cfg, n_samples=8)
        assert loaded == [("train-img", "train-lab")]
        assert len(reports["orthogonal"]["gait"].cosines) == 3


class TestEquilibriumSweep:
    def test_one_lockstep_call_matches_per_coupling_oracle(self, monkeypatch):
        # the benchmark traces harness.simulate: one call for all couplings,
        # with the rows a step-by-step run of each coupling gives
        nus = [0.0, 0.1, 0.25, 0.4]
        calls = []

        def spy(cfg):
            calls.append(cfg)
            return simulate(cfg)

        monkeypatch.setattr(harness, "simulate", spy)
        rows = equilibrium_sweep(nus, seed=7)
        assert len(calls) == 1
        cfg = calls[0]
        assert cfg.couplings == tuple(nus)
        k_onset = int(round(50.0 / 0.01))
        y1, y1_shifted, gamma = equilibria(cfg)
        want = []
        for i, nu in enumerate(nus):
            traj = euler_oracle(cfg, nu)
            assert traj.diverged_at == [None]
            want.append({"nu": nu, "gamma": float(gamma[i]), "diverged": False,
                         "err_before_onset": float(np.abs(traj.u1[k_onset - 1] - y1[i]).max()),
                         "err_after_onset": float(np.abs(traj.u1[-1] - y1_shifted[i]).max())})
        assert rows == want

    def test_before_onset_reads_the_step_simulate_switched_at(self, monkeypatch):
        # at dt = 0.0098 the target switches on at step 5103, while
        # round(onset / dt) - 1 would read sample 5101
        runs = []

        def spy(cfg):
            runs.append((cfg, simulate(cfg)))
            return runs[-1][1]

        monkeypatch.setattr(harness, "simulate", spy)
        row, = equilibrium_sweep([0.25], dt=0.0098)
        (cfg, traj), = runs
        assert traj.onset_step == 5103
        y1 = equilibria(cfg)[0]
        assert row["err_before_onset"] == float(np.abs(traj.u1[5102, 0] - y1[0]).max())

    def test_every_circuit_checked_before_any_runs(self, monkeypatch):
        monkeypatch.setattr(harness, "simulate", _no_training)
        with pytest.raises(ValueError, match="coupling"):
            equilibrium_sweep([0.25, 1.5])
        with pytest.raises(ValueError, match="at least one coupling"):
            equilibrium_sweep([])

    def test_rows_and_gamma(self, tmp_path):
        rows = equilibrium_sweep([0.0, 0.25], seed=3)
        assert rows[0]["nu"] == 0.0 and rows[0]["gamma"] == 0.0
        assert rows[1]["gamma"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        for r in rows:
            assert r["err_before_onset"] < 1e-5
            assert r["err_after_onset"] < 1e-5
        path = tmp_path / "eq.csv"
        write_equilibrium_csv(rows, path)
        got = list(csv.reader(path.open()))
        assert got[0] == ["nu", "gamma", "err_before_onset", "err_after_onset",
                          "diverged"]
        assert len(got) == 3

    def test_terminal_state_first_order_in_dt(self):
        # mid-transient horizon: successive dt halvings change the reported
        # error by about half each time (first-order integrator), so the
        # two-resolution differences shrink toward the exact trajectory
        errs = [equilibrium_sweep([0.25], seed=3, dt=dt, onset=2.0,
                                  duration=4.0)[0]["err_after_onset"]
                for dt in (0.08, 0.04, 0.02)]
        d1 = abs(errs[0] - errs[1])
        d2 = abs(errs[1] - errs[2])
        assert d2 < d1
        assert d1 / d2 == pytest.approx(2.0, rel=0.5)


RULE_FUNCTIONS = ("bp_updates", "tp_targets", "tp_updates", "itp_targets",
                  "itp_updates", "gait_targets", "gait_updates")


class TestRuleLookup:
    """The benchmark times each rule by replacing the ``harness`` attribute
    of the same name, so harness must look the rules up there per call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        for name in RULE_FUNCTIONS:
            def counted(*args, _name=name, _real=getattr(harness, name), **kwargs):
                seen.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(harness, name, counted)
        return seen

    @pytest.mark.parametrize("rule,expected", [
        ("bp", ["bp_updates"]),
        ("tp", ["tp_targets", "tp_updates"]),
        ("itp", ["itp_targets", "itp_updates"]),
        ("gait", ["gait_targets", "gait_updates"]),
    ])
    def test_rule_updates(self, rule, expected, calls, rng):
        net = make_net([8, 6], 4, seed=0)
        trace = forward(net, rng.uniform(0, 1, (8, 3)))
        harness.rule_updates(rule, net, trace, trace.output() + 0.1, 1e-3)
        assert calls == expected

    def test_align_experiment(self, calls):
        align_experiment(TINY, 4)
        per_init = ["bp_updates", "tp_targets", "tp_updates",
                    "gait_targets", "gait_updates"]
        assert sorted(calls) == sorted(per_init * 2)


def test_every_name_perfbench_wraps_exists(monkeypatch):
    """perfbench's tracer replaces program attributes by name, so a refactor
    that drops or moves one breaks the benchmark; it fails here first."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    for name in ("workloads", "tracer"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    workloads = importlib.import_module("workloads")
    for target in workloads.trace_targets():
        assert target.attr in vars(target.owner), target.layer
    assert isinstance(vars(network.Layer)["weight_inv"], property)
    for phases in workloads.RULE_PHASES.values():
        for name in phases:
            assert name in vars(harness), name
