import csv
import json

import pytest

from gaitprop.cli import main

DESK_ARGS = ["--set", "width=16", "--set", "depth=3", "--set", "classes=4",
             "--set", "train_samples=120", "--set", "test_samples=40",
             "--set", "epochs=1", "--set", "batch_size=16"]


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    # main() creates the --out directory, "out" by default, before any work.
    monkeypatch.chdir(tmp_path)


class TestTrainCommand:
    def test_runs_and_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--out", str(out), "--seed", "0"] + DESK_ARGS)
        assert code == 0
        record = json.loads((out / "run.json").read_text())
        assert record["config"]["seed"] == 0
        assert (out / "epochs.csv").exists()
        assert "peak_train" in capsys.readouterr().out

    def test_config_file_plus_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("rule = bp\nwidth = 16\ndepth = 2\nclasses = 4\n"
                       "train_samples = 80\ntest_samples = 20\n"
                       "epochs = 2\nbatch_size = 16\n")
        out = tmp_path / "run"
        code = main(["train", "--config", str(cfg), "--out", str(out),
                     "--set", "epochs=1"])
        assert code == 0
        record = json.loads((out / "run.json").read_text())
        assert record["config"]["epochs"] == 1
        assert record["config"]["rule"] == "bp"

    def test_bad_key_exits_2(self, capsys):
        code = main(["train", "--set", "bogus=1"])
        assert code == 2
        assert "error[config]" in capsys.readouterr().err

    def test_missing_config_file_exits_1(self, capsys):
        code = main(["train", "--config", "/nonexistent/path.cfg"])
        assert code == 1
        assert "error[missing-file]" in capsys.readouterr().err


class TestGridsearchCommand:
    def test_tiny_grid(self, tmp_path, capsys):
        out = tmp_path / "grid"
        code = main(["gridsearch", "--out", str(out), "--seed", "0",
                     "--etas", "1e-3", "--lambdas", "0,0.1"] + DESK_ARGS)
        assert code == 0
        rows = list(csv.reader((out / "grid_gait.csv").open()))
        assert len(rows) == 2
        assert len(rows[1]) == 3


class TestAlignCommand:
    def test_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "align"
        code = main(["align", "--out", str(out), "--samples", "16",
                     "--seed", "0"] + DESK_ARGS)
        assert code == 0
        assert (out / "align_orthogonal_gait_vs_bp.csv").exists()
        assert (out / "align_xavier_gait_vs_bp_scatter.csv").exists()
        assert "vs-bp cosines" in capsys.readouterr().out


class TestEquilibriumCommand:
    def test_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "eq"
        code = main(["equilibrium", "--out", str(out), "--nus", "0,0.25"])
        assert code == 0
        rows = list(csv.reader((out / "equilibrium.csv").open()))
        assert len(rows) == 3


class TestDatagenAndInspect:
    def test_datagen_then_train_idx(self, tmp_path):
        out = tmp_path / "data"
        code = main(["datagen", "--out", str(out), "--n-in", "16",
                     "--classes", "4", "--train", "64", "--test", "16",
                     "--seed", "5"])
        assert code == 0
        run_out = tmp_path / "run"
        code = main([
            "train", "--out", str(run_out), "--seed", "0",
            "--set", "dataset=idx", "--set", "classes=4",
            "--set", "width=16", "--set", "depth=2",
            "--set", "epochs=1", "--set", "batch_size=16",
            "--set", "train_samples=0", "--set", "test_samples=0",
            "--set", f"train_images={out}/train-images-idx3-ubyte",
            "--set", f"train_labels={out}/train-labels-idx1-ubyte",
            "--set", f"test_images={out}/test-images-idx3-ubyte",
            "--set", f"test_labels={out}/test-labels-idx1-ubyte",
        ])
        assert code == 0

    def test_datagen_requires_square_input(self, capsys):
        code = main(["datagen", "--n-in", "15"])
        assert code == 2

    def test_checkpoint_inspect(self, tmp_path, capsys):
        ckpt = tmp_path / "net.ckpt"
        code = main(["train", "--out", str(tmp_path / "r"), "--seed", "0",
                     "--set", f"save_checkpoint={ckpt}"] + DESK_ARGS)
        assert code == 0
        code = main(["checkpoint-inspect", str(ckpt)])
        assert code == 0
        out = capsys.readouterr().out
        assert "layers: 3" in out
        assert "ortho_err" in out

    def test_inspect_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        code = main(["checkpoint-inspect", str(bad)])
        assert code == 1
        assert "error[CheckpointError]" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train", "--set", "width=abc"],
    ["train", "--set", "widths=8,x"],
    ["train", "--set", "widths=8,16"],
    ["train", "--set", "depth=0"],
    ["train", "--set", "gamma=0"],
    ["train", "--set", "reg_mode=bogus", "--set", "lam=0"],
    ["train", "--set", "rule=gait", "--set", "gamma=1"],
    ["train", "--set", "alpha=2"],
    ["train", "--set", "activation=tanh"],
    ["train", "--set", "eta=-1"],
    ["gridsearch", "--etas", "1e-3,x"],
    ["equilibrium", "--nus", "1.5"],
    ["equilibrium", "--dt", "0"],
    ["train", "--set", "teacher_depth=0"],
    ["train", "--set", "init=bogus", "--set", "allow_init_mismatch=true"],
    ["train", "--set", "train_samples=-1"],
    ["datagen", "--n-in", "16", "--classes", "20"],
    ["datagen", "--n-in", "-4"],
    ["datagen", "--depth", "0"],
    ["datagen", "--train", "-5"],
])
def test_config_mistakes_exit_2(argv, tmp_path, capsys):
    # An exception escaping main() fails this test, as a traceback on
    # the command line would; stderr must hold only the typed line.
    code = main(argv + ["--out", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error[config]: ")


def _no_training(*args, **kwargs):
    raise AssertionError("training started before the output path was checked")


@pytest.mark.parametrize("patched,argv", [
    ("gaitprop.cli.train", ["--out", "{file}"]),
    ("gaitprop.harness.forward",
     ["--out", "{dir}", "--set", "save_checkpoint={file}/x.ckpt"]),
])
def test_unwritable_output_fails_before_training(patched, argv, tmp_path,
                                                 monkeypatch, capsys):
    # A regular file where a directory must go cannot be written into; the
    # run must say so before it trains, not after.
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    monkeypatch.setattr(patched, _no_training)
    argv = [a.format(file=blocker, dir=tmp_path / "out") for a in argv]
    code = main(["train"] + argv + DESK_ARGS)
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error[io]: ")
    assert blocker.read_text() == "keep"
