import csv
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gaitprop import files, harness, save_checkpoint
from gaitprop.cli import main

from conftest import make_net

DESK_ARGS = ["--set", "width=16", "--set", "depth=3", "--set", "classes=4",
             "--set", "train_samples=120", "--set", "test_samples=40",
             "--set", "epochs=1", "--set", "batch_size=16"]


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    # main() creates the --out directory, "out" by default, before any work.
    monkeypatch.chdir(tmp_path)


@pytest.fixture
def idx_args(tmp_path):
    """--set flags that train on a 16-pixel, 4-class IDX dataset in tmp_path."""
    data = tmp_path / "data"
    assert main(["datagen", "--out", str(data), "--n-in", "16", "--classes", "4",
                 "--train", "64", "--test", "16", "--seed", "5"]) == 0
    sets = ["width=16", "depth=2", "classes=4", "epochs=1",
            "batch_size=16", "train_samples=0", "test_samples=0"]
    sets += [f"{split}_{kind}={data}/{split}-{kind}-idx{3 if kind == 'images' else 1}-ubyte"
             for split in ("train", "test") for kind in ("images", "labels")]
    return [a for s in sets for a in ("--set", s)]


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
    def test_datagen_then_train_idx(self, idx_args, tmp_path):
        code = main(["train", "--out", str(tmp_path / "run"), "--seed", "0"] + idx_args)
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


def test_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(b"rule = bp\n# caf\xff\n")
    code = main(["train", "--config", str(cfg)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error[config]: ")


@pytest.mark.parametrize("argv", [
    ["train", "--set", "classes=2"],          # labels 2 and 3 have no output unit
    ["gridsearch", "--etas", "1e-3", "--lambdas", "0", "--set", "classes=2"],
    ["train", "--set", "width=8"],            # 16 pixels into an 8-wide input
    ["gridsearch", "--etas", "1e-3", "--lambdas", "0", "--set", "width=8"],
    ["align", "--samples", "8", "--set", "width=8"],
])
def test_idx_shape_mismatch_exits_2(argv, idx_args, tmp_path, capsys):
    capsys.readouterr()
    code = main(argv[:1] + idx_args + argv[1:] + ["--out", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error[config]: ")
    assert not (tmp_path / "out" / "run.json").exists()


# Corruptions of the train image file, each a malformed IDX file rather than
# a config mistake; the last two declare far more payload than the file holds.
BAD_IDX_IMAGES = {
    "bad_magic": lambda blob: b"\x00\x00\x08\x99" + blob[4:],
    "truncated_header": lambda blob: blob[:6],
    "truncated_payload": lambda blob: blob[:-5],
    "trailing_bytes": lambda blob: blob + b"\x00",
    "oversized_header": lambda blob: struct.pack(">IIII", 0x803, 60000, 65536, 65536),
    "wrapping_header": lambda blob: struct.pack(">IIII", 0x803, *(2**22,) * 3),
}


@pytest.mark.parametrize("case", sorted(BAD_IDX_IMAGES))
def test_corrupt_idx_exits_1(case, idx_args, tmp_path, capsys):
    images = tmp_path / "data" / "train-images-idx3-ubyte"
    images.write_bytes(BAD_IDX_IMAGES[case](images.read_bytes()))
    capsys.readouterr()
    code = main(["train"] + idx_args + ["--out", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error[")
    assert not lines[0].startswith("error[config]")
    assert not (tmp_path / "out" / "run.json").exists()


# Byte offsets into a checkpoint of a 16-16-16 net: the header is 12
# bytes and each layer header 17 (total u32, forward u32, kind u8, slope f64).
BAD_CHECKPOINT_VALUES = {
    "nan_weight": (12 + 17, ">d", float("nan")),
    "slope_2": (12 + 9, ">d", 2.0),
    "forward_width_0": (12 + 4, ">I", 0),
    "forward_width_above_total": (12 + 4, ">I", 17),
    "zero_layers": (8, ">I", 0),
}


@pytest.mark.parametrize("case", sorted(BAD_CHECKPOINT_VALUES))
def test_inspect_bad_stored_value(case, tmp_path, capsys):
    ckpt = tmp_path / "net.ckpt"
    save_checkpoint(make_net([16] * 3, 4), ckpt)
    offset, fmt, value = BAD_CHECKPOINT_VALUES[case]
    blob = bytearray(ckpt.read_bytes())
    struct.pack_into(fmt, blob, offset, value)
    if case == "zero_layers":
        del blob[12:]
    ckpt.write_bytes(bytes(blob))
    code = main(["checkpoint-inspect", str(ckpt)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error[CheckpointError]: ")


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
    ["train", "--set", "seed=-1"],
    ["train", "--set", "data_seed=-1"],
    ["train", "--seed", "-1"],
    ["datagen", "--seed", "-1"],
    ["equilibrium", "--seed", "-1"],
    ["train", "--set", "lam=inf"],
    ["train", "--set", "eta=inf"],
    ["gridsearch", "--lambdas", "inf"],
    ["equilibrium", "--dt", "-0.01"],
    ["equilibrium", "--nus", ""],
    ["equilibrium", "--nus", ","],
    ["train", "--seed", "junk"],
    # a repeated sweep value would be trained once but tabled twice
    ["gridsearch", "--etas", "1e-4,0.0001", "--set", "width=16", "--set", "classes=4",
     "--set", "epochs=0"],
    ["gridsearch", "--lambdas", "0.1,0,0.10", "--set", "width=16", "--set", "classes=4",
     "--set", "epochs=0"],
    # every cell would overwrite the one checkpoint
    ["gridsearch", "--set", "save_checkpoint=out/net.bin", "--set", "width=16",
     "--set", "classes=4", "--set", "epochs=0"],
    # an empty sweep list is a mistake, not a request for the default list
    ["gridsearch", "--etas", "", "--set", "width=16", "--set", "classes=4", "--set",
     "epochs=0"],
    ["gridsearch", "--etas", "1e-3", "--lambdas", "", "--set", "width=16", "--set",
     "classes=4", "--set", "epochs=0"],
    # a 4e9-wide weight is past numpy's largest array, and is rejected unbuilt
    ["train", "--set", "width=4000000000", "--set", "depth=1"],
    ["gridsearch", "--set", "width=4000000000", "--set", "depth=1"],
    # gamma^-(depth-1) overflows float64; align runs gait whatever the rule
    ["train", "--set", "rule=gait", "--set", "gamma=1e-200"],
    ["train", "--set", "rule=itp", "--set", "gamma=1e-200"],
    ["gridsearch", "--set", "rule=gait", "--set", "gamma=1e-200"],
    ["align", "--set", "rule=bp", "--set", "gamma=1e-200"],
    # align runs gait, whose blend needs gamma < 1, whatever the rule
    ["align", "--set", "rule=bp", "--set", "gamma=1"],
    # duration / dt is an infinite step count
    ["equilibrium", "--dt", "1e-310"],
    # depths past the largest sequence length
    ["train", "--set", "depth=99999999999999999999999"],
    ["align", "--set", "depth=99999999999999999999999"],
    ["train", "--set", "teacher_depth=99999999999999999999999"],
    ["datagen", "--depth", "99999999999999999999999"],
    # sample counts whose (samples, n_in) float64 inputs are past numpy's
    # largest array, rejected before anything is drawn
    ["train", "--set", "width=8", "--set", "classes=2",
     "--set", "train_samples=99999999999999999999999"],
    ["train", "--set", "width=8", "--set", "classes=2",
     "--set", "train_samples=1000000000000000000"],
    ["train", "--set", "width=8", "--set", "classes=2",
     "--set", "test_samples=1000000000000000000"],
    # an n_in past int64 is not a perfect square
    ["datagen", "--n-in", "999999999999999999999990"],
    # align runs gait whatever the rule, so gamma < 1 holds for every rule
    ["train", "--set", "rule=itp", "--set", "gamma=1", "--set", "width=16",
     "--set", "classes=4", "--set", "epochs=0"],
    # an IDX label is one byte, so class 256 and up would wrap
    ["datagen", "--n-in", "324", "--classes", "300", "--depth", "1", "--train", "400",
     "--test", "0", "--seed", "3"],
    # arch=halving narrows from width, which must reach classes
    ["train", "--set", "arch=halving", "--set", "width=-5"],
    ["train", "--set", "arch=halving", "--set", "width=0"],
    ["train", "--set", "arch=halving", "--set", "width=3"],
    # arch is checked even when widths override it
    ["train", "--set", "widths=8,4", "--set", "classes=4", "--set", "arch=bogus"],
    # some but not all four IDX paths
    ["train", "--set", "train_images=a", "--set", "train_labels=b", "--set", "test_images=c"],
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


@pytest.mark.parametrize("argv", [
    ["--out", "{locked}"],
    ["--out", "{tmp}/out", "--set", "save_checkpoint={locked}/net.ckpt"],
], ids=["out", "checkpoint"])
def test_read_only_directory_fails_before_training(argv, tmp_path, monkeypatch, capsys):
    # Mode bits do not stop root, so the probe write of the locked directory
    # fails as it would in a directory its user may not write.
    locked = tmp_path / "locked"
    locked.mkdir()
    real_probe = tempfile.TemporaryFile

    def probe(*args, dir=None, **kwargs):
        if dir == str(locked):
            raise PermissionError(13, "Permission denied", dir)
        return real_probe(*args, dir=dir, **kwargs)

    # The checkpoint's check runs inside harness.train, before it loads data.
    loaded = []
    real_load = harness._load_datasets

    def spy(cfg):
        loaded.append(cfg)
        return real_load(cfg)

    monkeypatch.setattr(files.tempfile, "TemporaryFile", probe)
    monkeypatch.setattr(harness, "_load_datasets", spy)
    argv = [a.format(locked=locked, tmp=tmp_path) for a in argv]
    code = main(["train"] + argv + DESK_ARGS)
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert lines == [f"error[io]: [Errno 13] Permission denied: '{locked}'"]
    assert loaded == []
    assert list(locked.iterdir()) == []


@pytest.mark.parametrize("patched,argv", [
    ("gaitprop.harness.simulate", ["equilibrium", "--dt", "1e-9", "--nus", "0"]),
    ("gaitprop.harness.synthetic_teacher",
     ["train", "--set", "width=4096", "--set", "depth=1"]),
    ("gaitprop.cli.synthetic_teacher_quantized", ["datagen", "--n-in", "100000000"]),
])
def test_memory_exhaustion_exits_1(patched, argv, tmp_path, monkeypatch, capsys):
    # The equilibrium and datagen inputs ask for 969 GiB and 71.1 PiB. The
    # train input passes the up-front size bound (a 128 MiB weight) and
    # stands for a run that runs out of memory once it trains. The first
    # call that allocates fails as numpy's allocator does, without allocating.
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 969. GiB for an array")

    monkeypatch.setattr(patched, out_of_memory)
    code = main(argv + ["--out", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert lines == ["error[memory]: Unable to allocate 969. GiB for an array"]


@pytest.mark.parametrize("arch", ["fixed", "halving"])
def test_unbuildable_depth_exits_1(arch, tmp_path, capsys):
    # A widths tuple of 1e15 entries is refused at once, unallocated.
    argv = ["train", "--set", f"arch={arch}", "--set", "depth=1000000000000000"]
    code = main(argv + ["--out", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error[memory]: ")


# Sets an address-space limit, then runs the CLI on the remaining arguments.
LIMITED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]),) * 2)
from gaitprop.cli import main
sys.exit(main(sys.argv[2:]))
"""
# Each layer is charged its weight plus 1024 bytes for its Python objects.
PHYSICAL = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
# The shallowest width-1 network the size bound rejects.
NARROW_LIMIT_DEPTH = PHYSICAL // (8 + 1024) + 1
HALVING_784_BYTES = (8 * sum(w * w for w in (784, 392, 196, 98, 49, 24, 12))
                     + 8 * 10 ** 2 * (10 ** 9 - 7) + 1024 * 10 ** 9)


@pytest.mark.parametrize("argv,need", [
    (["train", "--set", "arch=fixed", "--set", "depth=1000000000"],
     10 ** 9 * (8 * 784 ** 2 + 1024)),
    (["train", "--set", "arch=halving", "--set", "depth=1000000000"], HALVING_784_BYTES),
    (["train", "--set", "width=16", "--set", "classes=4",
      "--set", "teacher_depth=1000000000"], 10 ** 9 * (8 * 16 ** 2 + 1024)),
    (["datagen", "--depth", "1000000000"], 10 ** 9 * (8 * 16 ** 2 + 1024)),
    (["train", "--set", "width=100000", "--set", "depth=1"], 8 * 10 ** 10 + 1024),
    # 4e8 width-1 layers: 3.2 GB of weights, 410 GB of layer objects
    (["train", "--set", "width=1", "--set", "classes=1", "--set", "depth=400000000"],
     4 * 10 ** 8 * (8 + 1024)),
    (["train", "--set", "width=1", "--set", "classes=1",
      "--set", f"depth={NARROW_LIMIT_DEPTH}"], NARROW_LIMIT_DEPTH * (8 + 1024)),
], ids=["fixed", "halving", "teacher_depth", "datagen", "wide", "narrow_deep",
        "narrow_at_limit"])
def test_oversized_network_fails_before_allocating(argv, need, tmp_path):
    # A depth of 1e9 would build a widths sequence of about 8 GB. The size is
    # bounded in closed form first, so the run exits at once with the bytes
    # it needs. The address-space limit, well below the host's memory, makes
    # a run that allocates first fail fast instead of exhausting the host.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    limit = str(min(2 << 30, PHYSICAL // 2))
    proc = subprocess.run([sys.executable, "-c", LIMITED_MAIN, limit] + argv
                          + ["--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=60)
    lines = proc.stderr.splitlines()
    assert proc.returncode == 1
    assert len(lines) == 1
    assert re.fullmatch(rf"error\[memory\]: the float64 weights and layer objects of a "
                        rf"\d+-layer network need at least {need} bytes, more than this "
                        rf"machine's {PHYSICAL} bytes of memory", lines[0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("override", ["eta=1e300", "lam=1e308"])
def test_divergence_exits_1(override, tmp_path, capsys):
    # One batch: with eta=1e300 only the epoch-end loss is non-finite; with
    # lam=1e308 the regularizer makes Adam write non-finite weights.
    argv = DESK_ARGS + ["--set", "train_samples=64", "--set", "batch_size=64"]
    code = main(["train", "--out", str(tmp_path / "out"), "--set", override] + argv)
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error[divergence]: ")
    assert not (tmp_path / "out" / "run.json").exists()


# Half the draws are out-of-range, non-finite, huge or malformed; half are
# small values that most flags accept.
HUGE = ["99999999999999999999999", "1000000000000000000"]
VALUES = st.one_of(st.sampled_from(["-1", "inf", "nan", "1e308", "junk", ""] + HUGE),
                   st.sampled_from(["0", "1", "2", "0.05"]))
VALUE_LISTS = st.lists(VALUES, max_size=2).map(",".join)
SET_KEYS = ["width", "depth", "classes", "alpha", "eta", "lam", "gamma", "batch_size",
            "epochs", "seed", "data_seed", "teacher_depth", "train_samples", "test_samples"]
SMALL_DESK = ["--set", "width=8", "--set", "depth=2", "--set", "classes=2",
              "--set", "train_samples=32", "--set", "test_samples=8",
              "--set", "batch_size=16", "--set", "epochs=1"]


def _flags(names, values=VALUES):
    pairs = st.lists(st.tuples(st.sampled_from(names), values), max_size=3,
                     unique_by=lambda pair: pair[0])
    return pairs.map(lambda ps: [item for pair in ps for item in pair])


def _sets(keys):
    # A huge epoch count is valid and would train for ever, so it is not drawn.
    pair = st.tuples(st.sampled_from(keys), VALUES).filter(
        lambda kv: not (kv[0] == "epochs" and kv[1] in HUGE))
    pairs = st.lists(pair, min_size=1, max_size=2)
    return pairs.map(lambda ps: [a for key, value in ps for a in ("--set", f"{key}={value}")])


COMMANDS = st.one_of(
    st.tuples(st.just(["train"] + SMALL_DESK), _sets(SET_KEYS), _flags(["--seed"])),
    # The two axes of the paper's sweep, where 1e308 runs and diverges.
    st.tuples(st.just(["train"] + SMALL_DESK), _sets(["eta", "lam"])),
    st.tuples(st.just(["gridsearch"] + SMALL_DESK),
              _flags(["--etas", "--lambdas", "--seed"], VALUE_LISTS)),
    # Drawn flags override the leading ones, which keep a sweep that runs
    # to one coupling of 2600 Euler steps.
    st.tuples(st.just(["equilibrium", "--nus", "0.25", "--dt", "0.05"]),
              _flags(["--nus"], VALUE_LISTS), _flags(["--dt", "--seed"])),
    st.tuples(st.just(["datagen", "--train", "32", "--test", "8"]),
              _flags(["--n-in", "--depth", "--classes", "--train", "--test", "--seed"])),
).map(lambda parts: [arg for part in parts for arg in part])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=COMMANDS)
def test_every_input_honours_the_exit_contract(argv, tmp_path, capsys):
    # Every example writes into the same directory; later ones overwrite it.
    _honours_exit_contract(argv + ["--out", str(tmp_path / "out")], capsys)


def _honours_exit_contract(argv, capsys) -> None:
    capsys.readouterr()
    code = main(argv)
    lines = capsys.readouterr().err.splitlines()
    assert code in (0, 1, 2)
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("error[")
        assert (code == 2) == lines[0].startswith("error[config]: ")


# Byte edits of a file: XOR a mask into one byte, or cut the file short.
# Positions favour the first 32 bytes, where the headers are, and wrap
# modulo the file's length, so every edit lands inside the file.
POSITIONS = st.one_of(st.integers(0, 31), st.integers(0, 2**16))
EDITS = st.lists(st.one_of(st.tuples(st.just("flip"), POSITIONS, st.integers(1, 255)),
                           st.tuples(st.just("cut"), POSITIONS, st.just(0))),
                 min_size=1, max_size=3)
IDX_FILES = [f"{split}-{kind}-idx{3 if kind == 'images' else 1}-ubyte"
             for split in ("train", "test") for kind in ("images", "labels")]


def _edit(blob: bytes, edits) -> bytes:
    out = bytearray(blob)
    for kind, at, mask in edits:
        if kind == "cut":
            del out[at % (len(out) + 1):]
        elif out:
            out[at % len(out)] ^= mask
    return bytes(out)


# Not drawn here: a depth near 1e9, which would allocate about 8 GB; see
# test_oversized_network_fails_before_allocating.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(IDX_FILES), edits=EDITS)
def test_mutated_idx_honours_the_exit_contract(name, edits, idx_args, tmp_path, capsys):
    target = tmp_path / "data" / name
    blob = target.read_bytes()
    target.write_bytes(_edit(blob, edits))
    try:
        _honours_exit_contract(["train"] + idx_args + ["--out", str(tmp_path / "out")],
                               capsys)
    finally:
        target.write_bytes(blob)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=EDITS)
def test_mutated_checkpoint_honours_the_exit_contract(edits, tmp_path, capsys):
    ckpt = tmp_path / "net.ckpt"
    save_checkpoint(make_net([16] * 3, 4), ckpt)
    ckpt.write_bytes(_edit(ckpt.read_bytes(), edits))
    _honours_exit_contract(["checkpoint-inspect", str(ckpt)], capsys)


# A desk run that the byte edits turn into other keys, values or encodings.
# epochs=0 is pinned: a cut that drops keys falls back to the 784x5,
# 50-epoch defaults.
CONFIG_TEXT = b"""# desk run
rule = gait
width = 8
depth = 2
classes = 2
train_samples = 32
test_samples = 8
batch_size = 16
"""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=EDITS)
def test_mutated_config_honours_the_exit_contract(edits, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(_edit(CONFIG_TEXT, edits))
    _honours_exit_contract(["train", "--config", str(cfg), "--set", "epochs=0",
                            "--out", str(tmp_path / "out")], capsys)
