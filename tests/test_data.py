import math
import struct

import numpy as np
import pytest

from gaitprop.data import (
    BadMagic,
    CountMismatch,
    Dataset,
    IdxError,
    TruncatedFile,
    batches,
    load_idx,
    one_hot_batch,
    synthetic_teacher,
    synthetic_teacher_quantized,
    write_idx,
)
from gaitprop.linalg import make_rng


@pytest.fixture
def idx_pair(tmp_path):
    rng = make_rng(1)
    images = rng.integers(0, 256, size=(3, 4, 4)).astype(np.uint8)
    labels = np.array([0, 2, 1], dtype=np.uint8)
    ip, lp = tmp_path / "imgs", tmp_path / "labels"
    write_idx(images, labels, ip, lp)
    return ip, lp, images, labels


class TestIdxRoundTrip:
    def test_load_matches_written(self, idx_pair):
        ip, lp, images, labels = idx_pair
        ds = load_idx(ip, lp, n_classes=3)
        assert len(ds) == 3
        assert ds.inputs.shape == (3, 16)
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0
        assert np.array_equal(ds.labels, labels)
        assert np.allclose(ds.inputs, images.reshape(3, -1) / 255.0)

    def test_rewrite_is_byte_identical(self, idx_pair, tmp_path):
        ip, lp, _, _ = idx_pair
        ds = load_idx(ip, lp, n_classes=3)
        pixels = np.round(ds.inputs * 255.0).astype(np.uint8).reshape(-1, 4, 4)
        ip2, lp2 = tmp_path / "imgs2", tmp_path / "labels2"
        write_idx(pixels, ds.labels.astype(np.uint8), ip2, lp2)
        assert ip.read_bytes() == ip2.read_bytes()
        assert lp.read_bytes() == lp2.read_bytes()


class TestIdxErrors:
    def test_bad_magic(self, tmp_path, idx_pair):
        ip, lp, _, _ = idx_pair
        bad = tmp_path / "bad"
        blob = bytearray(ip.read_bytes())
        blob[3] = 0x99
        bad.write_bytes(bytes(blob))
        with pytest.raises(BadMagic):
            load_idx(bad, lp)

    def test_truncated_payload(self, tmp_path, idx_pair):
        ip, lp, _, _ = idx_pair
        cut = tmp_path / "cut"
        cut.write_bytes(ip.read_bytes()[:-5])
        with pytest.raises(TruncatedFile):
            load_idx(cut, lp)

    def test_truncated_header(self, tmp_path, idx_pair):
        _, lp, _, _ = idx_pair
        stub = tmp_path / "stub"
        stub.write_bytes(struct.pack(">I", 0x00000803) + b"\x00\x00")
        with pytest.raises(TruncatedFile):
            load_idx(stub, lp)

    def test_count_mismatch(self, tmp_path, idx_pair):
        ip, _, _, _ = idx_pair
        lp2 = tmp_path / "short_labels"
        write_idx(np.zeros((2, 4, 4), np.uint8), np.zeros(2, np.uint8),
                  tmp_path / "unused", lp2)
        with pytest.raises(CountMismatch):
            load_idx(ip, lp2)

    def test_trailing_bytes(self, tmp_path, idx_pair):
        ip, lp, _, _ = idx_pair
        noisy = tmp_path / "noisy"
        noisy.write_bytes(ip.read_bytes() + b"\x00")
        with pytest.raises(IdxError, match="trailing"):
            load_idx(noisy, lp)

    @pytest.mark.parametrize("dims", [(60000, 65536, 65536), (2**22,) * 3])
    def test_oversized_header(self, tmp_path, idx_pair, dims):
        # sized exactly (2**66 wraps to 0 in int64) and checked against the
        # file before any payload is read
        _, lp, _, _ = idx_pair
        huge = tmp_path / "huge"
        huge.write_bytes(struct.pack(">IIII", 0x00000803, *dims))
        with pytest.raises(TruncatedFile, match=f"expected {math.prod(dims)} bytes"):
            load_idx(huge, lp)


class TestOneHot:
    def test_examples(self):
        assert np.array_equal(one_hot_batch(np.array([3]), 10)[:, 0],
                              [0, 0, 0, 1, 0, 0, 0, 0, 0, 0])
        assert np.array_equal(one_hot_batch(np.array([0]), 2)[:, 0], [1, 0])

    def test_sums_to_one(self):
        block = one_hot_batch(np.arange(5), 5)
        assert np.array_equal(block.sum(axis=0), np.ones(5))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot_batch(np.array([5]), 5)
        with pytest.raises(ValueError):
            one_hot_batch(np.array([-1]), 5)

    def test_batch_layout(self):
        block = one_hot_batch(np.array([1, 0, 2]), 3)
        assert block.shape == (3, 3)
        assert np.array_equal(block[:, 0], [0, 1, 0])


class TestSyntheticTeacher:
    def test_empty(self):
        ds = synthetic_teacher(8, 2, 3, 0, make_rng(2))
        assert len(ds) == 0

    def test_labels_in_range(self):
        ds = synthetic_teacher(16, 2, 4, 500, make_rng(3))
        assert ds.labels.min() >= 0 and ds.labels.max() < 4
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0

    def test_all_classes_supported(self):
        # shipped default seed gives every class nonzero support
        ds = synthetic_teacher(16, 2, 4, 10_000, make_rng(1234))
        counts = np.bincount(ds.labels, minlength=4)
        assert np.all(counts > 0)

    def test_deterministic(self):
        a = synthetic_teacher(8, 2, 3, 50, make_rng(4))
        b = synthetic_teacher(8, 2, 3, 50, make_rng(4))
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_quantized_round_trips_through_idx(self, tmp_path):
        pixels, labels = synthetic_teacher_quantized(16, 2, 4, 40, seed=5)
        ip, lp = tmp_path / "imgs", tmp_path / "labels"
        write_idx(pixels.reshape(-1, 4, 4), labels.astype(np.uint8), ip, lp)
        ds = load_idx(ip, lp, n_classes=4)
        assert np.allclose(ds.inputs, pixels / 255.0)
        assert np.array_equal(ds.labels, labels)


class TestBatches:
    def make_ds(self, n=10):
        rng = make_rng(6)
        return Dataset(inputs=rng.uniform(0, 1, (n, 4)),
                       labels=rng.integers(0, 3, n).astype(np.int64),
                       n_classes=3)

    def test_single_batch(self):
        ds = self.make_ds()
        blocks = list(batches(ds, len(ds), make_rng(7)))
        assert len(blocks) == 1
        x, t = blocks[0]
        assert x.shape == (4, 10)
        assert t.shape == (3, 10)

    def test_every_sample_once_per_epoch(self):
        ds = self.make_ds(11)
        seen = []
        for x, _ in batches(ds, 4, make_rng(7)):
            seen.extend(x.T.tolist())
        assert len(seen) == 11
        sorted_seen = sorted(map(tuple, seen))
        sorted_orig = sorted(map(tuple, ds.inputs.tolist()))
        assert sorted_seen == sorted_orig

    def test_partial_final_batch(self):
        ds = self.make_ds(10)
        sizes = [x.shape[1] for x, _ in batches(ds, 4, make_rng(7))]
        assert sizes == [4, 4, 2]

    def test_mismatched_dataset_rejected(self):
        with pytest.raises(CountMismatch):
            Dataset(inputs=np.zeros((3, 2)), labels=np.zeros(2, np.int64),
                    n_classes=2)
