import csv
import errno
import io
import os
import math
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from novnet import data_io
from novnet.data_io import (
    ROLES,
    ClusterSpec,
    Dataset,
    SplitSpec,
    SyntheticSpec,
    csv_text,
    load_csv,
    load_idx,
    split_known_novel,
    split_train_test,
    synth_gaussian,
    write_all_atomic,
)
from novnet.errors import (
    ConfigError,
    ConsistencyError,
    CorruptionError,
    DatasetError,
    FormatError,
    ParseError,
    ProtocolError,
    check_number,
)


def write_idx_pair(tmp_path, images, labels, image_magic=0x803, label_magic=0x801,
                   truncate_images=0):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    payload = struct.pack(">IIII", image_magic, n, rows, cols) + images.tobytes()
    if truncate_images:
        payload = payload[:-truncate_images]
    img_path.write_bytes(payload)
    lbl_path.write_bytes(struct.pack(">II", label_magic, len(labels)) + labels.tobytes())
    return img_path, lbl_path


class TestLoadIdx:
    def test_well_formed(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(10, 5, 4), dtype=np.uint8)
        labels = np.array([3, 7, 3, 7, 3, 7, 3, 7, 3, 7], dtype=np.uint8)
        ds = load_idx(*write_idx_pair(tmp_path, images, labels))
        assert len(ds) == 10
        assert ds.sample_shape == (1, 5, 4)
        assert ds.class_names == ["3", "7"]
        assert set(ds.y.tolist()) == {0, 1}

    def test_pixel_scaling_endpoint(self, tmp_path):
        images = np.full((2, 2, 2), 255, dtype=np.uint8)
        ds = load_idx(*write_idx_pair(tmp_path, images, [0, 1]))
        assert ds.x[0].max() == 1.0

    def test_truncated_payload(self, tmp_path):
        images = np.zeros((4, 3, 3), dtype=np.uint8)
        paths = write_idx_pair(tmp_path, images, [0, 1, 0, 1], truncate_images=5)
        with pytest.raises(CorruptionError):
            load_idx(*paths)

    def test_bad_magic(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        paths = write_idx_pair(tmp_path, images, [0, 1], image_magic=0x999)
        with pytest.raises(FormatError):
            load_idx(*paths)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((3, 2, 2), dtype=np.uint8)
        paths = write_idx_pair(tmp_path, images, [0, 1])
        with pytest.raises(ConsistencyError):
            load_idx(*paths)

    @pytest.mark.parametrize("shape", [(3, 0, 4), (3, 4, 0)])
    def test_zero_width_images(self, tmp_path, shape):
        paths = write_idx_pair(tmp_path, np.zeros(shape, dtype=np.uint8), [0, 1, 2])
        with pytest.raises(DatasetError, match="no values"):
            load_idx(*paths)

    def test_huge_header_counts_are_truncation(self, tmp_path):
        # 2**32 * 2**32 payload bytes: checked against the file size, not read
        images, labels = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        images.write_bytes(struct.pack(">IIII", 0x803, 0xFFFFFFFF, 0xFFFF, 0xFFFF))
        with pytest.raises(CorruptionError, match="images.idx"):
            load_idx(images, labels)


def damaged(data: bytes, draw) -> bytes:
    """`data` truncated, or with 1-3 bytes replaced."""
    if draw(st.booleans()):
        return data[:draw(st.integers(0, len(data) - 1))]
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        out[draw(st.integers(0, len(out) - 1))] = draw(st.integers(0, 255))
    return bytes(out)


class TestLoadersFailClosed:
    """A damaged file loads or raises FormatError/DatasetError, nothing else."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_csv(self, tmp_path, data):
        path = tmp_path / "d.csv"
        text = b'label,f0,f1\nant,1.5,-2\nbee,0.25,3e2\nant,7,8\nbee,"9",1\n'
        path.write_bytes(damaged(text, data.draw))
        try:
            load_csv(path)
        except (FormatError, DatasetError):
            pass

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_idx_pair(self, tmp_path, data):
        rng = np.random.default_rng(0)
        images, labels = write_idx_pair(tmp_path, rng.integers(0, 256, (4, 3, 2), dtype=np.uint8), [5, 1, 5, 2])
        victim = data.draw(st.sampled_from([images, labels]))
        victim.write_bytes(damaged(victim.read_bytes(), data.draw))
        try:
            load_idx(images, labels)
        except (FormatError, DatasetError):
            pass


class TestCsv:
    def test_small_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f0,f1\nb,1.0,2.0\na,3.0,4.0\nb,5.0,6.0\n")
        ds = load_csv(path)
        assert len(ds) == 3
        assert ds.class_names == ["a", "b"]  # sorted order
        assert ds.y.tolist() == [1, 0, 1]

    def test_empty_body(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f0\n")
        with pytest.raises(DatasetError):
            load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f0,f1\nx,1.0\n")
        with pytest.raises(FormatError):
            load_csv(path)

    def test_non_finite_cells_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f0\nx,nan\nx,1\ny,inf\ny,2\n")
        with pytest.raises(DatasetError):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f0\nx,oops\nx,1.0\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,f0\nx,1.0\n")
        with pytest.raises(FormatError):
            load_csv(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"label,f0\n\xff\xfe,1.0\n")
        with pytest.raises(ParseError, match="d.csv"):
            load_csv(path)

    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.standard_normal((6, 3)) * np.array([1e-12, 1.0, 1e12])
        ds = Dataset(values, np.arange(6) % 2, ["one", "two"], provenance="mem")
        path = tmp_path / "rt.csv"
        columns = [[ds.class_names[y] for y in ds.y], *ds.x.T.tolist()]
        path.write_text(csv_text(["label", "f0", "f1", "f2"], columns))
        back = load_csv(path)
        assert back.class_names == ["one", "two"]
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.y, ds.y)


class TestSynthGaussian:
    def spec(self, stddev=0.5, seed=0, count=30):
        return SyntheticSpec(
            dimension=3,
            clusters=(
                ClusterSpec((1.0, 0.0, 0.0), stddev, count, "known"),
                ClusterSpec((0.0, 1.0, 0.0), stddev, count, "known"),
                ClusterSpec((0.0, 0.0, 1.0), stddev, count, "novel"),
                ClusterSpec((2.0, 2.0, 2.0), stddev, count, "reference"),
            ),
            seed=seed,
        )

    def test_degenerate_spread(self):
        known, _, _ = synth_gaussian(self.spec(stddev=1e-12))
        for x, y in zip(known.x, known.y):
            mean = (1.0, 0.0, 0.0) if y == 0 else (0.0, 1.0, 0.0)
            assert np.max(np.abs(x - np.asarray(mean))) < 1e-9

    def test_deterministic(self):
        a = synth_gaussian(self.spec())
        b = synth_gaussian(self.spec())
        for da, db in zip(a, b):
            assert np.array_equal(da.x, db.x)
            assert np.array_equal(da.y, db.y)

    def test_law_of_large_numbers(self):
        spec = SyntheticSpec(
            dimension=2,
            clusters=(
                ClusterSpec((3.0, -1.0), 0.8, 10000, "known"),
                ClusterSpec((0.0, 0.0), 0.8, 10, "known"),
                ClusterSpec((1.0, 1.0), 0.8, 10, "novel"),
            ),
            seed=5,
        )
        known, _, _ = synth_gaussian(spec)
        big = known.x[known.y == 0]
        bound = 5 * 0.8 / np.sqrt(10000)
        assert np.all(np.abs(big.mean(axis=0) - np.array([3.0, -1.0])) < bound)

    def test_role_routing_and_names(self):
        known, novel, reference = synth_gaussian(self.spec())
        assert known.class_names == ["known_0", "known_1"]
        assert novel.class_names == ["novel_0"]
        assert reference.class_names == ["ref_0"]

    @pytest.mark.parametrize("roles, wanted", [
        (("known", "known", "novel", "reference", "reference"), ("known", "novel")),
        (("reference", "known", "reference", "novel", "known", "reference"), ("known", "novel")),
        (("known", "known", "novel", "reference", "reference"), ("known",)),
        (("known", "known", "novel", "novel", "reference", "reference"), ("known", "reference")),
    ], ids=["reference-last", "reference-between", "known-only", "novel-between"])
    def test_skipped_reference_keeps_known_and_novel_bytes(self, monkeypatch, roles, wanted):
        """Asked for the `wanted` roles (eval's, calibrate's, then train's),
        synth_gaussian draws no cluster after the last one of them:
        calibrate draws no novel cluster that follows the known ones. An
        unwanted cluster before it is still drawn. Every wanted byte is
        that of the full draw, and the other slots are None."""
        spec = SyntheticSpec(3, tuple(ClusterSpec((float(i), 0.0, -1.0), 0.5, 10 + i, role)
                                      for i, role in enumerate(roles)), seed=4)
        full = synth_gaussian(spec)
        default_rng, drawn = np.random.default_rng, []

        class RecordingRng:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def standard_normal(self, size=None, *, out=None):
                drawn.append(len(out) if size is None else size[0])
                return self.rng.standard_normal(size, out=out)

        monkeypatch.setattr(np.random, "default_rng", RecordingRng)
        lean = synth_gaussian(spec, wanted)
        last = max(i for i, role in enumerate(roles) if role in wanted)
        assert drawn == [c.count for c in spec.clusters[:last + 1]]
        for role, got, want in zip(ROLES, lean, full):
            if role not in wanted:
                assert got is None
            else:
                assert (got.x.tobytes(), got.y.tobytes(), got.class_names, got.provenance) == \
                    (want.x.tobytes(), want.y.tobytes(), want.class_names, want.provenance)

    def test_unwanted_clusters_are_held_one_at_a_time(self):
        """Train's draw (known and reference) holds the novel clusters
        between them one at a time, each a discarded draw, not in a novel
        array. The allowance covers numpy's ufunc buffers and the labels."""
        dim, novel_count = 256, 500
        roles = ["known"] * 2 + ["novel"] * 3 + ["reference"] * 2
        spec = SyntheticSpec(dim, tuple(
            ClusterSpec((float(i),) * dim, 0.5, novel_count if role == "novel" else 100, role)
            for i, role in enumerate(roles)), seed=2)
        tracemalloc.start()
        try:
            known, novel, reference = synth_gaussian(spec, ("known", "reference"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert novel is None
        one_cluster = novel_count * dim * 8
        assert peak < known.x.nbytes + reference.x.nbytes + one_cluster + 128 * 1024

    def test_unallocatable_without_sysconf(self, monkeypatch):
        """Where physical memory is unknown, numpy's MemoryError becomes a
        DatasetError. 4 x 10**16 samples of 3 values exceed any address space."""
        monkeypatch.delattr(os, "sysconf")
        with pytest.raises(DatasetError, match="40000000000000000 samples x 3 values: out of memory"):
            synth_gaussian(self.spec(count=10**16))

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(dimension=2, clusters=(ClusterSpec((0.0, 0.0), 0.5, 5, "known"),), seed=0)
        with pytest.raises(ConfigError):
            ClusterSpec((0.0,), -1.0, 5, "known")
        with pytest.raises(ConfigError):
            ClusterSpec((0.0,), 1.0, 5, "other")

    ENTRIES = st.one_of(
        st.floats(), st.integers(-10**6, 10**6), st.booleans(), st.text(max_size=3), st.none(),
        st.lists(st.floats(), max_size=2), st.sampled_from([10**400, -10**400]),
        st.floats(allow_nan=False, allow_infinity=False).map(np.float64))

    @given(st.one_of(st.lists(st.floats(), max_size=6), st.lists(ENTRIES, max_size=6)), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_mean_entries_checked_as_one_by_one(self, mean, as_tuple):
        """A mean is accepted or refused, with the same message, as by
        check_number on each entry in turn: the first bad entry is named."""
        expected = None
        for value in mean:
            try:
                check_number(value, "'mean' entry")
            except ConfigError as exc:
                expected = str(exc)
                break
        mean = tuple(mean) if as_tuple else mean
        if expected is None:
            assert ClusterSpec(mean, 1.0, 1, "known").mean == tuple(mean)
        else:
            with pytest.raises(ConfigError) as info:
                ClusterSpec(mean, 1.0, 1, "known")
            assert str(info.value) == expected


def four_class_dataset():
    rng = np.random.default_rng(7)
    names = ["ant", "bee", "cat", "dog"]
    labels = np.repeat(np.arange(4), [6, 7, 8, 9])  # uneven counts
    return Dataset(rng.standard_normal((len(labels), 3)), labels, names, provenance="zoo")


class TestSplitKnownNovel:
    def test_alphabetical_first_half(self):
        known, novel = split_known_novel(four_class_dataset(), SplitSpec())
        assert known.class_names == ["ant", "bee"]
        assert novel.class_names == ["cat", "dog"]

    def test_single_class_error(self):
        ds = Dataset(np.zeros((2, 2)), [0, 0], ["only"], provenance="x")
        with pytest.raises(ProtocolError):
            split_known_novel(ds, SplitSpec())

    def test_partition_property(self):
        ds = four_class_dataset()
        known, novel = split_known_novel(ds, SplitSpec())
        assert len(known) + len(novel) == len(ds)
        combined = sorted(map(tuple, np.concatenate([known.x, novel.x]).tolist()))
        original = sorted(map(tuple, ds.x.tolist()))
        assert combined == original

    def test_unsorted_input_classes(self):
        rng = np.random.default_rng(8)
        ds = Dataset(rng.standard_normal((4, 2)), [0, 0, 1, 1], ["zebra", "ant"], provenance="x")
        known, novel = split_known_novel(ds, SplitSpec())
        assert known.class_names == ["ant"]
        assert novel.class_names == ["zebra"]


    @settings(max_examples=300, deadline=None)
    @given(fraction=st.floats(0.01, 0.99), classes=st.integers(2, 200))
    # Float products a hair below the integer: 28.999999999999996,
    # 62.99999999999999 and 28.999999999999996.
    @example(fraction=0.29, classes=100)
    @example(fraction=0.7, classes=90)
    @example(fraction=0.58, classes=50)
    def test_known_count_is_the_exact_floor(self, fraction, classes):
        """floor(fraction * K) classes are known, the product taken with
        the fraction as its repr writes it; a count of 0 or K is refused."""
        ds = Dataset(np.zeros((classes, 1)), np.arange(classes), [f"c{i:03d}" for i in range(classes)], "x")
        want = math.floor(Fraction(repr(fraction)) * classes)
        if not 1 <= want < classes:
            with pytest.raises(ProtocolError, match=f"leaves {want} known"):
                split_known_novel(ds, SplitSpec(known_fraction=fraction))
            return
        known, novel = split_known_novel(ds, SplitSpec(known_fraction=fraction))
        assert (known.n_classes, novel.n_classes) == (want, classes - want)


class TestSplitTrainTest:
    @settings(max_examples=300, deadline=None)
    @given(fraction=st.floats(0.01, 0.99), count=st.integers(2, 1000))
    @example(fraction=0.14, count=100)  # 0.14 * 100 is 14.000000000000002 as a float
    def test_train_count_is_the_exact_ceiling(self, fraction, count):
        """ceil(fraction * count) samples of a class train, the product
        taken with the fraction as its repr writes it, and each half
        keeps at least one sample."""
        ds = Dataset(np.zeros((count, 1)), np.zeros(count, dtype=np.int64), ["a"], "x")
        train, test = split_train_test(ds, seed=0, train_fraction=fraction)
        want = min(max(math.ceil(Fraction(repr(fraction)) * count), 1), count - 1)
        assert (len(train), len(test)) == (want, count - want)

    @pytest.mark.parametrize("train, test", [(True, False), (False, True), (False, False)])
    def test_a_half_not_asked_for_is_none_and_the_other_keeps_its_bytes(self, train, test):
        ds = four_class_dataset()
        both = split_train_test(ds, seed=3, train_fraction=0.3)
        halves = split_train_test(ds, seed=3, train_fraction=0.3, train=train, test=test)
        for wanted, got, want in zip((train, test), halves, both):
            if not wanted:
                assert got is None
            else:
                assert (got.x.tobytes(), got.y.tobytes(), got.class_names, got.provenance) == \
                    (want.x.tobytes(), want.y.tobytes(), want.class_names, want.provenance)

    def test_even_count(self):
        rng = np.random.default_rng(9)
        ds = Dataset(rng.standard_normal((20, 2)), np.arange(20) % 2, ["a", "b"], "x")
        train, test = split_train_test(ds, seed=0)
        assert np.count_nonzero(train.y == 0) == 5
        assert np.count_nonzero(test.y == 0) == 5

    def test_odd_count_extra_to_train(self):
        rng = np.random.default_rng(10)
        ds = Dataset(rng.standard_normal((11, 2)), [0] * 7 + [1] * 4, ["a", "b"], "x")
        train, test = split_train_test(ds, seed=0)
        assert np.count_nonzero(train.y == 0) == 4
        assert np.count_nonzero(test.y == 0) == 3

    def test_partition_per_class(self):
        ds = four_class_dataset()
        train, test = split_train_test(ds, seed=1)
        combined = sorted(map(tuple, np.concatenate([train.x, test.x]).tolist()))
        original = sorted(map(tuple, ds.x.tolist()))
        assert combined == original
        assert set(train.y.tolist()) == set(range(4))
        assert set(test.y.tolist()) == set(range(4))

    def test_deterministic(self):
        ds = four_class_dataset()
        a_train, a_test = split_train_test(ds, seed=2)
        b_train, b_test = split_train_test(ds, seed=2)
        assert np.array_equal(a_train.x, b_train.x)
        assert np.array_equal(a_test.x, b_test.x)

    def test_small_class_error(self):
        ds = Dataset(np.zeros((3, 2)), [0, 0, 1], ["a", "b"], "x")
        with pytest.raises(ProtocolError):
            split_train_test(ds, seed=0)


class TestDatasetInvariants:
    def test_ragged_shapes_rejected(self):
        with pytest.raises(DatasetError):
            Dataset([np.zeros(2), np.zeros(3)], [0, 0], ["a"], "x")
        with pytest.raises(DatasetError):  # x must be [n, ...] with ndim >= 2
            Dataset(np.zeros(2), [0, 0], ["a"], "x")
        with pytest.raises(DatasetError):  # len(x) != len(y)
            Dataset(np.zeros((3, 2)), [0, 0], ["a"], "x")

    def test_label_gap_rejected(self):
        with pytest.raises(DatasetError):
            Dataset(np.zeros((2, 2)), [0, 2], ["a", "b", "c"], "x")

    @pytest.mark.parametrize("labels", [[0, 1, 3], [-1, 1, 2]])
    def test_label_out_of_range_rejected(self, labels):
        # so training never sees a label outside the model's head
        with pytest.raises(DatasetError, match="outside"):
            Dataset(np.zeros((3, 2)), labels, ["a", "b", "c"], "x")

    @pytest.mark.parametrize("labels", [[0.0, 1.7, 1.2], [0.0, 1.0, 1.0], [True, False, True], ["0", "1", "1"]],
                             ids=["fractional", "whole-floats", "bool", "str"])
    def test_non_integer_labels_rejected(self, labels):
        # checked, never coerced: [0.0, 1.7, 1.2] used to load as [0, 1, 1]
        with pytest.raises(DatasetError, match="needs integer labels"):
            Dataset(np.zeros((3, 2)), labels, ["a", "b"], "x")

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64])
    def test_integer_labels_of_any_width_stored_as_int64(self, dtype):
        ds = Dataset(np.zeros((3, 2)), np.array([0, 1, 1], dtype=dtype), ["a", "b"], "x")
        assert ds.y.dtype == np.int64 and ds.y.tolist() == [0, 1, 1]

    def test_repeated_class_name_rejected(self):
        # before split_known_novel could report it as "classes [0] have no samples"
        with pytest.raises(DatasetError, match="repeats class name 'a'"):
            Dataset(np.zeros((4, 2)), [0, 1, 2, 3], ["a", "a", "b", "c"], "x")

    def test_empty_rejected(self):
        with pytest.raises(DatasetError):
            Dataset(np.zeros((0, 2)), [], [], "x")

    def test_zero_width_rejected(self):
        with pytest.raises(DatasetError, match="no values"):
            Dataset(np.zeros((3, 0)), [0, 0, 0], ["a"], "x")

    def test_non_finite_features_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            x = np.zeros((2, 2))
            x[1, 0] = bad
            with pytest.raises(DatasetError, match="sample 1"):
                Dataset(x, [0, 1], ["a", "b"], "x")

    def test_arrays_stored_not_copied(self):
        x, y = np.zeros((2, 2)), np.array([0, 1], dtype=np.int64)
        ds = Dataset(x, y, ["a", "b"], "x")
        assert ds.x is x and ds.y is y

    def test_split_spec_validation(self):
        with pytest.raises(ConfigError):
            SplitSpec(known_fraction=0.0)
        with pytest.raises(ConfigError):
            SplitSpec(train_fraction=1.0)


class TestWriteAtomic:
    def test_failed_write_leaves_target_and_no_temp(self, tmp_path):
        target = tmp_path / "keep.txt"
        target.write_text("old")
        with pytest.raises(TypeError):
            write_all_atomic({target: 42})
        assert target.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["keep.txt"]

    def test_failed_rename_restores_every_target(self, tmp_path, monkeypatch):
        """When the last rename fails, a file the call replaced gets its old
        bytes back, a file it created is removed, and no temp file stays."""
        (tmp_path / "old.txt").write_text("old")
        rename = os.replace

        def failing_rename(src, dst, **kwargs):
            if os.path.basename(dst) == "last.txt":
                raise OSError(errno.EIO, "rename failed", dst)
            rename(src, dst, **kwargs)

        monkeypatch.setattr(os, "replace", failing_rename)
        with pytest.raises(OSError, match="rename failed"):
            write_all_atomic({tmp_path / "old.txt": "new", tmp_path / "new.txt": "new",
                              tmp_path / "last.txt": "new"})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.txt"]
        assert (tmp_path / "old.txt").read_text() == "old"

    @pytest.mark.parametrize("data, written", [("h\u00e9\n", "h\u00e9\n".encode("utf-8")),
                                               (b"\x00\x01", b"\x00\x01")], ids=["utf8-text", "bytes"])
    def test_replaced_file_keeps_no_link(self, tmp_path, data, written):
        (tmp_path / "a.txt").write_text("old")
        write_all_atomic({tmp_path / "a.txt": data})
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]
        assert os.stat(tmp_path / "a.txt").st_nlink == 1 and (tmp_path / "a.txt").read_bytes() == written

    def test_csv_text(self):
        assert csv_text(["a", "b"], [[1], ["x y"]]) == "a,b\r\n1,x y\r\n"
        # Columns of unequal lengths, fewer or more columns than names,
        # fewer than two columns, and a field that csv.writer would quote.
        for header, columns in ((["a", "b"], [[1, 2], [3]]), (["a", "b"], [[], [3]]), (["a", "b"], [[1]]),
                                (["a"], [[1], [2]]),
                                ([], []), (["a"], [[1]]), (["a"], [[""]]), (["a", "b"], [[1], ["x,y"]])):
            with pytest.raises(ValueError):
                csv_text(header, columns)

    @pytest.mark.parametrize("block", [1, 2, 3, data_io.CSV_BLOCK_ROWS])
    def test_csv_text_blocks_give_csv_writer_text(self, monkeypatch, block):
        """Tables cut into row blocks of every fill, the last one full,
        partial or absent, give csv.writer's text; past the real block
        size too."""
        monkeypatch.setattr(data_io, "CSV_BLOCK_ROWS", block)
        for rows in list(range(8)) + [2 * block + 1]:
            table = [["a", "b", "c"], *([i, f"{i}.5", -i] for i in range(rows))]
            buf = io.StringIO()
            csv.writer(buf).writerows(table)
            assert csv_text(table[0], [[row[j] for row in table[1:]] for j in range(3)]) == buf.getvalue()

    def test_csv_text_writes_numpy_scalars_bools_and_none_as_str(self):
        """Each value is written as str(value); csv.writer itself would
        write None as an empty field. np.float32(0.1) is written as its
        str, 0.1, not as format(value, "") writes it."""
        columns = [[np.float64(0.1), np.float64(-0.0)], [np.int64(-3), np.int64(2**62)],
                   [True, False], [None, None], [np.float32(0.1), np.float32(-2.5)]]
        assert csv_text(["f", "i", "b", "n", "g"], columns) == (
            "f,i,b,n,g\r\n0.1,-3,True,None,0.1\r\n-0.0,4611686018427387904,False,None,-2.5\r\n")

    # Fields that csv.writer leaves bare, including str.format and %-format
    # syntax, which must be written as it is. NEEDS_QUOTES fields hold a comma, quote, CR
    # or LF, which csv.writer would quote.
    BARE_TEXT = st.text(alphabet=st.characters(exclude_characters=',"\r\n'), max_size=5)
    CSV_FIELDS = st.one_of(st.text(alphabet="ab \u00e9{}", max_size=5), BARE_TEXT,
                           st.sampled_from(["{", "}", "{0}", "{!r}", "{}", "%", "%s", "%%", "%(a)s"]),
                           st.integers(), st.floats())
    NEEDS_QUOTES = st.tuples(BARE_TEXT, st.sampled_from(',"\r\n'), BARE_TEXT).map("".join)

    def draw_table(self, data):
        """A header and its rows, 2 to 4 fields wide and up to 6 rows long."""
        width = data.draw(st.integers(2, 4))
        fields = st.lists(self.CSV_FIELDS, min_size=width, max_size=width)
        return data.draw(fields), data.draw(st.lists(fields, max_size=6))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_csv_text_matches_csv_writer(self, data):
        """csv.writer is the independent oracle: same text for any table
        of fields it leaves bare, including tables with no rows."""
        header, rows = self.draw_table(data)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        columns = [[row[j] for row in rows] for j in range(len(header))]
        assert csv_text(header, columns) == buf.getvalue()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_csv_text_refuses_a_field_that_needs_quotes(self, data):
        """One field holding a comma, quote, CR or LF, anywhere in the
        header or the rows, raises ValueError instead of being written."""
        header, rows = self.draw_table(data)
        table = [header, *rows]
        i = data.draw(st.integers(0, len(table) - 1))
        table[i][data.draw(st.integers(0, len(header) - 1))] = data.draw(self.NEEDS_QUOTES)
        with pytest.raises(ValueError, match="comma, quote, CR or LF"):
            csv_text(table[0], [[row[j] for row in table[1:]] for j in range(len(header))])
