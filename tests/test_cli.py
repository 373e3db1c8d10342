import argparse
import csv
import errno
import json
import os
import stat
import struct
import subprocess
import sys
import tempfile
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from novnet import cli, experiments, novelty_eval
from novnet.dual_trainer import TrainingConfig, build_dual_model, load_checkpoint, save_checkpoint
from novnet.experiments import assemble_datasets, parse_experiment_config
from novnet.nn_core import Conv2d, Dense, GlobalAveragePool, NetworkSpec, Relu
from novnet.novelty_eval import auc_pairwise_oracle

QUICK = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "benchmark-quick.json")
CONV_DEMO = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "conv-demo.json")


def synthetic_section(n_known=2, per_cluster=24, with_reference=True, data_seed=0):
    clusters = []
    means = [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]]
    for i in range(n_known):
        clusters.append({"mean": means[i], "stddev": 0.4, "count": per_cluster, "role": "known"})
    clusters.append({"mean": [1.0, 1.0, 0.0], "stddev": 0.4, "count": per_cluster, "role": "novel"})
    if with_reference:
        clusters.append({"mean": [-2.0, 0.0, 0.0], "stddev": 0.6, "count": per_cluster, "role": "reference"})
        clusters.append({"mean": [0.0, -2.0, 0.0], "stddev": 0.6, "count": per_cluster, "role": "reference"})
    return {"synthetic": {"dimension": 3, "seed": data_seed, "clusters": clusters},
            "split": {"train_fraction": 0.5, "seed": data_seed}}


def write_config(tmp_path, name="config.json", mode="dual-full", epochs=3, seed=1, **kwargs):
    cfg = {
        "dataset": synthetic_section(**kwargs),
        "model": {"backbone": {"input_shape": [3], "layers": [
            {"kind": "dense", "in": 3, "out": 8}, {"kind": "relu"}]}},
        "training": {"mode": mode, "epochs": epochs, "lr": 0.05, "seed": seed,
                     "batch_size_T": 8, "batch_size_R": 8},
        "evaluation": {"target_fnr": 0.05},
    }
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return path


def quick_with_reference_csv(tmp_path, reference_clusters):
    """configs/benchmark-quick.json with `reference_clusters` set and a
    two-class 8-feature `reference_csv` added; returns the config path."""
    ref = tmp_path / "ref.csv"
    ref.write_text("label," + ",".join(f"f{j}" for j in range(8)) + "\n"
                   + "".join(f"{name},{','.join([str(i - 2.0)] * 8)}\n" for name in ("yy", "zz") for i in range(4)))
    with open(QUICK) as fh:
        cfg = json.load(fh)
    cfg["dataset"]["benchmark"]["reference_clusters"] = reference_clusters
    cfg["dataset"]["reference_csv"] = {"path": str(ref)}
    path = tmp_path / "with-reference-csv.json"
    path.write_text(json.dumps(cfg))
    return path


class TestTrain:
    @pytest.mark.parametrize("mode", ["ce-only", "ce+membership"])
    def test_train_holds_no_reference_it_does_not_read(self, tmp_path, monkeypatch, mode):
        """In a mode that reads no reference data, no assembled reference
        array is alive while `train` trains."""
        config = write_config(tmp_path, mode=mode, epochs=1)
        real_assemble, real_train = experiments.assemble_datasets, experiments.train_lockstep
        assembled, alive = [], []

        def assemble(*args, **kwargs):
            data = real_assemble(*args, **kwargs)
            if data.reference is not None:
                assembled.extend(weakref.ref(a) for a in (data.reference.x, data.reference.y))
            return data

        def train_lockstep(*args, **kwargs):
            alive.append([ref() is not None for ref in assembled])
            return real_train(*args, **kwargs)

        monkeypatch.setattr(experiments, "assemble_datasets", assemble)
        monkeypatch.setattr(experiments, "train_lockstep", train_lockstep)
        assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
        assert alive == [[False] * len(assembled)]

    def test_writes_checkpoint_and_history(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "checkpoint.nvfg").exists()
        with open(out / "history.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "loss_ce_R", "loss_ce_T", "loss_m_T", "cumulative"]
        assert len(rows) == 4  # header + 3 epochs

    def test_files_get_the_umask_mode(self, tmp_path):
        """history.csv and the checkpoint are created as `open` creates a
        file: mode 0o666 less the umask."""
        config = write_config(tmp_path)
        out = tmp_path / "run"
        umask = os.umask(0o022)
        try:
            assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 0
        finally:
            os.umask(umask)
        for name in ("history.csv", "checkpoint.nvfg"):
            assert stat.S_IMODE(os.stat(out / name).st_mode) == 0o644, name

    @pytest.mark.parametrize("blocked", ["checkpoint.nvfg", "history.csv"])
    def test_writes_both_files_or_neither(self, tmp_path, capsys, blocked):
        """A target that cannot be placed (here, a directory) fails the
        command before the other file appears."""
        config = write_config(tmp_path)
        out = tmp_path / "run"
        (out / blocked).mkdir(parents=True)
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert os.listdir(out) == [blocked]

    def test_trains_on_reference_csv(self, tmp_path):
        """With no reference clusters, `reference_csv` is the reference data."""
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(quick_with_reference_csv(tmp_path, 0)), "--out", str(out)]) == 0
        assert load_checkpoint(out / "checkpoint.nvfg").model.num_reference == 2

    def test_zero_epochs_equals_initialization(self, tmp_path):
        config = write_config(tmp_path, epochs=0, seed=6)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 0
        ckpt = load_checkpoint(out / "checkpoint.nvfg")
        spec = NetworkSpec((3,), (Dense(3, 8), Relu()))
        fresh = build_dual_model(spec, 2, 2, seed=6)
        for k in fresh.backbone:
            assert np.array_equal(ckpt.model.backbone[k], fresh.backbone[k])
        for k in fresh.head_T:
            assert np.array_equal(ckpt.model.head_T[k], fresh.head_T[k])

    def test_missing_dataset_file_names_path(self, tmp_path, capsys):
        cfg = json.loads(write_config(tmp_path).read_text())
        cfg["dataset"] = {"csv": {"path": str(tmp_path / "nope.csv")},
                          "split": {"seed": 0}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        rc = cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_rerun_bit_identical(self, tmp_path):
        config = write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.main(["train", "--config", str(config), "--out", str(out_a)]) == 0
        assert cli.main(["train", "--config", str(config), "--out", str(out_b)]) == 0
        assert (out_a / "checkpoint.nvfg").read_bytes() == (out_b / "checkpoint.nvfg").read_bytes()

    def test_mode_override_flag(self, tmp_path):
        config = write_config(tmp_path, mode="dual-full")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(out),
                         "--mode", "ce-only"]) == 0
        ckpt = load_checkpoint(out / "checkpoint.nvfg")
        assert ckpt.config.mode == "ce-only"
        assert ckpt.model.head_R is None

    @pytest.mark.parametrize("train_fraction, small_side", [(0.001, "train_T"), (0.999, "test_T")])
    def test_train_fraction_edges_keep_one_sample_per_class(self, tmp_path, train_fraction, small_side):
        """A train_fraction near 0 or 1 is valid: the split keeps at least
        one sample of every known class on each side, and no more on the
        small one."""
        with open(QUICK) as fh:
            cfg = json.load(fh)
        cfg["dataset"]["split"]["train_fraction"] = train_fraction
        cfg["training"]["epochs"] = 1
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
        data = assemble_datasets(parse_experiment_config(str(config)).dataset)
        small = getattr(data, small_side)
        assert np.bincount(small.y, minlength=small.n_classes).tolist() == [1] * small.n_classes
        assert len(data.train_T) + len(data.test_T) > 2 * small.n_classes

    @pytest.mark.parametrize("name", ["benchmark-quick.json", "conv-demo.json"])
    def test_checkpoint_metadata_is_the_config_form(self, tmp_path, capsys, name):
        """The checkpoint's `backbone` and `config` blocks are the config's
        own model backbone and training section, written by one codec."""
        config = os.path.join(os.path.dirname(QUICK), name)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", config, "--out", str(out)]) == 0
        data = (out / "checkpoint.nvfg").read_bytes()
        (meta_len,) = struct.unpack("<Q", data[8:16])
        metadata = json.loads(data[16:16 + meta_len])
        raw = parse_experiment_config(config).to_dict()
        assert metadata["backbone"] == raw["model"]["backbone"]
        assert metadata["config"] == raw["training"]

class TestBadInputExitsCleanly:
    """Each bad input exits 1 with exactly one line on stderr."""

    def run_failing(self, argv, capsys):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
        return captured.err

    @pytest.mark.parametrize("key,named", [("lambda", "lambda"), ("lr", "learning rate")])
    def test_nan_training_value(self, tmp_path, capsys, key, named):
        cfg = json.loads(write_config(tmp_path).read_text())
        cfg["training"][key] = float("nan")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))  # json writes the bare NaN token
        err = self.run_failing(["train", "--config", str(bad), "--out", str(tmp_path / "o")], capsys)
        assert named in err and "nan" in err  # rejected as config, not as divergence

    def test_config_not_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dataset": {}, "model": \n')
        err = self.run_failing(["train", "--config", str(bad), "--out", str(tmp_path / "o")], capsys)
        assert str(bad) in err

    @pytest.mark.parametrize("key,value", [("epochs", "x"), ("lambda", "5"), ("lr", None), ("epochs", 2.5)])
    def test_mistyped_training_value(self, tmp_path, capsys, key, value):
        cfg = json.loads(write_config(tmp_path).read_text())
        cfg["training"][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        err = self.run_failing(["train", "--config", str(bad), "--out", str(tmp_path / "o")], capsys)
        assert key in err

    @pytest.mark.parametrize("section,value,named", [
        ("model", 5, "model"),
        ("model", {"backbone": 5}, "backbone"),
        ("evaluation", {"bogus": 1}, "bogus"),
        ("evaluation", {"target_fnr": "x"}, "target_fnr"),
        ("dataset", 5, "dataset"),
        ("dataset", {"csv": 5}, "csv"),
    ], ids=["model", "model-backbone", "evaluation-key", "evaluation-target_fnr", "dataset", "dataset-csv"])
    def test_mistyped_config_section(self, tmp_path, capsys, section, value, named):
        cfg = json.loads(write_config(tmp_path).read_text())
        cfg[section] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        err = self.run_failing(["train", "--config", str(bad), "--out", str(tmp_path / "o")], capsys)
        assert section in err and named in err

    @pytest.mark.parametrize("field,value", [
        ("out", True), ("out", 20.9), ("out", "4"), ("out", 0), ("input_shape", [3.0]),
        ("layers", [{"kind": "conv2d", "in_channels": 1, "out_channels": 0, "kernel": 1}]),
    ], ids=["out-true", "out-float", "out-string", "out-zero", "input_shape-float", "out_channels-zero"])
    def test_mistyped_layer_field(self, tmp_path, capsys, field, value):
        cfg = json.loads(write_config(tmp_path).read_text())
        backbone = cfg["model"]["backbone"]
        if field == "out":
            backbone["layers"][0]["out"] = value
        else:
            backbone[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        err = self.run_failing(["train", "--config", str(bad), "--out", str(tmp_path / "o")], capsys)
        named = {"input_shape": "input_shape", "layers": "out_channels"}.get(field, "'out'")
        assert named in err and "integer >= 1" in err

    @pytest.mark.parametrize("name,key", [
        ("benchmark-quick.json", "in"), ("benchmark-quick.json", "out"), ("conv-demo.json", "in_channels"),
        ("conv-demo.json", "kernel"), ("conv-demo.json", "stride"),
    ], ids=["dense-in", "dense-out", "conv-in_channels", "conv-kernel", "conv-stride"])
    def test_null_layer_field(self, tmp_path, capsys, name, key):
        """A null layer field is refused as config: not a TypeError in the
        layer chain, nor a message about the head's input shape."""
        with open(os.path.join(os.path.dirname(QUICK), name)) as fh:
            cfg = json.load(fh)
        layer = cfg["model"]["backbone"]["layers"][0]
        layer[key] = None
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        err = self.run_failing(["train", "--config", str(bad), "--out", str(tmp_path / "o")], capsys)
        assert f"layer 0 ({layer['kind']}) {key!r} must be an integer >= 1, got None" in err
        assert os.listdir(tmp_path) == ["bad.json"]

    @pytest.mark.parametrize("entry,key,value", [
        ("benchmark", "seed", 1.7), ("benchmark", "seed", True), ("benchmark", "reference_clusters", 2.9),
        ("split", "seed", "2"), ("synthetic", "seed", 1.0), ("synthetic", "dimension", 3.0),
        ("reshape", None, [3.0]),
    ], ids=["benchmark-seed-float", "benchmark-seed-bool", "benchmark-reference_clusters",
            "split-seed-string", "synthetic-seed", "synthetic-dimension", "reshape"])
    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_mistyped_dataset_integer(self, tmp_path, capsys, entry, key, value, command):
        cfg = json.loads(write_config(tmp_path).read_text())
        if entry == "benchmark":
            cfg["dataset"] = {"benchmark": {key: value}}
        elif key is None:
            cfg["dataset"][entry] = value
        else:
            cfg["dataset"][entry][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        err = self.run_failing([command, "--config", str(bad), "--out", str(tmp_path / "o")], capsys)
        assert f"dataset {entry!r}" in err and "must be an integer" in err
        assert key is None or repr(key) in err

    def test_mistyped_cluster_count(self, tmp_path, capsys):
        cfg = json.loads(write_config(tmp_path).read_text())
        cfg["dataset"]["synthetic"]["clusters"][1]["count"] = 24.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        err = self.run_failing(["train", "--config", str(bad), "--out", str(tmp_path / "o")], capsys)
        assert "cluster 1 'count'" in err

    def test_negative_seed(self, tmp_path, capsys):
        config = write_config(tmp_path)
        err = self.run_failing(["train", "--config", str(config), "--out", str(tmp_path / "o"),
                                "--seed", "-1"], capsys)
        assert "seed" in err

    def test_non_finite_scores(self, tmp_path, capsys):
        config = write_config(tmp_path)
        ckpt_path = tmp_path / "t" / "checkpoint.nvfg"
        assert cli.main(["train", "--config", str(config), "--out", str(ckpt_path.parent)]) == 0
        ckpt = load_checkpoint(ckpt_path)
        ckpt.model.head_T["layer0.weight"][0, 0] = np.nan
        save_checkpoint(ckpt.model, ckpt.config, ckpt_path, epoch=ckpt.epoch, metrics=ckpt.metrics)
        capsys.readouterr()
        for command in ("calibrate", "eval"):
            out = tmp_path / command
            err = self.run_failing([command, "--config", str(config), "--checkpoint", str(ckpt_path),
                                    "--out", str(out)], capsys)
            assert "finite" in err
            assert not out.exists()  # no report with a NaN threshold or AUC

    def dataset_config(self, tmp_path, dataset):
        cfg = json.loads(write_config(tmp_path).read_text())
        cfg["dataset"] = dataset
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def trained_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "t"
        assert cli.main(["train", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
        capsys.readouterr()
        return str(out / "checkpoint.nvfg")

    @pytest.mark.parametrize("source,named", [
        ("benchmark", "'reference_clusters' 1000000000:"),
        ("synthetic", "'clusters' of 10000000000096 samples"),
    ], ids=["reference_clusters", "cluster-count"])
    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_oversized_dataset(self, tmp_path, capsys, source, named, command):
        if source == "benchmark":
            dataset = {"benchmark": {"seed": 0, "reference_clusters": 10**9}}
        else:
            dataset = synthetic_section()
            dataset["synthetic"]["clusters"][0]["count"] = 10**13
        config = self.dataset_config(tmp_path, dataset)
        extra = ["--seeds", "1"] if command == "ablate" else []
        err = self.run_failing([command, "--config", config, "--out", str(tmp_path / "o"), *extra], capsys)
        assert named in err and "physical memory" in err

    @pytest.mark.parametrize("name,source", [("benchmark-quick.json", "benchmark"), ("conv-demo.json", "synthetic")])
    def test_known_fraction_beside_generated_source(self, tmp_path, capsys, name, source):
        """A generated source's clusters carry their roles, so a
        known_fraction there would change nothing; it is refused."""
        with open(os.path.join(os.path.dirname(QUICK), name)) as fh:
            cfg = json.load(fh)
        cfg["dataset"]["split"]["known_fraction"] = 0.2
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        err = self.run_failing(["train", "--config", str(config), "--out", str(tmp_path / "o")], capsys)
        assert "'known_fraction'" in err and f"'{source}' entry" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("clusters", [3, 8])
    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_reference_csv_beside_reference_clusters(self, tmp_path, capsys, clusters, command):
        config = quick_with_reference_csv(tmp_path, clusters)
        extra = ["--seeds", "1"] if command == "ablate" else []
        err = self.run_failing([command, "--config", str(config), "--out", str(tmp_path / "o"), *extra], capsys)
        assert "'reference_csv'" in err and f"{clusters} reference clusters of its 'benchmark' entry" in err
        assert not (tmp_path / "o").exists()

    def test_train_non_utf8_csv(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_bytes(b"label,f0\na,1\na,2\n\xff,3\n\xff,4\n")
        config = self.dataset_config(tmp_path, {"csv": {"path": str(data)}})
        err = self.run_failing(["train", "--config", config, "--out", str(tmp_path / "o")], capsys)
        assert "d.csv" in err and "utf-8" in err

    def test_eval_zero_width_idx_pair(self, tmp_path, capsys):
        checkpoint = self.trained_checkpoint(tmp_path, capsys)
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">IIII", 0x803, 4, 3, 0))
        labels.write_bytes(struct.pack(">II", 0x801, 4) + bytes([0, 1, 2, 3]))
        config = self.dataset_config(tmp_path, {"idx": {"images": str(images), "labels": str(labels)}})
        err = self.run_failing(["eval", "--config", config, "--checkpoint", checkpoint,
                                "--out", str(tmp_path / "o")], capsys)
        assert "images.idx" in err and "no values" in err

    def test_ablate_negative_reshape(self, tmp_path, capsys):
        # [-2, -4] holds as many values as the 8-wide samples
        config = self.dataset_config(tmp_path, {"benchmark": {"seed": 0}, "reshape": [-2, -4]})
        err = self.run_failing(["ablate", "--config", config, "--out", str(tmp_path / "o"), "--seeds", "1"],
                               capsys)
        assert "dataset 'reshape' entry 0" in err and "integer >= 1" in err

    def test_calibrate_unknown_dataset_key(self, tmp_path, capsys):
        config = self.dataset_config(tmp_path, {"benchmark": {"seed": 0}, "splt": {"seed": 1}})
        err = self.run_failing(["calibrate", "--config", config, "--checkpoint", str(tmp_path / "none"),
                                "--out", str(tmp_path / "o")], capsys)
        assert "dataset section" in err and "'splt'" in err

    def test_inspect_filters_truncated_checkpoint(self, tmp_path, capsys):
        checkpoint = self.trained_checkpoint(tmp_path, capsys)
        with open(checkpoint, "r+b") as fh:
            fh.truncate(os.path.getsize(checkpoint) - 3)
        err = self.run_failing(["inspect-filters", "--checkpoint", checkpoint, "--out", str(tmp_path / "o")],
                               capsys)
        assert "truncated" in err

    @pytest.mark.parametrize("source,command,training,named", [
        (QUICK, "train", {}, "non-finite cumulative loss nan at epoch 0, step 1"),
        (QUICK, "ablate", {}, "non-finite cumulative loss nan of stacked model 0 at epoch 0, step 1"),
        # One step: training ends with finite weights whose logits overflow,
        # which the forward over the training data after the last update finds.
        (QUICK, "train", {"epochs": 1, "batch_size_T": 10**6},
         "non-finite known-head logit on the training data after the last update at epoch 0, step 0"),
        (QUICK, "ablate", {"epochs": 1, "batch_size_T": 10**6}, "non-finite known-head logit on the training "
         "data of stacked model 0 after the last update at epoch 0, step 0"),
        # A conv backbone: the reference branch's backward runs on the worker thread.
        (CONV_DEMO, "train", {}, "non-finite cumulative loss nan at epoch 0, step 1"),
        (CONV_DEMO, "ablate", {}, "non-finite cumulative loss nan of stacked model 0 at epoch 0, step 1"),
    ], ids=["train", "ablate", "train-scores-overflow", "ablate-scores-overflow", "conv-train", "conv-ablate"])
    def test_divergence(self, tmp_path, capsys, source, command, training, named):
        """A diverging run ends in one line, naming the epoch and step when
        training diverged: numpy's floating-point warnings never reach
        the user, from either thread."""
        with open(source) as fh:
            cfg = json.load(fh)
        cfg["training"].update(lr=1e300, **training)
        config = tmp_path / "diverging.json"
        config.write_text(json.dumps(cfg))
        extra = ["--seeds", "1"] if command == "ablate" else []
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = self.run_failing([command, "--config", str(config), "--out", str(out), *extra], capsys)
        assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert named in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_empty_backbone(self, tmp_path, capsys, command):
        """A backbone without layers is a config error, not a crash in the
        first backward pass."""
        with open(QUICK) as fh:
            cfg = json.load(fh)
        cfg["model"]["backbone"]["layers"] = []
        config = tmp_path / "empty.json"
        config.write_text(json.dumps(cfg))
        extra = ["--seeds", "1"] if command == "ablate" else []
        out = tmp_path / "o"
        err = self.run_failing([command, "--config", str(config), "--out", str(out), *extra], capsys)
        assert "model 'backbone' entry 'layers' is empty" in err
        assert not out.exists()

    def test_zero_ablation_seeds(self, tmp_path, capsys):
        config = write_config(tmp_path)
        err = self.run_failing(["ablate", "--config", str(config), "--out", str(tmp_path / "o"),
                                "--seeds", "0"], capsys)
        assert "seed" in err

    @pytest.mark.parametrize("command", ["train", "eval", "calibrate", "ablate", "inspect-filters"])
    def test_late_failure_leaves_no_out(self, tmp_path, capsys, command):
        """Each command here fails after building its data and model, and
        still leaves no `--out`: the first write creates it, and every
        result is computed before that."""
        checkpoint = self.trained_checkpoint(tmp_path, capsys)
        config = write_config(tmp_path)
        if command in ("train", "ablate"):  # training diverges
            cfg = json.loads(config.read_text())
            cfg["training"]["lr"] = 1e300
            config.write_text(json.dumps(cfg))
        elif command in ("eval", "calibrate"):  # scores are not finite
            ckpt = load_checkpoint(checkpoint)
            ckpt.model.head_T["layer0.weight"][0, 0] = np.nan
            save_checkpoint(ckpt.model, ckpt.config, checkpoint, epoch=ckpt.epoch, metrics=ckpt.metrics)
        # inspect-filters: the dense backbone ends in no global-average-pool
        out = tmp_path / "o"
        argv = {"train": ["--config", str(config)], "ablate": ["--config", str(config), "--seeds", "1"],
                "eval": ["--config", str(config), "--checkpoint", checkpoint],
                "calibrate": ["--config", str(config), "--checkpoint", checkpoint],
                "inspect-filters": ["--checkpoint", checkpoint]}[command]
        self.run_failing([command, *argv, "--out", str(out)], capsys)
        assert not out.exists()


REAL_EDITS = [0.0, 1.0, -1.0, 5e-324, 1e300, -1e300]
# No count between about 1e5 and the memory bound: a run would allocate it.
INT_EDITS = [0, 1, -1, 10**18]


def draw_extreme_config(data, path, sections=("split", "training")):
    """Write the quick benchmark config with one key of the named sections
    (of training, split and evaluation) set to an extreme value (epochs
    capped at 2) to `path`."""
    with open(QUICK) as fh:
        cfg = json.load(fh)
    cfg["training"]["epochs"] = 2
    every = {"training": cfg["training"], "split": cfg["dataset"]["split"], "evaluation": cfg["evaluation"]}
    sections = {name: every[name] for name in sections}
    section = data.draw(st.sampled_from(sorted(sections)), label="section")
    key = data.draw(st.sampled_from(sorted(k for k, v in sections[section].items() if not isinstance(v, str))),
                    label="key")
    edits = REAL_EDITS if isinstance(sections[section][key], float) else INT_EDITS
    value = data.draw(st.sampled_from(edits), label="value")
    sections[section][key] = min(value, 2) if key == "epochs" else value
    with open(path, "w") as fh:
        json.dump(cfg, fh)


def run_or_fail_closed(capsys, argv, out, outputs):
    """cli.main(argv) exits 0 having written `outputs` into `out`, or 1
    with one error line and no `out`. A RuntimeWarning is an error in
    this suite."""
    capsys.readouterr()
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1)
    if code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not os.path.exists(out)
    else:
        assert all(os.path.exists(os.path.join(out, name)) for name in outputs)


class TestTrainFuzz:
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_extreme_value_trains_or_fails_closed(self, capsys, data):
        """One extreme value in a training or split key of the quick
        benchmark config either trains or ends in one error line and
        writes nothing."""
        with tempfile.TemporaryDirectory() as tmp:
            config, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "out")
            draw_extreme_config(data, config)
            run_or_fail_closed(capsys, ["train", "--config", config, "--out", out],
                               out, ("checkpoint.nvfg", "history.csv"))

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_extreme_value_ablates_or_fails_closed(self, capsys, data):
        """The same edits through `ablate`, whose four modes train in one
        stack, reordered by mode."""
        with tempfile.TemporaryDirectory() as tmp:
            config, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "out")
            draw_extreme_config(data, config)
            run_or_fail_closed(capsys, ["ablate", "--config", config, "--out", out, "--seeds", "1"],
                               out, ("ablation.csv",))


# The quick benchmark's 8 features as 2x2x2 images under a small conv.
CONV_BACKBONE = {"input_shape": [2, 2, 2], "layers": [
    {"kind": "conv2d", "in_channels": 2, "out_channels": 4, "kernel": 2, "stride": 1},
    {"kind": "relu"}, {"kind": "global-average-pool"}]}


def write_model_config(path, backbone, site, value):
    """Write the quick benchmark config (epochs capped at 2) to `path`, with
    its own dense backbone or CONV_BACKBONE, and `value` at `site`: an
    ("input_shape", entry) or a (layer index, key) pair."""
    with open(QUICK) as fh:
        cfg = json.load(fh)
    cfg["training"]["epochs"] = 2
    if backbone == "conv":
        cfg["model"]["backbone"] = json.loads(json.dumps(CONV_BACKBONE))
        cfg["dataset"]["reshape"] = CONV_BACKBONE["input_shape"]
    model = cfg["model"]["backbone"]
    where, key = site
    (model["input_shape"] if where == "input_shape" else model["layers"][where])[key] = value
    with open(path, "w") as fh:
        json.dump(cfg, fh)


def model_sites(backbone):
    """Every integer of a backbone's model section, as write_model_config sites."""
    if backbone == "conv":
        model = CONV_BACKBONE
    else:
        with open(QUICK) as fh:
            model = json.load(fh)["model"]["backbone"]
    return [("input_shape", j) for j in range(len(model["input_shape"]))] + \
        [(i, key) for i, layer in enumerate(model["layers"]) for key, v in layer.items() if isinstance(v, int)]


class TestModelFuzz:
    """One extreme integer (INT_EDITS) in the model section: the runs that
    succeed hold well under 10**5 parameters, and a width of 10**18 fails
    before any weight is drawn."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_extreme_value_trains_or_fails_closed(self, capsys, data):
        backbone = data.draw(st.sampled_from(["dense", "conv"]), label="backbone")
        site = data.draw(st.sampled_from(model_sites(backbone)), label="site")
        value = data.draw(st.sampled_from(INT_EDITS), label="value")
        with tempfile.TemporaryDirectory() as tmp:
            config, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "out")
            write_model_config(config, backbone, site, value)
            run_or_fail_closed(capsys, ["train", "--config", config, "--out", out],
                               out, ("checkpoint.nvfg", "history.csv"))

    @pytest.mark.parametrize("backbone, site", [("dense", (0, "out")), ("conv", (0, "out_channels"))],
                             ids=["dense-out", "conv-out_channels"])
    def test_width_beyond_memory_fails_closed(self, tmp_path, capsys, backbone, site):
        config, out = tmp_path / "config.json", tmp_path / "out"
        write_model_config(config, backbone, site, 10**18)
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "parameters" in err and "physical memory" in err
        assert not out.exists()


class TestEvalFuzz:
    """One checkpoint, trained once on the quick benchmark config, scored
    under configs with one extreme split or evaluation value."""

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fuzz-train")
        with open(QUICK) as fh:
            cfg = json.load(fh)
        cfg["training"]["epochs"] = 2
        config = out / "config.json"
        config.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 0
        return str(out / "checkpoint.nvfg")

    @pytest.mark.parametrize("command, outputs", [
        ("eval", ("summary.json", "scores.csv", "roc.csv")),
        ("calibrate", ("threshold.json",)),
    ])
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_extreme_value_scores_or_fails_closed(self, capsys, checkpoint, command, outputs, data):
        with tempfile.TemporaryDirectory() as tmp:
            config, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "out")
            draw_extreme_config(data, config, sections=("evaluation", "split"))
            run_or_fail_closed(capsys, [command, "--config", config, "--checkpoint", checkpoint,
                                        "--out", out], out, outputs)


class TestEval:
    def run_train(self, tmp_path, **kwargs):
        config = write_config(tmp_path, **kwargs)
        out = tmp_path / "train_out"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 0
        return config, out / "checkpoint.nvfg"

    def test_summary_matches_score_csv(self, tmp_path, capsys):
        config, ckpt = self.run_train(tmp_path)
        out = tmp_path / "eval_out"
        assert cli.main(["eval", "--config", str(config), "--checkpoint", str(ckpt),
                         "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        with open(out / "scores.csv", newline="") as fh:
            records = list(csv.DictReader(fh))
        known = [float(r["score"]) for r in records if r["is_novel"] == "0"]
        novel = [float(r["score"]) for r in records if r["is_novel"] == "1"]
        assert len(known) + len(novel) == len(records)
        recomputed = auc_pairwise_oracle(known, novel)
        assert abs(summary["auc"] - round(recomputed, 4)) <= 5e-5
        roc_lines = (out / "roc.csv").read_text().strip().splitlines()
        assert roc_lines[0] == "threshold,fpr,tpr"
        assert roc_lines[-1].startswith("auc,")

    @pytest.mark.parametrize("command", ["eval", "calibrate"])
    @pytest.mark.parametrize("trained, given", [(2, 3), (3, 2)])
    def test_class_count_mismatch(self, tmp_path, capsys, command, trained, given):
        config, ckpt = self.run_train(tmp_path, n_known=trained)
        other = write_config(tmp_path, name="other.json", n_known=given)
        out = tmp_path / "x"
        rc = cli.main([command, "--config", str(other), "--checkpoint", str(ckpt),
                       "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "known classes" in err
        # error paths must not leave partial report files behind
        assert not out.exists()


    @pytest.mark.parametrize("failure", ["directory", "rename"])
    def test_writes_all_three_files_or_none(self, tmp_path, capsys, monkeypatch, failure):
        """summary.json, the last file staged, cannot be placed: a
        directory stands in its place, or its rename fails. Neither report
        is left in --out."""
        config, ckpt = self.run_train(tmp_path)
        out = tmp_path / "eval_out"
        if failure == "directory":
            (out / "summary.json").mkdir(parents=True)
        else:
            rename = os.replace

            def failing_rename(src, dst, **kwargs):
                if os.path.basename(dst) == "summary.json":
                    raise OSError(errno.EIO, "rename failed", dst)
                rename(src, dst, **kwargs)

            monkeypatch.setattr(os, "replace", failing_rename)
        capsys.readouterr()
        assert cli.main(["eval", "--config", str(config), "--checkpoint", str(ckpt), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert os.listdir(out) == (["summary.json"] if failure == "directory" else [])

    def test_sample_shape_mismatch(self, tmp_path, capsys):
        # [n, 1, 3] samples against a (3,) input must not broadcast
        config, ckpt = self.run_train(tmp_path)
        cfg = json.loads(config.read_text())
        cfg["dataset"]["reshape"] = [1, 3]
        other = tmp_path / "reshaped.json"
        other.write_text(json.dumps(cfg))
        out = tmp_path / "x"
        for command in ("eval", "calibrate"):
            rc = cli.main([command, "--config", str(other), "--checkpoint", str(ckpt), "--out", str(out)])
            assert rc == 1
            err = capsys.readouterr().err
            assert len(err.strip().splitlines()) == 1 and "shape" in err
            assert not out.exists()


class TestCalibrate:
    def test_threshold_json(self, tmp_path):
        config = write_config(tmp_path, per_cluster=120)
        train_out = tmp_path / "t"
        assert cli.main(["train", "--config", str(config), "--out", str(train_out)]) == 0
        out = tmp_path / "c"
        assert cli.main(["calibrate", "--config", str(config),
                         "--checkpoint", str(train_out / "checkpoint.nvfg"),
                         "--out", str(out), "--target-fnr", "0.05"]) == 0
        payload = json.loads((out / "threshold.json").read_text())
        assert payload["percentile"] == 0.05
        assert payload["realized_fnr"] <= 0.05
        assert payload["sample_count"] == 120  # half of each known cluster

    def test_median_target(self, tmp_path):
        config = write_config(tmp_path, per_cluster=40)
        train_out = tmp_path / "t"
        cli.main(["train", "--config", str(config), "--out", str(train_out)])
        out = tmp_path / "c"
        assert cli.main(["calibrate", "--config", str(config),
                         "--checkpoint", str(train_out / "checkpoint.nvfg"),
                         "--out", str(out), "--target-fnr", "0.5"]) == 0
        payload = json.loads((out / "threshold.json").read_text())
        assert abs(payload["realized_fnr"] - 0.5) < 0.05

    def test_target_defaults_to_evaluation_section(self, tmp_path):
        config = write_config(tmp_path, per_cluster=40)
        train_out = tmp_path / "t"
        cli.main(["train", "--config", str(config), "--out", str(train_out)])
        out = tmp_path / "c"
        assert cli.main(["calibrate", "--config", str(config),
                         "--checkpoint", str(train_out / "checkpoint.nvfg"),
                         "--out", str(out)]) == 0
        payload = json.loads((out / "threshold.json").read_text())
        assert payload["percentile"] == 0.05  # from the config's evaluation section

    def test_invalid_target(self, tmp_path, capsys):
        config = write_config(tmp_path)
        train_out = tmp_path / "t"
        cli.main(["train", "--config", str(config), "--out", str(train_out)])
        rc = cli.main(["calibrate", "--config", str(config),
                       "--checkpoint", str(train_out / "checkpoint.nvfg"),
                       "--out", str(tmp_path / "c"), "--target-fnr", "1.5"])
        assert rc == 1
        assert "target" in capsys.readouterr().err


class TestAblate:
    def test_restricted_single_row(self, tmp_path, capsys):
        config = write_config(tmp_path, epochs=2)
        out = tmp_path / "ab"
        assert cli.main(["ablate", "--config", str(config), "--out", str(out),
                         "--seeds", "1", "--mode", "dual-ce"]) == 0
        with open(out / "ablation.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["mode", "seed", "auc", "accuracy"]
        data_rows = [r for r in rows[1:] if r[1] != "mean"]
        assert len(data_rows) == 1
        assert data_rows[0][0] == "dual-ce"

    def test_row_count_is_modes_times_seeds(self, tmp_path):
        config = write_config(tmp_path, epochs=2)
        out = tmp_path / "ab"
        assert cli.main(["ablate", "--config", str(config), "--out", str(out),
                         "--seeds", "2"]) == 0
        with open(out / "ablation.csv") as fh:
            rows = list(csv.reader(fh))
        data_rows = [r for r in rows[1:] if r[1] != "mean"]
        mean_rows = [r for r in rows[1:] if r[1] == "mean"]
        assert len(data_rows) == 4 * 2
        assert len(mean_rows) == 4

    def test_seeds_beyond_memory_fail_closed(self, tmp_path, capsys):
        """10**12 reps of benchmark-quick's data fail once the first rep is
        assembled, before any further rep is drawn."""
        out = tmp_path / "ab"
        assert cli.main(["ablate", "--config", QUICK, "--out", str(out), "--seeds", str(10**12)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: an ablation of 1000000000000 seeds")
        assert not out.exists()

    def test_reference_required(self, tmp_path, capsys):
        # 4 classes: 2 known and 2 novel, and no reference data
        cfg = json.loads(write_config(tmp_path, epochs=2).read_text())
        cfg["dataset"] = {"csv": {"path": str(tmp_path / "d.csv")}, "split": {"seed": 0}}
        rows = "".join(f"{label},{i}.0,{-i}.5,{i % 3}.25\n" for i, label in enumerate("abcd" * 4))
        (tmp_path / "d.csv").write_text("label,f0,f1,f2\n" + rows)
        config = tmp_path / "no_reference.json"
        config.write_text(json.dumps(cfg))
        argv = ["ablate", "--config", str(config), "--out", str(tmp_path / "o"), "--seeds", "1"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "reference dataset" in err
        assert cli.main(argv + ["--mode", "ce-only"]) == 0  # ce-only uses no reference data

    def test_seed_flag_is_the_training_sections_seed(self, tmp_path):
        """`--seed 7` bases the seed matrix where a config's `seed: 7` would."""
        flagged = write_config(tmp_path, epochs=2, seed=1)
        seeded = write_config(tmp_path, "s7.json", epochs=2, seed=7)
        for config, extra, out in ((flagged, ["--seed", "7"], "a"), (seeded, [], "b")):
            assert cli.main(["ablate", "--config", str(config), "--out", str(tmp_path / out), "--seeds", "2",
                             "--mode", "dual-full", *extra]) == 0
        written = (tmp_path / "a" / "ablation.csv").read_bytes()
        assert written == (tmp_path / "b" / "ablation.csv").read_bytes()
        assert [row[1] for row in csv.reader(written.decode().splitlines())][1:] == ["10", "14", "mean"]


class TestInspectFilters:
    def conv_model(self):
        spec = NetworkSpec((1, 4, 4), (Conv2d(1, 3, 2), Relu(), GlobalAveragePool()))
        return build_dual_model(spec, 2, 0, seed=0)

    def test_hand_built_weights(self, tmp_path):
        model = self.conv_model()
        model.head_T = {"layer0.weight": np.array([[1.0, -0.5, -0.2], [0.3, -0.1, -0.9]]),
                        "layer0.bias": np.zeros(2)}
        path = tmp_path / "m.nvfg"
        save_checkpoint(model, TrainingConfig(mode="ce-only", seed=0), path)
        out = tmp_path / "report"
        assert cli.main(["inspect-filters", "--checkpoint", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "filter_report.json").read_text())
        assert report["classes"][0] == {"positive": [0], "negative": [1, 2]}
        assert report["classes"][1] == {"positive": [0], "negative": [1, 2]}
        assert report["globally_negative"] == [1, 2]

    def test_global_set_is_intersection(self, tmp_path):
        model = self.conv_model()
        rng = np.random.default_rng(3)
        model.head_T = {"layer0.weight": rng.standard_normal((2, 3)),
                        "layer0.bias": np.zeros(2)}
        path = tmp_path / "m.nvfg"
        save_checkpoint(model, TrainingConfig(mode="ce-only", seed=0), path)
        out = tmp_path / "report"
        assert cli.main(["inspect-filters", "--checkpoint", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "filter_report.json").read_text())
        inter = set(report["classes"][0]["negative"]) & set(report["classes"][1]["negative"])
        assert set(report["globally_negative"]) == inter

    def test_backbone_without_gap_rejected(self, tmp_path, capsys):
        spec = NetworkSpec((3,), (Dense(3, 8), Relu()))
        model = build_dual_model(spec, 2, 0, seed=0)
        path = tmp_path / "m.nvfg"
        save_checkpoint(model, TrainingConfig(mode="ce-only", seed=0), path)
        rc = cli.main(["inspect-filters", "--checkpoint", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "global-average-pool" in capsys.readouterr().err

    def test_trained_toy_model_report_is_valid_json(self, tmp_path):
        from novnet.data_io import ClusterSpec, SyntheticSpec, synth_gaussian
        from novnet.dual_trainer import train_lockstep

        # tiny image-shaped clusters: 1x4x4 tensors flattened into clusters
        rng = np.random.default_rng(0)
        base_a = rng.uniform(0, 1, 16)
        base_b = rng.uniform(0, 1, 16)
        ref = rng.uniform(0, 1, 16)
        spec = SyntheticSpec(dimension=16, clusters=(
            ClusterSpec(tuple(base_a), 0.1, 20, "known"),
            ClusterSpec(tuple(base_b), 0.1, 20, "known"),
            ClusterSpec(tuple((base_a + base_b) / 2), 0.1, 8, "novel"),
            ClusterSpec(tuple(ref), 0.15, 20, "reference"),
            ClusterSpec(tuple(1 - ref), 0.15, 20, "reference"),
        ), seed=1)
        known, _, reference = synth_gaussian(spec)
        known = type(known)(known.x.reshape(-1, 1, 4, 4), known.y,
                            known.class_names, known.provenance)
        reference = type(reference)(reference.x.reshape(-1, 1, 4, 4), reference.y,
                                    reference.class_names, reference.provenance)
        backbone = NetworkSpec((1, 4, 4), (Conv2d(1, 4, 3), Relu(), GlobalAveragePool()))
        model = build_dual_model(backbone, 2, 2, seed=2)
        cfg = TrainingConfig(mode="dual-full", epochs=3, lr=0.05, seed=2,
                             batch_size_T=8, batch_size_R=8)
        train_lockstep([model], [known], [reference], [cfg])
        path = tmp_path / "toy.nvfg"
        save_checkpoint(model, cfg, path)
        out = tmp_path / "report"
        assert cli.main(["inspect-filters", "--checkpoint", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "filter_report.json").read_text())
        assert set(report.keys()) == {"classes", "globally_negative", "weights"}
        assert len(report["classes"]) == 2
        assert len(report["weights"]) == 2
        assert len(report["weights"][0]) == 4


class TestReshapePath:
    def test_conv_backbone_via_reshape(self, tmp_path):
        import pathlib
        demo = pathlib.Path(__file__).resolve().parent.parent / "configs" / "conv-demo.json"
        cfg = json.loads(demo.read_text())
        cfg["training"]["epochs"] = 2
        config = tmp_path / "conv.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 0
        rep = tmp_path / "rep"
        assert cli.main(["inspect-filters", "--checkpoint", str(out / "checkpoint.nvfg"),
                         "--out", str(rep)]) == 0
        report = json.loads((rep / "filter_report.json").read_text())
        assert len(report["weights"][0]) == 6  # conv filter count

    def test_conv_train_process_exits_promptly(self, tmp_path):
        """The worker thread of a conv backbone's training is a daemon: the
        process exits 0 once training is done, without waiting for it."""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "novnet.cli", "train", "--config", CONV_DEMO,
                               "--out", str(tmp_path / "run")], env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "run" / "checkpoint.nvfg").exists()

    def assembled_by(self, tmp_path, monkeypatch, commands):
        """The ExperimentData each command of `commands` assembles, in
        order, on conv-demo's config trained for one epoch; `eval` and
        `calibrate` read the checkpoint that `train` writes."""
        with open(CONV_DEMO) as fh:
            cfg = json.load(fh)
        cfg["training"]["epochs"] = 1
        config = tmp_path / "conv.json"
        config.write_text(json.dumps(cfg))
        real_assemble, assembled = experiments.assemble_datasets, []

        def assemble(*args, **kwargs):
            assembled.append(real_assemble(*args, **kwargs))
            return assembled[-1]

        monkeypatch.setattr(experiments, "assemble_datasets", assemble)
        run = tmp_path / "run"
        for command in commands:
            checkpoint = [] if command == "train" else ["--checkpoint", str(run / "checkpoint.nvfg")]
            assert cli.main([command, "--config", str(config), "--out", str(run)] + checkpoint) == 0
        return assembled

    def test_train_holds_no_test_or_novel_split(self, tmp_path, monkeypatch):
        """`train` reads only the train split and the reference data: its
        assembled data has no known-test and no novel split at all."""
        [data] = self.assembled_by(tmp_path, monkeypatch, ["train"])
        assert (data.test_T, data.novel) == (None, None)
        assert data.train_T is not None and data.reference is not None  # conv-demo trains dual-full

    def test_eval_and_calibrate_hold_no_train_split(self, tmp_path, monkeypatch):
        """`eval` reads the known-test and novel splits, `calibrate` the
        known-test split alone: neither assembles a train split."""
        _, evaluated, calibrated = self.assembled_by(tmp_path, monkeypatch, ["train", "eval", "calibrate"])
        assert (evaluated.train_T, evaluated.reference) == (None, None)
        assert evaluated.test_T is not None and evaluated.novel is not None
        assert (calibrated.train_T, calibrated.novel, calibrated.reference) == (None, None, None)
        assert calibrated.test_T is not None

    def test_eval_frees_its_splits_before_the_reports(self, tmp_path, monkeypatch):
        """The report texts read only the score table and the ROC: no
        array of eval's assembled splits is alive while they are made."""
        config, run = tmp_path / "conv.json", tmp_path / "run"
        with open(CONV_DEMO) as fh:
            cfg = json.load(fh)
        cfg["training"]["epochs"] = 1
        config.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(config), "--out", str(run)]) == 0
        real_assemble, real_report = experiments.assemble_datasets, novelty_eval.report_texts
        assembled, alive = [], []

        def assemble(*args, **kwargs):
            data = real_assemble(*args, **kwargs)
            assembled.extend(weakref.ref(a) for ds in vars(data).values() if ds is not None for a in (ds.x, ds.y))
            return data

        def report_texts(*args, **kwargs):
            alive.append([ref() is not None for ref in assembled])
            return real_report(*args, **kwargs)

        monkeypatch.setattr(experiments, "assemble_datasets", assemble)
        monkeypatch.setattr(novelty_eval, "report_texts", report_texts)
        assert cli.main(["eval", "--config", str(config), "--checkpoint", str(run / "checkpoint.nvfg"),
                         "--out", str(run)]) == 0
        assert len(assembled) == 4 and alive == [[False] * 4]

    def test_bad_reshape_rejected(self, tmp_path, capsys):
        cfg = json.loads(write_config(tmp_path).read_text())
        cfg["dataset"]["reshape"] = [2, 5]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        rc = cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "reshape" in capsys.readouterr().err


class TestConfigParsing:
    def test_missing_section(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dataset": {}, "model": {}}))
        rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "training" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.main(["train", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_deeply_nested_config(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("[" * 10**5 + "]" * 10**5)
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "is not valid JSON" in err

    def test_overrides_do_not_reach_the_next_command(self, tmp_path, monkeypatch):
        """main() parses every command with one parser. The flags one call
        gives reach no later call: each command without flags reads the
        config's own seed, mode and target."""
        config = write_config(tmp_path)
        ckpt = str(tmp_path / "a" / cli.CHECKPOINT_NAME)
        real_load, loaded = cli._load_config, []

        def load_config(args):
            loaded.append(real_load(args))
            return loaded[-1]

        monkeypatch.setattr(cli, "_load_config", load_config)
        calls = [
            ["train", "--config", str(config), "--out", str(tmp_path / "a"), "--seed", "7", "--mode", "ce-only"],
            ["calibrate", "--config", str(config), "--checkpoint", ckpt, "--out", str(tmp_path / "c"),
             "--target-fnr", "0.5"],
            ["eval", "--config", str(config), "--checkpoint", ckpt, "--out", str(tmp_path / "e")],
            ["calibrate", "--config", str(config), "--checkpoint", ckpt, "--out", str(tmp_path / "d")],
            ["train", "--config", str(config), "--out", str(tmp_path / "b")],
        ]
        for argv in calls:
            assert cli.main(argv) == 0
        given = [(c.training.seed, c.training.mode, c.evaluation.target_fnr) for c in loaded]
        plain = parse_experiment_config(str(config))
        assert given[:2] == [(7, "ce-only", 0.05), (1, "dual-full", 0.5)]
        assert loaded[2:] == [plain] * 3


# Every subcommand's flags: a flag that has no effect on a command is not one of them.
FLAGS = {
    "train": {"--config", "--out", "--seed", "--mode"},
    "eval": {"--config", "--checkpoint", "--out"},
    "calibrate": {"--config", "--checkpoint", "--out", "--target-fnr"},
    "ablate": {"--config", "--out", "--seed", "--seeds", "--mode"},
    "inspect-filters": {"--checkpoint", "--out"},
}


class TestFlags:
    def subparsers(self):
        [action] = [a for a in cli.PARSER._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    def test_commands(self):
        assert set(self.subparsers()) == set(FLAGS)

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_flag_set(self, command):
        options = {option for action in self.subparsers()[command]._actions for option in action.option_strings}
        assert options - {"-h", "--help"} == FLAGS[command]

    @pytest.mark.parametrize("command", ["eval", "calibrate"])
    def test_seed_rejected_where_nothing_trains(self, tmp_path, capsys, command):
        argv = [command, "--config", QUICK, "--checkpoint", str(tmp_path / "m.nvfg"), "--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
