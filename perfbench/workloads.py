"""The benchmark's three workloads: their seeded inputs and the CLI calls
they time.

Every input is generated here from the workload seed and written as a
config file; the program sees only those files. Why each workload exists
is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

CONFIG_NAME = "config.json"
WARMUP_CONFIG_NAME = "warmup.json"
CHECKPOINT_DIR = "checkpoint"

# Files each CLI command writes into its --out directory.
OUTPUT_FILES = {
    "ablate": ("ablation.csv",),
    "train": ("checkpoint.nvfg", "history.csv"),
    "eval": ("summary.json", "scores.csv", "roc.csv"),
    "calibrate": ("threshold.json",),
    "inspect-filters": ("filter_report.json",),
}

TARGET_FNR = 0.05
DENSE_INPUT_SHAPE = (8,)
CONV_INPUT_SHAPE = (1, 28, 28)


def _training(mode: str, epochs: int, batch: int, seed: int) -> dict:
    return {"mode": mode, "alpha1": 1.0, "alpha2": 1.0, "lr": 0.05, "momentum": 0.9,
            "epochs": epochs, "batch_size_T": batch, "batch_size_R": batch,
            "seed": seed, "lambda": 5.0}


def _dense_backbone() -> dict:
    return {"input_shape": list(DENSE_INPUT_SHAPE),
            "layers": [{"kind": "dense", "in": 8, "out": 20}, {"kind": "relu"}]}


def _config(dataset: dict, backbone: dict, training: dict) -> dict:
    return {"dataset": dataset, "model": {"backbone": backbone}, "training": training,
            "evaluation": {"target_fnr": TARGET_FNR}}


def _dump(cfg: dict) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


def _stripes(theta: float, freq: float, phase: float, size: int) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size]
    return 0.5 + 0.5 * np.sin(2.0 * np.pi * freq * (xx * np.cos(theta) + yy * np.sin(theta)) + phase)


class Workload:
    """A named set of seeded inputs plus the CLI calls run on them.

    `setup_calls` run once per set-up round (warm-up, and the checkpoint
    of eval-large); `cycle_calls` are one timed cycle. Calls write into
    `<dir>/out`, `<dir>/warmup` or `<dir>/checkpoint`.
    """

    name = ""
    input_shape: tuple[int, ...] = ()
    rows_per_call = 1  # ablation rows one cycle call produces
    trains_in_setup = False  # True when only set-up calls train

    def configs(self, seed: int) -> dict[str, dict]:
        raise NotImplementedError

    def build_inputs(self, seed: int) -> dict[str, str]:
        """File name -> file text of every input; a pure function of seed."""
        return {name: _dump(cfg) for name, cfg in self.configs(seed).items()}

    def write_inputs(self, seed: int, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        for name, text in self.build_inputs(seed).items():
            with open(os.path.join(directory, name), "w") as fh:
                fh.write(text)

    def setup_calls(self, d: str) -> list[list[str]]:
        raise NotImplementedError

    def cycle_calls(self, d: str) -> list[list[str]]:
        raise NotImplementedError


def _eval_calls(config: str, checkpoint: str, out: str) -> list[list[str]]:
    return [["eval", "--config", config, "--checkpoint", checkpoint, "--out", out],
            ["calibrate", "--config", config, "--checkpoint", checkpoint, "--out", out,
             "--target-fnr", repr(TARGET_FNR)]]


class AblateDense(Workload):
    """`novnet ablate` on the bundled benchmark geometry: all 4 modes over
    the first N_SEEDS reps of the seed matrix. At seed 0 the config equals
    configs/benchmark.json."""

    name = "ablate-dense"
    input_shape = DENSE_INPUT_SHAPE
    N_SEEDS = 1
    MODES = 4
    rows_per_call = MODES * N_SEEDS
    EPOCHS = 100
    WARMUP_EPOCHS = 10

    def _config(self, seed: int, epochs: int) -> dict:
        dataset = {"benchmark": {"seed": seed, "reference_clusters": 8},
                   "split": {"train_fraction": 0.5, "seed": seed}}
        return _config(dataset, _dense_backbone(), _training("dual-full", epochs, 32, seed))

    def configs(self, seed: int) -> dict[str, dict]:
        return {CONFIG_NAME: self._config(seed, self.EPOCHS),
                WARMUP_CONFIG_NAME: self._config(seed, self.WARMUP_EPOCHS)}

    def setup_calls(self, d: str) -> list[list[str]]:
        return [["ablate", "--config", os.path.join(d, WARMUP_CONFIG_NAME),
                 "--out", os.path.join(d, "warmup"), "--seeds", "1"]]

    def cycle_calls(self, d: str) -> list[list[str]]:
        return [["ablate", "--config", os.path.join(d, CONFIG_NAME),
                 "--out", os.path.join(d, "out"), "--seeds", str(self.N_SEEDS)]]


class ConvTrain(Workload):
    """train -> eval -> calibrate -> inspect-filters on a 1x28x28 conv
    backbone (8 filters, 5x5 kernel, relu, global average pool).

    Classes are oriented stripe textures: known classes sit at four
    orientations 45 degrees apart, novel classes between them, reference
    classes at a higher spatial frequency. Random-mean clusters lose
    their identity under global average pooling and train at chance."""

    name = "conv-train"
    input_shape = CONV_INPUT_SHAPE
    SAMPLES_PER_CLASS = 64
    NOISE = 0.5
    EPOCHS = 12
    WARMUP_EPOCHS = 1
    BATCH = 16

    def _dataset(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 28])
        size = CONV_INPUT_SHAPE[1]
        base = rng.uniform(0.0, np.pi / 4)
        textures = []
        for i in range(4):
            textures.append(("known", _stripes(base + i * np.pi / 4, 0.18, rng.uniform(0, 2 * np.pi), size)))
        for i in range(2):
            textures.append(("novel", _stripes(base + (2 * i + 1) * np.pi / 8, 0.18,
                                               rng.uniform(0, 2 * np.pi), size)))
        for _ in range(4):
            textures.append(("reference", _stripes(rng.uniform(0, np.pi), 0.35,
                                                   rng.uniform(0, 2 * np.pi), size)))
        clusters = [{"mean": [round(float(v), 6) for v in mean.ravel()], "stddev": self.NOISE,
                     "count": self.SAMPLES_PER_CLASS, "role": role} for role, mean in textures]
        return {"synthetic": {"dimension": size * size, "seed": seed, "clusters": clusters},
                "reshape": list(CONV_INPUT_SHAPE),
                "split": {"train_fraction": 0.5, "seed": seed}}

    def configs(self, seed: int) -> dict[str, dict]:
        dataset = self._dataset(seed)
        backbone = {"input_shape": list(CONV_INPUT_SHAPE), "layers": [
            {"kind": "conv2d", "in_channels": 1, "out_channels": 8, "kernel": 5, "stride": 1},
            {"kind": "relu"}, {"kind": "global-average-pool"}]}
        return {CONFIG_NAME: _config(dataset, backbone, _training("dual-full", self.EPOCHS, self.BATCH, seed)),
                WARMUP_CONFIG_NAME: _config(dataset, backbone,
                                            _training("dual-full", self.WARMUP_EPOCHS, self.BATCH, seed))}

    @staticmethod
    def _calls(config: str, out: str) -> list[list[str]]:
        checkpoint = os.path.join(out, "checkpoint.nvfg")
        return ([["train", "--config", config, "--out", out]]
                + _eval_calls(config, checkpoint, out)
                + [["inspect-filters", "--checkpoint", checkpoint, "--out", out]])

    def setup_calls(self, d: str) -> list[list[str]]:
        return self._calls(os.path.join(d, WARMUP_CONFIG_NAME), os.path.join(d, "warmup"))

    def cycle_calls(self, d: str) -> list[list[str]]:
        return self._calls(os.path.join(d, CONFIG_NAME), os.path.join(d, "out"))


class EvalLarge(Workload):
    """Repeated eval -> calibrate cycles on the benchmark geometry at
    SAMPLES_PER_CLUSTER samples per cluster, against a dense checkpoint
    trained during set-up. The config is written from the public
    make_benchmark_spec, so it needs the program at input time."""

    name = "eval-large"
    input_shape = DENSE_INPUT_SHAPE
    trains_in_setup = True
    SAMPLES_PER_CLUSTER = 2000
    EPOCHS = 10

    def configs(self, seed: int) -> dict[str, dict]:
        from novnet.experiments import make_benchmark_spec

        spec = make_benchmark_spec(seed, samples_per_cluster=self.SAMPLES_PER_CLUSTER)
        clusters = [{"mean": list(c.mean), "stddev": c.stddev, "count": c.count, "role": c.role}
                    for c in spec.clusters]
        dataset = {"synthetic": {"dimension": spec.dimension, "seed": spec.seed, "clusters": clusters},
                   "split": {"train_fraction": 0.5, "seed": seed}}
        return {CONFIG_NAME: _config(dataset, _dense_backbone(), _training("dual-full", self.EPOCHS, 32, seed))}

    def setup_calls(self, d: str) -> list[list[str]]:
        config = os.path.join(d, CONFIG_NAME)
        checkpoint_dir = os.path.join(d, CHECKPOINT_DIR)
        return ([["train", "--config", config, "--out", checkpoint_dir]]
                + _eval_calls(config, os.path.join(checkpoint_dir, "checkpoint.nvfg"),
                              os.path.join(d, "warmup")))

    def cycle_calls(self, d: str) -> list[list[str]]:
        return _eval_calls(os.path.join(d, CONFIG_NAME),
                           os.path.join(d, CHECKPOINT_DIR, "checkpoint.nvfg"), os.path.join(d, "out"))


WORKLOADS: dict[str, Workload] = {w.name: w for w in (AblateDense(), ConvTrain(), EvalLarge())}


def work_sizes(workload: Workload, directory: str) -> dict[str, int]:
    """SGD steps per training call and samples scored per eval call, from
    the dataset sizes the program assembles, the epochs and batch size."""
    from novnet import experiments

    cfg = experiments.parse_experiment_config(os.path.join(directory, CONFIG_NAME))
    data = experiments.assemble_datasets(cfg.dataset)
    steps = cfg.training.epochs * math.ceil(len(data.train_T) / cfg.training.batch_size_T)
    scored = len(data.test_T) + len(data.novel)
    rows = workload.rows_per_call
    return {"steps": steps * rows, "scored": scored * rows,
            "n_known_test": len(data.test_T), "n_novel": len(data.novel),
            "n_known_classes": data.train_T.n_classes}
