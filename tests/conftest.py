import json
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from novnet import nn_core
from novnet.data_io import ClusterSpec, Dataset, SyntheticSpec, synth_gaussian
from novnet.dual_trainer import TrainingConfig, build_dual_model, train_lockstep
from novnet.experiments import parse_experiment_config
from novnet.nn_core import Dense, NetworkSpec, Relu

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def bundled(name: str) -> dict:
    with open(os.path.join(CONFIGS, name)) as fh:
        return json.load(fh)


def benchmark(**training):
    """configs/benchmark.json, with the given training fields replaced."""
    cfg = parse_experiment_config(os.path.join(CONFIGS, "benchmark.json"))
    return replace(cfg, training=replace(cfg.training, **training))


def small_synthetic(seed=0, per_cluster=60, dim=4):
    """Two tight known clusters, one novel, two reference clusters."""
    spec = SyntheticSpec(
        dimension=dim,
        clusters=(
            ClusterSpec((2.0,) + (0.0,) * (dim - 1), 0.4, per_cluster, "known"),
            ClusterSpec((0.0, 2.0) + (0.0,) * (dim - 2), 0.4, per_cluster, "known"),
            ClusterSpec((1.0, 1.0) + (0.0,) * (dim - 2), 0.4, per_cluster, "novel"),
            ClusterSpec((-2.0,) + (0.0,) * (dim - 1), 0.6, per_cluster, "reference"),
            ClusterSpec((0.0, -2.0) + (0.0,) * (dim - 2), 0.6, per_cluster, "reference"),
        ),
        seed=seed,
    )
    return synth_gaussian(spec)


def small_backbone(dim=4, width=8):
    return NetworkSpec((dim,), (Dense(dim, width), Relu()))


@pytest.fixture(scope="session")
def toy_datasets():
    return small_synthetic()


@pytest.fixture(scope="session")
def trained_dual_full(toy_datasets):
    known, novel, reference = toy_datasets
    cfg = TrainingConfig(mode="dual-full", epochs=20, lr=0.05, seed=3,
                         batch_size_T=16, batch_size_R=16)
    model = build_dual_model(small_backbone(), known.n_classes, reference.n_classes, seed=3)
    history = train_lockstep([model], [known], [reference], [cfg])[0]
    return model, history, toy_datasets


@pytest.fixture(scope="session")
def trained_ce_only(toy_datasets):
    known, novel, reference = toy_datasets
    cfg = TrainingConfig(mode="ce-only", epochs=20, lr=0.05, seed=3, batch_size_T=16)
    model = build_dual_model(small_backbone(), known.n_classes, 0, seed=3)
    history = train_lockstep([model], [known], [None], [cfg])[0]
    return model, history, toy_datasets


def rng_dataset(rng, n, dim, n_classes, names=None):
    """Random dense-labeled dataset for protocol tests."""
    return Dataset(rng.standard_normal((n, dim)), np.arange(n) % n_classes,
                   names or [f"c{i}" for i in range(n_classes)], provenance="test")


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes tracemalloc saw allocated during it."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def lone_forward(spec, params, batch, keep_cache=True):
    """nn_core.forward of one model, run as a one-row stack: its
    [n, ...] activations and the stack's cache, which lone_backward takes."""
    out, cache = nn_core.forward(spec, {k: v[None] for k, v in params.items()}, np.asarray(batch)[None],
                                 keep_cache)
    return out[0], cache


def lone_backward(spec, params, cache, dl_df, input_grad=True):
    """nn_core.backward of one model through lone_forward's cache: its
    gradients and [n, ...] input gradient (None without input_grad)."""
    grads, dx = nn_core.backward(spec, {k: v[None] for k, v in params.items()}, cache,
                                 np.asarray(dl_df)[None], input_grad)
    return {k: g[0] for k, g in grads.items()}, None if dx is None else dx[0]
