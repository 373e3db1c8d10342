import itertools
import json
import math
import os
import select
import signal
import struct
import threading
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CONFIGS, lone_backward, lone_forward, rng_dataset, small_backbone, small_synthetic
from novnet import dual_trainer, experiments, nn_core
from novnet.data_io import Dataset
from novnet.dual_trainer import (
    Checkpoint,
    EpochStats,
    TrainerState,
    TrainingConfig,
    build_dual_model,
    load_checkpoint,
    save_checkpoint,
    train_lockstep,
)
from novnet.errors import ConfigError, CorruptionError, DatasetError, FormatError, from_json, to_json
from novnet.losses import cross_entropy_terms, membership_terms
from novnet.nn_core import Dense, NetworkSpec, Relu


def copy_params(params):
    return {k: v.copy() for k, v in params.items()}


def backbone16():
    return NetworkSpec((4,), (Dense(4, 16), Relu()))


def reference_logits(model, x):
    """The reference head's output on a batch, through the scoring forward."""
    return lone_forward(model.head_R_spec, model.head_R, model.backbone_features(x), keep_cache=False)[0]


class TestBuildDualModel:
    def test_deterministic(self):
        a = build_dual_model(backbone16(), 4, 3, seed=5)
        b = build_dual_model(backbone16(), 4, 3, seed=5)
        for pa, pb in ((a.backbone, b.backbone), (a.head_T, b.head_T), (a.head_R, b.head_R)):
            assert pa.keys() == pb.keys()
            for k in pa:
                assert np.array_equal(pa[k], pb[k])

    def test_head_shape_contract(self):
        model = build_dual_model(backbone16(), 4, 3, seed=0)
        assert model.head_T["layer0.weight"].shape == (4, 16)
        assert model.head_R["layer0.weight"].shape == (3, 16)

    def test_heads_differ(self):
        model = build_dual_model(NetworkSpec((4,), (Dense(4, 8), Relu())), 3, 3, seed=1)
        assert not np.array_equal(model.head_T["layer0.weight"], model.head_R["layer0.weight"])

    def test_needs_two_known_classes(self):
        with pytest.raises(ConfigError):
            build_dual_model(backbone16(), 1, 3, seed=0)

    def test_no_reference_head_when_zero_classes(self):
        model = build_dual_model(backbone16(), 3, 0, seed=0)
        assert model.head_R is None

    def test_combined_head_width(self):
        model = build_dual_model(backbone16(), 3, 5, seed=0, combined_head=True)
        assert model.head_T["layer0.weight"].shape == (8, 16)
        assert model.head_R is None
        assert model.num_known == 3

    def test_backbone_must_be_flat(self):
        spec = NetworkSpec((1, 6, 6), (nn_core.Conv2d(1, 2, 3),))
        with pytest.raises(ConfigError):
            build_dual_model(spec, 2, 2, seed=0)

    @pytest.mark.parametrize("backbone, num_known, num_reference, combined", [
        (NetworkSpec((4,), (Dense(4, 10**18), Relu())), 3, 2, False),
        (NetworkSpec((1, 6, 6), (nn_core.Conv2d(1, 10**18, 3), Relu(), nn_core.GlobalAveragePool())), 3, 2, False),
        (backbone16(), 10**18, 2, False),
        (backbone16(), 3, 10**18, False),
        (backbone16(), 3, 10**18, True),
    ], ids=["dense-width", "conv-channels", "known-classes", "reference-classes", "combined-head"])
    def test_oversized_model_fails_before_drawing(self, monkeypatch, backbone, num_known, num_reference,
                                                  combined):
        def no_draws(*args, **kwargs):
            raise AssertionError("build_dual_model drew weights for a model beyond memory")

        monkeypatch.setattr(nn_core, "init_params", no_draws)
        with pytest.raises(ConfigError, match="parameters: .* bytes of physical memory"):
            build_dual_model(backbone, num_known, num_reference, seed=0, combined_head=combined)

    @pytest.mark.parametrize("spare", [0, -1], ids=["fits", "one-value-over"])
    def test_memory_bound_counts_every_parameter(self, monkeypatch, spare):
        """backbone16 with heads of 4 and 3 classes holds 80 + 68 + 51
        parameters: a memory of exactly that many float64 values fits."""
        count = (4 * 16 + 16) + (16 * 4 + 4) + (16 * 3 + 3)
        memory = 8 * (count + spare)
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}.get)
        if spare < 0:
            with pytest.raises(ConfigError, match=f"a model of {count} parameters"):
                build_dual_model(backbone16(), 4, 3, seed=0)
        else:
            assert build_dual_model(backbone16(), 4, 3, seed=0).head_R["layer0.weight"].shape == (3, 16)


def train_one_step(model, known, reference, **cfg_fields):
    """Train for exactly one step (one batch covers each dataset); returns
    the history row, which holds that step's losses."""
    cfg = TrainingConfig(mode="dual-full", epochs=1, momentum=0.0, seed=0,
                         batch_size_T=len(known), batch_size_R=len(reference), **cfg_fields)
    history = train_lockstep([model], [known], [reference], [cfg])[0]
    assert len(history) == 1
    return history[0]


class TestTrainStep:
    def test_zero_alphas_leave_head_T_unchanged(self):
        rng = np.random.default_rng(0)
        model = build_dual_model(backbone16(), 3, 2, seed=0)
        before = copy_params(model.head_T)
        train_one_step(model, rng_dataset(rng, 8, 4, 3), rng_dataset(rng, 8, 4, 2),
                       alpha1=0.0, alpha2=0.0, lr=0.1)
        assert all(np.array_equal(before[k], model.head_T[k]) for k in before)

    def test_cumulative_identity(self):
        rng = np.random.default_rng(1)
        model = build_dual_model(backbone16(), 3, 2, seed=1)
        m = train_one_step(model, rng_dataset(rng, 6, 4, 3), rng_dataset(rng, 6, 4, 2),
                           alpha1=0.7, alpha2=0.3)
        assert abs(m.cumulative - (m.loss_ce_R + 0.7 * m.loss_ce_T + 0.3 * m.loss_m_T)) < 1e-12

    @pytest.mark.parametrize("mode", ["ce-only", "ce+membership", "dual-ce", "dual-full"])
    def test_cumulative_identity_in_a_mixed_stack(self, mode):
        """One step of a stack of the four ablation modes: each row's
        cumulative loss weighs its own terms, with alpha2 where its mode
        uses the membership loss and no term a mode does not compute."""
        rng = np.random.default_rng(1)
        known, reference = rng_dataset(rng, 6, 4, 3), rng_dataset(rng, 6, 4, 2)
        modes = ("ce-only", "ce+membership", "dual-ce", "dual-full")
        cfgs = [TrainingConfig(mode=m, epochs=1, seed=0, batch_size_T=6, batch_size_R=6,
                               alpha1=0.7, alpha2=0.3) for m in modes]
        models = [build_dual_model(backbone16(), 3, 2 if cfg.uses_reference else 0, seed=1) for cfg in cfgs]
        histories = train_lockstep(models, [known] * len(modes),
                                   [reference if cfg.uses_reference else None for cfg in cfgs], cfgs)
        [m] = histories[modes.index(mode)]
        membership, dual = mode in ("ce+membership", "dual-full"), mode in ("dual-ce", "dual-full")
        assert (m.loss_m_T != 0) == membership and (m.loss_ce_R != 0) == dual
        alpha2 = 0.3 if membership else 0.0
        assert abs(m.cumulative - (m.loss_ce_R + 0.7 * m.loss_ce_T + alpha2 * m.loss_m_T)) < 1e-12

    def test_backbone_gradient_is_sum_of_branches(self):
        rng = np.random.default_rng(2)
        model = build_dual_model(backbone16(), 3, 2, seed=2)
        known, reference = rng_dataset(rng, 5, 4, 3), rng_dataset(rng, 7, 4, 2)
        lam, alpha1, alpha2, lr = 5.0, 1.0, 1.0, 0.05

        # independent two-pass decomposition oracle
        def branch_grads(head_spec, head, dataset, upstream_fn):
            x, y = dataset.x, dataset.y
            feat, cache_b = lone_forward(model.backbone_spec, model.backbone, x)
            f, cache_h = lone_forward(head_spec, head, feat)
            _, dfeat = lone_backward(head_spec, head, cache_h, upstream_fn(f, y))
            grads, _ = lone_backward(model.backbone_spec, model.backbone, cache_b, dfeat)
            return grads

        def t_upstream(f, y):
            return alpha1 * cross_entropy_terms(f, y)[1] + alpha2 * membership_terms(f, y, lam)[1]

        g_t = branch_grads(model.head_T_spec, model.head_T, known, t_upstream)
        g_r = branch_grads(model.head_R_spec, model.head_R, reference,
                           lambda f, y: cross_entropy_terms(f, y)[1])
        before = copy_params(model.backbone)
        train_one_step(model, known, reference, lam=lam, alpha1=alpha1, alpha2=alpha2, lr=lr)
        for k in before:
            step = (before[k] - model.backbone[k]) / lr  # momentum 0: step = grads
            assert np.max(np.abs(step - (g_t[k] + g_r[k]))) < 1e-10


class TestTrain:
    def test_zero_lr_keeps_parameters(self, toy_datasets):
        known, _, reference = toy_datasets
        model = build_dual_model(small_backbone(), known.n_classes, reference.n_classes, seed=0)
        before = (copy_params(model.backbone), copy_params(model.head_T), copy_params(model.head_R))
        cfg = TrainingConfig(mode="dual-full", epochs=3, lr=0.0, seed=0)
        history = train_lockstep([model], [known], [reference], [cfg])[0]
        for prev, now in zip(before, (model.backbone, model.head_T, model.head_R)):
            for k in prev:
                assert np.array_equal(prev[k], now[k])
        assert len(history) == 3

    def test_zero_epochs(self, toy_datasets):
        known, _, reference = toy_datasets
        model = build_dual_model(small_backbone(), known.n_classes, reference.n_classes, seed=0)
        before = copy_params(model.backbone)
        cfg = TrainingConfig(mode="dual-full", epochs=0, seed=0)
        history = train_lockstep([model], [known], [reference], [cfg])[0]
        assert history == []
        assert all(np.array_equal(before[k], model.backbone[k]) for k in before)

    @pytest.mark.parametrize("seed", range(5))
    def test_loss_decreases_on_separable_data(self, seed):
        rng = np.random.default_rng(seed)
        labels = np.arange(40) % 2
        centers = np.where(labels[:, None] == 1, [3.0, 0.0], [-3.0, 0.0])
        ds = Dataset(centers + 0.3 * rng.standard_normal((40, 2)), labels, ["neg", "pos"], "sep")
        model = build_dual_model(NetworkSpec((2,), (Dense(2, 8), Relu())), 2, 0, seed=seed)
        cfg = TrainingConfig(mode="ce-only", epochs=10, lr=0.05, seed=seed, batch_size_T=8)
        history = train_lockstep([model], [ds], [None], [cfg])[0]
        assert history[-1].loss_ce_T < history[0].loss_ce_T

    def test_shared_backbone_instance(self, trained_dual_full):
        model, _, datasets = trained_dual_full
        known, _, _ = datasets
        x = known.x[:4]
        f_t_before = model.known_logits(x)
        f_r_before = reference_logits(model, x)
        perturbed = {k: v + 0.1 for k, v in model.backbone.items()}
        original, model.backbone = model.backbone, perturbed
        try:
            assert not np.array_equal(model.known_logits(x), f_t_before)
            assert not np.array_equal(reference_logits(model, x), f_r_before)
        finally:
            model.backbone = original

    def test_history_components_finite(self, trained_dual_full):
        _, history, _ = trained_dual_full
        for h in history:
            for v in (h.loss_ce_R, h.loss_ce_T, h.loss_m_T, h.cumulative):
                assert np.isfinite(v)

    def test_mode_dataset_consistency(self, toy_datasets):
        known, _, reference = toy_datasets
        model = build_dual_model(small_backbone(), known.n_classes, 0, seed=0)
        with pytest.raises(ConfigError):
            train_lockstep([model], [known], [reference], [TrainingConfig(mode="ce-only", epochs=1, seed=0)])
        model2 = build_dual_model(small_backbone(), known.n_classes, reference.n_classes, seed=0)
        with pytest.raises(ConfigError):
            train_lockstep([model2], [known], [None], [TrainingConfig(mode="dual-full", epochs=1, seed=0)])

    def test_finetune_cc_needs_reference_data(self, toy_datasets):
        """finetune-cC trains on T and R together, so it refuses to train
        without R even when the combined head holds only the known classes."""
        known, _, _ = toy_datasets
        model = build_dual_model(small_backbone(), known.n_classes, 0, seed=0, combined_head=True)
        with pytest.raises(ConfigError, match="'finetune-cC' needs a reference dataset"):
            train_lockstep([model], [known], [None], [TrainingConfig(mode="finetune-cC", epochs=1, seed=0)])

    def test_ce_only_equals_plain_trainer(self, toy_datasets):
        known, _, _ = toy_datasets
        cfg = TrainingConfig(mode="ce-only", epochs=4, lr=0.05, momentum=0.9,
                             batch_size_T=16, seed=11)
        trained = build_dual_model(small_backbone(), known.n_classes, 0, seed=11)
        train_lockstep([trained], [known], [None], [cfg])

        # plain single-branch trainer written from scratch, with its own
        # SGD-with-momentum update
        backbone_spec = small_backbone()
        head_spec = NetworkSpec((8,), (Dense(8, known.n_classes),))
        backbone = nn_core.init_params(backbone_spec, [11, 0])
        head = nn_core.init_params(head_spec, [11, 1])
        velocity = {}

        def sgd(prefix, params, grads):
            updated = {}
            for name, g in grads.items():
                key = f"{prefix}.{name}"
                velocity[key] = g if key not in velocity else 0.9 * velocity[key] + g
                updated[name] = params[name] - 0.05 * velocity[key]
            return updated

        x_all = known.x
        y_all = known.y
        rng = np.random.default_rng([11, 3])
        for _ in range(4):
            perm = rng.permutation(len(y_all))
            for start in range(0, len(y_all), 16):
                idx = perm[start:start + 16]
                feat, cache_b = lone_forward(backbone_spec, backbone, x_all[idx])
                f, cache_h = lone_forward(head_spec, head, feat)
                _, ce_grad = cross_entropy_terms(f, y_all[idx])
                head_grads, dfeat = lone_backward(head_spec, head, cache_h, ce_grad)
                bb_grads, _ = lone_backward(backbone_spec, backbone, cache_b, dfeat)
                backbone = sgd("backbone", backbone, bb_grads)
                head = sgd("head", head, head_grads)
        for k in backbone:
            assert np.array_equal(trained.backbone[k], backbone[k])
        for k in head:
            assert np.array_equal(trained.head_T[k], head[k])

    def test_finetune_cc_trains_on_union(self, toy_datasets):
        known, _, reference = toy_datasets
        cfg = TrainingConfig(mode="finetune-cC", epochs=3, lr=0.05, seed=5, batch_size_T=16)
        model = build_dual_model(small_backbone(), known.n_classes, reference.n_classes,
                                 seed=5, combined_head=True)
        history = train_lockstep([model], [known], [reference], [cfg])[0]
        assert model.head_T["layer0.weight"].shape[0] == known.n_classes + reference.n_classes
        assert all(np.isfinite(h.loss_ce_T) for h in history)

    def test_divergence_raises(self, toy_datasets):
        from novnet.errors import DivergenceError
        known, _, reference = toy_datasets
        model = build_dual_model(small_backbone(), known.n_classes, reference.n_classes, seed=0)
        cfg = TrainingConfig(mode="dual-full", epochs=50, lr=1e9, seed=0)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match=r"at epoch \d+, step \d+$"):
            train_lockstep([model], [known], [reference], [cfg])

    def test_divergence_in_the_last_update_raises(self, toy_datasets):
        """No later step's loss check sees the last update, so training
        checks the parameters it ends with."""
        from novnet.errors import DivergenceError
        known, _, _ = toy_datasets
        large = Dataset(known.x * 100.0, known.y, list(known.class_names), "large")
        cfg = TrainingConfig(mode="ce-only", epochs=1, lr=1e308, momentum=0.0, batch_size_T=len(known))
        model = build_dual_model(small_backbone(), known.n_classes, 0, seed=0)
        with pytest.raises(DivergenceError, match="non-finite parameter .* at epoch 0, step 0$"):
            train_lockstep([model], [large], [None], [cfg])

    def test_reference_draw_bounded_before_drawing(self, toy_datasets, monkeypatch):
        """An epoch's reference draw larger than physical memory is
        rejected from the sizes alone: no index is drawn."""
        known, _, reference = toy_datasets
        monkeypatch.setattr(dual_trainer._IndexStream, "take", None)
        cfg = TrainingConfig(mode="dual-full", epochs=1, batch_size_R=10**15, seed=0)
        model = build_dual_model(small_backbone(), known.n_classes, reference.n_classes, seed=0)
        with pytest.raises(DatasetError, match="'batch_size_R' 1000000000000000 .* bytes of physical memory"):
            train_lockstep([model], [known], [reference], [cfg])

    def test_index_stream_holds_eight_bytes_per_index(self):
        """The reference-draw bound counts 8 bytes per drawn index, so the
        stream holds its indices as int64, during the draw and after."""
        stream = dual_trainer._IndexStream(1600, np.random.default_rng(0))
        k = 10**5
        tracemalloc.start()
        try:
            indices = stream.take(k)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(indices) == k
        assert held / k < 9 and peak / k < 9, (held / k, peak / k)

    def test_reference_draw_bound_counts_one_step_batch(self, toy_datasets, monkeypatch):
        """The bound counts an epoch's reference indices and one step's
        gathered batch, which are all that exist at once: many small
        steps run where every step's batch together would not fit."""
        known, _, reference = toy_datasets
        b_r, steps, sample_values = 64, len(known), reference.x.shape[1]
        memory = 2 * 8 * b_r * (steps + sample_values)
        assert 8 * steps * b_r * sample_values > memory
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}.get)
        cfg = TrainingConfig(mode="dual-full", epochs=1, batch_size_T=1, batch_size_R=b_r, seed=0)
        model = build_dual_model(small_backbone(), known.n_classes, reference.n_classes, seed=0)
        history = train_lockstep([model], [known], [reference], [cfg])[0]
        assert len(history) == 1


def parameter_bytes(models):
    """Every parameter of every model, as bytes, in a fixed order."""
    return [value.tobytes() for model in models for group in (model.backbone, model.head_T, model.head_R)
            if group is not None for value in group.values()]


class TestEpochPrefix:
    """Training k epochs gives, bit for bit, the parameters and the
    history prefix that a 5-epoch run with the same seeds has after
    epoch k, so the state after epoch k is read by training k epochs."""

    @staticmethod
    def train(modes, epochs, datasets, monkeypatch=None):
        """Train one row per mode for `epochs` epochs in one stack; returns
        the histories, the final parameters and, when `monkeypatch` is
        given, the parameters as each epoch closed."""
        known, _, reference = datasets
        cfgs = [TrainingConfig(mode=mode, epochs=epochs, lr=0.05, seed=7 + i, batch_size_T=16, batch_size_R=16)
                for i, mode in enumerate(modes)]
        models = [build_dual_model(small_backbone(), known.n_classes,
                                   reference.n_classes if cfg.uses_reference else 0, seed=cfg.seed)
                  for cfg in cfgs]
        closed = {}
        if monkeypatch is not None:
            # train_lockstep builds each row's EpochStats once the epoch's
            # last update is applied; the models' dicts view the stack.
            def epoch_stats(epoch, *losses):
                closed[epoch] = parameter_bytes(models)
                return EpochStats(epoch, *losses)

            monkeypatch.setattr(dual_trainer, "EpochStats", epoch_stats)
        histories = train_lockstep(models, [known] * len(modes),
                                   [reference if cfg.uses_reference else None for cfg in cfgs], cfgs)
        return [[to_json(h) for h in history] for history in histories], parameter_bytes(models), closed

    @pytest.mark.parametrize("modes", [("dual-full",), experiments.ABLATION_MODES],
                             ids=["lone-dual-full", "mixed-mode-stack"])
    def test_k_epochs_are_a_prefix_of_five(self, toy_datasets, monkeypatch, modes):
        with monkeypatch.context() as patch:
            full_histories, full_params, closed = self.train(modes, 5, toy_datasets, patch)
        assert sorted(closed) == [0, 1, 2, 3, 4] and closed[4] == full_params
        for k in range(1, 6):
            histories, params, _ = self.train(modes, k, toy_datasets)
            assert params == closed[k - 1], k
            assert histories == [history[:k] for history in full_histories], k


class TestTrainingConfig:
    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            TrainingConfig(mode="bogus")

    def test_dict_round_trip(self):
        cfg = TrainingConfig(mode="dual-ce", lam=2.5, alpha1=0.5, epochs=7, seed=9)
        again = from_json(TrainingConfig, to_json(cfg), "training section")
        assert again == cfg
        assert to_json(cfg)["lambda"] == 2.5

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            from_json(TrainingConfig, {"mode": "ce-only", "bogus": 1}, "training section")

    @pytest.mark.parametrize("section", [{"lam": 0.5}, {"lambda": 5.0, "lam": 0.5}])
    def test_lam_is_an_unknown_key(self, section):
        """`lambda` is the only spelling: `lam` is not read, and not dropped."""
        with pytest.raises(ConfigError, match=r"unknown keys \['lam'\]"):
            from_json(TrainingConfig, section, "training section")

    @pytest.mark.parametrize("mode,ignored", [("dual-ce", True), ("dual-full", False)])
    def test_alpha2_weighs_membership_modes_only(self, mode, ignored):
        """dual-ce trains bit for bit alike at any alpha2; dual-full does not."""
        known, _, reference = small_synthetic(seed=2)
        runs = []
        for alpha2 in (3.0, 0.0):
            model = build_dual_model(small_backbone(), known.n_classes, reference.n_classes, seed=2)
            cfg = TrainingConfig(mode=mode, alpha2=alpha2, epochs=2, lr=0.05, seed=2, batch_size_T=16)
            history = train_lockstep([model], [known], [reference], [cfg])[0]
            runs.append(([p.tobytes() for p in (*model.backbone.values(), *model.head_T.values())],
                         [to_json(h) for h in history]))
        assert (runs[0] == runs[1]) == ignored

    @pytest.mark.parametrize("lam", [0.0, math.nan])
    def test_lambda_positive(self, lam):
        with pytest.raises(ConfigError, match="lambda"):
            TrainingConfig(lam=lam)

    @pytest.mark.parametrize("field", ["lam", "lr", "alpha1", "alpha2", "momentum"])
    def test_nan_rejected(self, field):
        with pytest.raises(ConfigError):
            TrainingConfig(**{field: float("nan")})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            TrainingConfig(seed=-1)

    @pytest.mark.parametrize("key,value", [
        ("lr", -0.1), ("momentum", 1.0),
        ("epochs", "x"), ("lambda", "5"), ("lr", None), ("alpha1", True), ("momentum", [0.5]),
        ("lambda", float("inf")), pytest.param("lr", 10**400, id="lr-int-beyond-float"),
        ("epochs", 2.5), ("batch_size_T", 3.5), ("batch_size_R", None), ("seed", 1.5), ("epochs", True),
        ("alpha1", -0.5), ("alpha2", -0.5),
        # numpy scalars that the checkpoint's JSON metadata cannot encode
        pytest.param("lr", np.float32(0.1), id="lr-float32"),
        pytest.param("epochs", np.int64(2), id="epochs-int64"),
    ])
    def test_bad_values_rejected(self, key, value):
        with pytest.raises(ConfigError, match="lr|learning rate" if key == "lr" else key):
            from_json(TrainingConfig, {key: value}, "training section")

    def test_values_are_not_coerced(self):
        cfg = from_json(TrainingConfig, {"lr": 1, "lambda": 5, "momentum": 0}, "training section")
        assert to_json(cfg) == {**to_json(TrainingConfig()), "lr": 1, "lambda": 5, "momentum": 0}
        assert type(to_json(cfg)["lr"]) is int

    json_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
        max_leaves=4)
    training_keys = st.sampled_from(sorted(to_json(TrainingConfig())) + ["lam", "bogus"])

    @settings(max_examples=300, deadline=None)
    @given(d=st.dictionaries(training_keys, json_values | st.sampled_from(["dual-ce", 0.5, 3]), max_size=6)
           | json_values)
    def test_any_training_dict_validates_or_raises_config_error(self, d):
        try:
            cfg = from_json(TrainingConfig, d, "training section")
        except ConfigError:
            return
        assert from_json(TrainingConfig, to_json(cfg), "training section") == cfg


class TestCheckpoint:
    def make_model(self, c=4, ref=8, combined=False):
        return build_dual_model(backbone16(), c, ref, seed=13, combined_head=combined)

    def test_round_trip_bitwise(self, tmp_path):
        model = self.make_model()
        cfg = TrainingConfig(mode="dual-full", seed=13)
        path = tmp_path / "model.nvfg"
        save_checkpoint(model, cfg, path, epoch=3, metrics={"cumulative": 1.5})
        ckpt = load_checkpoint(path)
        assert isinstance(ckpt, Checkpoint)
        assert ckpt.epoch == 3
        assert ckpt.config == cfg
        probe = np.random.default_rng(0).standard_normal((5, 4))
        assert np.array_equal(ckpt.model.known_logits(probe), model.known_logits(probe))
        assert np.array_equal(reference_logits(ckpt.model, probe), reference_logits(model, probe))

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.nvfg"
        model = self.make_model()
        save_checkpoint(model, TrainingConfig(seed=0), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "bad.nvfg"
        save_checkpoint(self.make_model(), TrainingConfig(seed=0), path)
        data = bytearray(path.read_bytes())
        data[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.nvfg"
        save_checkpoint(self.make_model(), TrainingConfig(seed=0), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 15])
        with pytest.raises(CorruptionError):
            load_checkpoint(path)

    def test_shape_audit_after_reload(self, tmp_path):
        model = self.make_model(c=4, ref=8)
        path = tmp_path / "m.nvfg"
        save_checkpoint(model, TrainingConfig(seed=0), path)
        ckpt = load_checkpoint(path)
        assert ckpt.model.head_T["layer0.weight"].shape == (4, 16)
        assert ckpt.model.head_R["layer0.weight"].shape == (8, 16)
        assert ckpt.model.num_known == 4
        assert ckpt.model.num_reference == 8

    def saved_bytes(self, tmp_path):
        path = tmp_path / "m.nvfg"
        save_checkpoint(self.make_model(), TrainingConfig(seed=0), path)
        return path, path.read_bytes()

    def test_huge_metadata_length(self, tmp_path):
        path, data = self.saved_bytes(tmp_path)
        path.write_bytes(data[:8] + (2 ** 62).to_bytes(8, "little") + data[16:])
        with pytest.raises(CorruptionError):
            load_checkpoint(path)

    def test_missing_metadata_key(self, tmp_path):
        path, data = self.saved_bytes(tmp_path)
        meta_len = int.from_bytes(data[8:16], "little")
        metadata = json.loads(data[16:16 + meta_len])
        del metadata["epoch"]
        meta = json.dumps(metadata, sort_keys=True).encode()
        path.write_bytes(data[:8] + len(meta).to_bytes(8, "little") + meta + data[16 + meta_len:])
        with pytest.raises(CorruptionError, match="epoch"):
            load_checkpoint(path)

    def test_unknown_tensor_record(self, tmp_path):
        path, data = self.saved_bytes(tmp_path)
        name = b"head_X.layer0.bias"
        record = (struct.pack("<I", len(name)) + name + struct.pack("<IQ", 1, 2)
                  + np.zeros(2, dtype="<f8").tobytes())
        path.write_bytes(data + record)
        with pytest.raises(FormatError, match="head_X"):
            load_checkpoint(path)

    def test_reordered_records_fail_closed(self, tmp_path):
        """save_checkpoint writes the records in one order, so a file with
        two whole records swapped does not load, though every record in
        it names a parameter of the right shape."""
        path, data = self.saved_bytes(tmp_path)
        records, at = {}, 16 + int.from_bytes(data[8:16], "little")
        while at < len(data):
            (name_len,) = struct.unpack_from("<I", data, at)
            name = data[at + 4:at + 4 + name_len].decode()
            (rank,) = struct.unpack_from("<I", data, at + 4 + name_len)
            dims = struct.unpack_from(f"<{rank}Q", data, at + 8 + name_len)
            end = at + 8 + name_len + 8 * rank + 8 * math.prod(dims)
            records[name], at = data[at:end], end
        weight, bias = records["head_T.layer0.weight"], records["head_T.layer0.bias"]
        assert weight + bias in data
        path.write_bytes(data.replace(weight + bias, bias + weight))
        with pytest.raises(CorruptionError, match="not the bytes save_checkpoint writes"):
            load_checkpoint(path)

    def test_undecodable_parameter_name(self, tmp_path):
        path, data = self.saved_bytes(tmp_path)
        meta_len = int.from_bytes(data[8:16], "little")
        name_at = 16 + meta_len + 4
        path.write_bytes(data[:name_at] + b"\xff" + data[name_at + 1:])
        with pytest.raises(CorruptionError):
            load_checkpoint(path)

    def test_deeply_nested_metadata_is_corruption(self, tmp_path):
        path, data = self.saved_bytes(tmp_path)
        meta = b"[" * 10**5 + b"]" * 10**5
        path.write_bytes(data[:8] + len(meta).to_bytes(8, "little") + meta)
        with pytest.raises(CorruptionError, match="unreadable metadata"):
            load_checkpoint(path)

    def test_invalid_metadata_values_are_corruption(self, tmp_path):
        path, data = self.saved_bytes(tmp_path)
        meta_len = int.from_bytes(data[8:16], "little")
        for key, value in (("num_known", 1), ("config", {"mode": "bogus"})):
            metadata = json.loads(data[16:16 + meta_len])
            metadata[key] = value
            meta = json.dumps(metadata, sort_keys=True).encode()
            path.write_bytes(data[:8] + len(meta).to_bytes(8, "little") + meta + data[16 + meta_len:])
            with pytest.raises(CorruptionError):
                load_checkpoint(path)

    @pytest.mark.parametrize("value", [0, 20.9, True])
    def test_invalid_layer_width_is_corruption(self, tmp_path, value):
        path, data = self.saved_bytes(tmp_path)
        meta_len = int.from_bytes(data[8:16], "little")
        metadata = json.loads(data[16:16 + meta_len])
        metadata["backbone"]["layers"][0]["out"] = value
        meta = json.dumps(metadata, sort_keys=True).encode()
        path.write_bytes(data[:8] + len(meta).to_bytes(8, "little") + meta + data[16 + meta_len:])
        with pytest.raises(CorruptionError, match="'out' must be an integer >= 1"):
            load_checkpoint(path)

    def test_non_canonical_metadata_rejected(self, tmp_path):
        path, data = self.saved_bytes(tmp_path)
        meta_len = int.from_bytes(data[8:16], "little")
        meta = data[16:16 + meta_len].replace(b'"epoch": 0', b'"epoch": 0.0')
        path.write_bytes(data[:8] + len(meta).to_bytes(8, "little") + meta + data[16 + meta_len:])
        with pytest.raises(CorruptionError):
            load_checkpoint(path)

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_file_round_trips_or_fails_closed(self, tmp_path, data):
        path, original = self.saved_bytes(tmp_path)
        if data.draw(st.booleans(), label="truncate"):
            damaged = original[:data.draw(st.integers(0, len(original)), label="length")]
        else:
            at = data.draw(st.integers(0, len(original) - 1), label="offset")
            mask = data.draw(st.integers(1, 255), label="xor")
            damaged = original[:at] + bytes([original[at] ^ mask]) + original[at + 1:]
        path.write_bytes(damaged)
        try:
            ckpt = load_checkpoint(path)
        except FormatError:
            return
        again = tmp_path / "again.nvfg"
        save_checkpoint(ckpt.model, ckpt.config, again, epoch=ckpt.epoch, metrics=ckpt.metrics)
        assert again.read_bytes() == damaged

    def test_load_draws_no_initial_weights(self, tmp_path, monkeypatch):
        conv = NetworkSpec((1, 6, 6), (nn_core.Conv2d(1, 3, 3), Relu(), nn_core.GlobalAveragePool()))
        models = {"dense": self.make_model(), "conv": build_dual_model(conv, 3, 2, seed=4)}
        paths = {}
        for name, model in models.items():
            paths[name] = tmp_path / f"{name}.nvfg"
            save_checkpoint(model, TrainingConfig(seed=4), paths[name], epoch=2, metrics={"cumulative": 0.5})

        def no_draws(*args, **kwargs):
            raise AssertionError("load_checkpoint drew initial weights")

        monkeypatch.setattr(nn_core, "init_params", no_draws)
        for name, path in paths.items():
            ckpt = load_checkpoint(path)
            again = tmp_path / f"{name}-again.nvfg"
            save_checkpoint(ckpt.model, ckpt.config, again, epoch=ckpt.epoch, metrics=ckpt.metrics)
            assert again.read_bytes() == path.read_bytes(), name

    def test_combined_head_round_trip(self, tmp_path):
        model = self.make_model(c=3, ref=2, combined=True)
        path = tmp_path / "m.nvfg"
        save_checkpoint(model, TrainingConfig(mode="finetune-cC", seed=0), path)
        ckpt = load_checkpoint(path)
        assert ckpt.model.combined_head
        assert ckpt.model.head_R is None
        assert ckpt.model.head_T["layer0.weight"].shape == (5, 16)


class TestWeightSharingInvariant:
    def test_branches_see_identical_features_every_epoch(self, toy_datasets):
        """After each of 5 epochs (read by training k = 1..5 epochs from one
        seed, see TestEpochPrefix), the scoring and training forwards of
        the backbone give the same bits."""
        known, _, reference = toy_datasets
        probe = known.x[:6]
        mismatches = []
        for epochs in range(1, 6):
            model = build_dual_model(small_backbone(), known.n_classes, reference.n_classes, seed=7)
            cfg = TrainingConfig(mode="dual-full", epochs=epochs, seed=7)
            train_lockstep([model], [known], [reference], [cfg])
            f_scored = model.backbone_features(probe)
            f_trained = lone_forward(model.backbone_spec, model.backbone, probe)[0]
            if not np.array_equal(f_scored, f_trained):
                mismatches.append(epochs - 1)
        assert mismatches == []


def config_runs(config, modes, reps):
    """(ExperimentConfig, ExperimentData) per row: every mode on each rep's
    data draw, with distinct training seeds."""
    cfg = experiments.parse_experiment_config(os.path.join(CONFIGS, config))
    runs = []
    for rep in range(reps):
        data = experiments.assemble_datasets(experiments._reseed_dataset_section(cfg.dataset, rep))
        for index, mode in enumerate(modes):
            training = replace(cfg.training, mode=mode, seed=10 * rep + index)
            runs.append((replace(cfg, training=training), data))
    return runs


def untrained(cfg, data):
    reference = data.reference if cfg.training.uses_reference else None
    model = build_dual_model(cfg.backbone, data.train_T.n_classes,
                             reference.n_classes if reference is not None else 0, seed=cfg.training.seed,
                             combined_head=cfg.training.mode == "finetune-cC")
    return model, reference


def assert_trained_as_alone(model, history, alone, dataset_T, dataset_R, cfg):
    """`model` and `history`, trained in a stack, equal what training the
    untrained `alone` by itself on the same data and config gives."""
    alone_history = train_lockstep([alone], [dataset_T], [dataset_R], [cfg])[0]
    for group in ("backbone", "head_T", "head_R"):
        want, got = getattr(alone, group), getattr(model, group)
        assert (want is None) == (got is None)
        if want is not None:
            assert want.keys() == got.keys()
            assert all(want[k].tobytes() == got[k].tobytes() for k in want), (cfg, group)
    assert [to_json(h) for h in history] == [to_json(h) for h in alone_history]


SCHEDULE_FIELDS = [f.name for f in fields(TrainingConfig) if f.name not in ("mode", "seed")]


class TestLockstep:
    def assert_rows_match_lone_runs(self, runs):
        """Training the runs in one stack (experiments.train_models) gives
        each row the parameters and history of training it alone."""
        stacked = experiments.train_models(runs)
        for (cfg, data), (model, history) in zip(runs, stacked):
            alone, reference = untrained(cfg, data)
            assert_trained_as_alone(model, history, alone, data.train_T, reference, cfg.training)

    @pytest.mark.parametrize("modes", [experiments.ABLATION_MODES, ("ce-only", "dual-ce"),
                                       ("dual-ce", "dual-full")],
                             ids=["all-modes", "no-membership-row", "every-row-dual"])
    def test_ablation_modes_over_two_reps_match_lone_training(self, modes):
        self.assert_rows_match_lone_runs(config_runs("benchmark-quick.json", modes, reps=2))

    def test_every_order_of_the_modes_matches_lone_training(self):
        """The rows keep the caller's order; in any order of the modes each
        row trains as it would alone, and histories come back in that order."""
        runs = config_runs("benchmark-quick.json", experiments.ABLATION_MODES, reps=1)
        for order in itertools.permutations(runs):
            self.assert_rows_match_lone_runs(list(order))

    def test_conv_rows_match_lone_training(self):
        self.assert_rows_match_lone_runs(config_runs("conv-demo.json", ("ce-only", "dual-full"), reps=1))

    @pytest.mark.parametrize("config, reps", [("benchmark-quick.json", 2), ("conv-demo.json", 1)])
    def test_finetune_rows_match_lone_training(self, config, reps):
        """Two finetune-cC rows per rep: rows on one data draw, and on
        different draws, stack as they train alone."""
        self.assert_rows_match_lone_runs(config_runs(config, ("finetune-cC", "finetune-cC"), reps=reps))

    @pytest.mark.parametrize("mismatch", ["train_size", *SCHEDULE_FIELDS])
    def test_rows_must_share_the_step_schedule(self, toy_datasets, mismatch):
        known, _, _ = toy_datasets
        cfg = TrainingConfig(mode="ce-only", epochs=2, seed=0)
        datasets = [known, known]
        cfgs = [cfg, replace(cfg, seed=1)]
        if mismatch == "train_size":
            datasets[1] = Dataset(known.x[:-2], known.y[:-2], list(known.class_names), "subset")
        else:
            value = getattr(cfg, mismatch)
            cfgs[1] = replace(cfgs[1], **{mismatch: value + 1 if isinstance(value, int) else value / 2})
        models = [build_dual_model(small_backbone(), known.n_classes, 0, seed=c.seed) for c in cfgs]
        with pytest.raises(ConfigError, match="lockstep stack"):
            train_lockstep(models, datasets, [None, None], cfgs)

    @pytest.mark.parametrize("mode", experiments.ABLATION_MODES)
    def test_finetune_rows_stack_only_with_each_other(self, toy_datasets, mode):
        """The other row trains on as many samples per epoch as the
        finetune-cC row, so only its head (c, not c + C outputs) differs."""
        known, _, reference = toy_datasets
        doubled = Dataset(np.concatenate([known.x] * 2), np.concatenate([known.y] * 2),
                          list(known.class_names), "doubled")
        assert len(doubled) == len(known) + len(reference)
        other = TrainingConfig(mode=mode, epochs=2, seed=1)
        other_reference = reference if other.uses_reference else None
        models = [build_dual_model(small_backbone(), known.n_classes, reference.n_classes, seed=0,
                                   combined_head=True),
                  build_dual_model(small_backbone(), known.n_classes,
                                   reference.n_classes if other_reference else 0, seed=1)]
        with pytest.raises(ConfigError, match="lockstep stack"):
            train_lockstep(models, [known, doubled], [reference, other_reference],
                           [replace(other, mode="finetune-cC", seed=0), other])

    @staticmethod
    def finetune_rows(known, references):
        return [build_dual_model(small_backbone(), known.n_classes, r.n_classes, seed=seed, combined_head=True)
                for seed, r in enumerate(references)]

    @pytest.mark.parametrize("epochs", [0, 2])
    def test_finetune_rows_must_share_the_epoch_length(self, toy_datasets, epochs):
        """Equal T, reference sets 6 samples apart: a finetune-cC epoch runs
        over T and R, so the rows' epochs differ in length."""
        known, _, reference = toy_datasets
        short = Dataset(reference.x[:-6], reference.y[:-6], list(reference.class_names), "short")
        references = [reference, short]
        cfgs = [TrainingConfig(mode="finetune-cC", epochs=epochs, seed=seed) for seed in (0, 1)]
        with pytest.raises(ConfigError, match="lockstep stack"):
            train_lockstep(self.finetune_rows(known, references), [known, known], references, cfgs)

    def test_finetune_rows_of_one_epoch_length_match_lone_training(self, toy_datasets):
        """Row 1 has 6 fewer T samples and 6 more reference samples than
        row 0: the rows share the epoch length and stack."""
        known, _, reference = toy_datasets
        datasets = [known, Dataset(known.x[6:], known.y[6:], list(known.class_names), "short")]
        references = [Dataset(reference.x[6:], reference.y[6:], list(reference.class_names), "short"), reference]
        cfgs = [TrainingConfig(mode="finetune-cC", epochs=2, seed=seed, batch_size_T=16) for seed in (0, 1)]
        models = self.finetune_rows(known, references)
        histories = train_lockstep(models, datasets, references, cfgs)
        for args in zip(models, histories, self.finetune_rows(known, references), datasets, references, cfgs):
            assert_trained_as_alone(*args)

    def test_divergence_names_the_stacked_model(self, toy_datasets):
        from novnet.errors import DivergenceError
        known, _, _ = toy_datasets
        huge = Dataset(known.x * 1e300, known.y, list(known.class_names), "huge")
        cfgs = [TrainingConfig(mode="ce-only", epochs=1, seed=seed) for seed in (0, 1)]
        models = [build_dual_model(small_backbone(), known.n_classes, 0, seed=c.seed) for c in cfgs]
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="stacked model 1"):
            train_lockstep(models, [known, huge], [None, None], cfgs)


    def test_divergence_names_the_callers_row(self, toy_datasets):
        """ce-only is stacked before dual-full; the message still names
        the caller's index of the diverging row."""
        from novnet.errors import DivergenceError
        known, _, reference = toy_datasets
        huge = Dataset(known.x * 1e300, known.y, list(known.class_names), "huge")
        cfgs = [TrainingConfig(mode=mode, epochs=1, seed=seed) for seed, mode in enumerate(("dual-full", "ce-only"))]
        models = [build_dual_model(small_backbone(), known.n_classes, reference.n_classes, seed=0),
                  build_dual_model(small_backbone(), known.n_classes, 0, seed=1)]
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="stacked model 1"):
            train_lockstep(models, [known, huge], [reference, None], cfgs)

    def test_divergence_in_the_last_update_names_its_row(self):
        """Row 1's features are row 0's times 1e150: its one update leaves
        it non-finite while its loss and gradients stay finite, so the
        check after the last update must name it."""
        from novnet.errors import DivergenceError
        x = np.random.default_rng(0).standard_normal((8, 3))
        data = [Dataset(x * scale, np.arange(8) % 2, ["a", "b"], "x") for scale in (1.0, 1e150)]
        cfgs = [TrainingConfig(mode="ce-only", epochs=1, lr=1e160, momentum=0.0, batch_size_T=8, seed=seed)
                for seed in (0, 1)]
        models = [build_dual_model(NetworkSpec((3,), (Dense(3, 4), Relu())), 2, 0, seed=c.seed) for c in cfgs]
        with pytest.raises(DivergenceError, match=r"^non-finite parameter 'backbone\.layer0\.weight' of stacked "
                                                  r"model 1 after the last update at epoch 0, step 0$"):
            train_lockstep(models, data, [None, None], cfgs)
        assert all(np.isfinite(v).all() for v in models[0].backbone.values())


class TestMembershipMask:
    def test_rows_without_membership_pass_positive_zeros_to_the_head(self, toy_datasets, monkeypatch):
        """With alpha1 = 0 a ce-only row's gradient at the known head's
        output is all zeros. Stacked beside a membership row, its masked
        membership gradient adds +0.0, so no entry is -0.0: the same bits
        as a lone ce-only run, which skips the membership terms."""
        known, _, _ = toy_datasets
        head_upstream = []
        real_backward = nn_core.backward

        def spy(spec, params, cache, dl_df, **kwargs):
            if spec.layers == (Dense(8, known.n_classes),):
                head_upstream.append(dl_df.copy())
            return real_backward(spec, params, cache, dl_df, **kwargs)

        monkeypatch.setattr(nn_core, "backward", spy)
        for modes in (("ce-only", "ce+membership"), ("ce-only",)):
            cfgs = [TrainingConfig(mode=mode, alpha1=0.0, epochs=1, batch_size_T=len(known), seed=0)
                    for mode in modes]
            models = [build_dual_model(small_backbone(), known.n_classes, 0, seed=0) for _ in cfgs]
            train_lockstep(models, [known] * len(cfgs), [None] * len(cfgs), cfgs)
        stacked, alone = head_upstream
        assert not np.signbit(stacked[0]).any() and not np.signbit(alone[0]).any()
        assert stacked[0].tobytes() == alone[0].tobytes()


class TestBackboneInputGradient:
    def test_training_skips_only_the_backbone_input_gradient(self, monkeypatch):
        """The backbone's input gradient is never used, so training asks
        backward not to compute it; the heads' dx feeds the backbone."""
        ((cfg, data),) = config_runs("conv-demo.json", ("dual-full",), reps=1)
        model, reference = untrained(cfg, data)
        calls = []
        real_backward = nn_core.backward

        def spy(*args, **kwargs):
            input_grad = kwargs.get("input_grad", args[4] if len(args) > 4 else True)
            calls.append((args[0] == model.backbone_spec, input_grad))
            return real_backward(*args, **kwargs)

        monkeypatch.setattr(nn_core, "backward", spy)
        train_lockstep([model], [data.train_T], [reference], [replace(cfg.training, epochs=1)])
        steps = -(-len(data.train_T) // cfg.training.batch_size_T)
        assert calls.count((True, False)) == calls.count((False, True)) == 2 * steps  # T and R branches
        assert len(calls) == 4 * steps


def whole_set_step(rows):
    """`rows` dual-full conv-demo models, with their datasets and configs
    for one step whose batches are the whole known and reference sets."""
    ((cfg, data),) = config_runs("conv-demo.json", ("dual-full",), reps=1)
    training = replace(cfg.training, epochs=1, batch_size_T=len(data.train_T), batch_size_R=len(data.reference))
    cfgs = [replace(training, seed=seed) for seed in range(rows)]
    models = [untrained(replace(cfg, training=c), data)[0] for c in cfgs]
    return models, [data.train_T] * rows, [data.reference] * rows, cfgs


class TestBranchCacheLifetime:
    def test_known_branch_holds_one_map_per_conv_layer(self, monkeypatch):
        """Both branches' maps are held while the reference backward runs;
        the known branch's are one map per conv layer, which the relu
        after it shares, and the pooled features."""
        rng = np.random.default_rng(0)
        spec = NetworkSpec((1, 6, 6), (nn_core.Conv2d(1, 3, 3), Relu(), nn_core.Conv2d(3, 2, 2), Relu(),
                                       nn_core.GlobalAveragePool()))
        model = build_dual_model(spec, 3, 2, seed=0)
        known = Dataset(rng.standard_normal((6, 1, 6, 6)), np.arange(6) % 3, ["a", "b", "c"], provenance="t")
        reference = Dataset(rng.standard_normal((4, 1, 6, 6)), np.arange(4) % 2, ["r0", "r1"], provenance="r")
        real_forward, real_backward = nn_core.forward, nn_core.backward
        caches, known_maps, alive = [], {}, []

        def forward_spy(spec, params, batch, *args, **kwargs):
            out, cache = real_forward(spec, params, batch, *args, **kwargs)
            if not caches:  # the known branch's backbone: its maps and features
                known_maps.update((id(a), weakref.ref(a)) for a in (*cache[1:], out))
            caches.append(cache)
            return out, cache

        def backward_spy(spec, params, cache, *args, **kwargs):
            if cache is caches[3]:  # the reference head: its backward starts
                alive.append(sum(ref() is not None for ref in known_maps.values()))
            return real_backward(spec, params, cache, *args, **kwargs)

        monkeypatch.setattr(nn_core, "forward", forward_spy)
        monkeypatch.setattr(nn_core, "backward", backward_spy)
        train_one_step(model, known, reference)
        assert len(caches) == 4
        assert caches[0][1] is caches[0][2] and caches[0][3] is caches[0][4]
        assert len(known_maps) == 3  # two conv maps and the pooled features
        assert alive == [3]

    def test_no_map_outlives_its_step(self, monkeypatch):
        """Once training returns, no branch's maps are alive: the worker
        thread drops each job when it ends."""
        real_forward, maps = nn_core.forward, []

        def spy(*args, **kwargs):
            out, cache = real_forward(*args, **kwargs)
            maps.extend(weakref.ref(a) for a in cache[1:])
            return out, cache

        monkeypatch.setattr(nn_core, "forward", spy)
        train_lockstep(*whole_set_step(2))
        assert maps and all(ref() is None for ref in maps)

    def test_step_peak_is_bounded(self, monkeypatch):
        """One step of an 8-row conv-demo stack over the whole known (60)
        and reference (120) sets peaks below 5 times its batches' bytes.
        Measured on a 2-vCPU VM: 0.55-0.69 MB, which varies with how the
        two threads' backward passes overlap. A step that held one
        branch's maps at a time and copied the relu and pool maps peaked
        at 1.02 MB; with both branches' maps held, 1.2-1.5 MB."""
        real_step, steps = dual_trainer._lockstep_step, []

        def spy(state, batch_T, batch_R):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            result = real_step(state, batch_T, batch_R)
            steps.append((tracemalloc.get_traced_memory()[1] - start, batch_T[0].nbytes + batch_R[0].nbytes))
            return result

        monkeypatch.setattr(dual_trainer, "_lockstep_step", spy)
        tracemalloc.start()
        try:
            train_lockstep(*whole_set_step(8))
        finally:
            tracemalloc.stop()
        ((peak, batches),) = steps
        assert peak < 5 * batches, (peak, batches)


def worker_threads():
    return [t for t in threading.enumerate() if t.name == "novnet-worker"]


def trained_bytes():
    """The parameter bytes of a one-epoch dual-full conv-demo training."""
    ((cfg, data),) = config_runs("conv-demo.json", ("dual-full",), reps=1)
    model, reference = untrained(cfg, data)
    train_lockstep([model], [data.train_T], [reference], [replace(cfg.training, epochs=1)])
    return b"".join(v.tobytes() for group in (model.backbone, model.head_T, model.head_R) for v in group.values())


class TestReferenceWorker:
    """A conv backbone's reference backward runs on one worker thread."""

    def test_dense_training_starts_no_thread(self):
        before = threading.active_count()
        experiments.train_models(config_runs("benchmark-quick.json", experiments.ABLATION_MODES, reps=1))
        assert threading.active_count() == before

    def test_conv_trainings_share_one_worker(self):
        trained_bytes()
        after_first = threading.active_count()
        assert len(worker_threads()) == 1
        trained_bytes()
        assert threading.active_count() == after_first
        assert len(worker_threads()) == 1

    def test_exception_in_the_worker_reaches_the_caller(self, monkeypatch):
        want = trained_bytes()
        real_backward = nn_core.backward

        class Boom(Exception):
            pass

        def failing(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise Boom("raised on the worker")
            return real_backward(*args, **kwargs)

        monkeypatch.setattr(nn_core, "backward", failing)
        with pytest.raises(Boom, match="raised on the worker"):
            trained_bytes()
        monkeypatch.setattr(nn_core, "backward", real_backward)
        assert trained_bytes() == want

    def test_forked_child_trains_like_its_parent(self):
        """A child forked after conv training has no copy of the worker
        thread; it starts its own, trains the same bits and exits."""
        want = trained_bytes()
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: report its bits and exit, whatever happens
            try:
                os.close(read)
                with os.fdopen(write, "wb") as fh:
                    fh.write(trained_bytes())
            finally:
                os._exit(0)
        os.close(write)
        try:
            ready, _, _ = select.select([read], [], [], 60)
            got = b""
            while ready:
                chunk = os.read(read, 1 << 16)
                if not chunk:
                    break
                got += chunk
                ready, _, _ = select.select([read], [], [], 60)
        finally:
            os.close(read)
            if not ready:
                os.kill(pid, signal.SIGKILL)
            _, status = os.waitpid(pid, 0)
        assert ready, "the forked child did not finish training"
        assert os.waitstatus_to_exitcode(status) == 0
        assert got == want
