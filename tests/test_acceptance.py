"""Acceptance suite: one test per release criterion.

Each test prints a [PASS]/[FAIL] line (visible with `pytest -s`). The
training-heavy criteria share one ablation matrix over the bundled
synthetic benchmark (10 seeds x 4 modes).
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import benchmark, bundled, lone_backward, lone_forward
from novnet import cli
from novnet.dual_trainer import (
    TrainingConfig,
    build_dual_model,
    load_checkpoint,
    save_checkpoint,
    train_lockstep,
)
from novnet.errors import FormatError
from novnet.experiments import (
    ablation_means,
    assemble_datasets,
    run_ablation,
)
from novnet.losses import cross_entropy_terms, membership_terms
from novnet.nn_core import (
    Conv2d,
    Dense,
    GlobalAveragePool,
    NetworkSpec,
    Relu,
    finite_difference_grad,
    init_params,
)
from novnet.novelty_eval import auc_pairwise_oracle, calibrate_threshold, realized_fnr, roc_auc

MODES = ("ce-only", "ce+membership", "dual-ce", "dual-full")


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def ablation_rows():
    cfg = benchmark()
    start = time.perf_counter()
    rows = run_ablation(cfg, n_seeds=10)
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_criterion_1_membership_gradient():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    for c in (2, 5, 10):
        for lam in (1.0, 5.0):
            for _ in range(50):
                # one logit vector, as a one-sample [1, c] batch
                f = rng.uniform(-4.0, 4.0, size=c)[None]
                y = np.array([rng.integers(0, c)])
                grad = membership_terms(f, y, lam)[1][0]
                eps = 1e-6
                for j in range(c):
                    hi = f.copy(); hi[0, j] += eps
                    lo = f.copy(); lo[0, j] -= eps
                    fd = (membership_terms(hi, y, lam)[0] - membership_terms(lo, y, lam)[0]) / (2 * eps)
                    rel = abs(grad[j] - fd) / max(abs(grad[j]), abs(fd), 1e-10)
                    worst = max(worst, rel)
                checked += 1
    elapsed = time.perf_counter() - start
    report("criterion 1 (membership gradient vs finite differences)",
           worst < 1e-5 and elapsed < 1.0 and checked >= 300,
           f"{checked} logit vectors, worst relative error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_end_to_end_gradient():
    start = time.perf_counter()
    spec = NetworkSpec((1, 7, 7), (Conv2d(1, 2, 3), Relu(), Conv2d(2, 3, 3), Relu(),
                                   GlobalAveragePool(), Dense(3, 3)))
    params = init_params(spec, 77)
    rng = np.random.default_rng(77)
    x = rng.standard_normal((2, 1, 7, 7))
    y = np.array([0, 2])

    def loss_fn(p):
        f, _ = lone_forward(spec, p, x)
        return float(cross_entropy_terms(f, y)[0] + membership_terms(f, y, 5.0)[0])

    f, cache = lone_forward(spec, params, x)
    upstream = cross_entropy_terms(f, y)[1] + membership_terms(f, y, 5.0)[1]
    grads, _ = lone_backward(spec, params, cache, upstream)
    fd = finite_difference_grad(loss_fn, params, eps=1e-6)
    worst = 0.0
    total = 0
    for name in grads:
        scale = np.maximum(np.maximum(np.abs(grads[name]), np.abs(fd[name])), 1e-10)
        worst = max(worst, float(np.max(np.abs(grads[name] - fd[name]) / scale)))
        total += grads[name].size
    elapsed = time.perf_counter() - start
    report("criterion 2 (end-to-end gradient on 2-conv toy network)",
           worst < 1e-5 and elapsed < 30.0,
           f"{total} parameters, worst relative error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_auc_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(1, 201))
        m = int(rng.integers(1, 201))
        if trial % 2 == 0:  # inject ties via small integer grids
            known = rng.integers(0, 5, size=n).astype(float)
            novel = rng.integers(0, 5, size=m).astype(float)
        else:
            known = rng.standard_normal(n) + rng.uniform(0, 1.5)
            novel = rng.standard_normal(m)
        worst = max(worst, abs(roc_auc(known, novel).auc - auc_pairwise_oracle(known, novel)))
    elapsed = time.perf_counter() - start
    report("criterion 3 (trapezoid AUC vs pairwise oracle)",
           worst < 1e-12 and elapsed < 5.0,
           f"100 score sets, worst |difference| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_4_known_values():
    # uniform logits, each a one-sample [1, c] batch
    lm = float(membership_terms(np.zeros((1, 3)), np.array([0]), 5.0)[0])
    ce4 = float(cross_entropy_terms(np.zeros((1, 4)), np.array([1]))[0])
    ce7 = float(cross_entropy_terms(np.zeros((1, 7)), np.array([3]))[0])
    scores = list(range(1, 101))
    threshold = calibrate_threshold(scores, 0.05)
    fnr = realized_fnr(scores, threshold)
    ok = (abs(lm - 1.5) < 1e-12
          and abs(ce4 - np.log(4)) < 1e-12
          and abs(ce7 - np.log(7)) < 1e-12
          and threshold.gamma == 5
          and fnr == 0.04)
    report("criterion 4 (known value checks)", ok,
           f"L_M={lm!r}, ce(uniform,4)={ce4!r}, gamma={threshold.gamma}, realized FNR={fnr}")


def test_criterion_5_weight_sharing():
    cfg = benchmark(epochs=5)
    data = assemble_datasets(cfg.dataset)
    probe = data.test_T.x[:16]
    epochs_checked = []
    mismatches = []
    # The state after epoch k of a 5-epoch run is that of a k-epoch run
    # from the same seed, bit for bit (tests/test_dual_trainer.py,
    # TestEpochPrefix), so each epoch is checked by training k epochs.
    for epoch in range(cfg.training.epochs):
        model = build_dual_model(cfg.backbone, data.train_T.n_classes,
                                 data.reference.n_classes, seed=0)
        training = replace(cfg.training, epochs=epoch + 1)
        train_lockstep([model], [data.train_T], [data.reference], [training])
        # Both heads read the one stored backbone: the cache-free pass that
        # feeds them at scoring and the cached pass each branch's training
        # step runs give the same bits.
        f_known = model.backbone_features(probe)
        f_ref = lone_forward(model.backbone_spec, model.backbone, probe)[0]
        epochs_checked.append(epoch)
        if not np.array_equal(f_known, f_ref):
            mismatches.append(epoch)
    report("criterion 5 (backbone weight sharing across branches)",
           len(epochs_checked) == 5 and not mismatches,
           f"bitwise-identical features after every one of {len(epochs_checked)} epochs")


def test_criterion_6_ablation_ordering(ablation_rows):
    rows, elapsed = ablation_rows
    means = ablation_means(rows)
    a, b, c, d = (means[m] for m in MODES)
    ok = (d >= max(b, c) and min(b, c) >= a and d - a >= 0.01 and elapsed < 600.0)
    report("criterion 6 (synthetic ablation ordering)", ok,
           f"ce-only={a:.4f}, ce+membership={b:.4f}, dual-ce={c:.4f}, dual-full={d:.4f}, "
           f"dual-full - ce-only = {d - a:+.4f}, {elapsed:.0f}s")


def test_criterion_7_accuracy_non_degradation(ablation_rows):
    rows, _ = ablation_rows
    acc = {mode: float(np.mean([r.accuracy for r in rows if r.mode == mode]))
           for mode in ("ce-only", "dual-full")}
    ok = acc["dual-full"] >= acc["ce-only"] - 0.02
    report("criterion 7 (closed-set accuracy non-degradation)", ok,
           f"ce-only={acc['ce-only']:.4f}, dual-full={acc['dual-full']:.4f}")


def test_criterion_8_reference_diversity(ablation_rows):
    rows, _ = ablation_rows
    auc8 = float(np.mean([r.auc for r in rows if r.mode == "dual-full"]))
    # the same 10 dual-full rows, with 2 reference clusters, in one stack
    cfg = benchmark()
    two_clusters = replace(cfg.dataset.benchmark, reference_clusters=2)
    cfg = replace(cfg, dataset=replace(cfg.dataset, benchmark=two_clusters))
    rows2 = run_ablation(cfg, modes=("dual-full",), n_seeds=10)
    auc2 = float(np.mean([r.auc for r in rows2]))
    ok = auc8 >= auc2 - 0.005
    report("criterion 8 (reference-dataset diversity effect)", ok,
           f"8-cluster reference AUC={auc8:.4f}, 2-cluster reference AUC={auc2:.4f}")


def test_criterion_9_checkpoint_round_trip(tmp_path):
    spec = NetworkSpec((1, 6, 6), (Conv2d(1, 3, 3), Relu(), GlobalAveragePool()))
    model = build_dual_model(spec, 4, 8, seed=9)
    cfg = TrainingConfig(mode="dual-full", seed=9)
    path = tmp_path / "model.nvfg"
    save_checkpoint(model, cfg, path, epoch=2, metrics={"cumulative": 0.5})
    probe = np.random.default_rng(9).standard_normal((4, 1, 6, 6))
    restored = load_checkpoint(path)

    def reference_logits(m):
        return lone_forward(m.head_R_spec, m.head_R, m.backbone_features(probe), keep_cache=False)[0]

    bitwise = (np.array_equal(restored.model.known_logits(probe), model.known_logits(probe))
               and np.array_equal(reference_logits(restored.model), reference_logits(model)))
    corrupted = bytearray(path.read_bytes())
    corrupted[:4] = b"ZZZZ"
    bad_path = tmp_path / "bad.nvfg"
    bad_path.write_bytes(bytes(corrupted))
    rejected = False
    try:
        load_checkpoint(bad_path)
    except FormatError:
        rejected = True
    report("criterion 9 (checkpoint round trip)", bitwise and rejected,
           f"bitwise forward outputs: {bitwise}, corrupted magic rejected: {rejected}")


def test_criterion_10_train_determinism(tmp_path):
    raw = bundled("benchmark.json")
    raw["training"]["epochs"] = 5
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw, indent=2))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    rc_a = cli.main(["train", "--config", str(config_path), "--out", str(out_a)])
    rc_b = cli.main(["train", "--config", str(config_path), "--out", str(out_b)])
    identical = ((out_a / "checkpoint.nvfg").read_bytes()
                 == (out_b / "checkpoint.nvfg").read_bytes())
    report("criterion 10 (cmd_train determinism)",
           rc_a == 0 and rc_b == 0 and identical,
           f"two runs, byte-identical checkpoints: {identical}")
