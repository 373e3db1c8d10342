"""Dual-branch training: one shared backbone feeding two independent
final layers, trained on paired mini-batches from the known dataset (T)
and the reference dataset (R).

The backbone is stored once, so both branches observe identical feature
weights at every step by construction; its gradient is the sum of the two
branches' contributions, which is mathematically identical to mirrored
copies with synchronized updates.

Any number of models train in lockstep (train_lockstep): each
parameter is a [rows, *shape] view with a leading model axis into one
flat buffer per stack, and the momentum is one array of the same size,
so one step of the whole stack is a fixed set of numpy calls (one
finiteness check and one momentum update), and each model ends
bit-identical to training it alone; a lone model is a one-row stack
of the same loop. The rows keep the caller's order; the rows with a
reference branch and the rows with the membership loss are selected by
index, and each step computes the membership terms only for the latter,
while the other rows hold zeros.

Training modes (ablation/baseline variants):
  ce-only        single branch, cross-entropy only
  ce+membership  single branch, cross-entropy + membership loss
  dual-ce        both branches, cross-entropy only (alpha2 forced to 0)
  dual-full      both branches, cross-entropy + membership loss
  finetune-cC    single combined head over c + C classes, trained with
                 cross-entropy on the union of T and R (reference labels
                 offset by c)
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import nn_core
from .data_io import Dataset, check_fits_in_memory, read_exact, write_all_atomic
from .errors import (
    ConfigError,
    CorruptionError,
    DimensionError,
    DivergenceError,
    FormatError,
    check_integer,
    check_number,
    from_json,
    to_json,
)
from .losses import cross_entropy_terms, cumulative_loss, membership_terms
from .nn_core import NetworkSpec, ParamSet

CHECKPOINT_MAGIC = b"NVFG"
CHECKPOINT_VERSION = 1

MODES = ("ce-only", "ce+membership", "dual-ce", "dual-full", "finetune-cC")
_DUAL_MODES = ("dual-ce", "dual-full")
_MEMBERSHIP_MODES = ("ce+membership", "dual-full")
_REFERENCE_MODES = ("dual-ce", "dual-full", "finetune-cC")

# Sub-stream tags for seeding: keeps backbone/head/batching draws independent.
_STREAM_BACKBONE = 0
_STREAM_HEAD_T = 1
_STREAM_HEAD_R = 2
_STREAM_BATCHING = 3


@dataclass
class TrainingConfig:
    mode: str = "dual-full"
    lam: float = field(default=5.0, metadata={"key": "lambda"})
    alpha1: float = 1.0
    alpha2: float = 1.0
    lr: float = 0.01
    momentum: float = 0.9
    epochs: int = 10
    batch_size_T: int = 32
    batch_size_R: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown training mode {self.mode!r}; expected one of {MODES}")
        # Values are checked, never coerced, so the checkpoint metadata
        # records them exactly as given.
        for name, what in (("lam", "lambda"), ("alpha1", "alpha1"), ("alpha2", "alpha2"),
                           ("lr", "learning rate lr"), ("momentum", "momentum")):
            check_number(getattr(self, name), what)
        for name, minimum in (("epochs", 0), ("batch_size_T", 1), ("batch_size_R", 1), ("seed", 0)):
            check_integer(getattr(self, name), name, minimum)
        if not self.lam > 0:
            raise ConfigError(f"lambda must be positive, got {self.lam}")
        if not (self.alpha1 >= 0 and self.alpha2 >= 0):
            raise ConfigError("alpha1 and alpha2 must be >= 0")
        if not self.lr >= 0:
            raise ConfigError(f"learning rate must be >= 0, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")

    @property
    def uses_reference(self) -> bool:
        return self.mode in _REFERENCE_MODES


@dataclass
class DualBranchModel:
    """Shared backbone plus the known head (c outputs) and, when the
    reference branch is enabled, the reference head (C outputs).

    For finetune-cC models (combined_head=True) the known head spans
    c + C outputs and there is no reference head; num_known still records
    the true c so evaluation can slice the known-class activations.
    """

    backbone_spec: NetworkSpec
    head_T_spec: NetworkSpec
    head_R_spec: NetworkSpec | None
    backbone: ParamSet
    head_T: ParamSet
    head_R: ParamSet | None
    num_known: int
    num_reference: int
    combined_head: bool = False

    def backbone_features(self, x: np.ndarray) -> np.ndarray:
        """Backbone output for a batch, through the cache-free forward of
        a one-row stack: the conv, relu and pool layers before the first
        dense one run in reused sample-chunk buffers, so their memory does
        not depend on the batch size, and a batch of more than one chunk
        runs the second half of its chunks on the worker thread, with the
        same bits; dense layers see the whole batch in the calling thread."""
        return _score(self.backbone_spec, self.backbone, x)

    def known_logits(self, x: np.ndarray) -> np.ndarray:
        """Full output of the known head (c entries, or c + C when combined)."""
        return _score(self.head_T_spec, self.head_T, self.backbone_features(x))

    def known_class_logits(self, x: np.ndarray) -> np.ndarray:
        """Known-class slice of the known head's output (always c entries)."""
        return self.known_logits(x)[:, : self.num_known]


def _score(spec: NetworkSpec, params: ParamSet, x: np.ndarray) -> np.ndarray:
    """The cache-free forward of one network, run as a one-row stack."""
    return nn_core.forward(spec, {k: v[None] for k, v in params.items()}, x[None], keep_cache=False)[0][0]


def _dense_head_spec(width: int, outputs: int) -> NetworkSpec:
    return NetworkSpec((width,), (nn_core.Dense(width, outputs),))


def _head_specs(backbone_spec: NetworkSpec, num_known: int, num_reference: int,
                combined_head: bool) -> tuple[NetworkSpec, NetworkSpec | None]:
    """The known head's spec and the reference head's (None when there is
    no reference head), after checking the class counts and backbone."""
    if num_known < 2:
        raise ConfigError(f"need at least 2 known classes, got {num_known}")
    if num_reference < 0:
        raise ConfigError(f"reference class count must be >= 0, got {num_reference}")
    out_shape = backbone_spec.output_shape
    if len(out_shape) != 1:
        raise ConfigError(f"backbone must end in a flat feature vector, got shape {out_shape}")
    width = out_shape[0]
    head_t_spec = _dense_head_spec(width, num_known + num_reference if combined_head else num_known)
    head_r_spec = None if combined_head or num_reference < 1 else _dense_head_spec(width, num_reference)
    return head_t_spec, head_r_spec


def build_dual_model(backbone_spec: NetworkSpec, num_known: int, num_reference: int,
                     seed: int, combined_head: bool = False) -> DualBranchModel:
    """Initialize a dual-branch model deterministically from one seed.

    The backbone and the two heads draw from independent seed streams, so
    the heads never start identical. With combined_head=True the known
    head gets num_known + num_reference outputs and no reference head is
    built (the finetune-cC baseline). A model whose parameters would
    outgrow physical memory raises ConfigError before any weight is drawn.
    """
    head_t_spec, head_r_spec = _head_specs(backbone_spec, num_known, num_reference, combined_head)
    count = sum(math.prod(shape) for spec in (backbone_spec, head_t_spec, head_r_spec) if spec is not None
                for shape in nn_core.param_shapes(spec).values())
    check_fits_in_memory(count, f"a model of {count} parameters", ConfigError)
    return DualBranchModel(
        backbone_spec=backbone_spec,
        head_T_spec=head_t_spec,
        head_R_spec=head_r_spec,
        backbone=nn_core.init_params(backbone_spec, [seed, _STREAM_BACKBONE]),
        head_T=nn_core.init_params(head_t_spec, [seed, _STREAM_HEAD_T]),
        head_R=None if head_r_spec is None else nn_core.init_params(head_r_spec, [seed, _STREAM_HEAD_R]),
        num_known=num_known,
        num_reference=num_reference,
        combined_head=combined_head,
    )


@dataclass
class EpochStats:
    epoch: int
    loss_ce_R: float
    loss_ce_T: float
    loss_m_T: float
    cumulative: float


@dataclass
class TrainerState:
    """Parameters and momentum of the models of one lockstep stack.

    The rows are the models in the caller's order. Every parameter of the
    stack lives in one flat float64 buffer, `values`, and
    `params[group][name]` is a [rows, *shape] view of it: `backbone` and
    `head_T` have one row per model, `head_R` one per dual-branch model,
    the models whose indices `dual_rows` holds. Each model's own dicts
    hold views of its rows, so scoring, checkpoints and filter analysis
    read the trained values directly. `velocity` is the momentum buffer
    shaped like `values`, None before the first update. `cfg` is the step
    schedule the rows share (the caller's first config; rows may differ
    only in mode and seed), `alpha2` is each row's effective membership
    weight, and `membership_rows` holds the indices of the rows whose mode
    uses the membership loss. `buffers` holds the backbone forward's
    buffer sets (see step_buffers).
    """

    specs: tuple[NetworkSpec, NetworkSpec, NetworkSpec | None]
    values: np.ndarray
    params: dict[str, ParamSet]
    cfg: TrainingConfig
    membership_rows: np.ndarray
    alpha2: np.ndarray
    dual_rows: np.ndarray
    velocity: np.ndarray | None = None
    buffers: dict = field(default_factory=dict)

    @classmethod
    def stack(cls, models, cfgs) -> "TrainerState":
        """Copy the models' parameters into one new buffer and point each
        model's dicts at its rows."""
        membership = [cfg.mode in _MEMBERSHIP_MODES for cfg in cfgs]
        dual_rows = np.flatnonzero([cfg.mode in _DUAL_MODES for cfg in cfgs])
        groups = {"backbone": models, "head_T": models, "head_R": [models[row] for row in dual_rows]}
        # Each parameter is one [rows, *shape] block of the buffer.
        blocks = [(group, name, [getattr(model, group)[name] for model in rows])
                  for group, rows in groups.items() if rows for name in getattr(rows[0], group)]
        values = np.concatenate([value for _, _, stacked in blocks for value in stacked], axis=None)
        params: dict[str, ParamSet] = {group: {} for group in groups}
        start = 0
        for group, name, stacked in blocks:
            size = len(stacked) * stacked[0].size
            params[group][name] = values[start:start + size].reshape(len(stacked), *stacked[0].shape)
            start += size
        for group, rows in groups.items():
            for row, model in enumerate(rows):
                setattr(model, group, {name: v[row] for name, v in params[group].items()})
        return cls(
            specs=(models[0].backbone_spec, models[0].head_T_spec,
                   groups["head_R"][0].head_R_spec if dual_rows.size else None),
            values=values, params=params, cfg=cfgs[0], membership_rows=np.flatnonzero(membership),
            alpha2=np.where(membership, cfgs[0].alpha2, 0.0), dual_rows=dual_rows)

    def step_buffers(self, branch: str, batch: np.ndarray) -> "nn_core.ForwardBuffers | None":
        """The buffer set the backbone forward of `branch` ("T" or "R")
        fills on `batch`, one per branch and batch length: made by the
        first step that needs it, in the thread that calls this, and kept
        for later steps. None for a dense first layer, which needs none."""
        backbone_spec = self.specs[0]
        if not backbone_spec.per_sample_depth:
            return None
        key = branch, batch.shape[1]
        if key not in self.buffers:
            self.buffers[key] = nn_core.forward_buffers(backbone_spec, *batch.shape[:2])
        return self.buffers[key]

    def where(self, row) -> str:
        """The suffix " of stacked model K" naming row K ("" for a lone model)."""
        return f" of stacked model {row}" if len(self.alpha2) > 1 else ""

    def check_finite(self, flat: np.ndarray, tree: dict[str, ParamSet], what: str) -> None:
        """Raise DivergenceError naming the first parameter of `tree` (which
        mirrors params; `flat` holds its values) with a non-finite value, and its row."""
        if not np.isfinite(flat).all():
            for group, group_params in self.params.items():
                rows = self.dual_rows if group == "head_R" else range(len(self.alpha2))
                for name in group_params:
                    value = tree[group][name]
                    bad = ~np.isfinite(value.reshape(len(value), -1)).all(axis=1)
                    if bad.any():
                        raise DivergenceError(f"non-finite {what} '{group}.{name}'"
                                              f"{self.where(rows[bad.argmax()])}")

    def apply_gradients(self, grads: dict[str, ParamSet]) -> None:
        """One SGD-with-momentum update of the whole stack; grads mirror
        params. Every gradient is checked before any parameter changes."""
        flat = np.concatenate([grads[group][name] for group, group_params in self.params.items()
                               for name in group_params], axis=None)
        self.check_finite(flat, grads, "gradient for parameter")
        self.velocity = nn_core.momentum_update(self.values, flat, self.velocity, self.cfg.lr, self.cfg.momentum)


def _lockstep_step(state: TrainerState, batch_T, batch_R) -> np.ndarray:
    """One SGD step of every model in the stack.

    batch_T is an ([M, b_T, ...], [M, b_T]) pair, batch_R the
    ([D, b_R, ...], [D, b_R]) reference batches of the dual rows (None
    when there are none), with labels already validated. Returns the
    [4, M] loss components (ce_R, ce_T, m_T, cumulative) at the
    pre-update parameters.

    The reference branch (backbone and head_R forward, cross-entropy,
    head_R and backbone backward) is one job. For a backbone with
    per-sample layers (conv2d, relu, pool before the first dense one) it
    runs on the worker thread while the calling thread runs the known
    branch; a dense backbone's runs first, in the calling thread. The
    two branches read the parameters and write only their own caches and
    buffer sets, which the calling thread makes (TrainerState.step_buffers)
    before the hand-off, so the worker allocates no map. The step does
    not end before the job does, even when the known branch raises. The
    reference gradients join the known ones after both end, so every
    value takes the operations it takes on one thread.
    """
    cfg = state.cfg
    backbone_spec, head_t_spec, head_r_spec = state.specs
    backbone, head_t, head_r = (state.params[group] for group in ("backbone", "head_T", "head_R"))
    rows = len(state.alpha2)
    x_t, y_t = batch_T
    buffers_t = state.step_buffers("T", x_t)
    ce_r = np.zeros(rows)
    reference = None
    if batch_R is not None:
        x_r, y_r = batch_R
        dual = state.dual_rows
        backbone_r = {k: v[dual] for k, v in backbone.items()}
        buffers_r = state.step_buffers("R", x_r)

        def reference_branch():
            feat_r, cache_br = nn_core.forward(backbone_spec, backbone_r, x_r, buffers=buffers_r)
            f_r, cache_hr = nn_core.forward(head_r_spec, head_r, feat_r)
            ce, ce_grad = cross_entropy_terms(f_r, y_r)
            head_grads, dfeat_r = nn_core.backward(head_r_spec, head_r, cache_hr, ce_grad)
            grads, _ = nn_core.backward(backbone_spec, backbone_r, cache_br, dfeat_r, input_grad=False)
            return ce, head_grads, grads

        # A per-sample backbone's passes are mostly einsum, which runs
        # without the GIL, so its reference branch runs on the worker
        # beside the known branch. Dense backbones run it here: their
        # small arrays would pass the GIL back and forth.
        run = nn_core._start_on_worker if backbone_spec.per_sample_depth else nn_core._run_here
        reference = run(reference_branch)

    head_r_grads: ParamSet = {}
    try:
        feat_t, cache_bt = nn_core.forward(backbone_spec, backbone, x_t, buffers=buffers_t)
        f_t, cache_ht = nn_core.forward(head_t_spec, head_t, feat_t)
        ce_t, ce_t_grad = cross_entropy_terms(f_t, y_t)
        # Only the membership rows compute the membership terms. The other
        # rows keep zeros, which are still added (as alpha2 * 0), so their
        # -0.0 gradients turn +0.0 whatever the stack holds. With no such
        # row the call is skipped: with no rows it still costs most of a
        # one-row call.
        m_rows = state.membership_rows
        m_t, m_t_grad = np.zeros(rows), np.zeros_like(f_t)
        if m_rows.size:
            m_t[m_rows], m_t_grad[m_rows] = membership_terms(f_t[m_rows], y_t[m_rows], cfg.lam)
        upstream_t = cfg.alpha1 * ce_t_grad + state.alpha2[:, None, None] * m_t_grad
        head_t_grads, dfeat = nn_core.backward(head_t_spec, head_t, cache_ht, upstream_t)
        backbone_grads, _ = nn_core.backward(backbone_spec, backbone, cache_bt, dfeat, input_grad=False)
    finally:
        # The job reads the parameters and writes the reference buffers,
        # so it ends before the step does, whatever ends the known branch.
        if reference is not None:
            ce_r[dual], head_r_grads, backbone_r_grads = reference()
    if reference is not None:
        for name, g in backbone_r_grads.items():
            backbone_grads[name][dual] += g

    total = cumulative_loss(ce_r, ce_t, m_t, cfg.alpha1, state.alpha2)
    finite = np.isfinite(total)
    if not finite.all():
        row = finite.argmin()
        raise DivergenceError(f"non-finite cumulative loss {total[row]}{state.where(row)}")
    state.apply_gradients({"backbone": backbone_grads, "head_T": head_t_grads, "head_R": head_r_grads})
    return np.array([ce_r, ce_t, m_t, total])


class _IndexStream:
    """Endless stream of dataset indices: shuffled, reshuffled on exhaustion.
    Indices are held as int64, the 8 bytes each that the reference-draw
    bound counts."""

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = n
        self.rng = rng
        self.queue = np.empty(0, dtype=np.int64)

    def take(self, k: int) -> np.ndarray:
        held = len(self.queue)
        reshuffles = -(-max(k - held, 0) // self.n)
        queue = np.empty(held + reshuffles * self.n, dtype=np.int64)
        queue[:held] = self.queue
        for start in range(held, len(queue), self.n):
            queue[start:start + self.n] = self.rng.permutation(self.n)
        self.queue = queue[k:].copy()
        return queue[:k]


def _check_mode_datasets(model: DualBranchModel, dataset_T: Dataset,
                         dataset_R: Dataset | None, cfg: TrainingConfig) -> None:
    if cfg.uses_reference and dataset_R is None:
        raise ConfigError(f"mode {cfg.mode!r} needs a reference dataset")
    if not cfg.uses_reference and dataset_R is not None:
        raise ConfigError(f"mode {cfg.mode!r} forbids a reference dataset")
    if dataset_T.n_classes != model.num_known:
        raise ConfigError(
            f"dataset has {dataset_T.n_classes} known classes but model expects {model.num_known}")
    if dataset_R is not None and model.num_reference != dataset_R.n_classes:
        raise ConfigError(
            f"reference dataset has {dataset_R.n_classes} classes but model expects {model.num_reference}")
    if cfg.mode == "finetune-cC" and not model.combined_head:
        raise ConfigError("finetune-cC training needs a model built with combined_head=True")
    if cfg.mode != "finetune-cC" and model.combined_head:
        raise ConfigError(f"combined-head model only trains in finetune-cC mode, not {cfg.mode!r}")
    for dataset in (dataset_T, dataset_R):
        if dataset is not None and dataset.sample_shape != tuple(model.backbone_spec.input_shape):
            raise DimensionError(f"dataset samples have shape {dataset.sample_shape} but the "
                                 f"backbone expects {tuple(model.backbone_spec.input_shape)}")


def _check_lockstep(models, epoch_sets, cfgs) -> None:
    """Rows of one stack must share their step schedule, epoch sets' lengths included."""
    first = cfgs[0]
    shapes = {(model.backbone_spec, model.head_T_spec, len(y)) for model, (_, y) in zip(models, epoch_sets)}
    reference_heads = {model.head_R_spec for model, cfg in zip(models, cfgs) if cfg.mode in _DUAL_MODES}
    if (len(shapes) > 1 or len(reference_heads) > 1
            or any(replace(cfg, mode=first.mode, seed=first.seed) != first for cfg in cfgs)):
        raise ConfigError("models of one lockstep stack must share backbone, class counts, epoch "
                          "length and every training setting but mode and seed")


def _epoch_set(model: DualBranchModel, dataset_T: Dataset, dataset_R: Dataset | None,
               cfg: TrainingConfig) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) that one epoch runs over: T, or in finetune-cC the union of
    T and the reference data relabeled past the known classes."""
    if cfg.mode != "finetune-cC":
        return dataset_T.x, dataset_T.y
    return (np.concatenate([dataset_T.x, dataset_R.x]),
            np.concatenate([dataset_T.y, dataset_R.y + model.num_known]))


def _pool(sources) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y) holding each distinct (x, y) source once, and each row's
    [M, 1] offset into it. Rows of one data rep share their arrays, so
    those are stored once; a lone source is used as it is, uncopied."""
    distinct = {}
    for x, y in sources:
        distinct.setdefault((id(x), id(y)), (x, y))
    starts = dict(zip(distinct, np.cumsum([0] + [len(y) for _, y in distinct.values()])))
    offsets = np.array([[starts[id(x), id(y)]] for x, y in sources])
    if len(distinct) == 1:
        ((x, y),) = distinct.values()
        return x, y, offsets
    xs, ys = zip(*distinct.values())
    return np.concatenate(xs), np.concatenate(ys), offsets


def _check_known_logits(state: TrainerState, x: np.ndarray, offsets: np.ndarray, n: int) -> None:
    """Raise DivergenceError naming the first row whose known-head logits
    on its epoch set (x[offset:offset + n]) are not all finite: finite
    weights can still overflow them, and scoring would then fail. Each
    row runs alone through the cache-free forward that scoring takes,
    on its epoch set read in place, so the check holds one row's maps at
    a time however many rows the stack has."""
    backbone_spec, head_t_spec, _ = state.specs
    for row, (start,) in enumerate(offsets):
        backbone, head = ({key: v[row:row + 1] for key, v in state.params[group].items()}
                          for group in ("backbone", "head_T"))
        with np.errstate(all="ignore"):
            features, _ = nn_core.forward(backbone_spec, backbone, x[None, start:start + n], keep_cache=False)
            logits, _ = nn_core.forward(head_t_spec, head, features, keep_cache=False)
        if not np.isfinite(logits).all():
            raise DivergenceError(f"non-finite known-head logit on the training data{state.where(row)}")


def train_lockstep(models, datasets_T, datasets_R, cfgs) -> list[list[EpochStats]]:
    """Train M models in place for cfg.epochs epochs, each step of all of
    them one set of numpy calls; returns each model's history (per-epoch
    loss components averaged over steps). Deterministic given the seeds.

    A mode that uses reference data (dual-ce, dual-full, finetune-cC)
    needs an R dataset, the others take None (else ConfigError). R is an
    endless shuffled stream, one batch per step; a finetune-cC epoch
    runs over T and R relabeled past the known classes.

    Every row trains exactly as it would alone: the same parameters bit
    for bit and the same history. Rows may differ in mode, seed and
    data. They must share the step schedule: backbone, class counts,
    epoch length and every other TrainingConfig field (else
    ConfigError). Each row draws its epoch permutations
    and reference reshuffles from its own seed stream, in the order a
    lone run does. Histories are in the caller's order, and a divergence
    names the first bad row by its index. Labels are validated
    once, by the Dataset invariants and the mode/dataset checks.
    Training k epochs gives, bit for bit, the parameters and history
    prefix that a longer run with the same seeds has after epoch k.
    After the last update, one cache-free forward of each row's known
    branch over its epoch set checks that the logits are finite: finite
    weights can still overflow them (DivergenceError naming the row).

    A backbone whose first layer is not dense runs each step's whole
    reference branch on nn_core's worker thread, beside the known branch,
    with the same bits (see _lockstep_step). Its forward passes fill
    buffer sets that the stack keeps until the last step ends, one per
    branch and batch length, each made by the calling thread. The worker
    is a daemon thread, started on first use and kept for the process; a
    dense backbone trains in the calling thread alone, with no buffer sets.
    """
    models, datasets_T, datasets_R, cfgs = (list(a) for a in (models, datasets_T, datasets_R, cfgs))
    if not models or not len(models) == len(datasets_T) == len(datasets_R) == len(cfgs):
        raise ConfigError("lockstep training needs one T dataset, R dataset (or None) and config per model")
    for args in zip(models, datasets_T, datasets_R, cfgs):
        _check_mode_datasets(*args)
    epoch_sets = [_epoch_set(*args) for args in zip(models, datasets_T, datasets_R, cfgs)]
    _check_lockstep(models, epoch_sets, cfgs)
    histories: list[list[EpochStats]] = [[] for _ in models]
    cfg = cfgs[0]
    if cfg.epochs == 0:
        return histories

    state = TrainerState.stack(models, cfgs)
    rngs = [np.random.default_rng([c.seed, _STREAM_BATCHING]) for c in cfgs]
    x_t, y_t, offsets_t = _pool(epoch_sets)
    dual = [datasets_R[row] for row in state.dual_rows]
    if dual:
        x_r, y_r, offsets_r = _pool([(d.x, d.y) for d in dual])
    streams = [_IndexStream(len(datasets_R[row]), rngs[row]) for row in state.dual_rows]

    n = len(epoch_sets[0][1])
    b_t, b_r = cfg.batch_size_T, cfg.batch_size_R
    steps = -(-n // b_t)
    if dual:
        # An epoch holds its reference indices for every step, and a step
        # its gathered reference batch.
        sample_values = math.prod(x_r.shape[1:])
        check_fits_in_memory(len(dual) * b_r * (steps + sample_values),
                             f"reference draw of 'batch_size_R' {b_r} for {len(dual)} dual model(s): "
                             f"{steps} step(s) of indices per epoch and {sample_values} values per sample")
    for epoch in range(cfg.epochs):
        # Each row's epoch permutation comes first, then the reference
        # indices its steps will consume, as in the order of a lone run.
        # Each step gathers its [M, b, ...] batch with one index.
        idx_t = np.array([rng.permutation(n) for rng in rngs]) + offsets_t
        if streams:
            idx_r = np.array([stream.take(steps * b_r) for stream in streams]) + offsets_r
        sums = np.zeros((4, len(models)))
        # A diverging step overflows before its loss or gradient checks
        # raise, so numpy's floating-point warnings are silenced here.
        with np.errstate(all="ignore"):
            for step in range(steps):
                t = idx_t[:, step * b_t:(step + 1) * b_t]
                batch_R = None
                if streams:
                    r = idx_r[:, step * b_r:(step + 1) * b_r]
                    batch_R = x_r[r], y_r[r]
                try:
                    sums += _lockstep_step(state, (x_t[t], y_t[t]), batch_R)
                except DivergenceError as exc:
                    raise DivergenceError(f"{exc} at epoch {epoch}, step {step}") from None
        for history, means in zip(histories, (sums / steps).T):
            history.append(EpochStats(epoch, *(float(v) for v in means)))
    # Each step's loss check sees the previous update; the last update
    # has no next step, so its result is checked here, parameters first.
    # The step buffer sets go first, so the logits check's scoring buffers
    # do not add to them at the process's peak.
    state.buffers.clear()
    try:
        state.check_finite(state.values, state.params, "parameter")
        _check_known_logits(state, x_t, offsets_t, n)
    except DivergenceError as exc:
        raise DivergenceError(f"{exc} after the last update at epoch {cfg.epochs - 1}, step {steps - 1}") from None
    return histories


@dataclass
class Checkpoint:
    """A saved model: specs + parameters, the training configuration,
    the epoch counter, and final training metrics."""

    model: DualBranchModel
    config: TrainingConfig
    epoch: int
    metrics: dict = field(default_factory=dict)


def _records(model: DualBranchModel):
    """(group, parameter name, shape) of every parameter record, in file
    order. Save and load both take the order from here, and the names and
    shapes from the model's specs."""
    for group in ("backbone", "head_T", "head_R"):
        spec = getattr(model, f"{group}_spec")
        if spec is not None:
            for name, shape in nn_core.param_shapes(spec).items():
                yield group, name, shape


def checkpoint_bytes(model: DualBranchModel, cfg: TrainingConfig, epoch: int, metrics: dict) -> bytes:
    """The checkpoint file (binary, little-endian, magic 'NVFG').

    Layout: magic, u32 version, u64-length-prefixed JSON metadata block,
    then one record per parameter (u32 name length, name, u32 rank, u64
    dims, float64 values).
    """
    metadata = {
        "backbone": to_json(model.backbone_spec),
        "num_known": model.num_known,
        "num_reference": model.num_reference,
        "combined_head": model.combined_head,
        "config": to_json(cfg),
        "epoch": epoch,
        "metrics": metrics,
    }
    meta_bytes = json.dumps(metadata, sort_keys=True).encode("utf-8")
    parts = [CHECKPOINT_MAGIC, struct.pack("<IQ", CHECKPOINT_VERSION, len(meta_bytes)), meta_bytes]
    for group, name, _ in _records(model):
        value = getattr(model, group)[name]
        name_bytes = f"{group}.{name}".encode("utf-8")
        parts += [struct.pack(f"<I{len(name_bytes)}sI{value.ndim}Q", len(name_bytes), name_bytes,
                              value.ndim, *value.shape),
                  np.ascontiguousarray(value, dtype="<f8").tobytes()]
    return b"".join(parts)


def save_checkpoint(model: DualBranchModel, cfg: TrainingConfig, path,
                    epoch: int = 0, metrics: dict | None = None) -> None:
    """Write the checkpoint file atomically: a temp file is renamed into
    place only on success."""
    write_all_atomic({path: checkpoint_bytes(model, cfg, epoch, metrics or {})})


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint; bit-exact round trip.

    The metadata gives the specs, and the specs each record's name and
    shape, so only the float64 values are read from the records. The file
    loads only if it is exactly the bytes save_checkpoint writes for what
    it decodes to; damage anywhere raises a FormatError subclass.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad checkpoint magic {magic!r}")
        (version,) = struct.unpack("<I", read_exact(fh, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        (meta_len,) = struct.unpack("<Q", read_exact(fh, 8, "metadata length"))
        meta_bytes = read_exact(fh, meta_len, "metadata")
        try:
            metadata = json.loads(meta_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
            raise CorruptionError(f"{path}: unreadable metadata block: {exc}") from None
        try:
            backbone_spec = nn_core.spec_from_json(metadata["backbone"], "'backbone' block")
            cfg = from_json(TrainingConfig, metadata["config"], "'config' block")
            num_known, num_reference = int(metadata["num_known"]), int(metadata["num_reference"])
            combined_head = bool(metadata["combined_head"])
            epoch, metrics = int(metadata["epoch"]), dict(metadata["metrics"])
            head_t_spec, head_r_spec = _head_specs(backbone_spec, num_known, num_reference, combined_head)
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError, ConfigError) as exc:
            # The file is at fault, not the caller's configuration.
            raise CorruptionError(f"{path}: checkpoint metadata is missing or malformed: {exc!r}") from None
        # The parameters are the file's values; nothing is drawn at random.
        model = DualBranchModel(backbone_spec, head_t_spec, head_r_spec, backbone={}, head_T={},
                                head_R=None if head_r_spec is None else {}, num_known=num_known,
                                num_reference=num_reference, combined_head=combined_head)
        for group, name, shape in _records(model):
            full = f"{group}.{name}"
            read_exact(fh, 4 + len(full) + 4 + 8 * len(shape), f"record header of {full}")
            values = read_exact(fh, 8 * math.prod(shape), f"data of {full}")
            getattr(model, group)[name] = np.frombuffer(values, dtype="<f8").reshape(shape).copy()
        # The file must be the encoding of what it decoded to and nothing
        # more; a short tail is read so the message can show any excess.
        encoded = checkpoint_bytes(model, cfg, epoch, metrics)
        fh.seek(0)
        data = fh.read(len(encoded) + 32)
    if data != encoded:
        excess = f"; it goes on past them with {data[len(encoded):]!r}" if data.startswith(encoded) else ""
        raise CorruptionError(f"{path}: checkpoint is not the bytes save_checkpoint writes for what it "
                              f"decodes to{excess}")
    return Checkpoint(model=model, config=cfg, epoch=epoch, metrics=metrics)
