"""Dual-branch training: one shared backbone feeding two independent
final layers, trained on paired mini-batches from the known dataset (T)
and the reference dataset (R).

The backbone is stored once, so both branches observe identical feature
weights at every step by construction; its gradient is the sum of the two
branches' contributions, which is mathematically identical to mirrored
copies with synchronized updates.

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
import os
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import nn_core
from .data_io import Dataset, write_atomic
from .errors import (
    ConfigError,
    CorruptionError,
    DivergenceError,
    FormatError,
)
from .losses import LossResult, MembershipParams, cross_entropy, cumulative_loss, membership_loss
from .nn_core import NetworkSpec, OptimizerState, ParamSet

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
    lam: float = 5.0
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
        # Written so that NaN fails every check.
        if not self.lam > 0:
            raise ConfigError(f"lambda must be positive, got {self.lam}")
        if not (self.alpha1 >= 0 and self.alpha2 >= 0):
            raise ConfigError("alpha1 and alpha2 must be >= 0")
        if not self.lr >= 0:
            raise ConfigError(f"learning rate must be >= 0, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not self.seed >= 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size_T < 1 or self.batch_size_R < 1:
            raise ConfigError("batch sizes must be >= 1")

    @property
    def uses_reference(self) -> bool:
        return self.mode in _REFERENCE_MODES

    @property
    def uses_membership(self) -> bool:
        return self.mode in _MEMBERSHIP_MODES

    @property
    def effective_alpha2(self) -> float:
        return self.alpha2 if self.uses_membership else 0.0

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainingConfig":
        d = dict(d)
        if "lambda" in d:
            d["lam"] = d.pop("lambda")
        unknown = set(d) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ConfigError(f"unknown training config keys: {sorted(unknown)}")
        return cls(**d)


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
        return nn_core.forward(self.backbone_spec, self.backbone, x)[0]

    # Both branches route through the single stored backbone; the two
    # accessors exist so the weight-sharing contract can be tested from
    # either branch's point of view.
    def features_for_known_branch(self, x: np.ndarray) -> np.ndarray:
        return self.backbone_features(x)

    def features_for_reference_branch(self, x: np.ndarray) -> np.ndarray:
        return self.backbone_features(x)

    def known_logits(self, x: np.ndarray) -> np.ndarray:
        """Full output of the known head (c entries, or c + C when combined)."""
        feat = self.backbone_features(x)
        return nn_core.forward(self.head_T_spec, self.head_T, feat)[0]

    def known_class_logits(self, x: np.ndarray) -> np.ndarray:
        """Known-class slice of the known head's output (always c entries)."""
        return self.known_logits(x)[:, : self.num_known]

    def reference_logits(self, x: np.ndarray) -> np.ndarray:
        if self.head_R is None:
            raise ConfigError("model has no reference head")
        feat = self.backbone_features(x)
        return nn_core.forward(self.head_R_spec, self.head_R, feat)[0]


def _dense_head_spec(width: int, outputs: int) -> NetworkSpec:
    return NetworkSpec((width,), (nn_core.Dense(width, outputs),))


def build_dual_model(backbone_spec: NetworkSpec, num_known: int, num_reference: int,
                     seed: int, combined_head: bool = False) -> DualBranchModel:
    """Initialize a dual-branch model deterministically from one seed.

    The backbone and the two heads draw from independent seed streams, so
    the heads never start identical. With combined_head=True the known
    head gets num_known + num_reference outputs and no reference head is
    built (the finetune-cC baseline).
    """
    if num_known < 2:
        raise ConfigError(f"need at least 2 known classes, got {num_known}")
    if num_reference < 0:
        raise ConfigError(f"reference class count must be >= 0, got {num_reference}")
    out_shape = backbone_spec.output_shape
    if len(out_shape) != 1:
        raise ConfigError(f"backbone must end in a flat feature vector, got shape {out_shape}")
    width = out_shape[0]

    head_t_outputs = num_known + num_reference if combined_head else num_known
    head_t_spec = _dense_head_spec(width, head_t_outputs)
    head_r_spec = None
    head_r = None
    if not combined_head and num_reference >= 1:
        head_r_spec = _dense_head_spec(width, num_reference)
        head_r = nn_core.init_params(head_r_spec, [seed, _STREAM_HEAD_R])
    return DualBranchModel(
        backbone_spec=backbone_spec,
        head_T_spec=head_t_spec,
        head_R_spec=head_r_spec,
        backbone=nn_core.init_params(backbone_spec, [seed, _STREAM_BACKBONE]),
        head_T=nn_core.init_params(head_t_spec, [seed, _STREAM_HEAD_T]),
        head_R=head_r,
        num_known=num_known,
        num_reference=num_reference,
        combined_head=combined_head,
    )


@dataclass
class StepMetrics:
    loss_ce_R: float
    loss_ce_T: float
    loss_m_T: float
    cumulative: float


@dataclass
class EpochStats:
    epoch: int
    loss_ce_R: float
    loss_ce_T: float
    loss_m_T: float
    cumulative: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainerState:
    """Momentum state for the three parameter groups."""

    backbone: OptimizerState
    head_T: OptimizerState
    head_R: OptimizerState | None

    @classmethod
    def fresh(cls, model: DualBranchModel, cfg: TrainingConfig) -> "TrainerState":
        make = lambda: OptimizerState(lr=cfg.lr, momentum=cfg.momentum)
        return cls(backbone=make(), head_T=make(), head_R=make() if model.head_R is not None else None)


def _branch_backward(spec_head, params_head, spec_backbone, params_backbone,
                     cache_head, cache_backbone, upstream):
    head_grads, dfeat = nn_core.backward(spec_head, params_head, cache_head, upstream)
    backbone_grads, _ = nn_core.backward(spec_backbone, params_backbone, cache_backbone, dfeat)
    return head_grads, backbone_grads


def train_step(model: DualBranchModel, batch_T, batch_R, cfg: TrainingConfig,
               state: TrainerState | None = None) -> StepMetrics:
    """One optimization step on a (T batch, R batch) pair.

    batch_T / batch_R are (features, labels) tuples; batch_R must be None
    in modes without a reference branch. Updates the model parameters and
    the optimizer state in place and returns the loss components computed
    at the pre-update parameters.
    """
    if state is None:
        state = TrainerState.fresh(model, cfg)
    dual = cfg.mode in _DUAL_MODES
    if dual and batch_R is None:
        raise ConfigError(f"mode {cfg.mode!r} needs a reference batch")
    if not dual and batch_R is not None:
        raise ConfigError(f"mode {cfg.mode!r} does not take a reference batch")

    x_t, y_t = batch_T
    feat_t, cache_bt = nn_core.forward(model.backbone_spec, model.backbone, x_t)
    f_t, cache_ht = nn_core.forward(model.head_T_spec, model.head_T, feat_t)
    ce_t = cross_entropy(f_t, y_t)

    alpha2 = cfg.effective_alpha2
    if cfg.uses_membership:
        m_t = membership_loss(f_t, y_t, MembershipParams(cfg.lam))
    else:
        m_t = LossResult(0.0, np.zeros_like(ce_t.grad))
    upstream_t = cfg.alpha1 * ce_t.grad + alpha2 * m_t.grad
    head_t_grads, backbone_grads = _branch_backward(
        model.head_T_spec, model.head_T, model.backbone_spec, model.backbone,
        cache_ht, cache_bt, upstream_t)

    loss_ce_r = 0.0
    if dual:
        x_r, y_r = batch_R
        feat_r, cache_br = nn_core.forward(model.backbone_spec, model.backbone, x_r)
        f_r, cache_hr = nn_core.forward(model.head_R_spec, model.head_R, feat_r)
        ce_r = cross_entropy(f_r, y_r)
        loss_ce_r = ce_r.value
        head_r_grads, backbone_grads_r = _branch_backward(
            model.head_R_spec, model.head_R, model.backbone_spec, model.backbone,
            cache_hr, cache_br, ce_r.grad)
        backbone_grads = {k: backbone_grads[k] + backbone_grads_r[k] for k in backbone_grads}

    total = cumulative_loss(loss_ce_r, ce_t.value, m_t.value, cfg.alpha1, alpha2)
    if not np.isfinite(total):
        raise DivergenceError(f"non-finite cumulative loss {total}")

    model.backbone, state.backbone = nn_core.sgd_step(model.backbone, backbone_grads, state.backbone)
    model.head_T, state.head_T = nn_core.sgd_step(model.head_T, head_t_grads, state.head_T)
    if dual:
        model.head_R, state.head_R = nn_core.sgd_step(model.head_R, head_r_grads, state.head_R)
    return StepMetrics(loss_ce_r, ce_t.value, m_t.value, total)


class _IndexStream:
    """Endless stream of dataset indices: shuffled, reshuffled on exhaustion."""

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = n
        self.rng = rng
        self.queue: list[int] = []

    def take(self, k: int) -> list[int]:
        while len(self.queue) < k:
            self.queue.extend(self.rng.permutation(self.n).tolist())
        out = self.queue[:k]
        del self.queue[:k]
        return out


def _check_mode_datasets(model: DualBranchModel, dataset_T: Dataset,
                         dataset_R: Dataset | None, cfg: TrainingConfig) -> None:
    if cfg.uses_reference:
        if dataset_R is None and not (cfg.mode == "finetune-cC" and model.num_reference == 0):
            raise ConfigError(f"mode {cfg.mode!r} requires a reference dataset")
    elif dataset_R is not None:
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


def train(model: DualBranchModel, dataset_T: Dataset, dataset_R: Dataset | None,
          cfg: TrainingConfig, epoch_callback=None):
    """Train the model for cfg.epochs epochs over T.

    The reference dataset is consumed as an endless shuffled stream, one
    batch per step, reshuffled whenever it runs out. In finetune-cC mode
    the epoch runs over the union of T and the relabeled reference data.
    Per-epoch loss components are averaged over steps and returned as the
    history; epoch_callback(epoch_index, model), when given, runs after
    each epoch. Deterministic given cfg.seed.
    """
    _check_mode_datasets(model, dataset_T, dataset_R, cfg)
    history: list[EpochStats] = []
    if cfg.epochs == 0:
        return model, history

    rng = np.random.default_rng([cfg.seed, _STREAM_BATCHING])
    state = TrainerState.fresh(model, cfg)

    if cfg.mode == "finetune-cC":
        x_parts = [dataset_T.features()]
        y_parts = [dataset_T.labels()]
        if dataset_R is not None:
            x_parts.append(dataset_R.features())
            y_parts.append(dataset_R.labels() + model.num_known)
        x_epoch = np.concatenate(x_parts)
        y_epoch = np.concatenate(y_parts)
    else:
        x_epoch = dataset_T.features()
        y_epoch = dataset_T.labels()

    dual = cfg.mode in _DUAL_MODES
    if dual:
        x_ref = dataset_R.features()
        y_ref = dataset_R.labels()
        ref_stream = _IndexStream(len(dataset_R), rng)

    n = len(y_epoch)
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        sums = np.zeros(4)
        steps = 0
        for start in range(0, n, cfg.batch_size_T):
            idx = perm[start:start + cfg.batch_size_T]
            batch_t = (x_epoch[idx], y_epoch[idx])
            batch_r = None
            if dual:
                ridx = ref_stream.take(cfg.batch_size_R)
                batch_r = (x_ref[ridx], y_ref[ridx])
            metrics = train_step(model, batch_t, batch_r, cfg, state)
            sums += (metrics.loss_ce_R, metrics.loss_ce_T, metrics.loss_m_T, metrics.cumulative)
            steps += 1
        means = sums / steps
        history.append(EpochStats(epoch, *(float(v) for v in means)))
        if epoch_callback is not None:
            epoch_callback(epoch, model)
    return model, history


@dataclass
class Checkpoint:
    """A saved model: format version, specs + parameters, the training
    configuration, the epoch counter, and final training metrics."""

    version: int
    model: DualBranchModel
    config: TrainingConfig
    epoch: int
    metrics: dict = field(default_factory=dict)


def _named_params(model: DualBranchModel):
    for name, value in model.backbone.items():
        yield f"backbone.{name}", value
    for name, value in model.head_T.items():
        yield f"head_T.{name}", value
    if model.head_R is not None:
        for name, value in model.head_R.items():
            yield f"head_R.{name}", value


def save_checkpoint(model: DualBranchModel, cfg: TrainingConfig, path,
                    epoch: int = 0, metrics: dict | None = None) -> None:
    """Write the checkpoint file (binary, little-endian, magic 'NVFG').

    Layout: magic, u32 version, u64-length-prefixed JSON metadata block,
    then one record per parameter (u32 name length, name, u32 rank, u64
    dims, float64 values). The write is atomic: a temp file is renamed
    into place only on success.
    """
    metadata = {
        "backbone": {"input_shape": list(model.backbone_spec.input_shape),
                     "layers": model.backbone_spec.to_dicts()},
        "num_known": model.num_known,
        "num_reference": model.num_reference,
        "combined_head": model.combined_head,
        "config": cfg.to_dict(),
        "epoch": epoch,
        "metrics": metrics or {},
    }
    meta_bytes = json.dumps(metadata, sort_keys=True).encode("utf-8")
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION),
             struct.pack("<Q", len(meta_bytes)), meta_bytes]
    for name, value in _named_params(model):
        name_bytes = name.encode("utf-8")
        parts += [struct.pack("<I", len(name_bytes)), name_bytes, struct.pack("<I", value.ndim),
                  struct.pack(f"<{value.ndim}Q", *value.shape),
                  np.ascontiguousarray(value, dtype="<f8").tobytes()]
    write_atomic(path, b"".join(parts))


def _read_exact(fh, count: int, what: str) -> bytes:
    # Checked against the file size first, so a corrupt length field
    # cannot request a huge read.
    if count > os.fstat(fh.fileno()).st_size - fh.tell():
        raise CorruptionError(f"checkpoint truncated while reading {what}")
    return fh.read(count)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint; bit-exact round trip."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad checkpoint magic {magic!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        (meta_len,) = struct.unpack("<Q", _read_exact(fh, 8, "metadata length"))
        try:
            metadata = json.loads(_read_exact(fh, meta_len, "metadata").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptionError(f"{path}: unreadable metadata block: {exc}") from None
        tensors: dict[str, np.ndarray] = {}
        while True:
            head = fh.read(4)
            if head == b"":
                break
            if len(head) != 4:
                raise CorruptionError("checkpoint truncated while reading record header")
            (name_len,) = struct.unpack("<I", head)
            name = _read_exact(fh, name_len, "parameter name").decode("utf-8")
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, "rank"))
            dims = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank, "dims"))
            count = math.prod(dims)
            data = _read_exact(fh, 8 * count, f"data of {name}")
            tensors[name] = np.frombuffer(data, dtype="<f8").reshape(dims).copy()

    try:
        backbone_spec = nn_core.spec_from_dicts(metadata["backbone"]["input_shape"],
                                                metadata["backbone"]["layers"])
        cfg = TrainingConfig.from_dict(metadata["config"])
        num_known, num_reference = int(metadata["num_known"]), int(metadata["num_reference"])
        combined_head = bool(metadata["combined_head"])
        epoch, metrics = int(metadata["epoch"]), dict(metadata["metrics"])
    except (KeyError, TypeError) as exc:
        raise CorruptionError(f"{path}: checkpoint metadata is missing or malformed: {exc!r}") from None
    model = build_dual_model(backbone_spec, num_known, num_reference, seed=0,
                             combined_head=combined_head)

    def restore(group: ParamSet, prefix: str) -> ParamSet:
        out: ParamSet = {}
        for name, value in group.items():
            full = f"{prefix}.{name}"
            if full not in tensors:
                raise CorruptionError(f"checkpoint missing parameter {full!r}")
            if tensors[full].shape != value.shape:
                raise FormatError(
                    f"parameter {full!r} has shape {tensors[full].shape}, expected {value.shape}")
            out[name] = tensors[full]
        return out

    model.backbone = restore(model.backbone, "backbone")
    model.head_T = restore(model.head_T, "head_T")
    if model.head_R is not None:
        model.head_R = restore(model.head_R, "head_R")
    unknown = sorted(set(tensors) - {name for name, _ in _named_params(model)})
    if unknown:
        raise FormatError(f"{path}: checkpoint has parameters the model does not: {unknown}")
    return Checkpoint(version=version, model=model, config=cfg, epoch=epoch, metrics=metrics)
