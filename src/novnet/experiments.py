"""Experiment assembly and orchestration shared by the CLI and the test
suite: config parsing, dataset assembly, the bundled synthetic Gaussian
benchmark, single training runs, and the ablation matrix.
"""

from __future__ import annotations

import json
import numbers
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import data_io, novelty_eval
from .data_io import ClusterSpec, Dataset, SplitSpec, SyntheticSpec
from .dual_trainer import (
    DualBranchModel,
    EpochStats,
    TrainingConfig,
    build_dual_model,
    train,
    train_lockstep,
)
from .errors import ConfigError, ProtocolError
from .nn_core import NetworkSpec, spec_from_dicts

ABLATION_MODES = ("ce-only", "ce+membership", "dual-ce", "dual-full")

# Geometry of the bundled benchmark. All clusters sit around a common
# positive center (so many features activate broadly, like shared image
# statistics). Known centers occupy orthonormal directions at a fixed
# radius; novel centers take one fresh orthogonal direction plus three
# midpoints between known centers (same problem domain, genuinely
# confusable for max-activation thresholding); reference centers cover the
# surrounding shell on balanced signed directions at a slightly wider
# radius (out-of-distributional data).
BENCHMARK_DIMENSION = 8
BENCHMARK_SAMPLES_PER_CLUSTER = 200
BENCHMARK_RADIUS = 2.0
BENCHMARK_CENTER_RATIO = 2.5  # center norm / cluster radius
KNOWN_CLUSTER_STDDEV = 0.75
REFERENCE_CLUSTER_STDDEV = 1.0
REFERENCE_RADIUS_SCALE = 1.15
BENCHMARK_JITTER = 0.25


@dataclass(frozen=True)
class EvalConfig:
    target_fnr: float = 0.05

    def __post_init__(self):
        value = self.target_fnr
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"evaluation target_fnr must be a number, got {value!r}")
        if not 0.0 < value < 1.0:
            raise ConfigError(f"target_fnr must be in (0, 1), got {self.target_fnr}")


@dataclass
class ExperimentConfig:
    dataset: dict
    backbone: NetworkSpec
    training: TrainingConfig
    evaluation: EvalConfig = field(default_factory=EvalConfig)

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "model": {"backbone": {"input_shape": list(self.backbone.input_shape),
                                   "layers": self.backbone.to_dicts()}},
            "training": self.training.to_dict(),
            "evaluation": {"target_fnr": self.evaluation.target_fnr},
        }


@dataclass
class ExperimentData:
    train_T: Dataset
    test_T: Dataset
    novel: Dataset | None
    reference: Dataset | None


def parse_experiment_config(source) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON file path or a parsed dict.

    Referenced data files must exist at parse time.
    """
    if isinstance(source, dict):
        raw = source
    else:
        if not os.path.exists(source):
            raise ConfigError(f"config file not found: {source}")
        try:
            with open(source) as fh:
                raw = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8 text
            raise ConfigError(f"config file {source} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {source} must hold a JSON object, got {type(raw).__name__}")
    for section in ("dataset", "model", "training"):
        if section not in raw:
            raise ConfigError(f"config is missing the {section!r} section")
    # Shape and type checks only: the sections' values are used as given.
    dataset = _json_object(raw["dataset"], "dataset section")
    for key in ("benchmark", "synthetic", "csv", "idx", "reference_csv", "split"):
        if key in dataset and not (key == "split" and dataset[key] is None):
            _json_object(dataset[key], f"dataset {key!r} entry")
    for key in ("csv", "idx", "reference_csv"):
        entry = dataset.get(key, {})
        for path_key in ("path", "images", "labels"):
            if path_key not in entry:
                continue
            path = entry[path_key]
            if not isinstance(path, str):
                raise ConfigError(f"dataset {key!r} entry: {path_key!r} must be a path string, got {path!r}")
            if not os.path.exists(path):
                raise ConfigError(f"dataset file not found: {path}")
    model_section = _json_object(raw["model"], "model section")
    if "backbone" not in model_section:
        raise ConfigError("model section needs a 'backbone' entry")
    backbone_section = _json_object(model_section["backbone"], "model 'backbone' entry")
    try:
        backbone = spec_from_dicts(backbone_section["input_shape"], backbone_section["layers"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"model 'backbone' entry is malformed: {exc!r}") from None
    training = TrainingConfig.from_dict(raw["training"])
    evaluation = _json_object(raw.get("evaluation", {}), "evaluation section")
    unknown = set(evaluation) - {"target_fnr"}
    if unknown:
        raise ConfigError(f"unknown evaluation section keys: {sorted(unknown)}")
    return ExperimentConfig(dataset=dataset, backbone=backbone,
                            training=training, evaluation=EvalConfig(**evaluation))


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _integer(value, what: str):
    """`value` itself when it is an integer; a bool, a float such as 1.7
    or 2.0, or a string is rejected rather than converted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _parse_split(section: dict | None) -> SplitSpec:
    section = dict(section or {})
    return SplitSpec(
        known_fraction=float(section.get("known_fraction", 0.5)),
        train_fraction=float(section.get("train_fraction", 0.5)),
        seed=_integer(section.get("seed", 0), "dataset 'split' entry: 'seed'"),
    )


def _synthetic_spec_from_dict(section: dict) -> SyntheticSpec:
    what = "dataset 'synthetic' entry"
    clusters = tuple(
        ClusterSpec(mean=tuple(float(v) for v in c["mean"]), stddev=float(c["stddev"]),
                    count=_integer(c["count"], f"{what}: cluster {i} 'count'"), role=str(c["role"]))
        for i, c in enumerate(section["clusters"])
    )
    return SyntheticSpec(dimension=_integer(section["dimension"], f"{what}: 'dimension'"), clusters=clusters,
                         seed=_integer(section.get("seed", 0), f"{what}: 'seed'"))


def assemble_datasets(dataset_section: dict) -> ExperimentData:
    """Turn the config's dataset section into train/test/novel/reference
    datasets following the split protocol.

    Sources: `synthetic` (explicit clusters), `benchmark` (the bundled
    generator), or `csv`/`idx` files with an alphabetical known/novel
    split. A reference dataset may come from synthetic roles or from
    `reference_csv`; its class names must not intersect the known ones.
    An optional `reshape` entry recasts every sample tensor (e.g. flat
    synthetic vectors into [channels, h, w] images for conv backbones).
    """
    split = _parse_split(dataset_section.get("split"))
    reference = None
    if "benchmark" in dataset_section:
        section = dataset_section["benchmark"]
        spec = make_benchmark_spec(
            seed=_integer(section.get("seed", 0), "dataset 'benchmark' entry: 'seed'"),
            reference_clusters=_integer(section.get("reference_clusters", 8),
                                        "dataset 'benchmark' entry: 'reference_clusters'"),
        )
        known, novel, reference = data_io.synth_gaussian(spec)
    elif "synthetic" in dataset_section:
        spec = _synthetic_spec_from_dict(dataset_section["synthetic"])
        known, novel, reference = data_io.synth_gaussian(spec)
    elif "csv" in dataset_section or "idx" in dataset_section:
        if "csv" in dataset_section:
            full = data_io.load_csv(dataset_section["csv"]["path"])
        else:
            entry = dataset_section["idx"]
            full = data_io.load_idx(entry["images"], entry["labels"])
        known, novel = data_io.split_known_novel(full, split)
    else:
        raise ConfigError("dataset section needs one of: benchmark, synthetic, csv, idx")

    if "reference_csv" in dataset_section:
        reference = data_io.load_csv(dataset_section["reference_csv"]["path"])
    if reference is not None:
        overlap = set(reference.class_names) & set(known.class_names)
        if overlap:
            raise ProtocolError(f"reference classes must not intersect known classes: {sorted(overlap)}")

    train_t, test_t = data_io.split_train_test(known, split.seed, split.train_fraction)
    data = ExperimentData(train_T=train_t, test_T=test_t, novel=novel, reference=reference)
    if "reshape" in dataset_section:
        entries = dataset_section["reshape"]
        if not isinstance(entries, list):
            raise ConfigError(f"dataset 'reshape' entry must be a list of integers, got {entries!r}")
        shape = tuple(_integer(s, f"dataset 'reshape' entry {j}") for j, s in enumerate(entries))
        data = ExperimentData(*[_reshape_dataset(ds, shape) for ds in
                                (data.train_T, data.test_T, data.novel, data.reference)])
    return data


def _reshape_dataset(dataset: "Dataset | None", shape: tuple[int, ...]) -> "Dataset | None":
    if dataset is None:
        return None
    size = int(np.prod(dataset.sample_shape))
    if int(np.prod(shape)) != size:
        raise ConfigError(f"cannot reshape samples of {size} values to {shape}")
    return Dataset(dataset.x.reshape((len(dataset),) + shape), dataset.y,
                   list(dataset.class_names), provenance=dataset.provenance)


def make_benchmark_spec(seed: int, reference_clusters: int = 8,
                        samples_per_cluster: int = BENCHMARK_SAMPLES_PER_CLUSTER) -> SyntheticSpec:
    """The bundled Gaussian benchmark for one seed: 4 known, 4 novel, and
    `reference_clusters` reference clusters in 8 dimensions.

    All placement and sampling randomness derives from `seed`.
    """
    rng = np.random.default_rng([seed, 17])
    dim = BENCHMARK_DIMENSION
    radius = BENCHMARK_RADIUS
    jitter = BENCHMARK_JITTER
    center = BENCHMARK_CENTER_RATIO * radius * np.ones(dim) / np.sqrt(dim)
    frame, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    known_means = [center + radius * frame[:, i] for i in range(4)]
    clusters = [ClusterSpec(tuple(m), KNOWN_CLUSTER_STDDEV, samples_per_cluster, "known")
                for m in known_means]
    novel_bases = [
        center + radius * frame[:, 4],
        0.5 * (known_means[0] + known_means[1]),
        0.5 * (known_means[2] + known_means[3]),
        0.5 * (known_means[1] + known_means[2]),
    ]
    for base in novel_bases:
        mean = base + rng.normal(0.0, jitter, dim)
        clusters.append(ClusterSpec(tuple(mean), KNOWN_CLUSTER_STDDEV, samples_per_cluster, "novel"))
    ref_frame, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    directions = [sign * ref_frame[:, i] for i in range(4) for sign in (+1.0, -1.0)]
    while len(directions) < reference_clusters:
        u = rng.standard_normal(dim)
        directions.append(u / np.linalg.norm(u))
    for u in directions[:reference_clusters]:
        mean = center + REFERENCE_RADIUS_SCALE * radius * u + rng.normal(0.0, jitter, dim)
        clusters.append(ClusterSpec(tuple(mean), REFERENCE_CLUSTER_STDDEV,
                                    samples_per_cluster, "reference"))
    return SyntheticSpec(dimension=dim, clusters=tuple(clusters), seed=seed)


def benchmark_backbone() -> NetworkSpec:
    """Small dense backbone matched to the benchmark's 8-dim inputs."""
    return spec_from_dicts([BENCHMARK_DIMENSION], [
        {"kind": "dense", "in": BENCHMARK_DIMENSION, "out": 20},
        {"kind": "relu"},
    ])


def benchmark_config(data_seed: int = 0, reference_clusters: int = 8,
                     mode: str = "dual-full", training_seed: int = 0,
                     epochs: int = 100) -> ExperimentConfig:
    """Ready-to-run configuration for the bundled benchmark."""
    training = TrainingConfig(mode=mode, epochs=epochs, lr=0.05, momentum=0.9,
                              batch_size_T=32, batch_size_R=32, seed=training_seed)
    return ExperimentConfig(
        dataset={"benchmark": {"seed": data_seed, "reference_clusters": reference_clusters},
                 "split": {"train_fraction": 0.5, "seed": data_seed}},
        backbone=benchmark_backbone(),
        training=training,
        evaluation=EvalConfig(),
    )


@dataclass
class ExperimentResult:
    mode: str
    training_seed: int
    auc: float
    accuracy: float
    model: DualBranchModel
    history: list[EpochStats]
    data: ExperimentData


def run_experiment(cfg: ExperimentConfig, mode: str | None = None,
                   seed: int | None = None,
                   data: ExperimentData | None = None) -> ExperimentResult:
    """Assemble data, build and train a model, and evaluate novelty AUC
    plus closed-set accuracy on the held-out splits.

    Pass pre-assembled `data` to share one draw across several runs."""
    if data is None:
        data = assemble_datasets(cfg.dataset)
    overrides = {key: value for key, value in (("mode", mode), ("seed", seed)) if value is not None}
    if overrides:
        cfg = replace(cfg, training=replace(cfg.training, **overrides))
    model, history = train_model(cfg, data)
    _, roc, accuracy = evaluate_detection(model, data)
    return ExperimentResult(mode=cfg.training.mode, training_seed=cfg.training.seed, auc=roc.auc,
                            accuracy=accuracy, model=model, history=history, data=data)


def _build_model(cfg: ExperimentConfig, data: ExperimentData) -> tuple[DualBranchModel, Dataset | None]:
    """The untrained model for the training mode, and the reference data
    it trains on (None when the mode does not use it)."""
    training = cfg.training
    if training.uses_reference and data.reference is None:
        raise ConfigError(f"mode {training.mode!r} needs a reference dataset")
    reference = data.reference if training.uses_reference else None
    num_reference = reference.n_classes if reference is not None else 0
    model = build_dual_model(cfg.backbone, data.train_T.n_classes, num_reference,
                             seed=training.seed, combined_head=training.mode == "finetune-cC")
    return model, reference


def train_model(cfg: ExperimentConfig, data: ExperimentData) -> tuple[DualBranchModel, list[EpochStats]]:
    """Build a dual-branch model for the training mode and train it on the
    train split (plus the reference data when the mode uses it)."""
    model, reference = _build_model(cfg, data)
    return train(model, data.train_T, reference, cfg.training)


def evaluate_detection(model: DualBranchModel, data: ExperimentData) -> tuple[
        np.recarray, novelty_eval.RocResult, float]:
    """Score the known test split and the novel data, one forward pass
    each, and return the score table (known rows first), the ROC curve
    with its AUC, and the closed-set accuracy on the known test split."""
    if model.num_known != data.train_T.n_classes:
        raise ProtocolError(
            f"checkpoint has {model.num_known} known classes but dataset has {data.train_T.n_classes}")
    if data.novel is None:
        raise ProtocolError("evaluation needs novel samples; AUC is undefined without them")
    known = novelty_eval.score_dataset(model, data.test_T, is_novel=False)
    novel = novelty_eval.score_dataset(model, data.novel, is_novel=True, start_id=len(known))
    roc = novelty_eval.roc_auc(known.score, novel.score)
    # The class-count check above puts every test_T label in [0, num_known).
    accuracy = float(np.mean(known.predicted_class == known.true_class))
    return np.concatenate([known, novel]).view(np.recarray), roc, accuracy


@dataclass
class AblationRow:
    mode: str
    seed: int
    auc: float
    accuracy: float


def ablation_seed(base_seed: int, rep: int, mode_index: int, n_modes: int) -> int:
    """Per-row training seed: modes fan out from the rep's base seed."""
    return base_seed + n_modes * rep + mode_index


def _reseed_dataset_section(dataset_section: dict, rep: int) -> dict:
    """Shift every seed in the dataset section by the rep index so each
    rep draws fresh data while all modes within the rep share it."""
    section = json.loads(json.dumps(dataset_section))
    for key in ("benchmark", "synthetic"):
        if key in section:
            seed = _integer(section[key].get("seed", 0), f"dataset {key!r} entry: 'seed'")
            section[key]["seed"] = seed + rep
    split = section["split"] = section.get("split") or {}  # null means the default split
    split["seed"] = _integer(split.get("seed", 0), "dataset 'split' entry: 'seed'") + rep
    return section


def run_ablation(cfg: ExperimentConfig, modes=ABLATION_MODES, n_seeds: int = 10,
                 base_seed: int | None = None) -> list[AblationRow]:
    """Run every mode n_seeds times.

    Within a rep, all modes share one data draw and split (so modes are
    compared on identical data); across reps both the data seed and the
    training seeds advance deterministically. All rows train in one
    lockstep stack, each exactly as run_experiment would train it alone,
    and are then scored one by one.
    """
    modes = tuple(modes)
    if n_seeds < 1:
        raise ConfigError(f"ablation needs at least one seed, got {n_seeds}")
    for mode in modes:
        if mode not in ABLATION_MODES:
            raise ConfigError(f"ablation mode must be one of {ABLATION_MODES}, got {mode!r}")
    if base_seed is None:
        base_seed = cfg.training.seed
    runs = []
    for rep in range(n_seeds):
        data = assemble_datasets(_reseed_dataset_section(cfg.dataset, rep))
        for mode in modes:
            # canonical mode index, so a restricted run reproduces the
            # exact rows of the full matrix
            seed = ablation_seed(base_seed, rep, ABLATION_MODES.index(mode), len(ABLATION_MODES))
            run_cfg = replace(cfg, training=replace(cfg.training, mode=mode, seed=seed))
            runs.append((run_cfg.training, data) + _build_model(run_cfg, data))
    train_lockstep([model for _, _, model, _ in runs], [data.train_T for _, data, _, _ in runs],
                   [reference for _, _, _, reference in runs], [training for training, _, _, _ in runs])
    rows = []
    for training, data, model, _ in runs:
        _, roc, accuracy = evaluate_detection(model, data)
        rows.append(AblationRow(mode=training.mode, seed=training.seed, auc=roc.auc, accuracy=accuracy))
    return rows


def ablation_means(rows: list[AblationRow]) -> dict[str, float]:
    means: dict[str, float] = {}
    for mode in {row.mode for row in rows}:
        aucs = [row.auc for row in rows if row.mode == mode]
        means[mode] = float(np.mean(aucs))
    return means
