"""Experiment assembly and orchestration shared by the CLI and the test
suite: config parsing, dataset assembly, the bundled synthetic Gaussian
benchmark, single training runs, and the ablation matrix.
"""

from __future__ import annotations

import json
import math
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
    train_lockstep,
)
from .errors import (ConfigError, ProtocolError, UsageError, check_integer, check_keys, check_list, check_number,
                     from_json, to_json)
from .nn_core import NetworkSpec, spec_from_json

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
        if not 0.0 < check_number(self.target_fnr, "'target_fnr'") < 1.0:
            raise ConfigError(f"'target_fnr' must be in (0, 1), got {self.target_fnr}")


@dataclass(frozen=True)
class BenchmarkSource:
    """The dataset section's `benchmark` entry: the bundled generator's
    data seed and reference cluster count (see make_benchmark_spec)."""

    seed: int = 0
    reference_clusters: int = 8

    def __post_init__(self):
        check_integer(self.seed, "'seed'", 0)
        check_integer(self.reference_clusters, "'reference_clusters'", 0)


def _check_paths(entry) -> None:
    for name, path in vars(entry).items():
        if not isinstance(path, str):
            raise ConfigError(f"{name!r} must be a path string, got {path!r}")
        if not os.path.isfile(path):
            raise ConfigError(f"{name!r} file not found: {path}")


@dataclass(frozen=True)
class CsvFile:
    """A `csv` or `reference_csv` entry; the file must exist."""

    path: str
    __post_init__ = _check_paths


@dataclass(frozen=True)
class IdxFiles:
    """An `idx` entry: an IDX image file and its label file; both must exist."""

    images: str
    labels: str
    __post_init__ = _check_paths


_SOURCES = ("benchmark", "synthetic", "csv", "idx")


@dataclass(frozen=True)
class DatasetConfig:
    """The config's dataset section: exactly one data source, the split, an
    optional reference dataset file (then the source has no reference
    clusters), and an optional `reshape` that recasts every sample (e.g. flat
    synthetic vectors into [channels, h, w] images for conv backbones).
    The split's `known_fraction` divides the classes of a csv or idx
    file; a benchmark or synthetic source gives each cluster its role, so
    it refuses the key."""

    benchmark: BenchmarkSource | None = None
    synthetic: SyntheticSpec | None = None
    csv: CsvFile | None = None
    idx: IdxFiles | None = None
    reference_csv: CsvFile | None = None
    split: SplitSpec = SplitSpec()
    reshape: tuple[int, ...] | None = None

    def __post_init__(self):
        sources = [key for key in _SOURCES if getattr(self, key) is not None]
        if len(sources) != 1:
            raise ConfigError(f"dataset section needs exactly one of {', '.join(_SOURCES)}, got {sources}")
        if self.split.known_fraction is not None and sources[0] in ("benchmark", "synthetic"):
            raise ConfigError(f"dataset 'split' entry sets 'known_fraction', which the {sources[0]!r} entry "
                              f"does not use: its clusters carry their roles; remove the key")
        drawn = (self.benchmark.reference_clusters if self.benchmark is not None else
                 sum(c.role == "reference" for c in self.synthetic.clusters) if self.synthetic is not None else 0)
        if self.reference_csv is not None and drawn:
            raise ConfigError(f"dataset section takes reference data from both 'reference_csv' and {drawn} "
                              f"reference clusters of its {sources[0]!r} entry; keep one of them")
        if self.reshape is not None:
            object.__setattr__(self, "reshape", check_list(self.reshape, "dataset 'reshape' entry"))
            for j, size in enumerate(self.reshape):
                check_integer(size, f"dataset 'reshape' entry {j}", 1)

    @classmethod
    def from_dict(cls, raw) -> "DatasetConfig":
        """Parse the dataset section once; a null `split` is the default split."""
        check_keys(raw, "dataset section", optional=cls.__dataclass_fields__)
        entries = {}
        for key, value in raw.items():
            what = f"dataset {key!r} entry"
            if key == "synthetic" and isinstance(value, dict) and isinstance(value.get("clusters"), list):
                value = {**value, "clusters": tuple(from_json(ClusterSpec, c, f"{what} cluster {i}")
                                                    for i, c in enumerate(value["clusters"]))}
            if key == "reshape":
                entries[key] = value
            elif not (key == "split" and value is None):
                entries[key] = from_json(_ENTRY_TYPES[key], value, what)
        return cls(**entries)


_ENTRY_TYPES = {"benchmark": BenchmarkSource, "synthetic": SyntheticSpec, "csv": CsvFile,
                "idx": IdxFiles, "reference_csv": CsvFile, "split": SplitSpec}


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig
    backbone: NetworkSpec
    training: TrainingConfig
    evaluation: EvalConfig = field(default_factory=EvalConfig)

    def to_dict(self) -> dict:
        return {"dataset": to_json(self.dataset), "model": {"backbone": to_json(self.backbone)},
                "training": to_json(self.training), "evaluation": to_json(self.evaluation)}


@dataclass
class ExperimentData:
    """The assembled splits; one that its caller does not read is None."""

    train_T: Dataset | None
    test_T: Dataset | None
    novel: Dataset | None
    reference: Dataset | None


SPLITS = tuple(ExperimentData.__dataclass_fields__)


def parse_experiment_config(source) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON file path or a parsed dict.

    Every section is parsed and checked here, once; referenced data
    files must exist at parse time.
    """
    if isinstance(source, dict):
        raw = source
    else:
        if not os.path.exists(source):
            raise ConfigError(f"config file not found: {source}")
        try:
            with open(source) as fh:
                raw = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8 text, or nested too deep
            raise ConfigError(f"config file {source} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {source} must hold a JSON object, got {type(raw).__name__}")
    check_keys(raw, "config", ("dataset", "model", "training"), ("evaluation",))
    model = check_keys(raw["model"], "model section", ("backbone",))
    backbone = spec_from_json(model["backbone"], "model 'backbone' entry")
    return ExperimentConfig(dataset=DatasetConfig.from_dict(raw["dataset"]), backbone=backbone,
                            training=from_json(TrainingConfig, raw["training"], "training section"),
                            evaluation=from_json(EvalConfig, raw.get("evaluation", {}), "evaluation section"))


def assemble_datasets(section: DatasetConfig, splits: tuple[str, ...] = SPLITS) -> ExperimentData:
    """Turn the dataset section into train/test/novel/reference datasets
    following the split protocol.

    Sources: `synthetic` (explicit clusters), `benchmark` (the bundled
    generator), or `csv`/`idx` files with an alphabetical known/novel
    split. A reference dataset comes from synthetic roles or from
    `reference_csv`, never both; its class names must not intersect the
    known ones. `splits` names the ExperimentData fields the caller reads
    and must hold train_T or test_T, the halves of the known split; a
    split it does not name is never built and is None. A synthetic source
    draws no cluster after the last one of the roles these splits take,
    and the known split draws its permutations either way, so no built
    byte changes. The memory check still counts every cluster, and
    `reference_csv` is still loaded, since its class-overlap check
    validates the config.
    """
    unknown = [name for name in splits if name not in SPLITS]
    if unknown or not {"train_T", "test_T"} & set(splits):
        raise UsageError(f"splits {list(splits)} must be of {list(SPLITS)} and include train_T or test_T")
    roles = ("known",) + tuple(role for role in ("novel", "reference") if role in splits)
    reference = None
    if section.benchmark is not None:
        spec = make_benchmark_spec(section.benchmark.seed, section.benchmark.reference_clusters)
        known, novel, reference = data_io.synth_gaussian(spec, roles)
    elif section.synthetic is not None:
        known, novel, reference = data_io.synth_gaussian(section.synthetic, roles)
    else:
        if section.csv is not None:
            full = data_io.load_csv(section.csv.path)
        else:
            full = data_io.load_idx(section.idx.images, section.idx.labels)
        known, novel = data_io.split_known_novel(full, section.split)

    if section.reference_csv is not None:
        reference = data_io.load_csv(section.reference_csv.path)
    if reference is not None:
        overlap = set(reference.class_names) & set(known.class_names)
        if overlap:
            raise ProtocolError(f"reference classes must not intersect known classes: {sorted(overlap)}")

    train_t, test_t = data_io.split_train_test(known, section.split.seed, section.split.train_fraction,
                                               train="train_T" in splits, test="test_T" in splits)
    data = ExperimentData(train_T=train_t, test_T=test_t, novel=novel if "novel" in roles else None,
                          reference=reference if "reference" in roles else None)
    if section.reshape is not None:
        data = ExperimentData(*[_reshape_dataset(ds, section.reshape) for ds in
                                (data.train_T, data.test_T, data.novel, data.reference)])
    return data


def _reshape_dataset(dataset: "Dataset | None", shape: tuple[int, ...]) -> "Dataset | None":
    if dataset is None:
        return None
    size = math.prod(dataset.sample_shape)
    if math.prod(shape) != size:
        raise ConfigError(f"cannot reshape samples of {size} values to {shape}")
    return Dataset(dataset.x.reshape((len(dataset),) + shape), dataset.y,
                   list(dataset.class_names), provenance=dataset.provenance)


def make_benchmark_spec(seed: int, reference_clusters: int = 8,
                        samples_per_cluster: int = BENCHMARK_SAMPLES_PER_CLUSTER) -> SyntheticSpec:
    """The bundled Gaussian benchmark for one seed: 4 known, 4 novel, and
    `reference_clusters` reference clusters in 8 dimensions.

    All placement and sampling randomness derives from `seed`.
    """
    data_io.check_fits_in_memory((8 + reference_clusters) * samples_per_cluster * BENCHMARK_DIMENSION,
                                 f"benchmark 'reference_clusters' {reference_clusters}")
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


@dataclass
class ExperimentResult:
    mode: str
    seed: int
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
    return _run([(cfg, data)])[0]


def train_models(runs) -> list[tuple[DualBranchModel, list[EpochStats]]]:
    """Build each run's model for its training mode and train all of them
    in one lockstep stack, each on its train split (plus the reference
    data when the mode uses it); `runs` holds (ExperimentConfig,
    ExperimentData) pairs. Returns (model, history) per run."""
    models, references = [], []
    for cfg, data in runs:
        training = cfg.training
        reference = data.reference if training.uses_reference else None
        models.append(build_dual_model(cfg.backbone, data.train_T.n_classes,
                                       reference.n_classes if reference is not None else 0,
                                       seed=training.seed, combined_head=training.mode == "finetune-cC"))
        references.append(reference)
    histories = train_lockstep(models, [data.train_T for _, data in runs], references,
                               [cfg.training for cfg, _ in runs])
    return list(zip(models, histories))


def _run(runs) -> list[ExperimentResult]:
    """Train the runs in one stack (train_models), then score each."""
    results = []
    for (cfg, data), (model, history) in zip(runs, train_models(runs)):
        _, roc, accuracy = evaluate_detection(model, data)
        results.append(ExperimentResult(mode=cfg.training.mode, seed=cfg.training.seed, auc=roc.auc,
                                        accuracy=accuracy, model=model, history=history, data=data))
    return results


def evaluate_detection(model: DualBranchModel, data: ExperimentData) -> tuple[
        np.recarray, novelty_eval.RocResult, float]:
    """Score the known test split and the novel data, one forward pass
    each, and return the score table (known rows first), the ROC curve
    with its AUC, and the closed-set accuracy on the known test split."""
    if data.novel is None:
        raise ProtocolError("evaluation needs novel samples; AUC is undefined without them")
    known = novelty_eval.score_dataset(model, data.test_T, is_novel=False)
    novel = novelty_eval.score_dataset(model, data.novel, is_novel=True, start_id=len(known))
    roc = novelty_eval.roc_auc(known.score, novel.score)
    return np.concatenate([known, novel]).view(np.recarray), roc, novelty_eval.closed_set_accuracy(known)


def ablation_seed(base_seed: int, rep: int, mode_index: int, n_modes: int) -> int:
    """Per-row training seed: modes fan out from the rep's base seed."""
    return base_seed + n_modes * rep + mode_index


def _reseed_dataset_section(section: DatasetConfig, rep: int) -> DatasetConfig:
    """Shift every seed in the dataset section by the rep index so each
    rep draws fresh data while all modes within the rep share it."""
    sources = {key: replace(entry, seed=entry.seed + rep) for key in ("benchmark", "synthetic")
               if (entry := getattr(section, key)) is not None}
    return replace(section, split=replace(section.split, seed=section.split.seed + rep), **sources)


def run_ablation(cfg: ExperimentConfig, modes=ABLATION_MODES, n_seeds: int = 10) -> list[ExperimentResult]:
    """Run every mode n_seeds times, with cfg.training.seed the base of
    the seed matrix.

    Within a rep, all modes share one data draw and split (so modes are
    compared on identical data); across reps both the data seed and the
    training seeds advance deterministically. All rows train in one
    lockstep stack, each exactly as run_experiment would train it alone,
    and are then scored one by one. Once the first rep's data is
    assembled, an ablation whose n_seeds reps of data would outgrow
    physical memory fails with a ConfigError.
    """
    modes = tuple(modes)
    if n_seeds < 1:
        raise ConfigError(f"ablation needs at least one seed, got {n_seeds}")
    for mode in modes:
        if mode not in ABLATION_MODES:
            raise ConfigError(f"ablation mode must be one of {ABLATION_MODES}, got {mode!r}")
    runs = []
    for rep in range(n_seeds):
        data = assemble_datasets(_reseed_dataset_section(cfg.dataset, rep))
        if rep == 0:  # every rep draws as many values as the first
            parts = (data.train_T, data.test_T, data.novel, data.reference)
            values = sum(ds.x.size + ds.y.size for ds in parts if ds is not None)
            data_io.check_fits_in_memory(
                n_seeds * values, f"an ablation of {n_seeds} seeds x {values} data values per seed", ConfigError)
        for mode in modes:
            # canonical mode index, so a restricted run reproduces the
            # exact rows of the full matrix
            seed = ablation_seed(cfg.training.seed, rep, ABLATION_MODES.index(mode), len(ABLATION_MODES))
            runs.append((replace(cfg, training=replace(cfg.training, mode=mode, seed=seed)), data))
    return _run(runs)


def ablation_means(rows: list[ExperimentResult]) -> dict[str, float]:
    means: dict[str, float] = {}
    for mode in {row.mode for row in rows}:
        aucs = [row.auc for row in rows if row.mode == mode]
        means[mode] = float(np.mean(aucs))
    return means
