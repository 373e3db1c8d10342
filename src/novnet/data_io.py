"""Dataset loading (IDX, CSV), synthetic Gaussian clusters, the
known/novel + train/test split protocol, and the atomic file writer the
other modules share.

A dataset is a value object: a float64 feature array `x` of shape
[n, ...], an int64 label array `y` of shape [n], an ordered list of class
names, and a provenance string. Features are finite, labels are dense in
[0, n_classes), and every class is non-empty. Readers and splits build the
arrays directly; no per-sample objects exist.
"""

from __future__ import annotations

import csv
import errno
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    ConsistencyError,
    CorruptionError,
    DatasetError,
    FormatError,
    NovnetError,
    ParseError,
    ProtocolError,
    UsageError,
    check_integer,
    check_list,
    check_number,
)

# A synthetic cluster's role: which dataset its samples go to.
ROLES = ("known", "novel", "reference")

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    x: np.ndarray
    y: np.ndarray
    class_names: list[str]
    provenance: str = ""

    def __post_init__(self):
        try:
            self.x = np.asarray(self.x, dtype=np.float64)
            self.y = np.asarray(self.y, dtype=np.int64)
        except (TypeError, ValueError) as exc:
            raise DatasetError(f"dataset {self.provenance!r} is not a numeric array: {exc}") from None
        if self.x.ndim < 2 or self.y.shape != self.x.shape[:1]:
            raise DatasetError(f"dataset {self.provenance!r} needs x of shape [n, ...] and y of "
                               f"shape [n], got {self.x.shape} and {self.y.shape}")
        if len(self.y) == 0:
            raise DatasetError(f"dataset {self.provenance!r} has no samples")
        if self.x.size == 0:
            raise DatasetError(f"dataset {self.provenance!r} has samples of no values, shape {self.x.shape}")
        # min/max propagate NaN and reach +-inf, so no boolean mask is needed
        if not (np.isfinite(self.x.min()) and np.isfinite(self.x.max())):
            row = int(np.argwhere(~np.isfinite(self.x))[0, 0])
            raise DatasetError(f"dataset {self.provenance!r} has a non-finite feature in sample {row}")
        n_classes = len(self.class_names)
        if self.y.min() < 0 or self.y.max() >= n_classes:
            bad = self.y[(self.y < 0) | (self.y >= n_classes)][0]
            raise DatasetError(f"label {bad} outside [0, {n_classes})")
        missing = np.flatnonzero(np.bincount(self.y, minlength=n_classes) == 0)
        if missing.size:
            raise DatasetError(f"classes {missing.tolist()} have no samples")

    def __len__(self):
        return len(self.y)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def sample_shape(self) -> tuple[int, ...]:
        return tuple(self.x.shape[1:])


@dataclass(frozen=True)
class SplitSpec:
    """Known/novel and train/test split parameters (alphabetical protocol).
    A `known_fraction` of None was not given; split_known_novel then
    keeps half of the classes as known."""

    known_fraction: float | None = None
    train_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        given = ("train_fraction",) if self.known_fraction is None else ("known_fraction", "train_fraction")
        for name in given:
            if not 0.0 < check_number(getattr(self, name), repr(name)) < 1.0:
                raise ConfigError(f"{name!r} must be in (0, 1), got {getattr(self, name)}")
        check_integer(self.seed, "'seed'", 0)


@dataclass(frozen=True)
class ClusterSpec:
    mean: tuple[float, ...]
    stddev: float
    count: int
    role: str  # known | novel | reference

    def __post_init__(self):
        mean = check_list(self.mean, "'mean'")
        object.__setattr__(self, "mean", mean)
        # An image's mean holds thousands of entries. JSON gives Python
        # floats, which one type scan and one isfinite pass accept; any
        # other mean, or one that fails, takes the per-entry check, which
        # names the first bad entry.
        if not (set(map(type, mean)) <= {float} and np.isfinite(np.array(mean)).all()):
            for value in mean:
                check_number(value, "'mean' entry")
        if not check_number(self.stddev, "'stddev'") > 0:
            raise ConfigError(f"'stddev' must be positive, got {self.stddev}")
        check_integer(self.count, "'count'", 1)
        if self.role not in ROLES:
            raise ConfigError(f"'role' must be known, novel or reference, got {self.role!r}")


@dataclass(frozen=True)
class SyntheticSpec:
    dimension: int
    clusters: tuple[ClusterSpec, ...]
    seed: int = 0

    def __post_init__(self):
        check_integer(self.dimension, "'dimension'", 1)
        check_integer(self.seed, "'seed'", 0)
        for i, c in enumerate(check_list(self.clusters, "'clusters'")):
            if len(c.mean) != self.dimension:
                raise ConfigError(f"cluster {i} 'mean' has {len(c.mean)} entries, 'dimension' is {self.dimension}")
        roles = [c.role for c in self.clusters]
        if roles.count("known") < 2 or roles.count("novel") < 1:
            raise ConfigError("'clusters' must hold >= 2 known clusters and >= 1 novel cluster")


def load_idx(images_path, labels_path) -> Dataset:
    """Read a big-endian IDX image/label file pair.

    Pixels are scaled to [0, 1] float64; each sample has shape [1, r, c].
    Label values are remapped to dense indices in sorted order; the class
    names are the original label values as strings.
    """
    with open(images_path, "rb") as fh:
        magic, count, rows, cols = struct.unpack(">IIII", read_exact(fh, 16, "IDX image header"))
        if magic != IDX_IMAGE_MAGIC:
            raise FormatError(f"{images_path}: bad IDX image magic 0x{magic:08x}")
        payload = read_exact(fh, count * rows * cols, "IDX image payload")
    with open(labels_path, "rb") as fh:
        magic, label_count = struct.unpack(">II", read_exact(fh, 8, "IDX label header"))
        if magic != IDX_LABEL_MAGIC:
            raise FormatError(f"{labels_path}: bad IDX label magic 0x{magic:08x}")
        label_bytes = read_exact(fh, label_count, "IDX label payload")
    if count != label_count:
        raise ConsistencyError(f"image count {count} != label count {label_count}")

    images = np.frombuffer(payload, dtype=np.uint8).reshape(count, 1, rows, cols)
    images = images.astype(np.float64) / 255.0
    values, labels = np.unique(np.frombuffer(label_bytes, dtype=np.uint8), return_inverse=True)
    return Dataset(images, labels, [str(int(v)) for v in values], provenance=str(images_path))


def read_exact(fh, count: int, what: str) -> bytes:
    """The next `count` bytes of a binary file, else CorruptionError.

    Checked against the file size first, so a corrupt length field
    cannot request a huge read."""
    if count > os.fstat(fh.fileno()).st_size - fh.tell():
        raise CorruptionError(f"{fh.name}: truncated while reading {what}")
    return fh.read(count)


def load_csv(path) -> Dataset:
    """Read a `label,f0,f1,...` CSV into a dataset of flat feature tensors.

    Label strings become dense indices in lexicographically sorted order.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            records = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, or a field over the csv size limit
        raise ParseError(f"{path}: unreadable CSV text: {exc}") from None
    if not records:
        raise FormatError(f"{path}: empty file")
    header = records[0]
    if not header or header[0] != "label":
        raise FormatError(f"{path}: first header column must be 'label', got {header[:1]}")
    width = len(header) - 1
    if width < 1:
        raise FormatError(f"{path}: no feature columns in header")
    label_names, rows = [], []
    for lineno, row in enumerate(records[1:], start=2):
        if len(row) != width + 1:
            raise FormatError(f"{path}:{lineno}: expected {width + 1} cells, got {len(row)}")
        try:
            rows.append(np.asarray([float(cell) for cell in row[1:]], dtype=np.float64))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        label_names.append(row[0])
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    names, labels = np.unique(np.asarray(label_names), return_inverse=True)
    return Dataset(np.stack(rows), labels, names.tolist(), provenance=str(path))


def check_fits_in_memory(values: int, what: str, error: type[NovnetError] = DatasetError) -> None:
    """`error` (a DatasetError by default) naming `what` when `values`
    float64 values outgrow this machine's physical memory, so an oversized
    dataset or model fails before it is built. Platforms without sysconf
    skip the check."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if 8 * values > memory:
        raise error(f"{what}: {8 * values} bytes of float64 values exceed the "
                    f"{memory} bytes of physical memory")


def check_roles(roles) -> None:
    """Raise UsageError unless every entry of `roles` is one of ROLES."""
    unknown = [role for role in roles if role not in ROLES]
    if unknown:
        raise UsageError(f"unknown roles {unknown}; roles are {list(ROLES)}")


def synth_gaussian(spec: SyntheticSpec, roles: tuple[str, ...] = ROLES) -> tuple[Dataset | None, ...]:
    """Draw isotropic Gaussian clusters and route them to the (known,
    novel, reference) datasets by role. Deterministic given spec.seed.
    A slot is None when its role is not in `roles` or has no clusters.

    Each cluster is drawn in spec order straight into its rows of the
    role's preallocated feature array, so no per-cluster copies exist.
    A cluster of a role not in `roles` still draws its numbers, so the
    clusters after it keep their bytes, but the draw is discarded
    unscaled and unshifted. The clusters after the last one of a role in
    `roles` are not drawn. The memory check counts every cluster, drawn
    or not."""
    check_roles(roles)
    samples = sum(c.count for c in spec.clusters)
    what = f"synthetic 'clusters' of {samples} samples x {spec.dimension} values"
    check_fits_in_memory(samples * spec.dimension, what)
    rng = np.random.default_rng(spec.seed)
    prefix = {"known": "known", "novel": "novel", "reference": "ref"}
    drawn = spec.clusters[:max((i + 1 for i, c in enumerate(spec.clusters) if c.role in roles), default=0)]
    clusters = {role: [c for c in drawn if c.role == role] for role in ROLES}
    filled = dict.fromkeys(ROLES, 0)
    try:
        x = {role: np.empty((sum(c.count for c in group), spec.dimension))
             for role, group in clusters.items() if role in roles}
        for cluster in drawn:
            if cluster.role not in roles:
                rng.standard_normal((cluster.count, spec.dimension))
                continue
            start = filled[cluster.role]
            block = x[cluster.role][start:start + cluster.count]
            rng.standard_normal(out=block)
            block *= cluster.stddev
            block += np.asarray(cluster.mean, dtype=np.float64)
            filled[cluster.role] += cluster.count
    except MemoryError:  # where sysconf is missing, allocating is the check
        raise DatasetError(f"{what}: out of memory") from None
    return tuple(
        Dataset(x[role], np.repeat(np.arange(len(group)), [c.count for c in group]),
                [f"{prefix[role]}_{i}" for i in range(len(group))],
                provenance=f"synthetic:{role}:seed={spec.seed}") if group and role in roles else None
        for role, group in clusters.items())


def split_known_novel(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Alphabetical class split: the first floor(known_fraction * K)
    class names become the known set, the rest the novel set; a
    known_fraction that was not given is 0.5. Labels are re-densified
    within each side."""
    if dataset.n_classes < 2:
        raise ProtocolError("known/novel split needs at least 2 classes")
    ordered = sorted(dataset.class_names)
    fraction = 0.5 if spec.known_fraction is None else spec.known_fraction
    n_known = int(fraction * len(ordered))
    if n_known < 1 or n_known >= len(ordered):
        raise ProtocolError(f"known_fraction {fraction} leaves {n_known} known of {len(ordered)} classes")
    known_names = ordered[:n_known]
    novel_names = ordered[n_known:]
    return (_subset_by_names(dataset, known_names, "known"),
            _subset_by_names(dataset, novel_names, "novel"))


def _subset_by_names(dataset: Dataset, names: list[str], tag: str) -> Dataset:
    remap = np.full(dataset.n_classes, -1)
    remap[[dataset.class_names.index(name) for name in names]] = np.arange(len(names))
    labels = remap[dataset.y]
    keep = labels >= 0
    return Dataset(dataset.x[keep], labels[keep], list(names), provenance=f"{dataset.provenance}#{tag}")


def split_train_test(dataset: Dataset, seed: int, train_fraction: float = 0.5) -> tuple[Dataset, Dataset]:
    """Per-class random split; odd counts give the extra sample to train.

    Every class must have at least 2 samples so both halves contain every
    class. Deterministic given seed; both halves keep the dataset's order.
    """
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for label in range(dataset.n_classes):
        idx = np.flatnonzero(dataset.y == label)
        if len(idx) < 2:
            raise ProtocolError(f"class {dataset.class_names[label]!r} has {len(idx)} sample(s); needs >= 2")
        order = rng.permutation(len(idx))
        n_train = int(np.ceil(train_fraction * len(idx)))
        n_train = min(max(n_train, 1), len(idx) - 1)
        train_idx.append(idx[order[:n_train]])
        test_idx.append(idx[order[n_train:]])
    train, test = (
        Dataset(dataset.x[idx], dataset.y[idx], list(dataset.class_names),
                provenance=f"{dataset.provenance}#{tag}")
        for idx, tag in ((np.sort(np.concatenate(train_idx)), "train"),
                         (np.sort(np.concatenate(test_idx)), "test")))
    return train, test


def csv_text(header, columns) -> str:
    """CSV document text: the header row, then one row per position of
    `columns`, which holds one sequence per header name, all of one
    length. There must be at least two columns (ValueError otherwise).

    Each value is written as format(value, ""). That is str(value) for
    str, int, float, bool, None and numpy's float64 and int64 scalars
    (for a float, its shortest round-trip repr), but not for np.float32,
    so callers pass Python scalars. One str.format call writes every
    field with \\r\\n line ends and no field quoted: the text is byte for
    byte what csv.writer writes. A field that csv.writer would quote,
    one holding a comma, quote, CR or LF, raises ValueError instead.
    """
    width = len(header)
    if len(columns) != width or width < 2:
        raise ValueError(f"{width} header names for {len(columns)} columns; a table needs at least 2")
    rows = 1 + len(columns[0])
    flat = [*header, *[None] * (width * (rows - 1))]
    for j, column in enumerate(columns):
        flat[width + j::width] = column
    text = (("{}," * (width - 1) + "{}\r\n") * rows).format(*flat)
    # A field holding a comma, quote, CR or LF adds to these counts.
    if (text.count(",") != (width - 1) * rows or text.count("\r") != rows or text.count("\n") != rows
            or '"' in text):
        raise ValueError("a CSV field holds a comma, quote, CR or LF")
    return text


def write_all_atomic(files) -> None:
    """Place every file of `files` (path -> str or bytes; text is UTF-8
    encoded), or none of them.

    Each file's data goes to a temp file beside its path, and the temp
    files are renamed into place only once all of them are written; a
    path that is a directory fails the call before anything is written.
    A rename that fails undoes the ones before it: a file placed where
    none was is removed, and a replaced file comes back from the hard
    link taken just before its rename. Temp files get mode 0o666 less
    the process umask, as `open` gives a new file. A directory is created
    on the first write into it, so a command that fails before it writes
    leaves nothing behind.
    """
    for path in files:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    staged, placed, kept = [], [], {}
    try:
        for path, data in files.items():
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            tmp = os.path.join(directory, f"tmp{os.urandom(16).hex()}.tmp")
            with open(tmp, "xb") as fh:
                staged.append(tmp)
                fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        for tmp, path in zip(staged, files):
            if os.path.lexists(path):
                os.link(path, f"{tmp}.old", follow_symlinks=False)
                kept[path] = f"{tmp}.old"
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for path in placed:
            if path in kept:
                os.replace(kept.pop(path), path)
            else:
                os.unlink(path)
        for tmp in [*staged, *kept.values()]:
            if os.path.lexists(tmp):
                os.unlink(tmp)
        raise
    for old in kept.values():
        os.unlink(old)
