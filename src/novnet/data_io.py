"""Dataset loading (IDX, CSV), synthetic Gaussian clusters, the
known/novel + train/test split protocol, and the atomic file writer the
other modules share.

A dataset is a value object: a float64 feature array `x` of shape
[n, ...], an int64 label array `y` of shape [n], an ordered list of class
names, and a provenance string. Features are finite, labels are given as
integers and dense in [0, n_classes), class names are distinct, and every
class is non-empty. Readers and splits build the arrays directly; no
per-sample objects exist.
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
            self.y = np.asarray(self.y)
        except (TypeError, ValueError) as exc:
            raise DatasetError(f"dataset {self.provenance!r} is not a numeric array: {exc}") from None
        if self.x.ndim < 2 or self.y.shape != self.x.shape[:1]:
            raise DatasetError(f"dataset {self.provenance!r} needs x of shape [n, ...] and y of "
                               f"shape [n], got {self.x.shape} and {self.y.shape}")
        if len(self.y) == 0:
            raise DatasetError(f"dataset {self.provenance!r} has no samples")
        # Labels must be integers: a float label is refused, never truncated.
        if not np.issubdtype(self.y.dtype, np.integer):
            raise DatasetError(f"dataset {self.provenance!r} needs integer labels, got dtype {self.y.dtype}")
        if self.x.size == 0:
            raise DatasetError(f"dataset {self.provenance!r} has samples of no values, shape {self.x.shape}")
        # min/max propagate NaN and reach +-inf, so no boolean mask is needed
        if not (np.isfinite(self.x.min()) and np.isfinite(self.x.max())):
            row = int(np.argwhere(~np.isfinite(self.x))[0, 0])
            raise DatasetError(f"dataset {self.provenance!r} has a non-finite feature in sample {row}")
        n_classes = len(self.class_names)
        if len(set(self.class_names)) < n_classes:
            repeated = next(name for i, name in enumerate(self.class_names) if name in self.class_names[:i])
            raise DatasetError(f"dataset {self.provenance!r} repeats class name {repeated!r}")
        if self.y.min() < 0 or self.y.max() >= n_classes:
            bad = self.y[(self.y < 0) | (self.y >= n_classes)][0]
            raise DatasetError(f"label {bad} outside [0, {n_classes})")
        # In range, any integer label fits int64: the cast keeps every value.
        self.y = self.y.astype(np.int64, copy=False)
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


def fraction_count(fraction: float, n: int, up: bool) -> int:
    """fraction * n rounded down, or up when `up`, exactly, with fraction
    taken as its repr writes it: 0.14 * 100 is 14, not 15 as the ceiling
    of its float product 14.000000000000002 gives, and 0.29 * 100 is 29,
    not 28 as the floor of 28.999999999999996 gives.

    repr writes a float as whole.fraction[e exponent]: the integer whole
    + fraction over a power of ten, so the product is a ratio of integers.
    """
    mantissa, _, exponent = repr(float(fraction)).partition("e")
    whole, _, digits = mantissa.partition(".")
    scale = len(digits) - int(exponent or 0)
    numerator = int(whole + digits) * n * 10 ** max(-scale, 0)
    denominator = 10 ** max(scale, 0)
    return -(-numerator // denominator) if up else numerator // denominator


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
    unknown = [role for role in roles if role not in ROLES]
    if unknown:
        raise UsageError(f"unknown roles {unknown}; roles are {list(ROLES)}")
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
    class names (the product taken exactly, see fraction_count) become the
    known set, the rest the novel set; a known_fraction that was not given
    is 0.5. Labels are re-densified within each side."""
    if dataset.n_classes < 2:
        raise ProtocolError("known/novel split needs at least 2 classes")
    ordered = sorted(dataset.class_names)
    fraction = 0.5 if spec.known_fraction is None else spec.known_fraction
    n_known = fraction_count(fraction, len(ordered), up=False)
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


def split_train_test(dataset: Dataset, seed: int, train_fraction: float = 0.5, train: bool = True,
                     test: bool = True) -> tuple[Dataset | None, Dataset | None]:
    """Per-class random split: ceil(train_fraction * count) samples of
    each class (the product taken exactly, see fraction_count) go to
    train, the rest to test.

    Every class must have at least 2 samples so both halves contain every
    class. Deterministic given seed; both halves keep the dataset's order.
    Only the halves asked for by `train` and `test` are built, the other
    is None; every class's permutation is drawn either way, so a built
    half has the same bytes.
    """
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for label in range(dataset.n_classes):
        idx = np.flatnonzero(dataset.y == label)
        if len(idx) < 2:
            raise ProtocolError(f"class {dataset.class_names[label]!r} has {len(idx)} sample(s); needs >= 2")
        order = rng.permutation(len(idx))
        n_train = min(max(fraction_count(train_fraction, len(idx), up=True), 1), len(idx) - 1)
        train_idx.append(idx[order[:n_train]])
        test_idx.append(idx[order[n_train:]])

    def half(parts, tag):
        idx = np.sort(np.concatenate(parts))
        return Dataset(dataset.x[idx], dataset.y[idx], list(dataset.class_names),
                       provenance=f"{dataset.provenance}#{tag}")

    return half(train_idx, "train") if train else None, half(test_idx, "test") if test else None


# Rows that csv_text formats in one `%` call: its field tuple and format
# string stay this many rows long, however long the table.
CSV_BLOCK_ROWS = 1024


def csv_text(header, columns) -> str:
    """CSV document text: the header row, then one row per position of
    `columns`, which holds one sequence per header name, all of one
    length. There must be at least two columns (ValueError otherwise).

    Each value is written as str(value): for a float, its shortest
    round-trip repr. One `%` call per block of CSV_BLOCK_ROWS rows writes
    every field with \\r\\n line ends and no field quoted, and the blocks
    are joined once: the text is byte for byte what csv.writer writes. A
    field that csv.writer would quote, one holding a comma, quote, CR or
    LF, raises ValueError instead.
    """
    width = len(header)
    if len(columns) != width or width < 2:
        raise ValueError(f"{width} header names for {len(columns)} columns; a table needs at least 2")
    rows = 1 + len(columns[0])
    if any(len(column) != rows - 1 for column in columns):
        raise ValueError(f"columns of {sorted({len(column) for column in columns})} rows; all need one length")
    line = "%s," * (width - 1) + "%s\r\n"
    blocks = [line % tuple(header)]
    for start in range(0, rows - 1, CSV_BLOCK_ROWS):
        count = min(CSV_BLOCK_ROWS, rows - 1 - start)
        flat = [None] * (width * count)
        for j, column in enumerate(columns):
            flat[j::width] = column[start:start + count]
        blocks.append((line * count) % tuple(flat))
    text = "".join(blocks)
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
