"""Datasets, domain pairs, file formats, synthetic generators, and batching.

A DomainPair holds a labeled source set, an unlabeled target-train set, and a
labeled target-test set. Target-train labels, when known to the generator of
the data, are kept behind an oracle-only accessor; the one training path that
reads them is the ts reference run.
"""

from __future__ import annotations

import gzip
import json
import math
import struct
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolation, ParseError
from .losses import make_prior
from .numerics import STREAM_DATA, Rng, as_matrix, substream

IDX_MAGIC_IMAGES = 2051
IDX_MAGIC_LABELS = 2049


@dataclass
class Dataset:
    """Feature rows with optional integer labels.

    image_hw carries the (height, width) of image-derived rows so they can be
    resized; it is None for everything else.
    """

    features: np.ndarray
    labels: np.ndarray | None
    num_classes: int
    name: str = ""
    image_hw: tuple[int, int] | None = None

    def __post_init__(self):
        self.features = as_matrix(self.features, "features")
        finite = np.isfinite(self.features)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise ContractViolation(f"features row {row} column {col} is not finite ({self.features[row, col]})")
        if self.num_classes < 2:
            raise ContractViolation(f"num_classes must be >= 2, got {self.num_classes}")
        if self.labels is not None:
            y = np.asarray(self.labels).astype(np.int64)
            if y.ndim != 1 or y.shape[0] != self.features.shape[0]:
                raise ContractViolation("labels must be 1-D, one per feature row")
            if y.size and (y.min() < 0 or y.max() >= self.num_classes):
                raise ContractViolation(f"labels out of range [0, {self.num_classes})")
            self.labels = y

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class Batch:
    features: np.ndarray
    labels: np.ndarray | None = None


class DomainPair:
    """source (labeled), target_train (unlabeled), target_test (labeled).

    If target-train labels are known, leave them on the target_train
    dataset; they are moved aside, reachable only through
    target_train_labeled(oracle=True).
    """

    def __init__(self, source: Dataset, target_train: Dataset, target_test: Dataset):
        if not (source.dim == target_train.dim == target_test.dim):
            raise ContractViolation("domain feature widths differ")
        if not (source.num_classes == target_train.num_classes == target_test.num_classes):
            raise ContractViolation("domain class counts differ")
        if source.labels is None or target_test.labels is None:
            raise ContractViolation("source and target_test must be labeled")
        self._target_train_labels = target_train.labels
        if target_train.labels is not None:
            target_train = replace(target_train, labels=None)
        self.source = source
        self.target_train = target_train
        self.target_test = target_test

    @property
    def num_classes(self) -> int:
        return self.source.num_classes

    @property
    def dim(self) -> int:
        return self.source.dim

    def target_train_labeled(self, oracle: bool = False) -> Dataset:
        """Target-train with labels; evaluation/baseline use only."""
        if not oracle:
            raise ContractViolation("target-train labels are oracle-only; pass oracle=True from an evaluation path")
        if self._target_train_labels is None:
            raise ContractViolation("target-train labels are not available for this pair")
        return replace(self.target_train, labels=self._target_train_labels)

    def map_features(self, fn) -> "DomainPair":
        """New pair with fn applied to every feature matrix; labels untouched."""
        return DomainPair(
            replace(self.source, features=fn(self.source.features)),
            replace(self.target_train, features=fn(self.target_train.features), labels=self._target_train_labels),
            replace(self.target_test, features=fn(self.target_test.features)),
        )


class Batcher:
    """Shuffled index batches; the order is a pure function of (seed, epoch).

    epoch_batches(e) always returns the same list for the same construction
    arguments. take() walks epochs 0, 1, 2, ... transparently.
    """

    def __init__(self, n: int, batch_size: int, seed: int, purpose: int):
        if n < 1:
            raise ContractViolation("Batcher: need at least one row")
        if batch_size < 1:
            raise ContractViolation("Batcher: batch_size must be >= 1")
        self.n = n
        self.batch_size = batch_size
        self.seed = seed
        self.purpose = purpose
        self._epoch = 0
        self._queue: list[np.ndarray] = []

    @property
    def batches_per_epoch(self) -> int:
        return (self.n + self.batch_size - 1) // self.batch_size

    def epoch_batches(self, epoch: int) -> list[np.ndarray]:
        rng = Rng(self.seed, substream(self.purpose, epoch))
        perm = rng.permutation(self.n)
        return [perm[i : i + self.batch_size] for i in range(0, self.n, self.batch_size)]

    def take(self) -> np.ndarray:
        if not self._queue:
            self._queue = self.epoch_batches(self._epoch)
            self._epoch += 1
        return self._queue.pop(0)


# --- file formats -------------------------------------------------------------


def _open_maybe_gzip(path):
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(fh, count, path, what):
    buf = fh.read(count)
    if len(buf) != count:
        raise ParseError(path, 0, f"truncated IDX file while reading {what}")
    return buf


def load_idx(images_path, labels_path, num_classes: int = 10, name: str = "") -> Dataset:
    """Read a big-endian IDX image/label file pair (gzip transparently).

    Pixel bytes are scaled to [0, 1]; rows are flattened images.
    """
    with _open_maybe_gzip(images_path) as fh:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, images_path, "image header"))
        if magic != IDX_MAGIC_IMAGES:
            raise ParseError(images_path, 0, f"bad image magic {magic}, expected {IDX_MAGIC_IMAGES}")
        raw = _read_exact(fh, count * rows * cols, images_path, "pixel data")
    images = np.frombuffer(raw, dtype=np.uint8).astype(np.float64).reshape(count, rows * cols) / 255.0

    with _open_maybe_gzip(labels_path) as fh:
        magic, label_count = struct.unpack(">II", _read_exact(fh, 8, labels_path, "label header"))
        if magic != IDX_MAGIC_LABELS:
            raise ParseError(labels_path, 0, f"bad label magic {magic}, expected {IDX_MAGIC_LABELS}")
        labels = np.frombuffer(_read_exact(fh, label_count, labels_path, "labels"), dtype=np.uint8).astype(np.int64)
    if label_count != count:
        raise ParseError(labels_path, 0, f"{label_count} labels for {count} images")
    return Dataset(images, labels, num_classes, name=name, image_hw=(rows, cols))


def load_sparse(path, name: str = "") -> Dataset:
    """Read the sparse text format.

    Header line: `width=<d> classes=<k>`. Data lines: `<label> idx:val ...`
    with 0-based indices; label -1 marks an unlabeled row (all-or-nothing:
    mixing labeled and unlabeled rows is an error).
    """
    with open(path, "rb") as fh:
        raw_bytes = fh.read()
    try:
        lines = raw_bytes.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(path, raw_bytes.count(b"\n", 0, exc.start) + 1, f"not UTF-8 (byte {exc.start})") from exc
    header_seen = False
    width = num_classes = None
    rows: list[dict] = []
    labels: list[int] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            parts = line.split()
            kv = {}
            for part in parts:
                if "=" not in part:
                    raise ParseError(path, line_no, f"bad header token {part!r}")
                k, v = part.split("=", 1)
                kv[k] = v
            if set(kv) != {"width", "classes"}:
                raise ParseError(path, line_no, f"header must set width and classes, got {sorted(kv)}")
            try:
                width, num_classes = int(kv["width"]), int(kv["classes"])
            except ValueError as exc:
                raise ParseError(path, line_no, f"non-integer header value: {exc}") from exc
            if width < 1 or num_classes < 2:
                raise ParseError(path, line_no, f"invalid header width={width} classes={num_classes}")
            header_seen = True
            continue
        parts = line.split()
        try:
            label = int(parts[0])
        except ValueError as exc:
            raise ParseError(path, line_no, f"bad label {parts[0]!r}") from exc
        if label < -1 or label >= num_classes:
            raise ParseError(path, line_no, f"label {label} out of range [-1, {num_classes})")
        entries = {}
        for tok in parts[1:]:
            if ":" not in tok:
                raise ParseError(path, line_no, f"bad entry {tok!r}, expected idx:val")
            si, sv = tok.split(":", 1)
            try:
                idx, val = int(si), float(sv)
            except ValueError as exc:
                raise ParseError(path, line_no, f"bad entry {tok!r}: {exc}") from exc
            if not math.isfinite(val):
                raise ParseError(path, line_no, f"non-finite value in {tok!r}")
            if idx < 0 or idx >= width:
                raise ParseError(path, line_no, f"index {idx} out of range [0, {width})")
            if idx in entries:
                raise ParseError(path, line_no, f"duplicate index {idx}")
            entries[idx] = val
        rows.append(entries)
        labels.append(label)
    if not header_seen:
        raise ParseError(path, 0, "missing header line `width=<d> classes=<k>`")
    if not rows:
        # legal degenerate input: the dataset is empty and any attempt to
        # train or evaluate on it fails downstream
        return Dataset(np.zeros((0, width)), np.zeros(0, dtype=np.int64), num_classes, name=name)
    features = np.zeros((len(rows), width))
    for i, entries in enumerate(rows):
        for idx, val in entries.items():
            features[i, idx] = val
    arr = np.asarray(labels, dtype=np.int64)
    if np.all(arr == -1):
        return Dataset(features, None, num_classes, name=name)
    if np.any(arr == -1):
        raise ParseError(path, 0, "mix of labeled and unlabeled rows (-1) is not allowed")
    return Dataset(features, arr, num_classes, name=name)


def save_sparse(dataset: Dataset, path) -> None:
    """Write the sparse text format; deterministic byte-for-byte."""
    lines = [f"width={dataset.dim} classes={dataset.num_classes}"]
    labels = dataset.labels if dataset.labels is not None else np.full(dataset.n, -1, dtype=np.int64)
    for i in range(dataset.n):
        row = dataset.features[i]
        nz = np.nonzero(row)[0]
        entries = " ".join(f"{j}:{float(row[j])!r}" for j in nz)
        lines.append(f"{int(labels[i])} {entries}".rstrip())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# --- synthetic domain pairs ----------------------------------------------------


def _exact_counts(prior: np.ndarray, n: int) -> np.ndarray:
    """Integer class counts summing to n, matching prior by largest remainder."""
    raw = prior * n
    counts = np.floor(raw).astype(np.int64)
    shortfall = n - int(counts.sum())
    order = np.argsort(-(raw - counts), kind="stable")
    for i in range(shortfall):
        counts[order[i]] += 1
    return counts


def _moon_points(n: int, counts: np.ndarray, noise_std: float, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Two interleaved crescents, centered so class 1 = -(class 0) pointwise."""
    feats = np.empty((n, 2))
    labels = np.empty(n, dtype=np.int64)
    pos = 0
    for cls in (0, 1):
        for _ in range(int(counts[cls])):
            t = rng.random() * math.pi
            x = math.cos(t) - 0.5
            y = math.sin(t) - 0.25
            if cls == 1:
                x, y = -x, -y
            feats[pos, 0] = x + rng.normal() * noise_std
            feats[pos, 1] = y + rng.normal() * noise_std
            labels[pos] = cls
            pos += 1
    return feats, labels


def _rotate(features: np.ndarray, degrees: float) -> np.ndarray:
    a = math.radians(degrees)
    rot = np.array([[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]])
    return features @ rot


def synth_two_moons(n: int, rotation_degrees: float, noise_std: float, label_skew=None, seed: int = 0) -> DomainPair:
    """Two-moons source; target = same generator rotated about the origin.

    n points per set (source, target-train, target-test). label_skew, when
    given, fixes the target class proportions with exact largest-remainder
    counts; the source stays balanced.
    """
    if n < 2:
        raise ContractViolation("synth_two_moons: need n >= 2")
    if not (0.0 <= rotation_degrees <= 360.0):
        raise ContractViolation(f"rotation must be in [0, 360] degrees, got {rotation_degrees}")
    if noise_std < 0.0:
        raise ContractViolation(f"noise_std must be >= 0, got {noise_std}")
    balanced = np.array([0.5, 0.5])
    skew = balanced if label_skew is None else make_prior(label_skew, 2)

    src_f, src_y = _moon_points(n, _exact_counts(balanced, n), noise_std, Rng(seed, substream(STREAM_DATA, 0)))
    tt_f, tt_y = _moon_points(n, _exact_counts(skew, n), noise_std, Rng(seed, substream(STREAM_DATA, 1)))
    te_f, te_y = _moon_points(n, _exact_counts(skew, n), noise_std, Rng(seed, substream(STREAM_DATA, 2)))
    source = Dataset(src_f, src_y, 2, name="moons_source")
    target_train = Dataset(_rotate(tt_f, rotation_degrees), tt_y, 2, name="moons_target_train")
    target_test = Dataset(_rotate(te_f, rotation_degrees), te_y, 2, name="moons_target_test")
    return DomainPair(source, target_train, target_test)


def synth_gauss_shift(
    n: int,
    num_classes: int = 3,
    dim: int = 8,
    mean_shift: float = 1.0,
    cov_scale: float = 1.5,
    label_skew=None,
    seed: int = 0,
) -> DomainPair:
    """Gaussian class blobs; the target shifts every mean and rescales noise.

    mean_shift = 0 and cov_scale = 1 make target and source identically
    distributed (up to sampling noise).
    """
    if n < num_classes:
        raise ContractViolation("synth_gauss_shift: need n >= num_classes")
    if num_classes < 2 or dim < 1:
        raise ContractViolation("synth_gauss_shift: need num_classes >= 2 and dim >= 1")
    if cov_scale <= 0:
        raise ContractViolation("synth_gauss_shift: cov_scale must be > 0")
    uniform = np.full(num_classes, 1.0 / num_classes)
    skew = uniform if label_skew is None else make_prior(label_skew, num_classes)

    mean_rng = Rng(seed, substream(STREAM_DATA, 3))
    means = mean_rng.normal_matrix(num_classes, dim) * (3.0 / math.sqrt(dim))

    def sample(counts, shift, scale, rng):
        labels = np.repeat(np.arange(num_classes), counts)
        return means[labels] + shift + scale * rng.normal_matrix(labels.size, dim), labels

    src = sample(_exact_counts(uniform, n), 0.0, 1.0, Rng(seed, substream(STREAM_DATA, 0)))
    tt = sample(_exact_counts(skew, n), mean_shift, cov_scale, Rng(seed, substream(STREAM_DATA, 1)))
    te = sample(_exact_counts(skew, n), mean_shift, cov_scale, Rng(seed, substream(STREAM_DATA, 2)))
    return DomainPair(
        Dataset(src[0], src[1], num_classes, name="gauss_source"),
        Dataset(tt[0], tt[1], num_classes, name="gauss_target_train"),
        Dataset(te[0], te[1], num_classes, name="gauss_target_test"),
    )


# --- transforms ----------------------------------------------------------------


def empirical_prior(dataset: Dataset) -> np.ndarray:
    """Class frequencies of a labeled dataset; sums to 1 exactly enough."""
    if dataset.labels is None:
        raise ContractViolation("empirical_prior needs a labeled dataset")
    counts = np.bincount(dataset.labels, minlength=dataset.num_classes).astype(np.float64)
    if np.count_nonzero(counts) < 2:
        warnings.warn(f"{dataset.name or 'dataset'}: all labels in one class, prior is degenerate")
    return counts / counts.sum()


@dataclass(frozen=True)
class FeatureTransform:
    """Affine per-dimension map x -> (x - mean) / std, std floored at 1e-12."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, features) -> np.ndarray:
        x = as_matrix(features, "features")
        if x.shape[1] != self.mean.shape[0]:
            raise ContractViolation("transform width mismatch")
        return (x - self.mean[None, :]) / self.std[None, :]

    def save(self, path) -> None:
        blob = {"mean": [repr(float(v)) for v in self.mean], "std": [repr(float(v)) for v in self.std]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(blob, fh)

    @classmethod
    def load(cls, path) -> "FeatureTransform":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                blob = json.load(fh)
            mean, std = (np.array([float(v) for v in blob[key]]) for key in ("mean", "std"))
        except json.JSONDecodeError as exc:
            raise ParseError(path, exc.lineno, f"bad JSON: {exc.msg}") from exc
        except (KeyError, TypeError, ValueError) as exc:  # ValueError covers non-UTF-8 bytes
            raise ParseError(path, 1, f"need `mean` and `std` lists of numbers ({exc!r})") from exc
        if mean.shape != std.shape or not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std) & (std > 0))):
            raise ParseError(path, 1, "`mean` and `std` must be finite, of equal length, with `std` > 0")
        return cls(mean, std)


def fit_standardizer(pair: DomainPair) -> FeatureTransform:
    """Mean/std over the union of source and target-train rows (never test)."""
    stacked = np.concatenate([pair.source.features, pair.target_train.features], axis=0)
    mean = stacked.mean(axis=0)
    std = np.maximum(stacked.std(axis=0), 1e-12)
    return FeatureTransform(mean, std)


def standardize(pair: DomainPair) -> tuple[DomainPair, FeatureTransform]:
    """Standardized copy of the pair; the transform is fit without test rows."""
    tr = fit_standardizer(pair)
    return pair.map_features(tr.apply), tr


def resize_bilinear(dataset: Dataset, out_hw: tuple[int, int]) -> Dataset:
    """Bilinear resample of image rows to a new (height, width)."""
    if dataset.image_hw is None:
        raise ContractViolation("resize_bilinear needs image-shaped rows (image_hw set)")
    h, w = dataset.image_hw
    oh, ow = out_hw
    if oh < 1 or ow < 1:
        raise ContractViolation("target size must be >= 1 in both dimensions")
    imgs = dataset.features.reshape(dataset.n, h, w)

    def axis_coords(out_n, in_n):
        # half-pixel centers, clamped to the valid range
        c = (np.arange(out_n) + 0.5) * (in_n / out_n) - 0.5
        c = np.clip(c, 0.0, in_n - 1.0)
        lo = np.floor(c).astype(np.int64)
        hi = np.minimum(lo + 1, in_n - 1)
        return lo, hi, c - lo

    y0, y1, wy = axis_coords(oh, h)
    x0, x1, wx = axis_coords(ow, w)
    top = imgs[:, y0][:, :, x0] * (1 - wx)[None, None, :] + imgs[:, y0][:, :, x1] * wx[None, None, :]
    bot = imgs[:, y1][:, :, x0] * (1 - wx)[None, None, :] + imgs[:, y1][:, :, x1] * wx[None, None, :]
    out = top * (1 - wy)[None, :, None] + bot * wy[None, :, None]
    return replace(dataset, features=out.reshape(dataset.n, oh * ow), image_hw=(oh, ow))


def subsample(dataset: Dataset, n: int, seed: int, variant: int = 0) -> Dataset:
    """Deterministic random subset of n rows (without replacement)."""
    if n < 1 or n > dataset.n:
        raise ContractViolation(f"subsample: n must be in [1, {dataset.n}], got {n}")
    rng = Rng(seed, substream(STREAM_DATA, 16 + variant))
    idx = rng.permutation(dataset.n)[:n]
    labels = dataset.labels[idx] if dataset.labels is not None else None
    return replace(dataset, features=dataset.features[idx], labels=labels)
