"""Datasets, domain pairs, file formats, synthetic generators, and batching.

A DomainPair holds a labeled source set, an unlabeled target-train set, and a
labeled target-test set. Target-train labels, when known to the generator of
the data, are kept behind an oracle-only accessor that no training code
calls; the CLI's oracle run (`combo = ts`) trains on them as its source split.
"""

from __future__ import annotations

import gzip
import json
import math
import struct
import warnings
import zlib
from array import array
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolation, ParseError
from .losses import make_prior
from .numerics import STREAM_DATA, Rng, as_labels, as_matrix, column_stats, substream

IDX_MAGIC_IMAGES = 2051
IDX_MAGIC_LABELS = 2049
SPLITS = ("source", "target_train", "target_test")  # a DomainPair's splits, in order


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
        if not 2 <= self.num_classes < 2**32:  # checkpoints store layer widths as u32
            raise ContractViolation(f"num_classes must be in [2, 2^32), got {self.num_classes}")
        if self.labels is not None:
            self.labels = as_labels(self.labels, self.features.shape[0], self.num_classes)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


class DomainPair:
    """The SPLITS: source (labeled), target_train (unlabeled), target_test (labeled), each checked against the
    source. An error names the split and, when it has one, its dataset's name: a loaded file's path. Known
    target-train labels are moved aside, reachable only through target_train_labeled(oracle=True).
    """

    def __init__(self, source: Dataset, target_train: Dataset, target_test: Dataset):
        def at(split, ds):
            return f"the {split} split ({ds.name})" if ds.name else f"the {split} split"

        for split, ds in zip(SPLITS, (source, target_train, target_test)):
            if ds.n == 0:
                raise ContractViolation(f"{at(split, ds)} has no rows")
            if (ds.dim, ds.num_classes) != (source.dim, source.num_classes):
                raise ContractViolation(f"{at(split, ds)} is {ds.dim} wide with {ds.num_classes} classes, "
                                        f"{at('source', source)} {source.dim} wide with {source.num_classes}")
            if ds.labels is None and split != "target_train":
                raise ContractViolation(f"{at(split, ds)} has no labels")
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
        """Target-train with labels: for the CLI's oracle pair, `ctdr synth` and perfbench's checks."""
        if not oracle:
            raise ContractViolation("target-train labels are oracle-only; pass oracle=True from an evaluation path")
        if self._target_train_labels is None:
            raise ContractViolation("target-train labels are not available for this pair")
        return replace(self.target_train, labels=self._target_train_labels)

    def splits(self) -> list:
        """(name, Dataset) of each split, in SPLITS order; target_train without its labels."""
        return [(split, getattr(self, split)) for split in SPLITS]

    def map_features(self, fn) -> "DomainPair":
        """New pair with fn applied to every feature matrix; labels untouched."""
        mapped = DomainPair(*(replace(ds, features=fn(ds.features)) for _, ds in self.splits()))
        mapped._target_train_labels = self._target_train_labels
        return mapped


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


def read_utf8(path) -> str:
    """The text of a UTF-8 file; a byte that is not UTF-8 raises ParseError naming its line and offset."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(path, raw.count(b"\n", 0, exc.start) + 1, f"not UTF-8 (byte {exc.start})") from exc


def _read_idx(path, magic: int, n_dims: int, what: str, body: str):
    """(header dims, payload bytes) of one IDX file, read whole and gunzipped
    when it starts with the gzip magic. `what` and `body` name the header and
    the payload in ParseError messages."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:2] == b"\x1f\x8b":
        try:
            buf = gzip.decompress(buf)
        except (OSError, EOFError, zlib.error) as exc:
            raise ParseError(path, 0, f"bad gzip stream: {exc}") from exc
    head = 4 * (1 + n_dims)
    if len(buf) < head:
        raise ParseError(path, 0, f"truncated IDX file while reading {what} header")
    found, *dims = struct.unpack(f">{1 + n_dims}I", buf[:head])
    if found != magic:
        raise ParseError(path, 0, f"bad {what} magic {found}, expected {magic}")
    size = math.prod(dims)
    if len(buf) - head < size:
        raise ParseError(path, 0, f"truncated IDX file while reading {body}: header declares {dims}")
    if len(buf) - head > size:
        raise ParseError(path, 0, f"{len(buf) - head - size} trailing bytes after {body}: header declares {dims}")
    return dims, buf[head:]


def load_idx(images_path, labels_path, num_classes: int = 10) -> Dataset:
    """Read a big-endian IDX image/label file pair (gzip transparently), named by the images file.

    Pixel bytes are scaled to [0, 1]; rows are flattened images.
    """
    (count, rows, cols), raw = _read_idx(images_path, IDX_MAGIC_IMAGES, 3, "image", "pixel data")
    images = np.frombuffer(raw, dtype=np.uint8).astype(np.float64).reshape(count, rows * cols) / 255.0
    (label_count,), raw = _read_idx(labels_path, IDX_MAGIC_LABELS, 1, "label", "labels")
    labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    if labels.size and labels.max() >= num_classes:
        raise ParseError(labels_path, 0, f"label {labels.max()} out of range [0, {num_classes})")
    if label_count != count:
        raise ParseError(labels_path, 0, f"{label_count} labels for {count} images")
    return Dataset(images, labels, num_classes, name=str(images_path), image_hw=(rows, cols))


def load_sparse(path) -> Dataset:
    """Read the sparse text format into a Dataset named by the file.

    Header line: `width=<d> classes=<k>`. Data lines: `<label> idx:val ...`
    with 0-based indices; label -1 marks an unlabeled row (all-or-nothing:
    mixing labeled and unlabeled rows is an error). A file of the header
    alone is an unlabeled dataset of no rows.
    """
    width = num_classes = None
    # typed buffers, one (row, column, value) per entry: about 0.6 of the peak memory of lists
    labels, rows, cols, vals = array("q"), array("q"), array("q"), array("d")
    for line_no, raw in enumerate(read_utf8(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if width is None:
            kv = {}
            for part in line.split():
                if "=" not in part:
                    raise ParseError(path, line_no, f"bad header token {part!r}")
                k, v = part.split("=", 1)
                if k in kv:
                    raise ParseError(path, line_no, f"duplicate header key {k!r}")
                kv[k] = v
            if set(kv) != {"width", "classes"}:
                raise ParseError(path, line_no, f"header must set width and classes, got {sorted(kv)}")
            try:
                width, num_classes = int(kv["width"]), int(kv["classes"])
            except ValueError as exc:
                raise ParseError(path, line_no, f"non-integer header value: {exc}") from exc
            # checkpoints store layer widths as u32
            if not (1 <= width < 2**32 and 2 <= num_classes < 2**32):
                msg = f"invalid header width={width} classes={num_classes}: need width in [1, 2^32), classes in [2, 2^32)"
                raise ParseError(path, line_no, msg)
            continue
        parts = line.split()
        try:
            label = int(parts[0])
        except ValueError as exc:
            raise ParseError(path, line_no, f"bad label {parts[0]!r}") from exc
        if label < -1 or label >= num_classes:
            raise ParseError(path, line_no, f"label {label} out of range [-1, {num_classes})")
        row, seen = len(labels), set()
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
            if idx in seen:
                raise ParseError(path, line_no, f"duplicate index {idx}")
            seen.add(idx)
            rows.append(row)
            cols.append(idx)
            vals.append(val)
        labels.append(label)
    if width is None:
        raise ParseError(path, 0, "missing header line `width=<d> classes=<k>`")
    features = np.zeros((len(labels), width))
    features[np.asarray(rows), np.asarray(cols)] = np.asarray(vals)
    arr = np.asarray(labels)
    if (arr == -1).any() and not (arr == -1).all():
        raise ParseError(path, 0, "mix of labeled and unlabeled rows (-1) is not allowed")
    return Dataset(features, None if (arr == -1).all() else arr, num_classes, name=str(path))


def save_sparse(dataset: Dataset, path) -> None:
    """Write the sparse text format; deterministic byte-for-byte."""
    labels = dataset.labels.tolist() if dataset.labels is not None else [-1] * dataset.n
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"width={dataset.dim} classes={dataset.num_classes}\n")
        for label, row in zip(labels, dataset.features):
            nz = np.flatnonzero(row)
            entries = map("{}:{!r}".format, nz.tolist(), row[nz].tolist())
            fh.write(" ".join([str(label), *entries]) + "\n")


# --- synthetic domain pairs ----------------------------------------------------


def _synth_pair(kind: str, n: int, skew: np.ndarray, seed: int, features) -> DomainPair:
    """The source, target_train and target_test splits of a synthetic pair, n rows each, named `<kind>_<split>`.

    Split i draws its rows, features(labels, split, rng), from substream i of STREAM_DATA. Its labels are
    sorted, in exact largest-remainder counts: balanced for the source, the prior `skew` for both target splits.
    """
    num_classes = skew.size
    balanced = np.full(num_classes, 1.0 / num_classes)
    splits = []
    for i, (split, prior) in enumerate(zip(SPLITS, (balanced, skew, skew))):
        raw = prior * n  # largest remainder: the n - sum(floor) largest fractional parts take one more row each
        counts = np.floor(raw).astype(np.int64)
        counts[np.argsort(-(raw - counts), kind="stable")[: n - int(counts.sum())]] += 1
        labels = np.repeat(np.arange(num_classes), counts)
        with np.errstate(over="ignore", invalid="ignore"):  # Dataset rejects a non-finite row, with no numpy warning
            rows = features(labels, split, Rng(seed, substream(STREAM_DATA, i)))
        splits.append(Dataset(rows, labels, num_classes, name=f"{kind}_{split}"))
    return DomainPair(*splits)


def _target_prior(label_skew, num_classes: int) -> np.ndarray:
    """The target splits' class prior: label_skew, checked, or balanced when None."""
    if label_skew is None:
        return np.full(num_classes, 1.0 / num_classes)
    return make_prior(label_skew, num_classes, "label_skew")


def _check_synth_size(n: int, width: int, num_classes: int) -> None:
    """Before any draw: largest-remainder counts are exact for n < 2^53, width and classes are u32 (as in
    load_sparse and Dataset), and a split's n x width float64 rows must fit numpy's intp in bytes."""
    if n >= 2**53 or max(width, num_classes) >= 2**32 or n * width * 8 > np.iinfo(np.intp).max:
        raise ContractViolation(f"synthetic pair: need n < 2^53, width and classes < 2^32 and n*width*8 bytes in intp, "
                                f"got n={n}, width={width}, classes={num_classes}")


def _moon_points(labels: np.ndarray, noise_std: float, rng: Rng) -> np.ndarray:
    """One noisy point per label (0 or 1), in order, on two interleaved
    crescents centered so class 1 = -(class 0) pointwise. Point i takes row i
    of rng.uniform_normal_rows: angle t = pi * uniform on the crescent, then
    each coordinate adds its normal times noise_std."""
    draws = rng.uniform_normal_rows(labels.size)
    t = draws[:, 0] * math.pi
    points = np.stack([np.cos(t) - 0.5, np.sin(t) - 0.25], axis=1)
    points[labels == 1] *= -1.0
    return points + draws[:, 1:] * noise_std


def _two_moons_checks(n: int, rotation_degrees: float, noise_std: float, label_skew) -> np.ndarray:
    """synth_two_moons's checks, all made before any draw; returns the target prior."""
    if n < 2:
        raise ContractViolation("synth_two_moons: need n >= 2")
    _check_synth_size(n, 2, 2)
    if not (0.0 <= rotation_degrees <= 360.0):
        raise ContractViolation(f"rotation must be in [0, 360] degrees, got {rotation_degrees}")
    if not (math.isfinite(noise_std) and noise_std >= 0.0):
        raise ContractViolation(f"noise_std must be >= 0 and finite, got {noise_std}")
    return _target_prior(label_skew, 2)


def synth_two_moons(n: int, rotation_degrees: float, noise_std: float, label_skew=None, seed: int = 0) -> DomainPair:
    """Two-moons source; target = same generator rotated about the origin.

    n points per set (source, target-train, target-test). label_skew, when
    given, fixes the target class proportions with exact largest-remainder
    counts; the source stays balanced.
    """
    skew = _two_moons_checks(n, rotation_degrees, noise_std, label_skew)
    a = math.radians(rotation_degrees)
    rot = np.array([[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]])

    def features(labels, split, rng):
        points = _moon_points(labels, noise_std, rng)
        return points if split == "source" else points @ rot

    return _synth_pair("moons", n, skew, seed, features)


def _gauss_shift_checks(n: int, num_classes: int, dim: int, mean_shift: float, cov_scale: float,
                        label_skew) -> np.ndarray:
    """synth_gauss_shift's checks, all made before any draw; returns the target prior."""
    if n < num_classes:
        raise ContractViolation("synth_gauss_shift: need n >= num_classes")
    if num_classes < 2 or dim < 1:
        raise ContractViolation("synth_gauss_shift: need num_classes >= 2 and dim >= 1")
    if not (math.isfinite(cov_scale) and cov_scale > 0):
        raise ContractViolation(f"synth_gauss_shift: cov_scale must be > 0 and finite, got {cov_scale}")
    if not math.isfinite(mean_shift):
        raise ContractViolation(f"synth_gauss_shift: mean_shift must be finite, got {mean_shift}")
    _check_synth_size(n, dim, num_classes)
    return _target_prior(label_skew, num_classes)


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
    skew = _gauss_shift_checks(n, num_classes, dim, mean_shift, cov_scale, label_skew)
    means = Rng(seed, substream(STREAM_DATA, 3)).normal_matrix(num_classes, dim) * (3.0 / math.sqrt(dim))

    def features(labels, split, rng):
        shift, scale = (0.0, 1.0) if split == "source" else (mean_shift, cov_scale)
        return means[labels] + shift + scale * rng.normal_matrix(labels.size, dim)

    return _synth_pair("gauss", n, skew, seed, features)


# The checks each synthetic builder makes before its first draw, by builder.
_PRE_DRAW_CHECKS = {synth_two_moons: _two_moons_checks, synth_gauss_shift: _gauss_shift_checks}


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
            raise ContractViolation(f"the transform has width {self.mean.shape[0]}, the data {x.shape[1]}")
        with np.errstate(over="ignore", invalid="ignore"):  # Dataset rejects a non-finite result, with no numpy warning
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
            values = [blob[key] for key in ("mean", "std")]
            if not all(isinstance(v, list) for v in values) or any(isinstance(x, bool) for v in values for x in v):
                raise TypeError("not a list, or a boolean entry")
            mean, std = (np.array([float(x) for x in v]) for v in values)
        except json.JSONDecodeError as exc:
            raise ParseError(path, exc.lineno, f"bad JSON: {exc.msg}") from exc
        except (KeyError, TypeError, ValueError) as exc:  # ValueError covers non-UTF-8 bytes
            raise ParseError(path, 1, f"need `mean` and `std` lists of numbers ({exc!r})") from exc
        if mean.shape != std.shape or not (np.isfinite(mean).all() and (np.isfinite(std) & (std > 0)).all()):
            raise ParseError(path, 1, "`mean` and `std` must be finite, of equal length, with `std` > 0")
        return cls(mean, std)


def fit_standardizer(pair: DomainPair) -> FeatureTransform:
    """Mean/std over the union of source and target-train rows (never test)."""
    stacked = np.concatenate([pair.source.features, pair.target_train.features], axis=0)
    mean, std = column_stats(stacked, "source and target_train")
    return FeatureTransform(mean, np.maximum(std, 1e-12))


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
