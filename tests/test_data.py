"""Tests for dataset loading, synthetic domain pairs, standardization, and
deterministic batching."""

import gzip
import hashlib
import math
import struct

import numpy as np
import pytest

from ctdr.cli import main
from ctdr.data import (
    Batcher,
    Dataset,
    DomainPair,
    FeatureTransform,
    empirical_prior,
    fit_standardizer,
    load_idx,
    load_sparse,
    read_utf8,
    resize_bilinear,
    save_sparse,
    standardize,
    subsample,
    synth_gauss_shift,
    synth_two_moons,
)
from ctdr.errors import ContractViolation, ParseError
from ctdr.numerics import Rng, STREAM_TARGET_SHUFFLE

MOONS_GOLDEN_ROW = [0.12452113696095815, 0.427949971603794]
GAUSS_GOLDEN_ROW = [
    1.5346349845759688,
    -0.7150302533137052,
    -0.6266811460831664,
    1.6482236245131534,
]


def write_idx_pair(tmp_path, pixels, labels, gz=False):
    """Build a big-endian IDX image/label fixture from raw byte values."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    n, h, w = pixels.shape
    img = struct.pack(">IIII", 2051, n, h, w) + pixels.tobytes()
    lab = struct.pack(">II", 2049, len(labels)) + bytes(labels)
    suffix = ".gz" if gz else ""
    ip = tmp_path / f"images.idx{suffix}"
    lp = tmp_path / f"labels.idx{suffix}"
    if gz:
        ip.write_bytes(gzip.compress(img))
        lp.write_bytes(gzip.compress(lab))
    else:
        ip.write_bytes(img)
        lp.write_bytes(lab)
    return ip, lp


def test_dataset_validation():
    Dataset(np.zeros((2, 3)), np.array([0, 1]), 2, "ok")
    with pytest.raises(ContractViolation):
        Dataset(np.zeros((2, 3)), np.array([0, 5]), 2, "bad-label")
    with pytest.raises(ContractViolation):
        Dataset(np.zeros((2, 3)), np.array([0]), 2, "bad-count")
    for bad in (0.7, 1.5, math.nan, math.inf):  # checked, not truncated, with no numpy warning
        with pytest.raises(ContractViolation, match=r"label row 1 is .*, not a whole number"):
            Dataset(np.zeros((2, 3)), np.array([0.0, bad]), 2, "not-whole")
    whole = Dataset(np.zeros((2, 3)), np.array([0.0, 1.0]), 2, "whole")
    assert whole.labels.dtype == np.int64 and whole.labels.tolist() == [0, 1]
    with pytest.raises(ContractViolation, match="row 0 column 1 is not finite"):
        Dataset(np.array([[0.0, math.nan], [1.0, math.inf]]), None, 2, "nan")
    with pytest.raises(ContractViolation, match="row 2 column 0 is not finite"):
        Dataset(np.array([[0.0, 1.0], [2.0, 3.0], [-math.inf, 4.0]]), None, 2, "inf")


def test_dataset_num_classes_must_fit_in_u32():
    # checkpoints store layer widths as u32; 2^32 classes would reach a
    # 32 GB np.bincount in empirical_prior, 1e20 an OverflowError there
    assert Dataset(np.zeros((1, 2)), np.array([0]), 2**32 - 1).num_classes == 2**32 - 1
    for k in (1, 2**32, 10**20):
        with pytest.raises(ContractViolation, match=rf"^num_classes must be in \[2, 2\^32\), got {k}$"):
            Dataset(np.zeros((1, 2)), np.array([0]), k)


@pytest.mark.parametrize("split", ["source", "target_train", "target_test"])
def test_domain_pair_rejects_an_empty_split(split):
    pair = synth_two_moons(12, 10.0, 0.05, seed=4)
    parts = {"source": pair.source, "target_train": pair.target_train, "target_test": pair.target_test}
    parts[split] = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 2)
    with pytest.raises(ContractViolation, match=f"^the {split} split has no rows$"):
        DomainPair(**parts)


def test_domain_pair_hides_target_train_labels():
    pair = synth_two_moons(20, 10.0, 0.05, seed=3)
    assert pair.target_train.labels is None
    with pytest.raises(ContractViolation):
        pair.target_train_labeled()
    oracle = pair.target_train_labeled(oracle=True)
    assert oracle.labels is not None
    assert oracle.labels.shape[0] == oracle.features.shape[0]


def test_domain_pair_map_features():
    pair = synth_two_moons(12, 10.0, 0.05, seed=4)
    doubled = pair.map_features(lambda x: 2.0 * x)
    assert np.array_equal(doubled.source.features, 2.0 * pair.source.features)
    assert np.array_equal(doubled.target_test.labels, pair.target_test.labels)
    assert doubled.target_train.labels is None
    assert np.array_equal(
        doubled.target_train_labeled(oracle=True).labels,
        pair.target_train_labeled(oracle=True).labels,
    )


def test_batcher_covers_every_index_once():
    b = Batcher(23, 5, seed=9, purpose=STREAM_TARGET_SHUFFLE)
    batches = b.epoch_batches(0)
    assert len(batches) == 5
    joined = np.concatenate(batches)
    assert sorted(joined.tolist()) == list(range(23))


def test_batcher_pure_function_of_seed_and_epoch():
    a = Batcher(16, 4, seed=2, purpose=STREAM_TARGET_SHUFFLE)
    b = Batcher(16, 4, seed=2, purpose=STREAM_TARGET_SHUFFLE)
    assert all(
        np.array_equal(x, y) for x, y in zip(a.epoch_batches(3), b.epoch_batches(3))
    )
    assert not all(
        np.array_equal(x, y) for x, y in zip(a.epoch_batches(3), a.epoch_batches(4))
    )


def test_batcher_take_walks_epochs():
    b = Batcher(6, 4, seed=1, purpose=STREAM_TARGET_SHUFFLE)
    first_epoch = [b.take(), b.take()]
    assert sorted(np.concatenate(first_epoch).tolist()) == list(range(6))
    again = b.take()  # epoch 1 begins
    expected = Batcher(6, 4, seed=1, purpose=STREAM_TARGET_SHUFFLE).epoch_batches(1)[0]
    assert np.array_equal(again, expected)


def test_batcher_rejects_degenerate_sizes():
    with pytest.raises(ContractViolation):
        Batcher(0, 4, seed=0, purpose=1)
    with pytest.raises(ContractViolation):
        Batcher(4, 0, seed=0, purpose=1)


def test_load_idx_fixture_round_trip(tmp_path):
    pixels = [[[0, 51], [102, 255]], [[255, 0], [0, 128]]]
    ip, lp = write_idx_pair(tmp_path, pixels, [3, 7])
    ds = load_idx(ip, lp)
    assert ds.features.shape == (2, 4)
    assert ds.image_hw == (2, 2)
    assert np.allclose(ds.features[0], [0.0, 51 / 255, 102 / 255, 1.0], atol=1e-15)
    assert ds.labels.tolist() == [3, 7]


def test_load_idx_gzip_transparent(tmp_path):
    pixels = [[[10, 20], [30, 40]]]
    ip, lp = write_idx_pair(tmp_path, pixels, [1], gz=True)
    ds = load_idx(ip, lp)
    assert np.allclose(ds.features[0], np.array([10, 20, 30, 40]) / 255.0)


def test_load_idx_bad_magic(tmp_path):
    ip, lp = write_idx_pair(tmp_path, [[[0]]], [0])
    raw = bytearray(ip.read_bytes())
    struct.pack_into(">I", raw, 0, 1234)
    ip.write_bytes(bytes(raw))
    with pytest.raises(ParseError):
        load_idx(ip, lp)


def test_load_idx_count_mismatch(tmp_path):
    pixels = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    ip, _ = write_idx_pair(tmp_path, pixels, [1, 0])
    lp = tmp_path / "short-labels.idx"
    lp.write_bytes(struct.pack(">II", 2049, 1) + bytes([1]))
    with pytest.raises(ParseError, match="1 labels for 2 images"):
        load_idx(ip, lp)


def test_load_idx_truncated(tmp_path):
    ip, lp = write_idx_pair(tmp_path, [[[0, 0], [0, 0]]], [1])
    raw = ip.read_bytes()
    ip.write_bytes(raw[:-2])
    with pytest.raises(ParseError, match="pixel data"):
        load_idx(ip, lp)
    ip.write_bytes(b"")
    with pytest.raises(ParseError, match="image header"):
        load_idx(ip, lp)


def _cut_gzip(raw):
    return raw[: len(raw) // 2]


def _flip_deflate_byte(raw):
    return raw[:10] + bytes([raw[10] ^ 0xFF]) + raw[11:]  # first byte after the 10-byte gzip header


def _huge_header(raw):
    return struct.pack(">IIII", 2051, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF) + raw[16:]


@pytest.mark.parametrize(
    "gz, damage, message",
    [
        (True, _cut_gzip, "bad gzip stream"),
        (True, _flip_deflate_byte, "bad gzip stream"),
        (False, _huge_header, "pixel data"),
    ],
)
def test_load_idx_malformed_file_is_a_parse_error_naming_it(tmp_path, gz, damage, message):
    ip, lp = write_idx_pair(tmp_path, [[[0, 51], [102, 255]]], [1], gz=gz)
    ip.write_bytes(damage(ip.read_bytes()))
    with pytest.raises(ParseError, match=message) as exc:
        load_idx(ip, lp)
    assert exc.value.path == str(ip)


@pytest.mark.parametrize("gz", [False, True])
@pytest.mark.parametrize("which, extra", [("images", 8), ("labels", 1)])
def test_load_idx_trailing_bytes_are_a_parse_error_naming_the_file(tmp_path, gz, which, extra):
    ip, lp = write_idx_pair(tmp_path, [[[0, 51], [102, 255]]], [1], gz=gz)
    path = ip if which == "images" else lp
    raw = gzip.decompress(path.read_bytes()) if gz else path.read_bytes()
    raw += bytes(extra)
    path.write_bytes(gzip.compress(raw) if gz else raw)
    with pytest.raises(ParseError, match=f"{extra} trailing bytes") as exc:
        load_idx(ip, lp)
    assert exc.value.path == str(path)


def test_load_idx_reads_every_label_byte_at_256_classes(tmp_path):
    # `classes` is applied by the CLI, which names the labels file of a label that reaches it
    ds = load_idx(*write_idx_pair(tmp_path, [[[0]], [[0]]], [0, 255]))
    assert (ds.num_classes, ds.labels.tolist()) == (256, [0, 255])


def test_load_sparse_direct_parse(tmp_path):
    p = tmp_path / "rows.txt"
    p.write_text("width=5 classes=2\n1 0:2.0 4:1.0\n0 1:3.5\n")
    ds = load_sparse(p)
    assert np.array_equal(ds.features[0], [2.0, 0.0, 0.0, 0.0, 1.0])
    assert np.array_equal(ds.features[1], [0.0, 3.5, 0.0, 0.0, 0.0])
    assert ds.labels.tolist() == [1, 0]
    assert ds.num_classes == 2


def test_load_sparse_of_only_comments_and_blank_lines_names_the_missing_header(tmp_path):
    p = tmp_path / "rows.txt"
    p.write_text("# no rows yet\n\n   \n# width=2 classes=2\n")
    with pytest.raises(ParseError) as exc:
        load_sparse(p)
    assert str(exc.value) == f"{p}:0: missing header line `width=<d> classes=<k>`"


def test_load_sparse_unlabeled_rows(tmp_path):
    p = tmp_path / "rows.txt"
    p.write_text("width=3 classes=2\n-1 0:1.0\n-1 2:2.0\n")
    ds = load_sparse(p)
    assert ds.labels is None
    assert ds.features.shape == (2, 3)


def test_load_sparse_rejects_mixed_labeling(tmp_path):
    p = tmp_path / "rows.txt"
    p.write_text("width=3 classes=2\n-1 0:1.0\n1 2:2.0\n")
    with pytest.raises(ParseError, match="mix"):
        load_sparse(p)


def test_load_sparse_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "rows.txt"
    p.write_text("width=3 classes=2\n0 0:1.0\n0 0:1.0 0:2.0\n")
    with pytest.raises(ParseError) as exc:
        load_sparse(p)
    assert exc.value.line_no == 3
    assert "duplicate index" in str(exc.value)

    p.write_text("width=3 classes=2\n0 7:1.0\n")
    with pytest.raises(ParseError, match="out of range"):
        load_sparse(p)

    p.write_text("0 0:1.0\n")
    with pytest.raises(ParseError, match="header"):
        load_sparse(p)

    # a repeated header key is an error, not the last value given
    p.write_text("# rows\nwidth=3 width=4 classes=2\n0 3:1.0\n")
    with pytest.raises(ParseError, match=r"rows\.txt:2: duplicate header key 'width'"):
        load_sparse(p)


@pytest.mark.parametrize(
    "header",
    [
        "width=4611686018427387904 classes=2",
        "width=4294967296 classes=2",
        "width=3 classes=100000000000000000000",
        "width=3 classes=4294967296",
    ],
)
def test_load_sparse_rejects_header_sizes_from_2_to_the_32(tmp_path, capsys, header):
    # checkpoints store layer widths as u32. With no data rows, a loader
    # without the bound allocates nothing for these headers either.
    p = tmp_path / "rows.txt"
    p.write_text(f"# rows\n{header}\n")
    with pytest.raises(ParseError, match=r"rows\.txt:2: invalid header .* need width in \[1, 2\^32\)"):
        load_sparse(p)
    cfg = tmp_path / "cfg.txt"
    keys = ("source_sparse", "target_sparse", "target_test_sparse")
    cfg.write_text("data = sparse\n" + "".join(f"{k} = {p}\n" for k in keys) + f"out_dir = {tmp_path / 'out'}\n")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {p}:2: invalid header")


def test_load_sparse_header_sizes_below_2_to_the_32_parse(tmp_path):
    p = tmp_path / "rows.txt"
    p.write_text("width=4294967295 classes=4294967295\n")  # header only: a (0, 2^32 - 1) array
    ds = load_sparse(p)
    assert ds.features.shape == (0, 4294967295) and ds.num_classes == 4294967295


def test_load_sparse_rejects_non_utf8_bytes(tmp_path):
    p = tmp_path / "rows.txt"
    p.write_bytes(b"\xff\xfewidth=3 classes=2\n0 0:1.0\n")
    with pytest.raises(ParseError, match=r"rows\.txt:1: not UTF-8"):
        load_sparse(p)
    p.write_bytes(b"width=3 classes=2\n0 0:1.0\n1 1:\xff\n")
    with pytest.raises(ParseError) as exc:
        load_sparse(p)
    assert exc.value.line_no == 3
    assert str(exc.value) == f"{p}:3: not UTF-8 (byte 30)"
    cfg = tmp_path / "cfg.txt"
    keys = ("source_sparse", "target_sparse", "target_test_sparse")
    cfg.write_text("data = sparse\n" + "".join(f"{k} = {p}\n" for k in keys) + f"out_dir = {tmp_path / 'out'}\n")
    assert main(["train", "--config", str(cfg)]) == 2


def test_read_utf8_names_the_line_and_offset_of_the_first_bad_byte(tmp_path):
    p = tmp_path / "text.txt"
    p.write_bytes("a = é\n".encode() + b"b\n\xc3(\n\xff\n")
    with pytest.raises(ParseError) as exc:
        read_utf8(p)
    assert str(exc.value) == f"{p}:3: not UTF-8 (byte 9)"  # 0xc3 opens a character that "(" does not continue
    p.write_bytes("a = é\n".encode())
    assert read_utf8(p) == "a = é\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_load_sparse_rejects_non_finite_values(tmp_path, value):
    p = tmp_path / "rows.txt"
    p.write_text(f"width=3 classes=2\n0 0:1.0\n1 2:{value}\n")
    with pytest.raises(ParseError, match=r"rows\.txt:3: non-finite value"):
        load_sparse(p)


def test_load_sparse_header_only_is_empty_dataset(tmp_path):
    p = tmp_path / "rows.txt"
    p.write_text("width=5 classes=2\n")
    ds = load_sparse(p)
    assert ds.features.shape == (0, 5)
    assert ds.labels is None
    # a run never gets to batch it: a DomainPair rejects it, naming the split
    with pytest.raises(ContractViolation):
        Batcher(ds.features.shape[0], 4, seed=0, purpose=1)
    with pytest.raises(ContractViolation) as info:
        DomainPair(ds, ds, ds)
    assert str(info.value) == f"the source split ({p}) has no rows"


def test_sparse_round_trip(tmp_path):
    pair = synth_gauss_shift(15, num_classes=3, dim=4, seed=6)
    p = tmp_path / "out.txt"
    save_sparse(pair.source, p)
    back = load_sparse(p)
    assert np.array_equal(back.features, pair.source.features)
    assert np.array_equal(back.labels, pair.source.labels)
    save_sparse(pair.source, tmp_path / "again.txt")
    assert p.read_bytes() == (tmp_path / "again.txt").read_bytes()


EDGE_ROWS = np.array([
    [0.0, 0.0, 0.0],  # an all-zero row is its label alone
    [-0.0, 0.1, -0.0],  # -0.0 is not written, and loads back as 0.0
    [0.30000000000000004, 1.0000000000000002, -2.0 / 3],  # 17 significant digits
    [5e-324, -1.7976931348623157e308, 1e-300],
])
EDGE_TEXT = (
    "width=3 classes=2\n{}\n{} 1:0.1\n{} 0:0.30000000000000004 1:1.0000000000000002 2:-0.6666666666666666\n"
    "{} 0:5e-324 1:-1.7976931348623157e+308 2:1e-300\n"
)


@pytest.mark.parametrize("labels", [[0, 1, 1, 0], None])
def test_sparse_save_load_save_round_trip_of_edge_rows(tmp_path, labels):
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    save_sparse(Dataset(EDGE_ROWS, labels, 2), first)
    assert first.read_text() == EDGE_TEXT.format(*(labels or [-1] * 4))
    back = load_sparse(first)
    assert np.array_equal(back.features, EDGE_ROWS)
    assert back.labels is None if labels is None else back.labels.tolist() == labels
    save_sparse(back, second)
    assert first.read_bytes() == second.read_bytes()


def test_two_moons_shapes_and_determinism():
    pair = synth_two_moons(50, 35.0, 0.1, seed=7)
    again = synth_two_moons(50, 35.0, 0.1, seed=7)
    assert pair.source.features.shape == (50, 2)
    assert pair.target_train.features.shape == (50, 2)
    assert pair.target_test.features.shape == (50, 2)
    assert np.array_equal(pair.source.features, again.source.features)
    assert np.array_equal(pair.target_test.features, again.target_test.features)
    other = synth_two_moons(50, 35.0, 0.1, seed=8)
    assert not np.array_equal(pair.source.features, other.source.features)


def test_two_moons_golden_first_row():
    pair = synth_two_moons(10, 35.0, 0.1, seed=0)
    assert np.array_equal(pair.source.features[0], MOONS_GOLDEN_ROW)
    assert pair.source.labels[0] == 0


# sha256 over features then labels of source, target-train and target-test,
# for synth_two_moons(40, 35.0, 0.1, seed=3) at each label_skew.
MOONS_GOLDEN_DIGESTS = {
    None: "1d28c2612ff604dc3d7b655086a1c14de10f62cb9d0239167f23b2e0218e140f",
    (0.8, 0.2): "a64d2266924555c866e02002f24527d4339e55706f7ac2c5fe214424d40fbea9",
}


def split_digest(pair) -> str:
    h = hashlib.sha256()
    for ds in (pair.source, pair.target_train_labeled(oracle=True), pair.target_test):
        h.update(ds.features.tobytes())
        h.update(ds.labels.tobytes())
    return h.hexdigest()


def test_two_moons_golden_digests():
    for label_skew, digest in MOONS_GOLDEN_DIGESTS.items():
        assert split_digest(synth_two_moons(40, 35.0, 0.1, label_skew=label_skew, seed=3)) == digest, label_skew


def test_two_moons_label_skew_exact_counts():
    pair = synth_two_moons(1000, 35.0, 0.1, label_skew=(0.7, 0.3), seed=9)
    train = pair.target_train_labeled(oracle=True)
    assert np.bincount(train.labels).tolist() == [700, 300]
    assert np.bincount(pair.target_test.labels).tolist() == [700, 300]
    # source stays balanced
    assert np.bincount(pair.source.labels).tolist() == [500, 500]


def test_two_moons_rejects_bad_arguments():
    with pytest.raises(ContractViolation):
        synth_two_moons(10, -5.0, 0.1)
    with pytest.raises(ContractViolation):
        synth_two_moons(10, 400.0, 0.1)
    with pytest.raises(ContractViolation):
        synth_two_moons(10, 35.0, -0.1)
    with pytest.raises(ContractViolation):
        synth_two_moons(10, 35.0, 0.1, label_skew=(0.7, 0.2))
    with pytest.raises(ContractViolation):
        synth_two_moons(10, 35.0, 0.1, label_skew=(float("nan"), float("nan")))
    with pytest.raises(ContractViolation, match="^label_skew entries must be numbers: "):
        synth_two_moons(10, 0.0, 0.1, label_skew=("0.8", "0.2"))
    with pytest.raises(ContractViolation):
        synth_two_moons(1, 35.0, 0.1)


def test_two_moons_class_geometry_is_point_symmetric():
    # the noiseless crescents are arcs of unit circles centered at
    # (-0.5, -0.25) for class 0 and (0.5, 0.25) for class 1; negation maps
    # each arc exactly onto the other, so a 180 degree rotation swaps classes
    def on_class0(q):
        return abs((q[0] + 0.5) ** 2 + (q[1] + 0.25) ** 2 - 1.0) < 1e-12 and q[1] + 0.25 >= -1e-12

    def on_class1(q):
        return abs((q[0] - 0.5) ** 2 + (q[1] - 0.25) ** 2 - 1.0) < 1e-12 and q[1] - 0.25 <= 1e-12

    pair = synth_two_moons(400, 0.0, 0.0, seed=11)
    feats, labels = pair.source.features, pair.source.labels
    for q, y in zip(feats, labels):
        if y == 0:
            assert on_class0(q) and on_class1(-q)
        else:
            assert on_class1(q) and on_class0(-q)


def test_two_moons_zero_rotation_keeps_domains_aligned():
    from ctdr.evaluation import evaluate
    from ctdr.train import LossCombo, TrainConfig, fit

    pair = synth_two_moons(200, 0.0, 0.1, seed=1)
    cfg = TrainConfig(LossCombo.parse("ss"), epochs=30, seed=2, timing=False)
    params, _ = fit(cfg, pair)
    source_acc = evaluate(params, pair.source).accuracy
    target_acc = evaluate(params, pair.target_test).accuracy
    assert abs(source_acc - target_acc) < 0.1


def test_two_moons_full_rotation_swaps_classes():
    from ctdr.evaluation import evaluate
    from ctdr.train import LossCombo, TrainConfig, fit

    pair = synth_two_moons(200, 180.0, 0.1, seed=1)
    cfg = TrainConfig(LossCombo.parse("ss"), epochs=30, seed=2, timing=False)
    params, _ = fit(cfg, pair)
    assert evaluate(params, pair.target_test).accuracy < 0.5


# sha256 over features then labels of source, target-train and target-test,
# for synth_gauss_shift(50, num_classes=3, dim=4, seed=1) at each label_skew.
GAUSS_GOLDEN_DIGESTS = {
    None: "534333e1d4f7466cef079b51e8375fa71751297e562c88fa5d789da063b0047a",
    (0.5, 0.3, 0.2): "be4a80f6e9423266d526f04c36a5792405883e13eecaed0ebf6858461012fe19",
}


def test_a_synthetic_split_too_wide_for_one_array_is_rejected_before_any_draw():
    # each bound alone holds (n < 2^53, dim < 2^32); the rows' bytes overflow intp
    with pytest.raises(ContractViolation, match=r"in intp, got n=1099511627776, width=1073741824, classes=3$"):
        synth_gauss_shift(2**40, dim=2**30)
    with pytest.raises(ContractViolation, match=r"in intp, got n=8589934592, width=8, classes=4294967296$"):
        synth_gauss_shift(2**33, num_classes=2**32)


def test_gauss_shift_shapes_and_golden_row():
    pair = synth_gauss_shift(50, num_classes=3, dim=4, seed=1)
    assert pair.source.features.shape == (50, 4)
    assert pair.source.num_classes == 3
    assert np.array_equal(pair.source.features[0], GAUSS_GOLDEN_ROW)
    for label_skew, digest in GAUSS_GOLDEN_DIGESTS.items():
        pair = synth_gauss_shift(50, num_classes=3, dim=4, seed=1, label_skew=label_skew)
        assert split_digest(pair) == digest, label_skew


def test_gauss_shift_zero_shift_is_identity_distribution():
    pair = synth_gauss_shift(
        300, num_classes=3, dim=4, mean_shift=0.0, cov_scale=1.0, seed=2
    )
    src_mean = pair.source.features.mean(axis=0)
    tgt_mean = pair.target_train.features.mean(axis=0)
    assert np.all(np.abs(src_mean - tgt_mean) < 0.3)


def test_gauss_shift_equal_class_counts_by_default():
    pair = synth_gauss_shift(300, num_classes=3, dim=4, seed=3)
    assert np.bincount(pair.target_test.labels).tolist() == [100, 100, 100]


def test_empirical_prior_counts():
    ds = Dataset(np.zeros((4, 2)), np.array([0, 0, 1, 1]), 2, "a")
    assert np.array_equal(empirical_prior(ds), [0.5, 0.5])
    ds = Dataset(np.zeros((4, 2)), np.array([0, 0, 0, 1]), 2, "b")
    assert np.array_equal(empirical_prior(ds), [0.75, 0.25])


def test_empirical_prior_single_class_warns():
    ds = Dataset(np.zeros((3, 2)), np.array([1, 1, 1]), 2, "c")
    with pytest.warns(UserWarning, match="one class"):
        prior = empirical_prior(ds)
    assert np.array_equal(prior, [0.0, 1.0])


def test_empirical_prior_requires_labels():
    ds = Dataset(np.zeros((3, 2)), None, 2, "d")
    with pytest.raises(ContractViolation):
        empirical_prior(ds)


def test_standardizer_uses_train_union_not_test():
    pair = synth_two_moons(100, 35.0, 0.1, seed=12)
    tr = fit_standardizer(pair)
    union = np.vstack([pair.source.features, pair.target_train.features])
    assert np.allclose(tr.mean, union.mean(axis=0), atol=1e-12)
    assert np.allclose(tr.std, union.std(axis=0), atol=1e-12)
    # shifting only the test split must not change the transform
    shifted = DomainPair(
        pair.source,
        pair.target_train,
        Dataset(
            pair.target_test.features + 100.0,
            pair.target_test.labels,
            pair.target_test.num_classes,
            "shifted",
        ),
    )
    tr2 = fit_standardizer(shifted)
    assert np.array_equal(tr.mean, tr2.mean)
    assert np.array_equal(tr.std, tr2.std)


def test_standardizer_rejects_a_spread_that_overflows_float64():
    pair = synth_gauss_shift(30, mean_shift=1e200, seed=3)
    with pytest.raises(ContractViolation, match=r"^the source and target_train rows: column 0 overflows float64"):
        fit_standardizer(pair)


def test_standardize_centers_union_and_is_idempotent():
    pair = synth_two_moons(100, 35.0, 0.1, seed=13)
    std_pair, tr = standardize(pair)
    union = np.vstack([std_pair.source.features, std_pair.target_train.features])
    assert np.all(np.abs(union.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(union.std(axis=0) - 1.0) < 1e-9)
    twice, _ = standardize(std_pair)
    assert np.all(np.abs(twice.source.features - std_pair.source.features) < 1e-9)


def test_standardize_constant_feature_maps_to_zero():
    feats = np.ones((6, 2))
    feats[:, 1] = np.arange(6)
    ds = Dataset(feats, np.array([0, 1, 0, 1, 0, 1]), 2, "s")
    pair = DomainPair(ds, Dataset(feats.copy(), None, 2, "t"), ds)
    std_pair, _ = standardize(pair)
    assert np.all(std_pair.source.features[:, 0] == 0.0)


def test_feature_transform_round_trip(tmp_path):
    pair = synth_two_moons(40, 35.0, 0.1, seed=14)
    tr = fit_standardizer(pair)
    path = tmp_path / "transform.json"
    tr.save(path)
    back = FeatureTransform.load(path)
    assert np.array_equal(back.mean, tr.mean)
    assert np.array_equal(back.std, tr.std)
    x = pair.source.features
    assert np.array_equal(back.apply(x), tr.apply(x))


@pytest.mark.parametrize(
    "blob, line_no",
    [
        (b'{"mean": ["0.5", "1.5"], "std": [', 1),  # truncated
        (b'{\n"mean": ["0.5"],\n"std": ["1.0"],\n}', 4),  # trailing comma, reported at the `}` on line 4
        (b"{}", 1),
        (b'{"mean": ["0.5"]}', 1),
        (b'{"mean": ["0.5"], "std": ["one"]}', 1),
        (b'{"mean": ["0.5"], "std": [{}]}', 1),
        (b'{"mean": ["0.5"], "std": ["nan"]}', 1),
        (b'{"mean": ["0.5"], "std": ["0.0"]}', 1),
        (b'{"mean": ["0.5", "1.5"], "std": ["1.0"]}', 1),
        (b"[]", 1),
        (b'\xff{"mean": []}', 1),
        (b'{"mean": "12", "std": "34"}', 1),  # strings, not lists of them
        (b'{"mean": [true], "std": [1]}', 1),  # a boolean, not a number
    ],
)
def test_feature_transform_load_rejects_malformed(tmp_path, blob, line_no):
    path = tmp_path / "transform.json"
    path.write_bytes(blob)
    with pytest.raises(ParseError) as info:
        FeatureTransform.load(path)
    assert (info.value.path, info.value.line_no) == (str(path), line_no)


def test_resize_bilinear_constant_image_unchanged(tmp_path):
    pixels = np.full((1, 4, 4), 100, dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, pixels, [2])
    ds = load_idx(ip, lp)
    up = resize_bilinear(ds, (8, 8))
    assert up.features.shape == (1, 64)
    assert up.image_hw == (8, 8)
    assert np.allclose(up.features, 100 / 255.0, atol=1e-12)
    assert up.labels.tolist() == [2]


def test_resize_bilinear_identity_when_same_size(tmp_path):
    pixels = ((np.arange(16).reshape(1, 4, 4) * 15) % 256).astype(np.uint8)
    ip, lp = write_idx_pair(tmp_path, pixels, [0])
    ds = load_idx(ip, lp)
    same = resize_bilinear(ds, (4, 4))
    assert np.allclose(same.features, ds.features, atol=1e-12)


def test_resize_bilinear_preserves_horizontal_ramp(tmp_path):
    pixels = np.tile(np.array([0, 85, 170, 255], dtype=np.uint8), (4, 1))[None, :, :]
    ip, lp = write_idx_pair(tmp_path, pixels, [1])
    ds = load_idx(ip, lp)
    up = resize_bilinear(ds, (4, 8))
    img = up.features.reshape(4, 8)
    for r in range(4):
        assert np.all(np.diff(img[r]) >= -1e-12)
    assert np.all(img >= 0.0) and np.all(img <= 1.0)


def test_resize_bilinear_requires_image_shape():
    ds = Dataset(np.zeros((3, 5)), np.array([0, 1, 0]), 2, "flat")
    with pytest.raises(ContractViolation):
        resize_bilinear(ds, (2, 2))


def test_subsample_deterministic_and_exact():
    pair = synth_gauss_shift(60, num_classes=3, dim=4, seed=4)
    a = subsample(pair.source, 20, seed=5)
    b = subsample(pair.source, 20, seed=5)
    assert a.features.shape == (20, 4)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = subsample(pair.source, 20, seed=5, variant=1)
    assert not np.array_equal(a.features, c.features)


def test_subsample_rows_come_from_parent_without_duplicates():
    pair = synth_gauss_shift(30, num_classes=3, dim=4, seed=5)
    sub = subsample(pair.source, 12, seed=6)
    parent = {tuple(row) for row in pair.source.features}
    seen = set()
    for row in sub.features:
        key = tuple(row)
        assert key in parent
        assert key not in seen
        seen.add(key)


def test_subsample_rejects_oversized_request():
    pair = synth_gauss_shift(10, num_classes=2, dim=3, seed=6)
    with pytest.raises(ContractViolation):
        subsample(pair.source, 11, seed=0)
