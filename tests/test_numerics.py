"""Tests for the deterministic numerics layer: PRNG, dense ops, stability helpers."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ctdr.numerics
from ctdr.data import SPLITS, _moon_points, synth_gauss_shift, synth_two_moons
from ctdr.errors import ContractViolation
from ctdr.model import tensor_names
from ctdr.numerics import (
    Rng,
    STREAM_DATA,
    STREAM_WEIGHT_INIT,
    _libm_log,
    _pairwise_sq_dists,
    column_stats,
    gaussian_kernel_matrix,
    log_sum_exp,
    softmax_rows,
    substream,
)
from ctdr.train import LossCombo, TrainConfig, fit
from gradcheck import finite_diff_grad, relative_error
from numpy_targets import numpy_kernels

# Reference sequence for PCG32 seeded with (42, 54), from the generator's
# published known-answer vector.
PCG32_KAT_42_54 = [
    0xA15C02B7,
    0x7B47F409,
    0xBA1D3330,
    0x83D2F293,
    0xBFA4784B,
    0xCBED606E,
]

# First 16 outputs of Rng(42, 0), frozen at implementation time.
GOLDEN_SEED42 = [
    565663470,
    3244226384,
    2504567229,
    903561869,
    4026996297,
    2722332799,
    3032858066,
    272411090,
    1181909318,
    20290832,
    809514014,
    2164621145,
    1367162753,
    619412887,
    360199006,
    910471957,
]

GOLDEN_SEED42_DOUBLES = [
    0.131703792179788,
    0.5831399948178,
    0.9376081424492783,
    0.7061422918992165,
]

GOLDEN_SEED42_NORMALS = [
    -1.7450106523242712,
    -1.004657940006463,
    -0.09766779964943507,
    -0.3454089642728382,
]


def test_rng_known_answer_sequence():
    rng = Rng(42, 54)
    got = [rng.next_u32() for _ in range(6)]
    assert got == PCG32_KAT_42_54


def test_rng_golden_vector_seed_42():
    rng = Rng(42, 0)
    got = [rng.next_u32() for _ in range(16)]
    assert got == GOLDEN_SEED42


def test_rng_golden_doubles_and_normals():
    rng = Rng(42, 0)
    got = [rng.random() for _ in range(4)]
    assert got == GOLDEN_SEED42_DOUBLES
    rng = Rng(42, 0)
    got = [rng.normal() for _ in range(4)]
    assert got == GOLDEN_SEED42_NORMALS


def test_rng_same_seed_same_stream():
    a = Rng(123, 7)
    b = Rng(123, 7)
    assert [a.next_u32() for _ in range(50)] == [b.next_u32() for _ in range(50)]


def test_rng_distinct_streams_disagree():
    a = Rng(123, 1)
    b = Rng(123, 2)
    assert [a.next_u32() for _ in range(8)] != [b.next_u32() for _ in range(8)]


def test_rng_random_in_unit_interval():
    rng = Rng(5, 0)
    draws = [rng.random() for _ in range(2000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    # loose moment checks on a fixed seed, not a statistical test
    assert abs(np.mean(draws) - 0.5) < 0.02
    assert abs(np.var(draws) - 1.0 / 12.0) < 0.01


def test_rng_uniform_range():
    rng = Rng(6, 0)
    draws = [rng.uniform(-2.0, 3.0) for _ in range(500)]
    assert all(-2.0 <= u < 3.0 for u in draws)
    assert min(draws) < -1.5 and max(draws) > 2.5


def test_rng_normal_moments():
    rng = Rng(7, 0)
    draws = np.array([rng.normal() for _ in range(4000)])
    assert abs(draws.mean()) < 0.05
    assert abs(draws.std() - 1.0) < 0.05


def test_rng_matrix_helpers_shapes_and_determinism():
    a = Rng(11, 3).uniform_matrix(4, 5, -1.0, 1.0)
    b = Rng(11, 3).uniform_matrix(4, 5, -1.0, 1.0)
    assert a.shape == (4, 5) and a.dtype == np.float64
    assert np.array_equal(a, b)
    c = Rng(11, 3).normal_matrix(3, 2)
    assert c.shape == (3, 2) and np.all(np.isfinite(c))


def test_rng_below_bounds_and_coverage():
    rng = Rng(13, 0)
    seen = set()
    for _ in range(500):
        v = rng.below(7)
        assert 0 <= v < 7
        seen.add(v)
    assert seen == set(range(7))


def test_rng_below_rejects_nonpositive():
    rng = Rng(13, 0)
    with pytest.raises(ContractViolation):
        rng.below(0)


def test_permutation_is_permutation_and_seed_pure():
    p1 = Rng(17, 9).permutation(40)
    p2 = Rng(17, 9).permutation(40)
    assert np.array_equal(p1, p2)
    assert sorted(p1.tolist()) == list(range(40))
    p3 = Rng(18, 9).permutation(40)
    assert not np.array_equal(p1, p3)


# Block draws against the scalar reference. A block of _BLOCK outputs gives
# _BLOCK // 4 Box-Muller pairs (HALF normals), HALF uniforms or _BLOCK
# permutation picks; the boundary cases below follow it. The high stream has
# bit 63 set, and bit 62, which becomes bit 63 of the increment.
HALF = ctdr.numerics._BLOCK // 2
HIGH_STREAM = (3 << 62) | 12345


def scalar_fisher_yates(rng, n):
    idx = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def assert_same_position(block, scalar):
    assert block._spare_normal == scalar._spare_normal
    assert type(block._spare_normal) is type(scalar._spare_normal)
    assert block.next_u32() == scalar.next_u32()


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (3, 5), (1, HALF), (1, HALF + 1), (3, 2 * HALF // 3 + 1), (7, 1201)])
@pytest.mark.parametrize("seed, stream", [(42, 0), (9, HIGH_STREAM)])
def test_normal_matrix_equals_scalar_normals(shape, seed, stream):
    block, scalar = Rng(seed, stream), Rng(seed, stream)
    got = block.normal_matrix(*shape)
    want = np.array([scalar.normal() for _ in range(shape[0] * shape[1])]).reshape(shape)
    assert got.dtype == np.float64 and got.shape == shape
    assert got.tobytes() == want.tobytes()
    assert_same_position(block, scalar)


def test_numpy_cos_sin_equal_math_cos_sin_bit_for_bit():
    # normal_matrix takes cos and sin of its angles from numpy, normal() from
    # math; 2^20 Box-Muller angles must give the same bytes both ways
    rng = Rng(0, HIGH_STREAM)
    a = (2.0 * math.pi) * np.concatenate([rng._random_block(4096) for _ in range(256)])
    angles = a.tolist()
    assert np.cos(a).tobytes() == np.fromiter(map(math.cos, angles), np.float64, count=a.size).tobytes()
    assert np.sin(a).tobytes() == np.fromiter(map(math.sin, angles), np.float64, count=a.size).tobytes()


def doubles_around(x: float, n: int = 2**20) -> np.ndarray:
    """The n consecutive doubles centred on x."""
    return (np.float64(x).view(np.int64) + np.arange(-n // 2, n // 2)).view(np.float64)


def test_libm_log_equals_math_log_bit_for_bit():
    # normal_matrix and uniform_normal_rows take log(u1) from _libm_log, normal()
    # from math.log; each must give the same bytes on contiguous input, on
    # normal_matrix's stride-2 u1 view and on uniform_normal_rows' u1 column
    rng = Rng(0, HIGH_STREAM)
    k = np.arange(1, 2**20 + 1)
    cases = {
        "2^20 block draws": np.concatenate([rng._random_block(HALF) for _ in range(2**20 // HALF)]),
        "around 0.5": doubles_around(0.5),
        "around 0.7": doubles_around(0.7),
        "around 1/sqrt(2)": doubles_around(math.sqrt(0.5)),
        "random()'s largest values": 1.0 - k * 2.0**-53,
        "random()'s smallest values": k * 2.0**-53,
    }
    for what, u in cases.items():
        want = np.fromiter(map(math.log, u.tolist()), np.float64, count=u.size).tobytes()
        pairs = np.empty(2 * u.size)
        pairs[0::2], pairs[1::2] = u, 0.5
        rows = np.full((u.size, 3), 0.5)
        rows[:, 1] = u
        assert _libm_log(u).tobytes() == want, f"{what}, contiguous ({numpy_kernels()})"
        assert _libm_log(pairs[0::2]).tobytes() == want, f"{what}, stride 2 ({numpy_kernels()})"
        assert _libm_log(rows[:, 1]).tobytes() == want, f"{what}, column of 3 ({numpy_kernels()})"


def test_u32_block_is_uint32_and_equals_next_u32_at_both_rotation_ends():
    block, scalar = Rng(21, HIGH_STREAM), Rng(21, HIGH_STREAM)
    rots, want = [], []
    for _ in range(ctdr.numerics._BLOCK):
        rots.append(scalar._state >> 59)
        want.append(scalar.next_u32())
    got = block._u32_block(ctdr.numerics._BLOCK)
    assert {0, 31} <= set(rots)
    assert got.dtype == np.uint32
    assert got.tolist() == want
    assert_same_position(block, scalar)


# Run in a subprocess pinned to one dispatch target: the helper against math.log
# on 2^18 draws, and a normal_matrix and a uniform_normal_rows whose rows cross
# block boundaries against scalar calls.
UNDER_TARGET = """
import math, sys
import numpy as np
from numpy.lib.introspect import opt_func_info
from ctdr.numerics import Rng, _libm_log

target = opt_func_info(func_name="^log$", signature="float64")["log"]["dd"]["current"]
assert target == sys.argv[1], f"asked for {sys.argv[1]}, log runs on {target}"
rng = Rng(0, 7)
u = np.concatenate([rng._random_block(8192) for _ in range(32)])
want = np.fromiter(map(math.log, u.tolist()), np.float64, count=u.size)
assert _libm_log(u).tobytes() == want.tobytes(), "log"
block, scalar = Rng(3, 9), Rng(3, 9)
want = np.fromiter((scalar.normal() for _ in range(12297)), np.float64, count=12297)
assert block.normal_matrix(3, 4099).tobytes() == want.tobytes(), "normal_matrix"
block, scalar = Rng(5, 9), Rng(5, 9)
want = np.array([(scalar.random(), scalar.normal(), scalar.normal()) for _ in range(3001)])
assert block.uniform_normal_rows(3001).tobytes() == want.tobytes(), "uniform_normal_rows"
"""


def test_rng_gives_the_same_bytes_under_every_numpy_log_target():
    introspect = pytest.importorskip("numpy.lib.introspect")  # numpy >= 2.0
    # the float64 log targets this host can run, best first
    targets = introspect.opt_func_info(func_name="^log$", signature="float64")["log"]["dd"]["available"].split()[:3]
    src = str(Path(ctdr.numerics.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for i, target in enumerate(targets):
        # switching off the targets above this one makes numpy dispatch to it
        proc = subprocess.run(
            [sys.executable, "-c", UNDER_TARGET, target],
            env={**env, "NPY_DISABLE_CPU_FEATURES": " ".join(targets[:i])},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, f"numpy {np.__version__}, float64 log on {target}:\n{proc.stderr}"


def test_normal_matrix_interleaved_with_scalar_calls_carries_the_spare():
    block, scalar = Rng(3, HIGH_STREAM), Rng(3, HIGH_STREAM)
    got, want = [], []
    # the spare plus HALF normals fill one block; the spare plus HALF + 1
    # leave a new spare one pair past the boundary, for the last single
    steps = [(1, 3, 1), (2, 3, 1), (1, 1, 0), (1, 1, 2), (5, 819, 1), (1, HALF + 1, 1), (1, HALF + 2, 0), (0, 4, 1)]
    for rows, cols, singles in steps:
        got += block.normal_matrix(rows, cols).ravel().tolist()
        want += [scalar.normal() for _ in range(rows * cols)]
        got += [block.normal() for _ in range(singles)]
        want += [scalar.normal() for _ in range(singles)]
        assert_same_position(block, scalar)  # both draw one u32 here, and stay in step
    assert got == want


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (1, HALF + 1), (3, 2 * HALF // 3 + 1)])
@pytest.mark.parametrize("seed, stream", [(11, 3), (9, HIGH_STREAM)])
def test_uniform_matrix_equals_scalar_uniforms(shape, seed, stream):
    block, scalar = Rng(seed, stream), Rng(seed, stream)
    got = block.uniform_matrix(*shape, -0.37, 1.25)
    want = np.array([scalar.uniform(-0.37, 1.25) for _ in range(shape[0] * shape[1])]).reshape(shape)
    assert got.dtype == np.float64 and got.shape == shape
    assert got.tobytes() == want.tobytes()
    assert_same_position(block, scalar)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 40, 500, 2 * HALF + 2])
@pytest.mark.parametrize("seed, stream", [(17, 9), (9, HIGH_STREAM)])
def test_permutation_equals_scalar_fisher_yates(n, seed, stream):
    block, scalar = Rng(seed, stream), Rng(seed, stream)
    got = block.permutation(n)
    want = scalar_fisher_yates(scalar, n)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert_same_position(block, scalar)


def patch_block(monkeypatch, edit):
    """Make Rng._u32_block return edited outputs; returns the list of calls."""
    real = Rng._u32_block
    calls = []

    def patched(self, n):
        calls.append(n)
        out = real(self, n)
        edit(out)
        return out

    monkeypatch.setattr(Rng, "_u32_block", patched)
    return calls


def test_normal_matrix_zero_u1_falls_back_to_scalar_path(monkeypatch):
    scalar = Rng(5, HIGH_STREAM)
    scalar.normal()  # leaves a spare, which the fallback must restore
    want = [scalar.normal() for _ in range(9)]

    def zero_first_u1(out):
        out[:2] = 0  # hi = lo = 0: the first pair's u1 is exactly 0.0

    calls = patch_block(monkeypatch, zero_first_u1)
    block = Rng(5, HIGH_STREAM)
    block.normal()
    got = block.normal_matrix(3, 3)
    assert calls == [16]  # four pairs for the eight normals after the spare
    assert got.ravel().tolist() == want
    assert_same_position(block, scalar)


@pytest.mark.parametrize("n", [3, 40, 500])
def test_permutation_rejection_falls_back_to_scalar_path(monkeypatch, n):
    scalar = Rng(8, HIGH_STREAM)
    want = scalar_fisher_yates(scalar, n)

    def reject_first(out):
        out[0] = 0xFFFFFFFF  # at or above below(n)'s limit unless n is a power of two

    calls = patch_block(monkeypatch, reject_first)
    block = Rng(8, HIGH_STREAM)
    got = block.permutation(n)
    assert calls == [n - 1]
    assert np.array_equal(got, want)
    assert_same_position(block, scalar)


def use_block(monkeypatch, size):
    """Run every block draw in blocks of `size` PCG32 outputs."""
    mult, add = ctdr.numerics._jump_tables(size)
    monkeypatch.setattr(ctdr.numerics, "_BLOCK", size)
    monkeypatch.setattr(ctdr.numerics, "_JUMP_MULT", mult)
    monkeypatch.setattr(ctdr.numerics, "_JUMP_ADD", add)


def test_a_tiny_block_gives_the_scalar_values_across_many_boundaries(monkeypatch):
    # 12 outputs: 3 Box-Muller pairs, 6 uniforms or 12 permutation picks a block
    use_block(monkeypatch, 12)
    calls = patch_block(monkeypatch, lambda out: None)
    block, scalar = Rng(4, HIGH_STREAM), Rng(4, HIGH_STREAM)
    for rows, cols in [(1, 1), (1, 5), (2, 7), (3, 6), (1, 13), (4, 9)]:
        n = rows * cols
        got = block.normal_matrix(rows, cols)
        assert got.tobytes() == np.array([scalar.normal() for _ in range(n)]).tobytes()
        got = block.uniform_matrix(rows, cols, -2.0, 3.0)
        assert got.tobytes() == np.array([scalar.uniform(-2.0, 3.0) for _ in range(n)]).tobytes()
        assert np.array_equal(block.permutation(n + 24), scalar_fisher_yates(scalar, n + 24))
        assert_same_position(block, scalar)
    assert max(calls) == 12 and len(calls) > 50


def gauss_fit():
    pair = synth_gauss_shift(60, 3, 16, seed=2)
    cfg = TrainConfig(LossCombo.parse("ss,tu,ta,sa"), epochs=2, batch_size=16, hidden=(8,), seed=3, timing=False)
    params, records = fit(cfg, pair)
    return pair, {name: params.tensors[name].tobytes() for name in tensor_names(params.arch)}, records


def test_the_block_size_changes_no_byte_of_a_gaussian_fakes_fit(monkeypatch):
    pair, tensors, records = gauss_fit()
    use_block(monkeypatch, 12)
    tiny_pair, tiny_tensors, tiny_records = gauss_fit()
    for split in ("source", "target_train", "target_test"):
        assert getattr(tiny_pair, split).features.tobytes() == getattr(pair, split).features.tobytes()
    assert tiny_tensors == tensors
    assert tiny_records == records


def scalar_moon_points(labels, noise_std, rng):
    """The per-point reference for data._moon_points: random(), normal(), normal() per point."""
    feats = np.empty((labels.size, 2))
    for pos, cls in enumerate(labels.tolist()):
        t = rng.random() * math.pi
        x = math.cos(t) - 0.5
        y = math.sin(t) - 0.25
        if cls == 1:
            x, y = -x, -y
        feats[pos, 0] = x + rng.normal() * noise_std
        feats[pos, 1] = y + rng.normal() * noise_std
    return feats


def assert_moon_points_equal_the_reference(labels, noise_std, seed, stream):
    block, scalar = Rng(seed, stream), Rng(seed, stream)
    got = _moon_points(labels, noise_std, block)
    assert got.tobytes() == scalar_moon_points(labels, noise_std, scalar).tobytes()
    assert_same_position(block, scalar)
    return got


@pytest.mark.parametrize("skew", [None, (0.8, 0.2)])
@pytest.mark.parametrize("noise", [0.0, 0.1, 1.7])
@pytest.mark.parametrize("n", [2, 3, 37, 500, 1001])
def test_moon_points_equal_the_scalar_reference(n, noise, skew):
    for seed in range(10):
        pair = synth_two_moons(n, 0.0, noise, label_skew=skew, seed=seed)
        splits = (pair.source, pair.target_train_labeled(oracle=True), pair.target_test)
        for i, ds in enumerate(splits):
            got = assert_moon_points_equal_the_reference(ds.labels, noise, seed, substream(STREAM_DATA, i))
            assert ds.features.tobytes() == got.tobytes(), (seed, SPLITS[i])


def test_moon_points_cross_block_boundaries(monkeypatch):
    # 12 outputs: two points a block
    use_block(monkeypatch, 12)
    calls = patch_block(monkeypatch, lambda out: None)
    for n in (1, 2, 3, 37):
        assert_moon_points_equal_the_reference(np.arange(n) % 2, 0.3, n, HIGH_STREAM)
    assert max(calls) == 12 and len(calls) == 1 + 1 + 2 + 19


def test_moon_points_zero_u1_replays_the_scalar_calls(monkeypatch):
    def zero_first_u1(out):
        out[2:4] = 0  # the first point's u1 is exactly 0.0

    calls = patch_block(monkeypatch, zero_first_u1)
    assert_moon_points_equal_the_reference(np.array([0, 1, 1, 0, 1]), 0.1, 6, HIGH_STREAM)
    assert calls == [30]


def test_moon_points_replay_the_scalar_calls_with_a_spare_held(monkeypatch):
    calls = patch_block(monkeypatch, lambda out: None)
    labels = np.array([0, 1, 0, 1, 1])
    block, scalar = Rng(7, HIGH_STREAM), Rng(7, HIGH_STREAM)
    assert block.normal() == scalar.normal()
    assert _moon_points(labels, 0.2, block).tobytes() == scalar_moon_points(labels, 0.2, scalar).tobytes()
    assert_same_position(block, scalar)
    assert calls == []


def test_a_moons_split_takes_one_block_draw(monkeypatch):
    # a silent fall back to scalar calls would make no block call
    calls = patch_block(monkeypatch, lambda out: None)
    synth_two_moons(500, 35.0, 0.1, seed=0)
    assert calls == [6 * 500] * len(SPLITS)


def test_substream_packs_purpose_and_index():
    assert substream(STREAM_WEIGHT_INIT, 0) == (STREAM_WEIGHT_INIT << 32)
    assert substream(2, 5) == (2 << 32) | 5
    assert substream(2, 5) != substream(2, 6)
    assert substream(2, 5) != substream(3, 5)


def test_softmax_symmetric_row():
    out = softmax_rows(np.array([[0.0, 0.0]]))
    assert np.array_equal(out, np.array([[0.5, 0.5]]))


def test_softmax_extreme_logits_stable():
    out = softmax_rows(np.array([[1000.0, 0.0]]))
    assert np.all(np.isfinite(out))
    assert out[0, 0] > 1.0 - 1e-12
    assert out[0, 1] < 1e-12


def test_softmax_hand_example():
    out = softmax_rows(np.array([[math.log(2.0), 0.0]]))
    assert abs(out[0, 0] - 2.0 / 3.0) < 1e-12
    assert abs(out[0, 1] - 1.0 / 3.0) < 1e-12


def test_softmax_rows_sum_to_one_for_wild_logits():
    rng = Rng(21, 0)
    for _ in range(50):
        logits = rng.uniform_matrix(5, 6, -1e4, 1e4)
        probs = softmax_rows(logits)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)
        assert np.all(probs >= 0.0)


def test_softmax_rejects_nonfinite():
    with pytest.raises(ContractViolation):
        softmax_rows(np.array([[np.nan, 0.0]]))
    with pytest.raises(ContractViolation):
        softmax_rows(np.array([[np.inf, 0.0]]))


def test_log_sum_exp_examples():
    assert abs(log_sum_exp(np.array([0.0, 0.0])) - math.log(2.0)) < 1e-12
    assert log_sum_exp(np.array([3.75])) == 3.75
    v = log_sum_exp(np.array([1000.0, 1000.0]))
    assert math.isfinite(v)
    assert abs(v - (1000.0 + math.log(2.0))) < 1e-9


def test_log_sum_exp_bounds_property():
    rng = Rng(22, 0)
    for _ in range(100):
        n = 1 + rng.below(6)
        vals = np.array([rng.uniform(-1e4, 1e4) for _ in range(n)])
        out = log_sum_exp(vals)
        assert out >= vals.max()
        assert out <= vals.max() + math.log(n) + 1e-12


def test_log_sum_exp_rejects_empty():
    with pytest.raises(ContractViolation):
        log_sum_exp(np.array([]))


def test_log_sum_exp_2d_keeps_its_checks():
    for empty in (np.zeros((3, 0)), np.zeros((0, 3))):
        with pytest.raises(ContractViolation, match="log_sum_exp: empty input"):
            log_sum_exp(empty)
    for bad in (np.nan, np.inf, -np.inf):
        a = np.zeros((3, 4))
        a[2, 1] = bad
        with pytest.raises(ContractViolation, match="log_sum_exp: values must be finite"):
            log_sum_exp(a)


def test_log_sum_exp_rows_match_each_row_alone():
    rng = Rng(24, 0)
    shapes = [(1, 1), (1, 7), (9, 1)] + [(1 + rng.below(12), 1 + rng.below(300)) for _ in range(60)]
    for i, (rows, cols) in enumerate(shapes):
        a = rng.uniform_matrix(rows, cols, -1.0, 1.0) * (0.1, 1.0, 10.0, 60.0)[i % 4]
        for v in (a, np.asfortranarray(a)):
            out = log_sum_exp(v)
            assert out.shape == (rows,)
            assert out.tobytes() == np.array([log_sum_exp(a[r]) for r in range(rows)]).tobytes()


def test_kernel_diagonal_is_one():
    x = Rng(23, 0).uniform_matrix(6, 3, -2.0, 2.0)
    k = gaussian_kernel_matrix(x, x, 0.7)
    assert np.array_equal(np.diag(k), np.ones(6))


def test_kernel_hand_example():
    x = np.array([[0.0]])
    y = np.array([[1.0]])
    k = gaussian_kernel_matrix(x, y, 1.0)
    assert abs(k[0, 0] - math.exp(-1.0)) < 1e-15


def test_kernel_large_gamma_limit():
    x = np.array([[0.0, 0.0]])
    y = np.array([[1.0, 1.0]])
    k = gaussian_kernel_matrix(x, y, 1e6)
    assert k[0, 0] < 1e-300 or k[0, 0] == 0.0


def test_kernel_symmetry_bitwise():
    x = Rng(24, 0).uniform_matrix(7, 4, -1.0, 1.0)
    k = gaussian_kernel_matrix(x, x, 1.3)
    assert np.array_equal(k, k.T)


def test_kernel_entries_in_unit_interval():
    x = Rng(25, 0).normal_matrix(5, 3)
    y = Rng(25, 1).normal_matrix(4, 3)
    k = gaussian_kernel_matrix(x, y, 0.5)
    assert np.all(k > 0.0) and np.all(k <= 1.0)


def full_difference_sq_dists(x, y):
    """Reference: one (n_x, n_y, d) difference tensor under the same einsum."""
    diff = x[:, None, :] - y[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def spread_rows(seed, n, d):
    # columns several orders of magnitude apart, so any reordered or
    # regrouped arithmetic shows up in the last bits
    return Rng(seed, n).normal_matrix(n, d) * np.logspace(-3, 3, d)


@pytest.mark.parametrize(
    "nx, ny, d",
    [(n, n, 128) for n in (1, 2, 3, 4, 5, 127, 128, 129)] + [(5, 129, 7), (129, 3, 7), (7, 6, 1), (1, 9, 1)],
)
def test_pairwise_sq_dists_equals_full_difference_form(nx, ny, d):
    x = spread_rows(26, nx, d)
    y = spread_rows(27, ny, d)
    assert np.array_equal(_pairwise_sq_dists(x, y), full_difference_sq_dists(x, y))
    sq = _pairwise_sq_dists(x)
    assert np.array_equal(sq, full_difference_sq_dists(x, x))
    assert np.array_equal(sq, sq.T)
    assert np.all(np.diag(sq) == 0.0)


def test_pairwise_sq_dists_strided_input():
    base = spread_rows(30, 40, 33)
    x = base[::3, ::2]  # 14 x 17, neither axis contiguous
    y = base[1::2, ::-2]
    assert not x.flags.c_contiguous and not y.flags.c_contiguous
    assert np.array_equal(_pairwise_sq_dists(x, y), full_difference_sq_dists(x, y))
    sq = _pairwise_sq_dists(x)
    assert np.array_equal(sq, full_difference_sq_dists(x, x))
    assert np.array_equal(sq, sq.T) and np.all(np.diag(sq) == 0.0)


def test_kernel_rejects_width_mismatch_and_bad_gamma():
    with pytest.raises(ContractViolation):
        gaussian_kernel_matrix(np.zeros((2, 3)), np.zeros((2, 4)), 1.0)
    with pytest.raises(ContractViolation):
        gaussian_kernel_matrix(np.zeros((2, 3)), np.zeros((2, 3)), 0.0)


def test_finite_diff_quadratic():
    x = np.array([3.0])
    g = finite_diff_grad(lambda v: float(v[0] ** 2), x)
    assert abs(g[0] - 6.0) < 1e-6


def test_finite_diff_constant_and_linear():
    x = np.array([1.0, -2.0, 0.5])
    g0 = finite_diff_grad(lambda v: 4.2, x)
    assert np.all(np.abs(g0) < 1e-9)
    g1 = finite_diff_grad(lambda v: float(np.sum(v)), x)
    assert np.all(np.abs(g1 - 1.0) < 1e-9)


def test_finite_diff_matches_closed_form_sin():
    x = np.array([[0.3, -1.1], [2.0, 0.0]])
    g = finite_diff_grad(lambda v: float(np.sum(np.sin(v))), x)
    assert np.all(np.abs(g - np.cos(x)) < 1e-8)


def test_finite_diff_does_not_mutate_input():
    x = np.array([1.0, 2.0])
    before = x.copy()
    finite_diff_grad(lambda v: float(np.sum(v * v)), x)
    assert np.array_equal(x, before)


def test_finite_diff_nonfinite_marked_not_raised():
    x = np.array([1.0])
    g = finite_diff_grad(lambda v: float("nan"), x)
    assert np.isnan(g[0])


def test_finite_diff_rejects_bad_step():
    with pytest.raises(ContractViolation):
        finite_diff_grad(lambda v: 0.0, np.array([1.0]), h=0.0)


def test_relative_error_basic():
    a = np.array([1.0, 0.0])
    assert relative_error(a, a) == 0.0
    b = np.array([1.0, 1e-3])
    assert 0.0 < relative_error(a, b) < 1.1e-3
    assert relative_error(np.zeros(2), np.zeros(2)) == 0.0


def test_column_stats_are_numpys_mean_and_population_std():
    x = Rng(41, 0).normal_matrix(50, 4) * np.array([1.0, 1e-3, 1e150, 0.0]) + 7.0
    mean, std = column_stats(x, "some")
    assert mean.tobytes() == x.mean(axis=0).tobytes() and std.tobytes() == x.std(axis=0).tobytes()


@pytest.mark.parametrize("big, col", [(1e200, 1), (1e308, 2)])
def test_column_stats_reject_a_spread_that_overflows_with_no_warning(big, col):
    # finite rows whose squared spread (1e200) or whose sum (1e308) overflows float64
    x = np.zeros((4, 3))
    x[::2, col] = big
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolation, match=rf"^the target rows: column {col} overflows float64 \(mean \S+, std \S+\)$"):
            column_stats(x, "target")
