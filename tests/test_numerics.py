"""Tests for the deterministic numerics layer: PRNG, dense ops, stability helpers."""

import math

import numpy as np
import pytest

from ctdr.errors import ContractViolation
from ctdr.numerics import (
    Rng,
    STREAM_WEIGHT_INIT,
    finite_diff_grad,
    gaussian_kernel_matrix,
    log_sum_exp,
    relative_error,
    softmax_rows,
    substream,
)

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
