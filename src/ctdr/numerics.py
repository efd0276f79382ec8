"""Float64 numeric primitives and seeded randomness.

Everything stochastic in the package flows through the PCG32 generator below,
and every consumer gets its own stream id, so runs reproduce bit-for-bit and
enabling one feature never shifts another's draw sequence.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolation

# Stream purposes. A consumer needing per-epoch (or otherwise indexed)
# sequences uses substream(purpose, k).
STREAM_WEIGHT_INIT = 1
STREAM_SOURCE_SHUFFLE = 2
STREAM_TARGET_SHUFFLE = 3
STREAM_FAKE_TARGET = 4
STREAM_FAKE_SOURCE = 5
STREAM_DATA = 6


def substream(purpose: int, k: int) -> int:
    """Stream id for the k-th substream of a purpose (e.g. epoch shuffles)."""
    return (purpose << 32) | (k & 0xFFFFFFFF)


_PCG_MULT = 6364136223846793005
_M64 = (1 << 64) - 1

# PCG32 outputs per jump-ahead block (4096 Box-Muller pairs, or 8192 uniforms);
# it bounds the jump tables (256 KiB) and every per-block temporary. It changes
# no value. Fewer blocks mean fewer numpy calls, each a GIL hand-off between
# fit's draw-ahead worker and the step. On gauss784_ladder (median of 4 runs,
# 2-vCPU host), 2^15 and 2^16 took 3-4% more off fit but raised peak RSS by 3%
# and 5%.
_BLOCK = 1 << 14


def _jump_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """A^k and sum_{j<k} A^j (mod 2^64) for k = 0..n, A the PCG multiplier.

    k steps from state s land on A^k * s + (sum_{j<k} A^j) * inc (Brown 1994,
    "Random number generation with arbitrary strides"). uint64 arithmetic
    wraps, so the tables and everything computed from them are exact.
    """
    mult = np.ones(n + 1, np.uint64)
    mult[1:] = np.multiply.accumulate(np.full(n, _PCG_MULT, np.uint64))
    add = np.zeros(n + 1, np.uint64)
    add[1:] = np.cumsum(mult[:-1], dtype=np.uint64)
    return mult, add


_JUMP_MULT, _JUMP_ADD = _jump_tables(_BLOCK)

def _libm_log(u: np.ndarray) -> np.ndarray:
    """math.log of each value of a 1-D u, bit for bit. Over a reversed (negative-stride) view numpy's
    float64 log runs its scalar libm loop, not its SIMD kernel, which differs in the last bit."""
    return np.log(u[::-1])[::-1]


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r cos a, r sin a) of 1-D u1 in (0, 1) and u2: normal()'s pair for each (u1, u2), bit for bit.

    numpy's SIMD log differs from math.log in the last bit, so log comes from _libm_log, numpy's scalar
    libm loop; numpy's cos and sin give math's bytes. Tests guard both under each numpy dispatch target
    the host has.
    """
    r = np.sqrt(-2.0 * _libm_log(u1))
    a = (2.0 * math.pi) * u2
    return r * np.cos(a), r * np.sin(a)


class Rng:
    """PCG32: 64-bit LCG state, XSH-RR output, explicit stream selection.

    state <- state * 6364136223846793005 + inc (mod 2^64), inc = 2*stream + 1.
    Output is 32 bits; doubles take 53 random bits from two outputs. The same
    (seed, stream) pair yields the same sequence on every platform.

    uniform_matrix, normal_matrix, uniform_normal_rows and permutation take
    their outputs in blocks by LCG jump-ahead. They give the same values, and
    leave the same state, as one next_u32/random/normal/below call per draw;
    those stay the reference and the path for the rare draw a block cannot
    take.
    """

    def __init__(self, seed: int, stream: int = 0):
        self._inc = (((stream & _M64) << 1) | 1) & _M64
        self._state = 0
        self.next_u32()
        self._state = (self._state + (seed & _M64)) & _M64
        self.next_u32()
        self._spare_normal = None

    def next_u32(self) -> int:
        old = self._state
        self._state = (old * _PCG_MULT + self._inc) & _M64
        xsh = (((old >> 18) ^ old) >> 27) & 0xFFFFFFFF
        rot = old >> 59
        return ((xsh >> rot) | (xsh << ((-rot) & 31))) & 0xFFFFFFFF

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        hi = self.next_u32() >> 5  # 27 bits
        lo = self.next_u32() >> 6  # 26 bits
        return (hi * 67108864.0 + lo) * (1.0 / 9007199254740992.0)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def normal(self) -> float:
        """Standard normal via Box-Muller; the paired draw is cached."""
        if self._spare_normal is not None:
            z, self._spare_normal = self._spare_normal, None
            return z
        u1 = self.random()
        while u1 <= 0.0:  # log(0) guard; hit with probability 2^-53
            u1 = self.random()
        u2 = self.random()
        r = math.sqrt(-2.0 * math.log(u1))
        a = 2.0 * math.pi * u2
        self._spare_normal = r * math.sin(a)
        return r * math.cos(a)

    def _u32_block(self, n: int) -> np.ndarray:
        """The next n next_u32() outputs (n <= _BLOCK) as uint32, by jump-ahead."""
        states = _JUMP_MULT[: n + 1] * np.uint64(self._state) + _JUMP_ADD[: n + 1] * np.uint64(self._inc)
        self._state = int(states[n])
        old = states[:n]
        xsh = (((old >> 18) ^ old) >> 27).astype(np.uint32)
        rot = (old >> 59).astype(np.uint32)
        return (xsh >> rot) | (xsh << ((32 - rot) & 31))

    def _random_block(self, n: int) -> np.ndarray:
        """The next n random() doubles (n <= _BLOCK // 2)."""
        u = self._u32_block(2 * n)
        # every partial value is an integer below 2^53, so the float64 sum is exact
        return ((u[0::2] >> 5) * 67108864.0 + (u[1::2] >> 6)) * (1.0 / 9007199254740992.0)

    def uniform_matrix(self, rows: int, cols: int, lo: float, hi: float) -> np.ndarray:
        """Row-major block, the same draws as rows*cols uniform(lo, hi) calls."""
        n = rows * cols
        out = np.empty(n)
        step = _BLOCK // 2
        for start in range(0, n, step):
            out[start : start + step] = self._random_block(min(step, n - start))
        out *= hi - lo
        out += lo
        return out.reshape(rows, cols)

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Row-major block of standard normals, the same draws as rows*cols normal() calls.

        Box-Muller (_box_muller) runs on whole blocks in numpy calls, with no Python per value.
        """
        n = rows * cols
        saved = self._state, self._spare_normal
        out = np.empty(n)
        filled = 0
        if n and self._spare_normal is not None:
            out[0], self._spare_normal = self._spare_normal, None
            filled = 1
        while filled < n:
            pairs = min(_BLOCK // 4, (n - filled + 1) // 2)
            u = self._random_block(2 * pairs)
            u1, u2 = u[0::2], u[1::2]
            if (u1 <= 0.0).any():  # normal() would redraw u1: replay the call one draw at a time
                self._state, self._spare_normal = saved
                return np.fromiter((self.normal() for _ in range(n)), np.float64, count=n).reshape(rows, cols)
            z = np.empty(2 * pairs)
            z[0::2], z[1::2] = _box_muller(u1, u2)
            take = min(2 * pairs, n - filled)
            out[filled : filled + take] = z[:take]
            if take < 2 * pairs:
                self._spare_normal = float(z[-1])
            filled += take
        return out.reshape(rows, cols)

    def uniform_normal_rows(self, n: int) -> np.ndarray:
        """n rows of (uniform, normal, normal): the values, and end state, of n x (random(), normal(), normal()).

        One uniform_matrix(n, 3, 0.0, 1.0) block (scaling by 1.0 and adding 0.0 leave each double as it is),
        then Box-Muller on columns 1 and 2. A spare normal held at entry, or a u1 of 0, which normal() would
        redraw, replays the calls one draw at a time, as normal_matrix does.
        """
        if self._spare_normal is None:
            saved = self._state
            rows = self.uniform_matrix(n, 3, 0.0, 1.0)
            if (rows[:, 1] > 0.0).all():
                rows[:, 1], rows[:, 2] = _box_muller(rows[:, 1], rows[:, 2])
                return rows
            self._state = saved
        return np.array([(self.random(), self.normal(), self.normal()) for _ in range(n)]).reshape(n, 3)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), rejection-sampled to kill modulo bias."""
        if n < 1:
            raise ContractViolation("below(): n must be >= 1")
        limit = 0x100000000 - (0x100000000 % n)
        while True:
            x = self.next_u32()
            if x < limit:
                return x % n

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n), its below() draws taken in blocks."""
        bounds = np.arange(n, 1, -1, dtype=np.uint64)  # below(i + 1) for i = n-1 .. 1
        saved = self._state
        picks = []
        for start in range(0, bounds.size, _BLOCK):
            b = bounds[start : start + _BLOCK]
            x = self._u32_block(b.size)
            if (x >= 0x100000000 - 0x100000000 % b).any():  # below() would reject: replay one draw at a time
                self._state = saved
                picks = [self.below(k) for k in bounds.tolist()]
                break
            picks += (x % b).tolist()
        idx = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), picks):
            idx[i], idx[j] = idx[j], idx[i]
        return np.array(idx, dtype=np.int_)


def as_matrix(x, name: str = "array") -> np.ndarray:
    """Coerce to a 2-D float64 array; reject anything else."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ContractViolation(f"{name} must be 2-D, got shape {a.shape}")
    return a


def as_labels(labels, n: int, k: int) -> np.ndarray:
    """Coerce to n int64 class labels, whole numbers in [0, k). A label that is not whole or not finite
    raises ContractViolation naming its row, with no numpy warning; integer input skips that test."""
    y = np.asarray(labels)
    if y.ndim != 1 or y.shape[0] != n:
        raise ContractViolation(f"labels must be 1-D of length {n}, got shape {y.shape}")
    if y.dtype.kind not in "iu":
        y = y.astype(np.float64)
        bad = np.flatnonzero(~np.isfinite(y) | (y != np.trunc(y)))
        if bad.size:
            raise ContractViolation(f"label row {bad[0]} is {y[bad[0]]}, not a whole number")
    if y.size and (y.min() < 0 or y.max() >= k):
        raise ContractViolation(f"labels out of range [0, {k})")
    return y.astype(np.int64, copy=False)


def column_stats(x: np.ndarray, rows: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and population std of x. A column whose spread overflows float64 (a mean or std
    that is not finite) raises ContractViolation naming `rows` and the column, with no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = x.mean(axis=0), x.std(axis=0)
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if bad.size:
        col = int(bad[0])
        raise ContractViolation(f"the {rows} rows: column {col} overflows float64 (mean {mean[col]}, std {std[col]})")
    return mean, std


def softmax_rows(logits) -> np.ndarray:
    """Row-wise softmax with max subtraction; finite for any finite input."""
    z = as_matrix(logits, "logits")
    if z.shape[1] < 1:
        raise ContractViolation("softmax_rows: need at least one column")
    if not np.isfinite(z).all():
        raise ContractViolation("softmax_rows: logits must be finite")
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def log_sum_exp(values) -> float | np.ndarray:
    """log(sum(exp(v))) along the last axis, shifted by each row's max for
    stability: a float for a 1-D array, one value per row of a 2-D one. Each
    row is summed as a contiguous 1-D array, so a row of a 2-D input gives the
    bytes that row alone gives."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    if v.size == 0:
        raise ContractViolation("log_sum_exp: empty input")
    if not np.isfinite(v).all():
        raise ContractViolation("log_sum_exp: values must be finite")
    m = v.max(axis=-1)
    out = m + np.log(np.exp(v - m[..., None]).sum(axis=-1))
    return float(out) if out.ndim == 0 else out


def gaussian_kernel_matrix(sq: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * sq) of a matrix sq of squared row distances. Of _pairwise_sq_dists(x), k(x, x) is exactly
    symmetric with an exactly-unit diagonal."""
    if not (gamma > 0.0) or not math.isfinite(gamma):
        raise ContractViolation(f"kernel: gamma must be finite and > 0, got {gamma}")
    return np.exp(-gamma * sq)


# Rows of x per difference block in _pairwise_sq_dists: the temporary is
# (_DIST_ROWS, n, d) instead of (n_x, n_y, d). Of 1, 2, 4, 8 and 16, 4 gave
# the fastest self plus cross distances for 128 x 128 rows on a 2-vCPU host.
_DIST_ROWS = 4


def _pairwise_sq_dists(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """||x_i - y_j||^2 for all row pairs (y = x when None), from explicit differences.

    Each entry is the einsum of one row of differences, so taking the rows a
    block at a time gives the values of one (n_x, n_y, d) difference tensor.
    With y None only the blocks on and above the diagonal are computed and
    then mirrored: (a - b)^2 and (b - a)^2 are bit-equal, so the result is
    exactly symmetric with a zero diagonal.
    """
    if y is None:
        n = x.shape[0]
        out = np.empty((n, n))
        for s in range(0, n, _DIST_ROWS):
            diff = x[s : s + _DIST_ROWS, None, :] - x[None, s:, :]
            block = np.einsum("ijk,ijk->ij", diff, diff)
            out[s : s + _DIST_ROWS, s:] = block
            out[s:, s : s + _DIST_ROWS] = block.T
        return out
    out = np.empty((x.shape[0], y.shape[0]))
    for s in range(0, x.shape[0], _DIST_ROWS):
        diff = x[s : s + _DIST_ROWS, None, :] - y[None, :, :]
        out[s : s + _DIST_ROWS] = np.einsum("ijk,ijk->ij", diff, diff)
    return out
