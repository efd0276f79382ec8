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


class Rng:
    """PCG32: 64-bit LCG state, XSH-RR output, explicit stream selection.

    state <- state * 6364136223846793005 + inc (mod 2^64), inc = 2*stream + 1.
    Output is 32 bits; doubles take 53 random bits from two outputs. The same
    (seed, stream) pair yields the same sequence on every platform.
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

    def uniform_matrix(self, rows: int, cols: int, lo: float, hi: float) -> np.ndarray:
        out = np.empty(rows * cols)
        for i in range(out.size):
            out[i] = self.uniform(lo, hi)
        return out.reshape(rows, cols)

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        out = np.empty(rows * cols)
        for i in range(out.size):
            out[i] = self.normal()
        return out.reshape(rows, cols)

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
        """Fisher-Yates permutation of range(n)."""
        idx = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            idx[i], idx[j] = idx[j], idx[i]
        return idx


def as_matrix(x, name: str = "array") -> np.ndarray:
    """Coerce to a 2-D float64 array; reject anything else."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ContractViolation(f"{name} must be 2-D, got shape {a.shape}")
    return a


def softmax_rows(logits) -> np.ndarray:
    """Row-wise softmax with max subtraction; finite for any finite input."""
    z = as_matrix(logits, "logits")
    if z.shape[1] < 1:
        raise ContractViolation("softmax_rows: need at least one column")
    if not np.all(np.isfinite(z)):
        raise ContractViolation("softmax_rows: logits must be finite")
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def log_sum_exp(values) -> float:
    """log(sum(exp(v))) of a 1-D array, shifted by the max for stability."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise ContractViolation("log_sum_exp: empty input")
    if not np.all(np.isfinite(v)):
        raise ContractViolation("log_sum_exp: values must be finite")
    m = float(v.max())
    return m + float(np.log(np.exp(v - m).sum()))


def gaussian_kernel_matrix(x, y, gamma: float) -> np.ndarray:
    """k(a, b) = exp(-gamma * ||a - b||^2) for all row pairs.

    Distances come from explicit differences, so k(x, x) has an exactly-unit
    diagonal and is exactly symmetric.
    """
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    if x.shape[1] != y.shape[1]:
        raise ContractViolation(f"kernel: row widths differ ({x.shape[1]} vs {y.shape[1]})")
    if x.shape[0] < 1 or y.shape[0] < 1:
        raise ContractViolation("kernel: inputs must be nonempty")
    if not (gamma > 0.0) or not math.isfinite(gamma):
        raise ContractViolation(f"kernel: gamma must be finite and > 0, got {gamma}")
    diff = x[:, None, :] - y[None, :, :]
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    return np.exp(-gamma * sq)


def finite_diff_grad(f, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function.

    Coordinates where either perturbed evaluation is non-finite come back as
    nan, so a caller can report a failed check instead of crashing.
    """
    if not (h > 0.0):
        raise ContractViolation(f"finite_diff_grad: h must be > 0, got {h}")
    xc = np.array(x, dtype=np.float64, copy=True)
    grad = np.empty(xc.shape)
    flat = xc.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(xc))
        flat[i] = orig - h
        fm = float(f(xc))
        flat[i] = orig
        if math.isfinite(fp) and math.isfinite(fm):
            gflat[i] = (fp - fm) / (2.0 * h)
        else:
            gflat[i] = math.nan
    return grad


def relative_error(a, b) -> float:
    """||a - b|| / max(||a||, ||b||, tiny); the gradient-check metric."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ContractViolation("relative_error: shape mismatch")
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / denom
