"""Host-normalised timing.

The speed of a shared VM drifts from one process to the next, so raw wall
seconds of the same code are not comparable between runs. Every timed unit
is therefore bracketed by a fixed reference kernel, and its raw seconds are
scaled by (nominal reference time / measured reference time). The kernel is
this package's own code and never touches `ctdr`, so a change to the program
cannot move it.
"""

from __future__ import annotations

import bisect
import math
import time

import numpy as np

# Nominal duration of one reference kernel, in seconds. It fixes the unit of
# a host-normalised second: on a host where the kernel takes exactly this
# long, normalised and raw seconds agree.
NOMINAL_REF_S = 0.012

_INT_STEPS = 20_000
_FLOAT_STEPS = 1_500
_SMALL_OPS = 300
_MATMULS = 20
_BROADCASTS = 4
_REF_ROWS = (np.arange(48 * 128, dtype=np.float64).reshape(48, 128) % 89.0) / 89.0
_REF_MATRIX = (np.arange(128 * 128, dtype=np.float64).reshape(128, 128) % 97.0) / 97.0 / 128.0
_REF_SMALL = np.full((64, 16), 0.5)


class _Lcg:
    """A 64-bit LCG feeding Box-Muller: the shape of a pure-Python RNG."""

    def __init__(self):
        self.state = 12345

    def random(self) -> float:
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        return (self.state >> 11) * (1.0 / 9007199254740992.0)


def reference_kernel() -> float:
    """Fixed mixed workload of 10-14 ms on a 2-vCPU VM, in five parts.

    The host's speed does not move every kind of work alike: in one fast
    period, float-heavy interpreter code sped up by ~45% and integer code by
    ~30%. So the kernel holds one part for each kind of work the workloads
    spend time in:
    - an integer interpreter loop;
    - a float interpreter loop with method calls, like the PCG32 +
      Box-Muller generator;
    - small numpy calls (per-call overhead);
    - 128x128 BLAS matmuls;
    - (48, 48, 128) broadcast differences reduced by einsum, the memory
      traffic of the kernel-matrix code. This part is about a third of the
      kernel's time.
    Returns a checksum so no part can be skipped.
    """
    acc = 0
    for i in range(_INT_STEPS):
        acc = (acc * 31 + i) & 0xFFFFF
    g = _Lcg()
    z = 0.0
    for _ in range(_FLOAT_STEPS):
        u1 = g.random() + 1e-300
        z += math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * g.random())
    a = _REF_SMALL
    for _ in range(_SMALL_OPS):
        a = np.maximum(a * 0.5 + 0.25, 0.0)
    m = _REF_MATRIX
    for _ in range(_MATMULS):
        m = _REF_MATRIX @ m
    sq = 0.0
    for _ in range(_BROADCASTS):
        diff = _REF_ROWS[:, None, :] - _REF_ROWS[None, :, :]
        sq += float(np.einsum("ijk,ijk->ij", diff, diff)[0, 1])
    return acc + z + float(a[0, 0]) + float(m[0, 0]) + sq


def reference_seconds() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def normalise(raw_s: float, ref_before_s: float, ref_after_s: float, nominal_s: float = NOMINAL_REF_S) -> float:
    """Scale raw seconds by nominal / (mean of the two bracketing reference times)."""
    ref = 0.5 * (ref_before_s + ref_after_s)
    if not ref > 0.0:
        raise ValueError(f"reference time must be > 0, got {ref}")
    return raw_s * nominal_s / ref


class HostClock:
    """Times short units, each bracketed by the reference kernel.

    The reference measured after one unit doubles as the one before the
    next, so back-to-back units cost one kernel each. Every bracketed unit is
    kept as (start, end, scale) so spans recorded inside it can be scaled the
    same way.
    """

    def __init__(self):
        self.refs: list[float] = []
        self.windows: list[tuple[float, float, float]] = []
        self._ref = None
        self._start = None

    def _measure(self) -> float:
        r = reference_seconds()
        self.refs.append(r)
        return r

    def start(self, fresh: bool = True) -> None:
        """Begin a unit. fresh=False reuses the reference measured at the last
        stop(), for a unit that follows the previous one straight away."""
        if fresh:
            self._ref = self._measure()
        self._start = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """End the unit begun by start(); returns (normalised s, raw s)."""
        end = time.perf_counter()
        raw = end - self._start
        after = self._measure()
        scale = normalise(1.0, self._ref, after)
        self.windows.append((self._start, end, scale))
        self._ref = after
        self._start = None
        return raw * scale, raw

    def scale_at(self, t: float) -> float:
        """Scale of the window containing t, else the run's median scale."""
        i = bisect.bisect_right(self.windows, (t, float("inf"), 0.0)) - 1
        if i >= 0 and self.windows[i][0] <= t <= self.windows[i][1]:
            return self.windows[i][2]
        return NOMINAL_REF_S / float(np.median(self.refs))
