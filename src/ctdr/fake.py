"""Fake-sample sources for the adversarial regularizer.

Two modes: `gaussian` draws feature rows from a diagonal Gaussian fitted to
real features; `generator` maps noise through a small MLP trained to match
real embeddings under the kernel two-sample (MMD) objective. The encoder and
classifier are never touched by generator training.
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .losses import mmd_loss
from .model import ParamSet, backward, forward, generator_backward, generator_forward_cache
from .optim import adam_update

FAKE_MODES = ("gaussian", "generator")


@dataclass(frozen=True)
class FakeSourceConfig:
    """How fake rows are produced."""

    mode: str = "gaussian"

    def __post_init__(self):
        if self.mode not in FAKE_MODES:
            raise ConfigError(f"fake mode must be one of {FAKE_MODES}, got {self.mode!r}")


def gaussian_fakes(mean: np.ndarray, std: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Fake rows mean + std * z, per dimension, from (n_f, d) standard normals z.

    mean and std are the real rows' per-column stats (numerics.column_stats).
    The rows are written over z, which is returned.
    """
    z *= std
    z += mean  # IEEE addition commutes: the bytes of mean + z * std
    return z


def generator_step(params: ParamSet, real_embeddings, noise, opt_phi, lr: float, pool: Executor):
    """One MMD descent step on the generator tensors only.

    The generator maps `noise`, the caller's (n_f, noise_dim) standard normals,
    to fake rows, which are pushed through the (frozen) encoder and compared
    with `real_embeddings`, the encoder's embeddings of a real batch under the
    same params; the kernel bandwidth is the median heuristic on them, and
    mmd_loss runs its fake-real distance pass on `pool`, fit's one worker.
    The report's gradient, with respect to the fake embeddings, walks back
    through the encoder record (`fake_cache.encoder`), then the generator's;
    only gen* tensors are updated. Returns (params, opt_phi, report, fake_cache):
    fake_cache is the forward pass of the rows the pre-update generator
    produced, which the returned params give too, as their encoder and
    classifier are unchanged.
    """
    gen_cache = generator_forward_cache(params, noise)
    fake_cache = forward(params, gen_cache.out)
    report = mmd_loss(fake_cache.embeddings, real_embeddings, None, pool)

    _, d_fake_rows = backward(params, fake_cache.encoder, report.grad)
    grads = generator_backward(params, gen_cache, d_fake_rows)
    params, opt_phi = adam_update(params, grads, opt_phi, lr)
    return params, opt_phi, report, fake_cache
