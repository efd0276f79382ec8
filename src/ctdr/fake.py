"""Fake-sample sources for the adversarial regularizer.

Two modes: `gaussian` draws feature rows from a diagonal Gaussian fitted to
real features; `generator` maps noise through a small MLP trained to match
real embeddings under the kernel two-sample (MMD) objective. The encoder and
classifier are never touched by generator training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolation
from .losses import mmd_loss
from .model import ParamSet, backward, forward, generator_backward, generator_forward, generator_forward_cache
from .numerics import Rng, as_matrix
from .optim import adam_update

FAKE_MODES = ("gaussian", "generator")


@dataclass(frozen=True)
class FakeSourceConfig:
    """How fake rows are produced.

    n_f = None means "use the training batch size". gamma = None means the
    per-batch median heuristic on the real embeddings.
    """

    mode: str = "gaussian"
    n_f: int | None = None
    noise_dim: int = 32
    gen_hidden: tuple = (64, 64)
    gamma: float | None = None

    def __post_init__(self):
        if self.mode not in FAKE_MODES:
            raise ConfigError(f"fake mode must be one of {FAKE_MODES}, got {self.mode!r}")
        if self.n_f is not None and self.n_f < 1:
            raise ConfigError(f"fake n_f must be >= 1, got {self.n_f}")
        if self.noise_dim < 1:
            raise ConfigError("noise_dim must be >= 1")
        if not self.gen_hidden:
            raise ConfigError("gen_hidden must name at least one width")
        if self.gamma is not None and not (0.0 < self.gamma < np.inf):
            raise ConfigError(f"mmd gamma must be finite and > 0, got {self.gamma}")


@dataclass(frozen=True)
class FeatureStats:
    """Per-dimension mean and (population) standard deviation of real rows."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def from_features(cls, features) -> "FeatureStats":
        x = as_matrix(features, "features")
        if x.shape[0] < 1:
            raise ContractViolation("feature stats need at least one row")
        return cls(x.mean(axis=0), x.std(axis=0))


def gaussian_fakes(stats: FeatureStats, n_f: int, rng: Rng) -> np.ndarray:
    """n_f rows of mean + std * standard-normal noise, per dimension."""
    if n_f < 1:
        raise ContractViolation(f"n_f must be >= 1, got {n_f}")
    d = stats.mean.shape[0]
    return stats.mean[None, :] + rng.normal_matrix(n_f, d) * stats.std[None, :]


def generator_fakes(params: ParamSet, n_f: int, rng: Rng) -> np.ndarray:
    """n_f fake rows from the generator; deterministic given the rng state."""
    if n_f < 1:
        raise ContractViolation(f"n_f must be >= 1, got {n_f}")
    return generator_forward(params, rng.normal_matrix(n_f, params.arch.noise_dim))


def generator_step(params: ParamSet, real_embeddings, n_f: int, gamma, opt_phi, lr: float, rng: Rng):
    """One MMD descent step on the generator tensors only.

    Fake rows are pushed through the (frozen) encoder and compared with
    `real_embeddings`, the encoder's embeddings of a real batch under the
    same params; gamma None takes the median heuristic on them. The gradient
    flows back through the encoder into the generator, but only gen* tensors
    are updated. Returns (params, opt_phi, report, fake_cache): fake_cache is
    the forward pass of the rows the pre-update generator produced, which
    the returned params give too, as their encoder and classifier are unchanged.
    """
    noise = rng.normal_matrix(n_f, params.arch.noise_dim)
    gen_cache = generator_forward_cache(params, noise)
    fake_cache = forward(params, gen_cache.out)
    report = mmd_loss(fake_cache.embeddings, real_embeddings, gamma)

    _, d_fake_rows = backward(params, fake_cache, grad_embeddings=report.grad_embeddings)
    grads = generator_backward(params, gen_cache, d_fake_rows)
    params, opt_phi = adam_update(params, grads, opt_phi, lr)
    return params, opt_phi, report, fake_cache
