"""Tests for fake-sample sources: Gaussian feature sampling and the
MMD-trained generator."""

import numpy as np
import pytest

from ctdr.errors import ConfigError
from ctdr.fake import (
    FakeSourceConfig,
    gaussian_fakes,
    generator_step,
)
from ctdr.losses import median_heuristic_gamma, mmd_loss
from ctdr.model import (
    Architecture,
    ParamSet,
    backward,
    forward,
    generator_backward,
    generator_forward,
    generator_forward_cache,
    init_params,
    phi_names,
    theta_names,
)
from ctdr.numerics import (
    Rng,
    STREAM_FAKE_TARGET,
    STREAM_WEIGHT_INIT,
    _pairwise_sq_dists,
)
from ctdr.optim import OptimizerState
from gradcheck import finite_diff_param_grad, relative_error

# First fake rows for fixed stats and Rng(7, STREAM_FAKE_TARGET), frozen at
# implementation time.
GOLDEN_FAKES = np.array(
    [
        [0.39683216926147014, -2.789672011386593],
        [0.9451953817203241, -1.2061650225491045],
    ]
)


def gen_net(seed=80):
    arch = Architecture.mlp(3, (5,), 2).with_generator(2, (4,))
    params = init_params(arch, Rng(seed, STREAM_WEIGHT_INIT))
    return arch, params


def test_fake_config_validation():
    FakeSourceConfig()
    FakeSourceConfig(mode="generator")
    with pytest.raises(ConfigError):
        FakeSourceConfig(mode="uniform")


def test_gaussian_fakes_zero_std_returns_mean():
    out = gaussian_fakes(np.array([1.0, -3.0]), np.array([0.0, 0.0]), Rng(1, STREAM_FAKE_TARGET).normal_matrix(5, 2))
    assert out.shape == (5, 2)
    for row in out:
        assert np.array_equal(row, np.array([1.0, -3.0]))


def test_gaussian_fakes_golden_rows():
    out = gaussian_fakes(np.array([1.0, -2.0]), np.array([0.5, 2.0]), Rng(7, STREAM_FAKE_TARGET).normal_matrix(2, 2))
    assert np.array_equal(out, GOLDEN_FAKES)


def test_gaussian_fakes_deterministic_and_width():
    a = gaussian_fakes(np.zeros(3), np.ones(3), Rng(2, STREAM_FAKE_TARGET).normal_matrix(4, 3))
    b = gaussian_fakes(np.zeros(3), np.ones(3), Rng(2, STREAM_FAKE_TARGET).normal_matrix(4, 3))
    assert a.shape == (4, 3)
    assert np.array_equal(a, b)


def test_gaussian_fakes_sample_mean_near_target_mean():
    mean = np.array([2.0, -1.0])
    std = np.array([0.5, 2.0])
    n = 100_000
    out = gaussian_fakes(mean, std, Rng(3, STREAM_FAKE_TARGET).normal_matrix(n, 2))
    bound = 3.0 * std / np.sqrt(n)
    assert np.all(np.abs(out.mean(axis=0) - mean) < bound)


def test_generator_step_requires_generator():
    arch = Architecture.mlp(3, (5,), 2)
    params = init_params(arch, Rng(5, STREAM_WEIGHT_INIT))
    real = forward(params, Rng(81, 0).normal_matrix(4, 3)).embeddings
    with pytest.raises(ConfigError, match="architecture has no generator"):
        generator_step(params, real, Rng(0, 0).normal_matrix(2, 4), None, 0.01)


def test_generator_step_zero_lr_is_noop():
    arch, params = gen_net()
    real = Rng(81, 0).normal_matrix(8, 3)
    opt = OptimizerState.for_params(params, phi_names(arch))
    noise = Rng(82, STREAM_FAKE_TARGET).normal_matrix(4, arch.noise_dim)
    new, _, report, fakes = generator_step(params, forward(params, real).embeddings, noise, opt, 0.0)
    assert np.isfinite(report.value)
    assert fakes.x.shape == (4, 3)
    for name in params.tensors:
        assert np.array_equal(new.tensors[name], params.tensors[name])


def test_generator_step_bandwidth_is_the_median_heuristic_on_the_real_embeddings():
    arch, params = gen_net()
    real = forward(params, Rng(95, 0).normal_matrix(8, 3)).embeddings
    opt = OptimizerState.for_params(params, phi_names(arch))
    _, _, report, _ = generator_step(params, real, Rng(96, STREAM_FAKE_TARGET).normal_matrix(4, arch.noise_dim), opt, 0.01)
    gamma = median_heuristic_gamma(_pairwise_sq_dists(real))
    assert gamma != 1.0  # not the fallback of a batch with no spread
    assert report.diagnostics["gamma"] == gamma


def test_generator_step_never_touches_classifier_path():
    arch, params = gen_net()
    real = Rng(83, 0).normal_matrix(8, 3)
    opt = OptimizerState.for_params(params, phi_names(arch))
    rng = Rng(84, STREAM_FAKE_TARGET)
    cur = params
    for _ in range(5):
        cur, opt, _, _ = generator_step(cur, forward(cur, real).embeddings, rng.normal_matrix(4, arch.noise_dim), opt, 0.01)
    for name in theta_names(arch):
        assert np.array_equal(cur.tensors[name], params.tensors[name])
    moved = [n for n in phi_names(arch) if not np.array_equal(cur.tensors[n], params.tensors[n])]
    assert moved


def test_generator_step_reduces_mmd():
    arch, params = gen_net(seed=85)
    real = Rng(86, 0).normal_matrix(16, 3) + np.array([1.0, -1.0, 0.5])
    opt = OptimizerState.for_params(params, phi_names(arch))
    rng = Rng(87, STREAM_FAKE_TARGET)
    values = []
    for _ in range(50):
        noise = rng.normal_matrix(16, arch.noise_dim)
        params, opt, report, _ = generator_step(params, forward(params, real).embeddings, noise, opt, 0.01)
        values.append(report.value)
    head = float(np.mean(values[:10]))
    tail = float(np.mean(values[-10:]))
    assert tail < head


def test_generator_step_fakes_come_from_pre_update_params():
    arch, params = gen_net(seed=88)
    real = Rng(89, 0).normal_matrix(6, 3)
    opt = OptimizerState.for_params(params, phi_names(arch))
    noise = Rng(90, STREAM_FAKE_TARGET).normal_matrix(3, arch.noise_dim)
    _, _, _, fakes = generator_step(params, forward(params, real).embeddings, noise, opt, 0.05)
    assert np.array_equal(fakes.x, generator_forward(params, noise))


def test_generator_mmd_gradient_matches_finite_diff():
    arch, params = gen_net(seed=91)
    # fresh init has all-zero biases, which parks dead generator rows exactly
    # on the encoder's ReLU kink; jitter every tensor off the kinks first
    jitter = Rng(94, 0)
    tensors = {}
    for n, t in params.tensors.items():
        noise_t = jitter.uniform_matrix(t.shape[0], t.shape[1] if t.ndim == 2 else 1, -0.05, 0.05)
        tensors[n] = t + (noise_t if t.ndim == 2 else noise_t[:, 0])
    params = ParamSet(arch, tensors)
    noise = Rng(92, 0).normal_matrix(5, 2)
    real = Rng(92, 1).normal_matrix(7, 3)
    real_emb = forward(params, real).embeddings
    gamma = 0.8

    def objective(p):
        fakes = generator_forward(p, noise)
        emb = forward(p, fakes).embeddings
        return mmd_loss(emb, real_emb, gamma).value

    gen_cache = generator_forward_cache(params, noise)
    cache_fake = forward(params, gen_cache.out)
    report = mmd_loss(cache_fake.embeddings, real_emb, gamma)
    _, d_rows = backward(params, cache_fake.encoder, report.grad)
    grads = generator_backward(params, gen_cache, d_rows)
    fd = finite_diff_param_grad(objective, params, names=phi_names(arch))
    for name in phi_names(arch):
        assert relative_error(grads[name], fd[name]) <= 1e-4


def test_gaussian_mode_architecture_has_no_generator_tensors():
    arch = Architecture.mlp(4, (6,), 3)
    params = init_params(arch, Rng(93, STREAM_WEIGHT_INIT))
    assert phi_names(arch) == []
    assert all(not n.startswith("gen") for n in params.tensors)
