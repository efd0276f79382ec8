"""Tests for the MLP forward/backward passes and checkpoint persistence."""

import math
import re
import struct

import numpy as np
import pytest

from ctdr.cli import main
from ctdr.errors import CheckpointError, ConfigError, ContractViolation, NonFiniteLossError
from ctdr.model import (
    Architecture,
    ParamSet,
    _expected_shapes,
    _layers,
    backward,
    forward,
    generator_backward,
    generator_forward,
    generator_forward_cache,
    init_params,
    load_checkpoint,
    phi_names,
    save_checkpoint,
    tensor_names,
    theta_names,
)
from ctdr.numerics import Rng, STREAM_WEIGHT_INIT
from gradcheck import finite_diff_param_grad, flat, relative_error, with_flat

# Logits for a fixed seed/architecture/input, frozen at implementation time.
GOLDEN_LOGITS = np.array(
    [
        [-0.05584482566968089, -0.07267357384388587],
        [-0.09027702323932607, 0.055917845733631934],
    ]
)
GOLDEN_X = np.array([[0.5, -1.0, 2.0], [0.0, 0.25, -0.75]])


def small_net(seed=9):
    arch = Architecture.mlp(3, (4,), 2)
    return arch, init_params(arch, Rng(seed, STREAM_WEIGHT_INIT))


@pytest.mark.parametrize(
    "widths, generator", [((3,), ()), ((0, 3), ()), ((3, 4, 0), ()), ((3, 0, 2), ()), ((3, 2), (0,)), ((3, 2), (4, 0))]
)
def test_architecture_width_validation(widths, generator):
    with pytest.raises(ContractViolation, match=re.escape(f"got {widths}, generator {generator}")):
        Architecture(widths, generator)


def test_architecture_widths_fit_in_u32():
    # checkpoints store layer widths as u32; this only builds the architecture, it allocates no weights
    assert Architecture((2, 2**32 - 1, 2), (2**32 - 1,)).widths == (2, 2**32 - 1, 2)
    for widths, generator in (((2, 2**32, 2), ()), ((2, 2), (4, 2**32))):
        with pytest.raises(ContractViolation, match=re.escape(f"layer widths must be < 2^32: got {widths}, generator {generator}")):
            Architecture(widths, generator)


def test_architecture_dims():
    arch = Architecture.mlp(7, (5, 4), 3).with_generator(6, (8,))
    assert arch.feature_dim == 7
    assert arch.embedding_dim == 4
    assert arch.num_classes == 3
    assert arch.noise_dim == 6
    path, gen = _layers(arch)
    assert [shape for _, shape, _ in path] == [(7, 5), (5, 4), (4, 3)]
    assert [shape for _, shape, _ in gen] == [(6, 8), (8, 7)]
    assert arch.encoder == ((7, 5), (5, 4))
    assert tensor_names(arch) == theta_names(arch) + phi_names(arch)


def test_architecture_coerces_widths_to_int_tuples():
    base = Architecture((2, 8, 2), (3, 4))
    for widths, generator in (([2, 8, 2], [3, 4]), (np.array([2, 8, 2]), tuple(np.int64(w) for w in (3, 4)))):
        arch = Architecture(widths, generator)
        assert arch == base and hash(arch) == hash(base)
        assert all(type(w) is int for w in (*arch.widths, *arch.generator))
        params = init_params(arch, Rng(9, STREAM_WEIGHT_INIT))
        assert forward(params, np.ones((3, 2))).logits.shape == (3, 2)
        assert generator_forward(params, np.ones((3, 3))).shape == (3, 2)


def test_layer_tables_are_built_once_and_read_only():
    arch = Architecture.mlp(3, (4,), 2).with_generator(5, (6,))
    walks = _layers(arch)
    assert walks is _layers(Architecture(arch.widths, arch.generator))
    assert all(type(walk) is tuple for walk in walks)
    shapes = _expected_shapes(arch)
    assert shapes is _expected_shapes(Architecture(list(arch.widths), list(arch.generator)))
    with pytest.raises(TypeError):
        shapes["enc0.w"] = (1, 1)
    assert list(shapes) == tensor_names(arch)


def test_noise_dim_requires_generator():
    arch = Architecture.mlp(3, (4,), 2)
    with pytest.raises(ConfigError):
        arch.noise_dim


def test_init_params_bounds_and_zero_biases():
    arch = Architecture.mlp(9, (16, 16), 4)
    params = init_params(arch, Rng(3, STREAM_WEIGHT_INIT))
    for name in theta_names(arch):
        t = params.tensors[name]
        assert t.dtype == np.float64
        if name.endswith(".b"):
            assert np.array_equal(t, np.zeros_like(t))
        else:
            bound = 1.0 / math.sqrt(t.shape[0])
            assert np.all(np.abs(t) <= bound)
            assert t.std() > 0.0


def test_init_params_deterministic():
    arch = Architecture.mlp(5, (6,), 3)
    a = init_params(arch, Rng(4, STREAM_WEIGHT_INIT))
    b = init_params(arch, Rng(4, STREAM_WEIGHT_INIT))
    for name in tensor_names(arch):
        assert np.array_equal(a.tensors[name], b.tensors[name])


def test_param_set_rejects_wrong_names_and_shapes():
    arch, params = small_net()
    bad = dict(params.tensors)
    bad.pop("enc0.b")
    with pytest.raises(ContractViolation):
        ParamSet(arch, bad)
    bad = dict(params.tensors)
    bad["enc0.w"] = np.zeros((2, 2))
    with pytest.raises(ContractViolation):
        ParamSet(arch, bad)


def test_param_set_flat_round_trip():
    arch, params = small_net()
    names = theta_names(arch)
    vec = flat(params, names)
    assert vec.ndim == 1
    back = with_flat(params, vec, names)
    for name in names:
        assert np.array_equal(back.tensors[name], params.tensors[name])
    shifted = with_flat(params, vec + 1.0, names)
    assert np.all(shifted.tensors["cls.b"] == params.tensors["cls.b"] + 1.0)


def test_forward_zero_weights_uniform_probs():
    arch = Architecture.mlp(3, (4,), 5)
    params = init_params(arch, Rng(0, STREAM_WEIGHT_INIT))
    zeros = {n: np.zeros_like(t) for n, t in params.tensors.items()}
    cache = forward(ParamSet(arch, zeros), np.array([[1.0, -2.0, 0.5]]))
    assert np.array_equal(cache.probs, np.full((1, 5), 0.2))


def test_forward_identity_passthrough():
    arch = Architecture((2, 2))
    tensors = {"cls.w": np.eye(2), "cls.b": np.zeros(2)}
    cache = forward(ParamSet(arch, tensors), np.array([[0.3, -1.5]]))
    assert np.array_equal(cache.logits, np.array([[0.3, -1.5]]))


def test_forward_golden_logits():
    _, params = small_net(seed=9)
    cache = forward(params, GOLDEN_X)
    assert np.max(np.abs(cache.logits - GOLDEN_LOGITS)) < 1e-15


def test_forward_probs_rows_sum_to_one():
    _, params = small_net()
    cache = forward(params, Rng(1, 0).normal_matrix(20, 3))
    assert np.all(np.abs(cache.probs.sum(axis=1) - 1.0) <= 1e-9)


def test_forward_deterministic_bitwise():
    _, params = small_net()
    x = Rng(2, 0).normal_matrix(8, 3)
    c1 = forward(params, x)
    c2 = forward(params, x)
    assert np.array_equal(c1.logits, c2.logits)
    assert np.array_equal(c1.embeddings, c2.embeddings)


def test_forward_rejects_wrong_width():
    _, params = small_net()
    with pytest.raises(ContractViolation):
        forward(params, np.zeros((2, 5)))


def test_forward_overflowing_logits_raise_non_finite_loss():
    arch, params = small_net()
    huge = ParamSet(arch, {n: t * 1e200 for n, t in params.tensors.items()})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteLossError, match="non-finite logits in term 'forward'") as exc:
            forward(huge, np.full((2, 3), 1e200))
    assert exc.value.what == "logits"


def test_backward_zero_grad_logits():
    arch, params = small_net()
    cache = forward(params, GOLDEN_X)
    grads, grad_x = backward(params, cache, np.zeros_like(cache.logits))
    for name in theta_names(arch):
        assert np.array_equal(grads[name], np.zeros_like(params.tensors[name]))
    assert np.array_equal(grad_x, np.zeros_like(GOLDEN_X))


def test_backward_rejects_shape_mismatch():
    _, params = small_net()
    cache = forward(params, GOLDEN_X)
    with pytest.raises(ContractViolation):
        backward(params, cache, np.zeros((1, 2)))


def test_backward_linear_layer_matches_finite_diff():
    arch = Architecture((3, 2))
    params = init_params(arch, Rng(5, STREAM_WEIGHT_INIT))
    x = Rng(6, 0).normal_matrix(4, 3)
    coeff = Rng(6, 1).normal_matrix(4, 2)

    def objective(p):
        return float(np.sum(forward(p, x).logits * coeff))

    cache = forward(params, x)
    grads, _ = backward(params, cache, coeff)
    fd = finite_diff_param_grad(objective, params)
    for name in theta_names(arch):
        assert relative_error(grads[name], fd[name]) <= 1e-6


def test_backward_two_layer_relu_matches_finite_diff():
    rng = Rng(30, 0)
    for trial in range(5):
        arch = Architecture.mlp(3, (5, 4), 3)
        params = init_params(arch, Rng(100 + trial, STREAM_WEIGHT_INIT))
        x = rng.normal_matrix(6, 3)
        coeff = rng.normal_matrix(6, 3)

        def objective(p):
            return float(np.sum(forward(p, x).logits * coeff))

        cache = forward(params, x)
        grads, _ = backward(params, cache, coeff)
        fd = finite_diff_param_grad(objective, params)
        for name in theta_names(arch):
            assert relative_error(grads[name], fd[name]) <= 1e-4


def test_backward_embedding_grad_path():
    arch = Architecture.mlp(3, (5,), 2)
    params = init_params(arch, Rng(31, STREAM_WEIGHT_INIT))
    x = Rng(32, 0).normal_matrix(4, 3)

    # objective 0.5 * sum(embeddings^2), so its gradient at the embeddings is the embeddings
    def objective(p):
        emb = forward(p, x).embeddings
        return float(0.5 * np.sum(emb * emb))

    cache = forward(params, x)
    grads, _ = backward(params, cache.encoder, cache.embeddings)
    fd = finite_diff_param_grad(objective, params)
    assert list(grads) == ["enc0.w", "enc0.b"]
    for name in theta_names(arch):
        # the classifier gets no gradient from an embedding objective, and the walk stops below it
        want = grads.get(name, np.zeros_like(params.tensors[name]))
        assert relative_error(want, fd[name]) <= 1e-4


def embedding_walk_reference(params, x, g, input_grad):
    """The classifier path's walk back from a gradient `g` at its embeddings, in
    plain numpy: each encoder layer's input and output are recomputed as the
    forward walk computes them, then `g` passes back through the ReLU masks.
    (grads of the encoder tensors; grad wrt x, or None without input_grad)."""
    ins, outs, a = [], [], x
    for i in range(len(params.arch.encoder)):
        ins.append(a)
        a = a @ params.tensors[f"enc{i}.w"]
        a += params.tensors[f"enc{i}.b"]
        np.maximum(a, 0.0, out=a)
        outs.append(a)
    grads, d = {}, g
    for i in reversed(range(len(outs))):
        d = d * (outs[i] > 0.0)
        grads[f"enc{i}.b"] = d.sum(axis=0)
        grads[f"enc{i}.w"] = ins[i].T @ d
        if i or input_grad:
            d = d @ params.tensors[f"enc{i}.w"].T
    return grads, (d if input_grad else None)


@pytest.mark.parametrize("input_grad", [True, False])
@pytest.mark.parametrize("hidden", [(), (5,), (6, 4)], ids=["0_hidden", "1_hidden", "2_hidden"])
def test_backward_from_the_encoder_record_matches_a_plain_embedding_walk(hidden, input_grad):
    arch = Architecture.mlp(3, hidden, 2)
    params = init_params(arch, Rng(33, STREAM_WEIGHT_INIT))
    x = Rng(34, 0).normal_matrix(7, 3)
    cache = forward(params, x)
    encoder = cache.encoder
    assert encoder.out.tobytes() == cache.embeddings.tobytes()
    if not hidden:
        assert encoder.out is x  # a record with no layers outputs its input
    g = Rng(34, 1).normal_matrix(7, arch.embedding_dim)
    want, want_x = embedding_walk_reference(params, x, g, input_grad)
    got, got_x = backward(params, encoder, g, input_grad=input_grad)
    assert list(got) == [n for n in theta_names(arch) if n.startswith("enc")]
    for name in got:
        assert got[name].tobytes() == want[name].tobytes()
    if input_grad:
        assert got_x.tobytes() == want_x.tobytes()
    else:
        assert got_x is None


def test_backward_input_gradient_matches_finite_diff():
    _, params = small_net()
    x = Rng(35, 0).normal_matrix(3, 3)
    coeff = Rng(35, 1).normal_matrix(3, 2)
    cache = forward(params, x)
    _, grad_x = backward(params, cache, coeff)

    flat = x.copy()
    h = 1e-6
    fd = np.zeros_like(flat)
    for i in range(flat.shape[0]):
        for j in range(flat.shape[1]):
            up = flat.copy()
            up[i, j] += h
            dn = flat.copy()
            dn[i, j] -= h
            fd[i, j] = (
                np.sum(forward(params, up).logits * coeff)
                - np.sum(forward(params, dn).logits * coeff)
            ) / (2 * h)
    assert relative_error(grad_x, fd) <= 1e-6


@pytest.mark.parametrize("net", ["small", "linear"])
def test_backward_without_input_gradient_gives_the_same_weight_gradients(net):
    if net == "small":
        _, params = small_net()
    else:
        params = init_params(Architecture((3, 2)), Rng(5, STREAM_WEIGHT_INIT))
    x = Rng(36, 0).normal_matrix(5, 3)
    coeff = Rng(36, 1).normal_matrix(5, 2)
    cache = forward(params, x)
    want, grad_x = backward(params, cache, coeff)
    got, no_grad_x = backward(params, cache, coeff, input_grad=False)
    assert grad_x.shape == x.shape and no_grad_x is None
    assert list(got) == list(want)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes()


def test_relu_mask_from_outputs_equals_mask_from_pre_activations():
    # the record keeps ReLU outputs only: output > 0 must be pre-activation > 0
    # on exact 0, -0.0, negatives and NaN
    pre = np.array([[0.0, -0.0, -1.5, np.nan, 2.0, 5e-324, -5e-324, -np.inf, np.inf]])
    out = pre.copy()
    np.maximum(out, 0.0, out=out)  # the forward walk's in-place ReLU
    assert np.array_equal(out > 0.0, pre > 0.0)

    # through the walks: a 1-wide noise row through unit weights puts the
    # bias values into the first row's pre-activations (matmul turns -0.0
    # into 0.0, so that one comes out as 0.0)
    arch = Architecture.mlp(3, (4,), 2).with_generator(1, (7,))
    params = init_params(arch, Rng(46, STREAM_WEIGHT_INIT))
    bias = np.array([0.0, -0.0, -1.5, np.nan, 2.0, 5e-324, -5e-324])
    params = ParamSet(arch, dict(params.tensors, **{"gen0.w": np.ones((1, 7)), "gen0.b": bias}))
    noise = np.array([[-0.0], [1.0], [np.nan], [-3.0]])
    cache = generator_forward_cache(params, noise)
    pre = noise @ params.tensors["gen0.w"]
    pre += params.tensors["gen0.b"]
    assert np.array_equal(pre[0], bias, equal_nan=True)
    assert np.array_equal(cache.act[0] > 0.0, pre > 0.0)
    coeff = Rng(47, 0).normal_matrix(4, 3)
    grads = generator_backward(params, cache, coeff)
    d = coeff @ params.tensors["gen1.w"].T
    assert grads["gen0.b"].tobytes() == (d * (pre > 0.0)).sum(axis=0).tobytes()


def test_relu_subgradient_at_zero_is_zero():
    # one hidden unit whose pre-activation is exactly 0 must pass no gradient
    arch = Architecture((1, 1, 1))
    tensors = {
        "enc0.w": np.array([[1.0]]),
        "enc0.b": np.array([0.0]),
        "cls.w": np.array([[1.0]]),
        "cls.b": np.array([0.0]),
    }
    params = ParamSet(arch, tensors)
    cache = forward(params, np.array([[0.0]]))
    assert cache.logits[0, 0] == 0.0
    grads, grad_x = backward(params, cache, np.array([[1.0]]))
    assert grads["enc0.w"][0, 0] == 0.0
    assert grad_x[0, 0] == 0.0


def test_generator_zero_weights_constant_rows():
    arch = Architecture.mlp(3, (4,), 2).with_generator(2, (3,))
    params = init_params(arch, Rng(40, STREAM_WEIGHT_INIT))
    tensors = dict(params.tensors)
    for name in phi_names(arch):
        tensors[name] = np.zeros_like(tensors[name])
    tensors["gen1.b"] = np.array([1.0, -2.0, 0.5])
    params = ParamSet(arch, tensors)
    out = generator_forward(params, Rng(41, 0).normal_matrix(4, 2))
    assert out.shape == (4, 3)
    for row in out:
        assert np.array_equal(row, np.array([1.0, -2.0, 0.5]))


def test_generator_output_width_and_determinism():
    arch = Architecture.mlp(5, (4,), 2).with_generator(3, (6,))
    params = init_params(arch, Rng(42, STREAM_WEIGHT_INIT))
    noise = Rng(43, 0).normal_matrix(7, 3)
    a = generator_forward(params, noise)
    b = generator_forward(params, noise)
    assert a.shape == (7, 5)
    assert np.array_equal(a, b)


def test_generator_forward_requires_generator():
    _, params = small_net()
    with pytest.raises(ConfigError):
        generator_forward(params, np.zeros((1, 2)))


def test_generator_backward_matches_finite_diff():
    arch = Architecture.mlp(3, (4,), 2).with_generator(2, (5,))
    params = init_params(arch, Rng(44, STREAM_WEIGHT_INIT))
    noise = Rng(45, 0).normal_matrix(6, 2)
    coeff = Rng(45, 1).normal_matrix(6, 3)

    def objective(p):
        return float(np.sum(generator_forward(p, noise) * coeff))

    cache = generator_forward_cache(params, noise)
    grads = generator_backward(params, cache, coeff)
    fd = finite_diff_param_grad(objective, params, names=phi_names(arch))
    for name in phi_names(arch):
        assert relative_error(grads[name], fd[name]) <= 1e-4
    assert set(grads) == set(phi_names(arch))


def test_backward_on_a_generator_record_equals_generator_backward():
    arch = Architecture.mlp(3, (4,), 2).with_generator(2, (5, 3))
    params = init_params(arch, Rng(48, STREAM_WEIGHT_INIT))
    cache = generator_forward_cache(params, Rng(49, 0).normal_matrix(6, 2))
    coeff = Rng(49, 1).normal_matrix(6, 3)
    want = generator_backward(params, cache, coeff)
    assert list(want) == phi_names(arch)
    for input_grad in (True, False):
        got, d_noise = backward(params, cache, coeff, input_grad=input_grad)
        assert list(got) == list(want)
        assert all(got[n].tobytes() == want[n].tobytes() for n in want)
        assert d_noise.shape == (6, 2) if input_grad else d_noise is None


def test_checkpoint_round_trip_bit_exact(tmp_path):
    arch = Architecture.mlp(4, (6, 5), 3).with_generator(2, (4,))
    params = init_params(arch, Rng(50, STREAM_WEIGHT_INIT))
    path = tmp_path / "model.ctdr"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.arch == arch
    for name in tensor_names(arch):
        assert np.array_equal(loaded.tensors[name], params.tensors[name])


def test_checkpoint_save_is_deterministic(tmp_path):
    _, params = small_net()
    p1 = tmp_path / "a.ctdr"
    p2 = tmp_path / "b.ctdr"
    save_checkpoint(params, p1)
    save_checkpoint(params, p2)
    assert p1.read_bytes() == p2.read_bytes()


def checkpoint_bytes(tmp_path):
    _, params = small_net()
    path = tmp_path / "base.ctdr"
    save_checkpoint(params, path)
    return bytearray(path.read_bytes())


def test_checkpoint_bad_magic(tmp_path):
    raw = checkpoint_bytes(tmp_path)
    raw[0] ^= 0xFF
    bad = tmp_path / "bad.ctdr"
    bad.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)


def test_checkpoint_unsupported_version(tmp_path):
    raw = checkpoint_bytes(tmp_path)
    raw[4:6] = struct.pack("<H", 2)
    bad = tmp_path / "bad.ctdr"
    bad.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="checkpoint version 2, this build reads 1"):
        load_checkpoint(bad)


def test_checkpoint_truncated(tmp_path):
    raw = checkpoint_bytes(tmp_path)
    bad = tmp_path / "bad.ctdr"
    bad.write_bytes(bytes(raw[: len(raw) // 2]))
    with pytest.raises(CheckpointError, match="checkpoint truncated at byte"):
        load_checkpoint(bad)
    bad.write_bytes(b"")
    with pytest.raises(CheckpointError, match="checkpoint truncated at byte"):
        load_checkpoint(bad)


def test_checkpoint_shape_mismatch(tmp_path):
    raw = checkpoint_bytes(tmp_path)
    # first tensor record: u32 count at 28, then u16 len + "enc0.w" + u8 ndim + dims
    dim_off = 28 + 4 + 2 + len("enc0.w") + 1
    assert struct.unpack_from("<I", raw, dim_off)[0] == 3
    struct.pack_into("<I", raw, dim_off, 5)
    bad = tmp_path / "bad.ctdr"
    bad.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=r"tensor enc0\.w: shape \(5, 4\), architecture says \(3, 4\)"):
        load_checkpoint(bad)


@pytest.mark.parametrize("layer, offset, stored", [("enc0", 16, 1), ("cls", 25, 0), ("gen1", 45, 0)])
def test_checkpoint_activation_byte_must_match_the_layer_position(tmp_path, layer, offset, stored):
    # layer table: magic + u16 version, then u16 n_enc at 6, 9-byte layers
    # (u32 in, u32 out, u8 act) from 8, u16 n_gen after the classifier
    arch = Architecture.mlp(3, (4,), 2).with_generator(5, (6,))
    path = tmp_path / "base.ctdr"
    save_checkpoint(init_params(arch, Rng(9, STREAM_WEIGHT_INIT)), path)
    raw = bytearray(path.read_bytes())
    assert [raw[i] for i in (16, 25, 36, 45)] == [1, 0, 1, 0]
    raw[offset] = 1 - stored
    bad = tmp_path / "bad.ctdr"
    bad.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=rf"^{re.escape(str(bad))}: layer {layer} has activation byte {1 - stored}"):
        load_checkpoint(bad)


@pytest.mark.parametrize(
    "offset, width, message",
    [
        # enc0's out width is not cls's in width
        (12, 7, "layer enc0 is 3x7, its neighbours make it 3x4"),
        # gen1's out width is not the feature width
        (41, 9, "layer gen1 is 6x9, its neighbours make it 6x3"),
        # a zero width: enc0's in, cls's out
        (8, 0, "invalid architecture table: need >= 2 layer widths, each >= 1: got (0, 4, 2), generator (5, 6)"),
        (21, 0, "invalid architecture table: need >= 2 layer widths, each >= 1: got (3, 4, 0), generator (5, 6)"),
    ],
    ids=["enc0_out", "gen1_out", "zero_features", "zero_classes"],
)
def test_checkpoint_layer_table_must_chain(tmp_path, offset, width, message):
    # the layer table of test_checkpoint_activation_byte_must_match_the_layer_position:
    # the u32 widths of enc0 at 8 and 12, cls at 17 and 21, gen0 at 28 and 32, gen1 at 37 and 41
    arch = Architecture.mlp(3, (4,), 2).with_generator(5, (6,))
    path = tmp_path / "base.ctdr"
    save_checkpoint(init_params(arch, Rng(9, STREAM_WEIGHT_INIT)), path)
    raw = bytearray(path.read_bytes())
    assert [struct.unpack_from("<I", raw, i)[0] for i in (8, 12, 17, 21, 28, 32, 37, 41)] == [3, 4, 4, 2, 5, 6, 6, 3]
    struct.pack_into("<I", raw, offset, width)
    bad = tmp_path / "bad.ctdr"
    bad.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=f"^{re.escape(f'{bad}: {message}')}$"):
        load_checkpoint(bad)


def test_checkpoint_tensor_name_mismatch(tmp_path):
    raw = checkpoint_bytes(tmp_path)
    name_off = 28 + 4 + 2
    assert raw[name_off : name_off + 6] == b"enc0.w"
    raw[name_off + 5 : name_off + 6] = b"q"
    bad = tmp_path / "bad.ctdr"
    bad.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="tensor 0 is 'enc0.q', expected 'enc0.w'"):
        load_checkpoint(bad)


def test_checkpoint_tensor_name_not_utf8(tmp_path):
    raw = checkpoint_bytes(tmp_path)
    name_off = 28 + 4 + 2
    assert raw[name_off : name_off + 6] == b"enc0.w"
    raw[name_off] = 0xFF
    bad = tmp_path / "bad.ctdr"
    bad.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=r"bad\.ctdr: tensor 0 name is not UTF-8"):
        load_checkpoint(bad)
    assert main(["eval", "--checkpoint", str(bad)]) == 2


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_checkpoint_non_finite_tensor(tmp_path, value):
    raw = checkpoint_bytes(tmp_path)
    name_off = 28 + 4 + 2
    assert raw[name_off : name_off + 6] == b"enc0.w"
    payload_off = name_off + 6 + 1 + 2 * 4  # name, ndim, two u32 dims
    raw[payload_off + 8 : payload_off + 16] = struct.pack("<d", value)
    bad = tmp_path / "bad.ctdr"
    bad.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=r"bad\.ctdr: tensor enc0\.w has non-finite values"):
        load_checkpoint(bad)
    assert main(["eval", "--checkpoint", str(bad)]) == 2


def test_checkpoint_trailing_bytes(tmp_path):
    raw = checkpoint_bytes(tmp_path)
    bad = tmp_path / "bad.ctdr"
    bad.write_bytes(bytes(raw) + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(bad)
