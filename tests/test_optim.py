"""Tests for the bias-corrected Adam update."""

import numpy as np
import pytest

from ctdr.errors import ContractViolation, NonFiniteLossError
from ctdr.model import Architecture, ParamSet, init_params, theta_names
from ctdr.numerics import Rng, STREAM_WEIGHT_INIT
from ctdr.optim import OptimizerState, adam_update


def scalar_param(value=0.0):
    arch = Architecture((1, 1))
    tensors = {"cls.w": np.array([[value]]), "cls.b": np.array([0.0])}
    params = ParamSet(arch, tensors)
    state = OptimizerState.for_params(params, ["cls.w"])
    return params, state


def test_zero_grads_leave_params_unchanged():
    params, state = scalar_param(1.5)
    new, state2 = adam_update(params, {"cls.w": np.zeros((1, 1))}, state, 0.01)
    assert new.tensors["cls.w"][0, 0] == 1.5
    assert state2.step == 1


def test_first_step_moves_by_learning_rate():
    params, state = scalar_param(0.0)
    new, _ = adam_update(params, {"cls.w": np.ones((1, 1))}, state, 0.001)
    # bias correction makes the very first step lr/(1 + eps)
    assert new.tensors["cls.w"][0, 0] == pytest.approx(-0.001, rel=1e-7)


def test_constant_gradient_step_size_approaches_lr():
    params, state = scalar_param(0.0)
    lr = 0.01
    prev = params.tensors["cls.w"][0, 0]
    last_delta = None
    for _ in range(300):
        params, state = adam_update(params, {"cls.w": np.full((1, 1), 3.0)}, state, lr)
        cur = params.tensors["cls.w"][0, 0]
        last_delta = cur - prev
        prev = cur
    assert last_delta == pytest.approx(-lr, rel=1e-6)


def test_update_is_pure():
    params, state = scalar_param(2.0)
    before = params.tensors["cls.w"].copy()
    m_before = state.m["cls.w"].copy()
    adam_update(params, {"cls.w": np.ones((1, 1))}, state, 0.1)
    assert np.array_equal(params.tensors["cls.w"], before)
    assert np.array_equal(state.m["cls.w"], m_before)
    assert state.step == 0


def test_multi_tensor_update_leaves_every_input_unchanged():
    # the update works in place on its own buffers; params, both moments and
    # the grads it was handed keep their bytes, over several steps
    arch = Architecture.mlp(2, (128, 128), 2)
    params = init_params(arch, Rng(9, STREAM_WEIGHT_INIT))
    state = OptimizerState.for_params(params, theta_names(arch))
    rng = Rng(10, 0)
    for _ in range(3):
        grads = {n: rng.normal_matrix(t.size, 1).reshape(t.shape) for n, t in params.tensors.items()}
        snapshot = [{n: a.copy() for n, a in d.items()} for d in (params.tensors, state.m, state.v, grads)]
        new, new_state = adam_update(params, grads, state, 0.01)
        for live, before in zip((params.tensors, state.m, state.v, grads), snapshot):
            for name, a in before.items():
                assert live[name].tobytes() == a.tobytes(), name
        fresh = [*new.tensors.values(), *new_state.m.values(), *new_state.v.values()]
        inputs = [*params.tensors.values(), *state.m.values(), *state.v.values(), *grads.values()]
        assert not any(np.shares_memory(a, b) for a in fresh for b in inputs)
        params, state = new, new_state


def test_update_rejects_grads_that_are_not_float64():
    params, state = scalar_param()
    with pytest.raises(ContractViolation, match="float64"):
        adam_update(params, {"cls.w": np.ones((1, 1), dtype=np.float32)}, state, 0.1)


def test_update_rejects_missing_or_misshapen_grads():
    params, state = scalar_param()
    with pytest.raises(ContractViolation):
        adam_update(params, {}, state, 0.1)
    with pytest.raises(ContractViolation):
        adam_update(params, {"cls.w": np.zeros((2, 2))}, state, 0.1)


def test_untracked_tensors_never_move():
    arch = Architecture.mlp(3, (4,), 2)
    params = init_params(arch, Rng(8, STREAM_WEIGHT_INIT))
    state = OptimizerState.for_params(params, ["cls.w", "cls.b"])
    grads = {
        "cls.w": np.ones_like(params.tensors["cls.w"]),
        "cls.b": np.ones_like(params.tensors["cls.b"]),
    }
    new, _ = adam_update(params, grads, state, 0.05)
    for name in theta_names(arch):
        if name.startswith("enc"):
            assert np.array_equal(new.tensors[name], params.tensors[name])
        else:
            assert not np.array_equal(new.tensors[name], params.tensors[name])


def test_deterministic_trajectory():
    def run():
        params, state = scalar_param(0.0)
        rng = Rng(77, 0)
        for _ in range(25):
            g = np.array([[rng.normal()]])
            params, state = adam_update(params, {"cls.w": g}, state, 0.01)
        return params.tensors["cls.w"][0, 0]

    assert run() == run()


def test_moments_track_gradient_statistics():
    params, state = scalar_param(0.0)
    _, state = adam_update(params, {"cls.w": np.full((1, 1), 2.0)}, state, 0.01)
    assert state.m["cls.w"][0, 0] == pytest.approx(0.2, abs=1e-15)
    assert state.v["cls.w"][0, 0] == pytest.approx(0.004, abs=1e-15)


@pytest.mark.parametrize("g", [1e200, np.inf, np.nan])
def test_non_finite_second_moment_raises_naming_the_tensor(g):
    # 1e200**2 overflows: v would be inf and the step m/inf = 0 would freeze the tensor
    params, state = scalar_param(0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteLossError, match=r"non-finite second moment of cls\.w in term 'adam'") as exc:
            adam_update(params, {"cls.w": np.full((1, 1), g)}, state, 0.001)
    assert (exc.value.term, exc.value.what) == ("adam", "second moment of cls.w")
