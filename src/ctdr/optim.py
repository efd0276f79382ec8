"""Adam with bias correction, as a pure function over ParamSet."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NonFiniteLossError
from .model import ParamSet

# Adam's moment decay rates and denominator floor (Kingma & Ba defaults).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class OptimizerState:
    """First/second moments for a fixed set of tensor names, plus step count."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: ParamSet, names) -> "OptimizerState":
        names = list(names)
        m = {n: np.zeros_like(params.tensors[n]) for n in names}
        v = {n: np.zeros_like(params.tensors[n]) for n in names}
        return cls(m, v, 0)


def adam_update(params: ParamSet, grads: dict, state: OptimizerState, lr: float):
    """One Adam step over the tensors tracked by `state`.

    Pure: returns (new ParamSet, new OptimizerState); inputs are not mutated,
    and the new tensors and moments are buffers of this call. grads must
    cover every tracked name, as float64 arrays of the tensors' shapes. Zero
    gradients leave parameters bit-identical; lr = 0 also leaves them
    bit-identical. A second moment that is not finite raises
    NonFiniteLossError (term "adam", naming the tensor).
    """
    if not (lr >= 0.0) or not np.isfinite(lr):
        raise ContractViolation(f"adam_update: lr must be finite and >= 0, got {lr}")
    missing = [n for n in state.m if n not in grads]
    if missing:
        raise ContractViolation(f"adam_update: grads missing {missing}")
    t = state.step + 1
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    new_tensors = dict(params.tensors)
    new_m, new_v = {}, {}
    for name in state.m:
        g = grads[name]
        if g.shape != params.tensors[name].shape or g.dtype != np.float64:
            raise ContractViolation(f"adam_update: grad for {name} must be float64 {params.tensors[name].shape}")
        # m = BETA1 * m + (1 - BETA1) * g; v = BETA2 * v + (1 - BETA2) * (g * g);
        # new = p - lr * (m / c1) / (sqrt(v / c2) + EPS): the same operations
        # in the same order, on buffers allocated here
        buf = np.multiply(1.0 - BETA1, g)
        m = np.multiply(BETA1, state.m[name])
        m += buf
        np.multiply(g, g, out=buf)
        np.multiply(1.0 - BETA2, buf, out=buf)
        v = np.multiply(BETA2, state.v[name])
        v += buf
        step_vec = np.divide(m, c1)
        np.multiply(lr, step_vec, out=step_vec)
        np.divide(v, c2, out=buf)
        np.sqrt(buf, out=buf)
        buf += EPS
        step_vec /= buf
        new_tensors[name] = np.subtract(params.tensors[name], step_vec, out=step_vec)
        # an overflowing g*g makes v inf and the step m/inf = 0, freezing the
        # tensor; v >= 0, so its max is finite only if every entry is
        v_max = float(v.max())
        if not math.isfinite(v_max):
            raise NonFiniteLossError("adam", v_max, what=f"second moment of {name}")
        new_m[name] = m
        new_v[name] = v
    return ParamSet(params.arch, new_tensors), OptimizerState(new_m, new_v, t)
