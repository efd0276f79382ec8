"""Finite-difference gradient checking for the test suites.

Central differences over plain arrays or over the named tensors of a
ParamSet, and the relative-error metric the checks compare against.
"""

from __future__ import annotations

import math

import numpy as np

from ctdr.errors import ContractViolation
from ctdr.model import ParamSet, tensor_names


def finite_diff_grad(f, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function.

    Coordinates where either perturbed evaluation is non-finite come back as
    nan, so a caller can report a failed check instead of crashing.
    """
    if not (h > 0.0):
        raise ContractViolation(f"finite_diff_grad: h must be > 0, got {h}")
    xc = np.array(x, dtype=np.float64, copy=True)
    grad = np.empty(xc.shape)
    flat_x = xc.ravel()
    gflat = grad.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        fp = float(f(xc))
        flat_x[i] = orig - h
        fm = float(f(xc))
        flat_x[i] = orig
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


def flat(params: ParamSet, names=None) -> np.ndarray:
    """The named tensors (default: all, in canonical order) as one vector."""
    names = list(names) if names is not None else tensor_names(params.arch)
    return np.concatenate([params.tensors[n].ravel() for n in names])


def with_flat(params: ParamSet, vec, names=None) -> ParamSet:
    """New ParamSet with the named tensors replaced from a flat vector."""
    names = list(names) if names is not None else tensor_names(params.arch)
    vec = np.asarray(vec, dtype=np.float64).ravel()
    tensors = {k: v.copy() for k, v in params.tensors.items()}
    pos = 0
    for n in names:
        size = tensors[n].size
        tensors[n] = vec[pos : pos + size].reshape(tensors[n].shape).copy()
        pos += size
    if pos != vec.size:
        raise ContractViolation(f"with_flat: vector length {vec.size}, expected {pos}")
    return ParamSet(params.arch, tensors)


def finite_diff_param_grad(f, params: ParamSet, names=None, h: float = 1e-5) -> dict:
    """Central-difference gradient of f(ParamSet) over the named tensors."""
    names = list(names) if names is not None else tensor_names(params.arch)
    g = finite_diff_grad(lambda v: f(with_flat(params, v, names)), flat(params, names), h=h)
    out = {}
    pos = 0
    for n in names:
        size = params.tensors[n].size
        out[n] = g[pos : pos + size].reshape(params.tensors[n].shape)
        pos += size
    return out
