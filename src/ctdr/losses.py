"""Training objectives.

Each loss returns its scalar value plus the gradient with respect to its
input: the classifier-side losses take softmax probabilities and give the
gradient with respect to the logits, using sum (not mean) reduction over the
batch; the kernel two-sample objective for the generator gives it with respect
to the fake embeddings. Logs are floored at EPS; so are the per-class
probability masses.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, NonFiniteLossError
from .numerics import _pairwise_sq_dists, as_labels, as_matrix, gaussian_kernel_matrix, log_sum_exp

EPS = 1e-12


def make_prior(values, num_classes=None, name="prior") -> np.ndarray:
    """Validate a class prior: 1-D, nonnegative, sums to 1 within 1e-9. Errors
    call it `name`. Entries are bools, ints or floats: a string that reads as a number is not one."""
    try:
        p = np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise ContractViolation(f"{name} entries must be numbers: {exc}") from None
    if p.dtype.kind not in "biuf":
        raise ContractViolation(f"{name} entries must be numbers: got {values!r}")
    p = p.astype(np.float64, copy=False)
    if p.ndim != 1:
        raise ContractViolation(f"{name} must be 1-D, got shape {p.shape}")
    if num_classes is not None and p.size != num_classes:
        raise ContractViolation(f"{name} has {p.size} entries, expected {num_classes}")
    if p.size < 1:
        raise ContractViolation(f"{name} must be nonempty")
    if (p < 0.0).any() or not np.isfinite(p).all():
        raise ContractViolation(f"{name} entries must be finite and >= 0")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ContractViolation(f"{name} sums to {float(p.sum())!r}, expected 1")
    return p


def _check_probs(probs) -> np.ndarray:
    p = as_matrix(probs, "probs")
    if p.shape[0] < 1 or p.shape[1] < 1:
        raise ContractViolation("probs must be nonempty")
    if (p < 0.0).any() or not np.isfinite(p).all():
        raise ContractViolation("probs entries must be finite and >= 0")
    if (np.abs(p.sum(axis=1) - 1.0) > 1e-6).any():
        raise ContractViolation("probs rows must sum to 1 (valid softmax output)")
    return p


@dataclass
class LossReport:
    """One term's scalar value, its gradient with respect to the loss's input
    (the logits, or the fake embeddings for mmd_loss), and diagnostic numbers."""

    value: float
    grad: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def source_ce(probs, labels) -> LossReport:
    """Supervised cross-entropy, summed over the batch.

    d/d(logits) = probs - onehot(labels).
    """
    p = _check_probs(probs)
    b, k = p.shape
    y = as_labels(labels, b, k)
    rows = np.arange(b)
    value = -float(np.log(np.maximum(p[rows, y], EPS)).sum())
    grad = p.copy()
    grad[rows, y] -= 1.0
    return LossReport(value, grad)


def class_mass(probs) -> np.ndarray:
    """Per-class probability mass over the batch: column sums of probs."""
    return _check_probs(probs).sum(axis=0)


def pseudo_label_select(probs, prior) -> np.ndarray:
    """Pick y_j maximizing probs[j, y] * prior[y] / class_mass[y]; returns the (b,) int64 labels.

    Ties resolve to the lowest class index (argmax convention). Selection is
    a discrete choice: no gradient flows through it.
    """
    p = _check_probs(probs)
    pri = make_prior(prior, p.shape[1])
    mass = np.maximum(p.sum(axis=0), EPS)
    scores = p * (pri / mass)[None, :]
    return scores.argmax(axis=1).astype(np.int64)


def contradist_loss(probs, labels, prior) -> LossReport:
    """Prior-enforcing objective on an unlabeled batch, as a minimization.

    The maximized quantity is
        V = sum_j log probs[j, y_j] + sum_j log prior[y_j]
            - sum_j log class_mass[y_j]
    with y_j = labels[j], the fixed pseudo-labels; the report carries value = V
    and the gradient of -V w.r.t. the logits. The middle term has no logits
    gradient.
    """
    p = _check_probs(probs)
    b, k = p.shape
    y = as_labels(labels, b, k)
    pri = make_prior(prior, k)
    rows = np.arange(b)

    logp = np.log(np.maximum(p, EPS))
    term1 = float(logp[rows, y].sum())
    term2 = float(np.log(np.maximum(pri, EPS))[y].sum())
    # per-class log-mass: log-sum-exp over each column's log-probabilities
    logmass = log_sum_exp(logp.T)
    term3 = float(logmass[y].sum())
    # grouped so the b=1 case cancels to exactly term2
    value = (term1 - term3) + term2

    counts = np.bincount(y, minlength=k).astype(np.float64)
    mass = np.maximum(p.sum(axis=0), EPS)
    onehot = np.zeros_like(p)
    onehot[rows, y] = 1.0
    weighted = (p / mass[None, :]) * counts[None, :]
    srow = weighted.sum(axis=1, keepdims=True)
    # d(-V)/d(logits); grouped so every term pairs with its exact cancel
    # partner when b=1 (weighted == onehot and srow == 1 there)
    grad = (p + weighted) - (onehot + p * srow)
    return LossReport(value, grad, {"term_logprob": term1, "term_logprior": term2, "term_logmass": term3})


def adv_bce(probs_fake) -> LossReport:
    """Push fake rows toward the uniform prediction: -sum_j sum_k log p[j, k].

    Per-sample minimum is k*ln(k), attained exactly at the uniform row.
    d/d(logits) = k * p - 1.
    """
    p = _check_probs(probs_fake)
    k = p.shape[1]
    value = -float(np.log(np.maximum(p, EPS)).sum())
    grad = k * p - 1.0
    return LossReport(value, grad)


def mmd_loss(emb_fake, emb_real, gamma: float | None) -> LossReport:
    """Biased (V-statistic) squared MMD with a Gaussian kernel.

    value = mean k(f,f) + mean k(r,r) - 2 mean k(f,r). The gradient is with
    respect to the fake embeddings only; the real side is a constant.
    gamma None takes median_heuristic_gamma of the real-real squared
    distances, the same matrix that k(r,r) is built from.

    The fake-real distances, which need no gamma, are computed on a
    one-worker pool made for this call, under the caller's numpy errstate
    (errstate is per thread), while this thread builds k(r,r) and k(f,f).
    The pool is joined before the call returns or raises. Every value is
    the one the serial order gives.
    """
    f = as_matrix(emb_fake, "emb_fake")
    r = as_matrix(emb_real, "emb_real")
    if f.shape[1] != r.shape[1]:
        raise ContractViolation(f"mmd: widths differ ({f.shape[1]} vs {r.shape[1]})")
    if f.shape[0] < 1 or r.shape[0] < 1:
        raise ContractViolation("mmd: inputs must be nonempty")
    nf, nr = f.shape[0], r.shape[0]
    err = np.geterr()

    def cross_dists():
        with np.errstate(**err):
            return _pairwise_sq_dists(f, None if r is f else r)  # as gaussian_kernel_matrix(f, r, gamma) takes them

    with ThreadPoolExecutor(1, thread_name_prefix="ctdr-mmd") as pool:
        sq_fr = pool.submit(cross_dists)
        sq_rr = _pairwise_sq_dists(r)
        if gamma is None:
            gamma = median_heuristic_gamma(sq_rr)
        kff = gaussian_kernel_matrix(f, f, gamma)
        krr = np.exp(-gamma * sq_rr)  # gaussian_kernel_matrix(r, r, gamma); kff has checked gamma
        kfr = np.exp(-gamma * sq_fr.result())
    value = float(kff.sum()) / (nf * nf) + float(krr.sum()) / (nr * nr) - 2.0 * float(kfr.sum()) / (nf * nr)

    # d value / d f_i, using d k(a,b)/d a = -2 gamma (a - b) k(a,b)
    row_ff = kff.sum(axis=1, keepdims=True)
    row_fr = kfr.sum(axis=1, keepdims=True)
    grad = (-4.0 * gamma / (nf * nf)) * (f * row_ff - kff @ f)
    grad += (4.0 * gamma / (nf * nr)) * (f * row_fr - kfr @ r)
    diagnostics = {"gamma": float(gamma), "k_ff": float(kff.mean()), "k_rr": float(krr.mean()), "k_fr": float(kfr.mean())}
    return LossReport(value, grad, diagnostics)


def median_heuristic_gamma(sq: np.ndarray) -> float:
    """gamma = 1 / (2 * median pairwise squared distance), floored at EPS scale.

    `sq` is the real rows' (n, n) squared-distance matrix; the median is over
    its unordered pairs i < j. A single row (no pairs) or an all-identical
    batch falls back to gamma = 1. A median that overflowed raises
    NonFiniteLossError (term "mmd"): its gamma would be 0.
    """
    n = sq.shape[0]
    if n < 2:
        return 1.0
    med = float(np.median(sq[np.triu_indices(n, k=1)]))
    if not np.isfinite(med):
        raise NonFiniteLossError("mmd", med, what="median squared distance")
    if med <= EPS:
        return 1.0
    return 1.0 / (2.0 * med)
