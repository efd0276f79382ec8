"""Tests for the training objectives: supervised CE, prior-enforcing target
objective with pseudo-label selection, fake-sample BCE, and kernel MMD."""

import math
import threading
import time
import warnings

import numpy as np
import pytest

import ctdr.losses
from ctdr.errors import ContractViolation, NonFiniteLossError
from ctdr.losses import (
    EPS,
    adv_bce,
    class_mass,
    contradist_loss,
    make_prior,
    median_heuristic_gamma,
    mmd_loss,
    pseudo_label_select,
    source_ce,
)
from ctdr.numerics import Rng, _pairwise_sq_dists, gaussian_kernel_matrix, log_sum_exp, softmax_rows
from ctdr.train import TERM_TABLE
from gradcheck import finite_diff_grad, relative_error


def rand_probs(rng, b, k):
    return softmax_rows(rng.uniform_matrix(b, k, -3.0, 3.0))


def rand_prior(rng, k):
    raw = np.array([rng.uniform(0.1, 1.0) for _ in range(k)])
    return raw / raw.sum()


def test_make_prior_accepts_valid():
    p = make_prior([0.25, 0.75])
    assert p.dtype == np.float64
    assert p.sum() == pytest.approx(1.0)


def test_make_prior_rejects_bad_vectors():
    with pytest.raises(ContractViolation):
        make_prior([0.5, 0.6])
    with pytest.raises(ContractViolation):
        make_prior([1.2, -0.2])
    with pytest.raises(ContractViolation):
        make_prior([0.5, 0.5], num_classes=3)
    with pytest.raises(ContractViolation):
        make_prior([])
    for not_1d in ([[0.5], [0.5]], 1.0):
        with pytest.raises(ContractViolation, match="prior must be 1-D"):
            make_prior(not_1d)


@pytest.mark.parametrize("values", [("0.5", "0.5"), ["1"], np.array(["0.25", "0.75"]), (0.5, None, 0.5)])
def test_make_prior_rejects_entries_that_are_not_bools_ints_or_floats(values):
    # a string that reads as a number is not one
    with pytest.raises(ContractViolation, match="^skew entries must be numbers: "):
        make_prior(values, name="skew")


def test_make_prior_takes_bools_ints_and_floats_and_does_not_copy_a_float64_prior():
    assert make_prior([True, False]).tolist() == [1.0, 0.0]
    assert make_prior(np.array([0, 1], dtype=np.uint8)).tolist() == [0.0, 1.0]
    assert make_prior(np.array([0.25, 0.75], dtype=np.float32)).dtype == np.float64
    prior = np.array([0.25, 0.75])
    assert make_prior(prior, 2) is prior


def test_source_ce_perfect_prediction():
    probs = np.array([[1.0, 0.0], [0.0, 1.0]])
    rep = source_ce(probs, np.array([0, 1]))
    assert rep.value == pytest.approx(0.0, abs=1e-12)


def test_source_ce_uniform_rows():
    probs = np.full((3, 4), 0.25)
    rep = source_ce(probs, np.array([0, 1, 3]))
    assert rep.value == pytest.approx(3 * math.log(4.0), abs=1e-12)


def test_source_ce_hand_example():
    probs = np.array([[0.9, 0.1], [0.2, 0.8]])
    rep = source_ce(probs, np.array([0, 1]))
    assert rep.value == pytest.approx(-(math.log(0.9) + math.log(0.8)), abs=1e-12)
    onehot = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.max(np.abs(rep.grad - (probs - onehot))) < 1e-15


def test_source_ce_rejects_bad_labels_and_probs():
    probs = np.array([[0.5, 0.5]])
    with pytest.raises(ContractViolation):
        source_ce(probs, np.array([2]))
    with pytest.raises(ContractViolation):
        source_ce(probs, np.array([-1]))
    with pytest.raises(ContractViolation):
        source_ce(np.array([[0.9, 0.5]]), np.array([0]))


@pytest.mark.parametrize(
    "loss", [source_ce, lambda probs, labels: contradist_loss(probs, labels, [0.5, 0.5])], ids=["source_ce", "contradist_loss"]
)
def test_losses_take_whole_number_labels_only(loss):
    # float labels are checked, not truncated; NaN and inf are rejected with no numpy warning
    probs = np.array([[0.9, 0.1], [0.2, 0.8]])
    for bad in (0.7, 1.5, math.nan, math.inf):
        with pytest.raises(ContractViolation, match=r"label row 1 is .*, not a whole number"):
            loss(probs, np.array([0.0, bad]))
    assert loss(probs, np.array([0.0, 1.0])).value == loss(probs, np.array([0, 1])).value


def test_source_ce_grad_matches_finite_diff():
    rng = Rng(60, 0)
    for trial in range(5):
        logits = rng.uniform_matrix(4, 3, -2.0, 2.0)
        labels = np.array([rng.below(3) for _ in range(4)])
        rep = source_ce(softmax_rows(logits), labels)
        fd = finite_diff_grad(lambda z: source_ce(softmax_rows(z), labels).value, logits)
        assert relative_error(rep.grad, fd) <= 1e-6


def test_class_mass_hand_example():
    probs = np.array([[0.9, 0.1], [0.6, 0.4]])
    assert np.allclose(class_mass(probs), [1.5, 0.5], atol=1e-15)


def test_batch_normalized_scores_marginalize_to_prior():
    rng = Rng(61, 0)
    for _ in range(20):
        b = 1 + rng.below(12)
        k = 2 + rng.below(4)
        probs = rand_probs(rng, b, k)
        prior = rand_prior(rng, k)
        mass = class_mass(probs)
        qhat = probs / mass[None, :]
        assert np.all(np.abs(qhat.sum(axis=0) - 1.0) <= 1e-9)
        q = qhat * prior[None, :]
        assert np.all(np.abs(q.sum(axis=0) - prior) <= 1e-9)


def test_pseudo_label_normalization_flips_raw_argmax():
    probs = np.array([[0.9, 0.1], [0.6, 0.4]])
    out = pseudo_label_select(probs, [0.5, 0.5])
    assert out.tolist() == [0, 1]
    # plain argmax would keep the second row at class 0
    assert probs[1].argmax() == 0


def test_pseudo_label_ties_take_lowest_index():
    probs = np.array([[0.6, 0.4], [0.6, 0.4]])
    out = pseudo_label_select(probs, [0.5, 0.5])
    assert out.tolist() == [0, 0]


def test_pseudo_label_degenerate_prior():
    rng = Rng(62, 0)
    probs = rand_probs(rng, 5, 3)
    out = pseudo_label_select(probs, [1.0, 0.0, 0.0])
    assert out.tolist() == [0] * 5


def test_pseudo_label_matches_brute_force():
    rng = Rng(63, 0)
    for _ in range(200):
        b = 1 + rng.below(8)
        k = 2 + rng.below(3)
        probs = rand_probs(rng, b, k)
        prior = rand_prior(rng, k)
        out = pseudo_label_select(probs, prior)
        mass = np.maximum(probs.sum(axis=0), EPS)
        for j in range(b):
            best, best_score = 0, -1.0
            for c in range(k):
                score = probs[j, c] * prior[c] / mass[c]
                if score > best_score:
                    best, best_score = c, score
            assert out[j] == best


def test_pseudo_label_invariant_to_prior_scale():
    # the argmax of probs*prior/mass ignores any positive rescaling of the prior
    rng = Rng(64, 0)
    for _ in range(50):
        probs = rand_probs(rng, 6, 3)
        prior = rand_prior(rng, 3)
        base = pseudo_label_select(probs, prior)
        mass = probs.sum(axis=0)
        for scale in (0.1, 7.0):
            scaled_scores = probs * (scale * prior / mass)[None, :]
            assert np.array_equal(scaled_scores.argmax(axis=1), base)


def test_contradist_single_sample_cancellation():
    rng = Rng(65, 0)
    for _ in range(20):
        probs = rand_probs(rng, 1, 4)
        prior = rand_prior(rng, 4)
        out = pseudo_label_select(probs, prior)
        rep = contradist_loss(probs, out, prior)
        assert rep.value == math.log(prior[out[0]])
        assert np.all(rep.grad == 0.0)


def test_contradist_uniform_hand_example():
    probs = np.full((4, 2), 0.5)
    prior = [0.5, 0.5]
    out = pseudo_label_select(probs, prior)
    rep = contradist_loss(probs, out, prior)
    assert rep.value == pytest.approx(4 * (-3 * math.log(2.0)), abs=1e-12)
    d = rep.diagnostics
    assert d["term_logprob"] == pytest.approx(4 * math.log(0.5), abs=1e-12)
    assert d["term_logprior"] == pytest.approx(4 * math.log(0.5), abs=1e-12)
    assert d["term_logmass"] == pytest.approx(4 * math.log(2.0), abs=1e-12)


def test_contradist_value_matches_direct_sum():
    rng = Rng(66, 0)
    for _ in range(50):
        b = 2 + rng.below(10)
        k = 2 + rng.below(4)
        probs = rand_probs(rng, b, k)
        prior = rand_prior(rng, k)
        out = pseudo_label_select(probs, prior)
        rep = contradist_loss(probs, out, prior)
        y = out
        mass = probs.sum(axis=0)
        direct = sum(
            math.log(probs[j, y[j]]) + math.log(prior[y[j]]) - math.log(mass[y[j]])
            for j in range(b)
        )
        assert rep.value == pytest.approx(direct, abs=1e-9)


def contradist_reference(p, y, prior):
    """contradist_loss's (value, grad), with one 1-D log_sum_exp per class."""
    b, k = p.shape
    rows = np.arange(b)
    logp = np.log(np.maximum(p, EPS))
    term1 = float(logp[rows, y].sum())
    term2 = float(np.log(np.maximum(np.asarray(prior), EPS))[y].sum())
    logmass = np.array([log_sum_exp(logp[:, c]) for c in range(k)])
    value = (term1 - float(logmass[y].sum())) + term2
    counts = np.bincount(y, minlength=k).astype(np.float64)
    mass = np.maximum(p.sum(axis=0), EPS)
    onehot = np.zeros_like(p)
    onehot[rows, y] = 1.0
    weighted = (p / mass[None, :]) * counts[None, :]
    return value, (p + weighted) - (onehot + p * weighted.sum(axis=1, keepdims=True))


def test_contradist_matches_per_class_reference_bytes():
    rng = Rng(69, 0)
    for i in range(60):
        b = 1 + rng.below(130)
        k = 1 + rng.below(10)
        probs = softmax_rows(rng.uniform_matrix(b, k, -1.0, 1.0) * (0.1, 3.0, 20.0, 60.0)[i % 4])
        prior = rand_prior(rng, k)
        pseudo = pseudo_label_select(probs, prior)
        rep = contradist_loss(probs, pseudo, prior)
        value, grad = contradist_reference(probs, pseudo, prior)
        assert np.float64(rep.value).tobytes() == np.float64(value).tobytes()
        assert rep.grad.tobytes() == grad.tobytes()


def test_contradist_grad_matches_finite_diff():
    rng = Rng(67, 0)
    for _ in range(8):
        b = 2 + rng.below(6)
        k = 2 + rng.below(3)
        logits = rng.uniform_matrix(b, k, -2.0, 2.0)
        prior = rand_prior(rng, k)
        pseudo = pseudo_label_select(softmax_rows(logits), prior)
        rep = contradist_loss(softmax_rows(logits), pseudo, prior)

        # selection is frozen: perturbations move probs but not pseudo-labels
        def negated(z):
            return -contradist_loss(softmax_rows(z), pseudo, prior).value

        fd = finite_diff_grad(negated, logits)
        assert relative_error(rep.grad, fd) <= 1e-6


def test_contradist_prior_term_has_no_gradient():
    rng = Rng(68, 0)
    probs = rand_probs(rng, 5, 3)
    pseudo = pseudo_label_select(probs, [1 / 3, 1 / 3, 1 / 3])
    a = contradist_loss(probs, pseudo, [1 / 3, 1 / 3, 1 / 3])
    b = contradist_loss(probs, pseudo, [0.6, 0.3, 0.1])
    assert np.array_equal(a.grad, b.grad)
    assert a.value != b.value


def test_adv_bce_uniform_rows_hit_minimum():
    for k in (2, 3, 5):
        probs = np.full((3, k), 1.0 / k)
        rep = adv_bce(probs)
        assert rep.value == pytest.approx(3 * k * math.log(k), abs=1e-9)
        assert np.max(np.abs(rep.grad)) < 1e-12


def test_adv_bce_hand_example():
    rep = adv_bce(np.array([[0.5, 0.5]]))
    assert rep.value == pytest.approx(2 * math.log(2.0), abs=1e-12)


def test_adv_bce_near_one_hot_blows_up_but_finite():
    probs = np.array([[1.0 - 1e-15, 1e-15]])
    rep = adv_bce(probs)
    assert math.isfinite(rep.value)
    assert rep.value > 20.0


def test_adv_bce_per_sample_minimum_only_at_uniform():
    rng = Rng(69, 0)
    for _ in range(100):
        k = 2 + rng.below(4)
        probs = rand_probs(rng, 1, k)
        rep = adv_bce(probs)
        floor = k * math.log(k)
        assert rep.value >= floor - 1e-9
        if np.max(np.abs(probs - 1.0 / k)) > 1e-4:
            assert rep.value > floor + 1e-9


def test_adv_bce_grad_matches_finite_diff():
    rng = Rng(70, 0)
    for _ in range(5):
        logits = rng.uniform_matrix(3, 4, -2.0, 2.0)
        rep = adv_bce(softmax_rows(logits))
        fd = finite_diff_grad(lambda z: adv_bce(softmax_rows(z)).value, logits)
        assert relative_error(rep.grad, fd) <= 1e-6


def test_mmd_identical_sets_is_zero(pool):
    x = Rng(71, 0).normal_matrix(6, 3)
    rep = mmd_loss(x, x, 0.8, pool)
    assert abs(rep.value) <= 1e-9


def test_mmd_single_points_hand_example(pool):
    rep = mmd_loss(np.array([[0.0]]), np.array([[1.0]]), 1.0, pool)
    assert rep.value == pytest.approx(2.0 - 2.0 * math.exp(-1.0), abs=1e-12)


def test_mmd_nonnegative_on_random_pairs(pool):
    rng = Rng(72, 0)
    for _ in range(50):
        nf = 1 + rng.below(6)
        nr = 1 + rng.below(6)
        d = 1 + rng.below(4)
        f = rng.normal_matrix(nf, d)
        r = rng.normal_matrix(nr, d)
        rep = mmd_loss(f, r, 0.5, pool)
        assert rep.value >= -1e-9


def test_mmd_rejects_mismatch_and_empty(pool):
    with pytest.raises(ContractViolation):
        mmd_loss(np.zeros((2, 3)), np.zeros((2, 4)), 1.0, pool)
    with pytest.raises(ContractViolation):
        mmd_loss(np.zeros((0, 3)), np.zeros((2, 3)), 1.0, pool)


def test_mmd_grad_matches_finite_diff(pool):
    rng = Rng(73, 0)
    for _ in range(5):
        f = rng.normal_matrix(4, 3)
        r = rng.normal_matrix(5, 3)
        rep = mmd_loss(f, r, 0.7, pool)
        fd = finite_diff_grad(lambda z: mmd_loss(z, r, 0.7, pool).value, f)
        assert relative_error(rep.grad, fd) <= 1e-6


def test_mmd_grad_is_zero_at_identical_sets(pool):
    # symmetric stationary point of the V-statistic; compare absolutely
    # because finite differences only reach the rounding floor here
    x = Rng(74, 0).normal_matrix(4, 2)
    rep = mmd_loss(x.copy(), x, 1.1, pool)
    fd = finite_diff_grad(lambda z: mmd_loss(z, x, 1.1, pool).value, x.copy())
    assert np.all(rep.grad == 0.0)
    assert np.max(np.abs(fd)) < 1e-8


def test_median_heuristic_two_points():
    emb = np.array([[0.0, 0.0], [2.0, 0.0]])
    # median pairwise squared distance over off-diagonal pairs is 4
    assert median_heuristic_gamma(_pairwise_sq_dists(emb)) == pytest.approx(1.0 / 8.0, abs=1e-12)


def test_median_heuristic_degenerate_falls_back():
    emb = np.zeros((3, 2))
    assert median_heuristic_gamma(_pairwise_sq_dists(emb)) == 1.0
    assert median_heuristic_gamma(_pairwise_sq_dists(np.array([[1.0, 2.0]]))) == 1.0


def test_median_heuristic_deterministic():
    emb = Rng(75, 0).normal_matrix(10, 4)
    assert median_heuristic_gamma(_pairwise_sq_dists(emb)) == median_heuristic_gamma(_pairwise_sq_dists(emb.copy()))


def test_mmd_whose_median_distance_overflows_raises_non_finite_with_no_numpy_warning(pool):
    # finite rows whose squared distances overflow: gamma would be 1 / inf = 0
    f = Rng(77, 0).normal_matrix(5, 3)
    r = Rng(77, 1).normal_matrix(6, 3) * 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteLossError) as exc:
            mmd_loss(f, r, None, pool)
    assert (exc.value.term, exc.value.value, exc.value.what) == ("mmd", math.inf, "median squared distance")


def same_bits(a, b):
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


@pytest.mark.parametrize(
    "nr, identical, width",
    [(1, False, 3), (2, False, 3), (5, True, 3), (9, False, 1), (33, False, 16), (130, False, 128)],
)
def test_mmd_none_gamma_is_the_median_heuristic(nr, identical, width, pool):
    rng = Rng(76, nr)
    f = rng.normal_matrix(7, width)
    r = rng.normal_matrix(nr, width) * 2.0 + 0.5
    if identical:
        r = np.repeat(r[:1], nr, axis=0)
    auto = mmd_loss(f, r, None, pool)
    explicit = mmd_loss(f, r, median_heuristic_gamma(_pairwise_sq_dists(r)), pool)
    assert same_bits(auto.value, explicit.value)
    assert same_bits(auto.grad, explicit.grad)
    assert auto.diagnostics.keys() == explicit.diagnostics.keys()
    for key in auto.diagnostics:
        assert same_bits(auto.diagnostics[key], explicit.diagnostics[key])
    if nr < 2 or identical:
        assert auto.diagnostics["gamma"] == 1.0


def serial_mmd(f, r, gamma):
    """mmd_loss with every distance pass on the calling thread, in the order mmd_loss takes them."""
    nf, nr = f.shape[0], r.shape[0]
    sq_rr = _pairwise_sq_dists(r)
    if gamma is None:
        gamma = median_heuristic_gamma(sq_rr)
    kff = np.exp(-gamma * _pairwise_sq_dists(f))
    krr = np.exp(-gamma * sq_rr)
    kfr = np.exp(-gamma * _pairwise_sq_dists(f, r))
    value = float(kff.sum()) / (nf * nf) + float(krr.sum()) / (nr * nr) - 2.0 * float(kfr.sum()) / (nf * nr)
    grad = (-4.0 * gamma / (nf * nf)) * (f * kff.sum(axis=1, keepdims=True) - kff @ f)
    grad += (4.0 * gamma / (nf * nr)) * (f * kfr.sum(axis=1, keepdims=True) - kfr @ r)
    return value, grad, {"gamma": float(gamma), "k_ff": float(kff.mean()), "k_rr": float(krr.mean()), "k_fr": float(kfr.mean())}


def assert_same_report(rep, serial):
    value, grad, diagnostics = serial
    assert same_bits(rep.value, value) and same_bits(rep.grad, grad)
    assert rep.diagnostics.keys() == diagnostics.keys()
    for key in diagnostics:
        assert same_bits(rep.diagnostics[key], diagnostics[key]), key


class DelayedPool:
    """An executor that delays each task it is handed and keeps its future: a caller that did not wait for
    the task would get back while it still runs."""

    def __init__(self, pool):
        self.pool, self.futures = pool, []

    def submit(self, fn, *args, **kwargs):
        def delayed():
            time.sleep(0.05)
            return fn(*args, **kwargs)

        self.futures.append(self.pool.submit(delayed))
        return self.futures[-1]


@pytest.mark.parametrize("gamma", [None, 0.3])
@pytest.mark.parametrize(
    "nf, nr, width, same",
    [(1, 1, 1, False), (1, 1, 3, False), (7, 130, 128, False), (130, 7, 16, False), (9, 4, 1, False), (6, 6, 5, True)],
)
def test_mmd_equals_the_serial_reference_bit_for_bit(nf, nr, width, same, gamma, pool):
    rng = Rng(78, nf * 1000 + nr)
    f = rng.normal_matrix(nf, width)
    r = f if same else rng.normal_matrix(nr, width) * 1.5 - 0.25  # same: one array on both sides
    assert_same_report(mmd_loss(f, r, gamma, pool), serial_mmd(f, r, gamma))


def test_mmd_cross_distances_that_overflow_follow_the_callers_errstate(pool):
    # only the fake-real pass overflows: 1e308 - (-1e308) is inf, and k(f, r) is exp(-inf) = 0. One worker
    # runs all three passes, so each must run under its own call's errstate, not the first task's
    f = np.array([[1e308, 0.0], [1e308, 1.0]])
    r = np.array([[-1e308, 0.0], [-1e308, 2.0], [-1e308, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for over in ("ignore", "raise", "ignore"):
            with np.errstate(over=over):
                if over == "raise":
                    with pytest.raises(FloatingPointError):
                        mmd_loss(f, r, 0.5, pool)
                    with pytest.raises(FloatingPointError):
                        serial_mmd(f, r, 0.5)
                else:
                    rep = mmd_loss(f, r, 0.5, pool)
                    assert_same_report(rep, serial_mmd(f, r, 0.5))
                    assert rep.diagnostics["k_fr"] == 0.0


@pytest.mark.parametrize(
    "gamma, error",
    [(-1.0, ContractViolation), (0.0, ContractViolation), (math.nan, ContractViolation), (math.inf, ContractViolation),
     (None, NonFiniteLossError)],
)
def test_an_mmd_that_raises_leaves_no_task_in_flight(gamma, error, pool):
    f = Rng(79, 0).normal_matrix(40, 8)
    r = Rng(79, 1).normal_matrix(50, 8) * (1e160 if gamma is None else 1.0)  # None: the median overflows
    delayed = DelayedPool(pool)
    with pytest.raises(error):
        mmd_loss(f, r, gamma, delayed)
    assert len(delayed.futures) == 1 and delayed.futures[0].done()


def test_mmd_bandwidth_and_kernels_run_on_the_calling_thread(monkeypatch, pool):
    # only the fake-real distances go to the worker; the traced names, and the other two distance passes, run here
    seen = {"median": [], "kernel": [], "dists": []}

    def recording(name, real):
        def call(*args):
            seen[name].append(threading.get_ident())
            return real(*args)

        return call

    monkeypatch.setattr(ctdr.losses, "median_heuristic_gamma", recording("median", median_heuristic_gamma))
    monkeypatch.setattr(ctdr.losses, "gaussian_kernel_matrix", recording("kernel", gaussian_kernel_matrix))
    monkeypatch.setattr(ctdr.losses, "_pairwise_sq_dists", recording("dists", _pairwise_sq_dists))
    rng = Rng(80, 0)
    mmd_loss(rng.normal_matrix(5, 3), rng.normal_matrix(6, 3), None, pool)
    here = threading.get_ident()
    assert seen["median"] == [here] and seen["kernel"] == [here] * 3
    assert sorted(ident == here for ident in seen["dists"]) == [False, True, True]


@pytest.mark.parametrize("term", [*TERM_TABLE, "mmd"])
def test_each_loss_returns_a_float64_grad_of_its_inputs_shape(term, pool):
    # a training term's input is its logits (the probs' shape); mmd_loss's is the fake embeddings
    rng = Rng(77, 0)
    probs, prior = rand_probs(rng, 5, 3), rand_prior(rng, 3)
    if term == "mmd":
        x = rng.normal_matrix(5, 4)
        rep = mmd_loss(x, rng.normal_matrix(6, 4), None, pool)
    else:
        x = probs
        rep = TERM_TABLE[term].loss(probs, np.array([0, 1, 2, 0, 1]), prior)
    assert rep.grad.dtype == np.float64 and rep.grad.shape == x.shape
