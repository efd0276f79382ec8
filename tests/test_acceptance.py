"""End-to-end acceptance checks.

One test per criterion. Each records a single PASS/FAIL/SKIP line (printed in
the `acceptance criteria` section of the terminal summary) with the measured
numbers and the tolerance it was held to. The two synthetic adaptation runs
are pinned to reference accuracies measured with this exact code and seeds;
the real-image run needs IDX files on disk and skips, with instructions, when
they are not available.
"""

import math
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import record_criterion
from gradcheck import finite_diff_param_grad, flat, relative_error

from ctdr import cli
from ctdr.data import Batcher, DomainPair, load_idx, resize_bilinear, subsample, synth_two_moons
from ctdr.losses import (
    EPS,
    adv_bce,
    class_mass,
    contradist_loss,
    make_prior,
    mmd_loss,
    pseudo_label_select,
    source_ce,
)
from ctdr.model import (
    Architecture,
    ParamSet,
    backward,
    forward,
    init_params,
    save_checkpoint,
    theta_names,
)
from ctdr.numerics import (
    Rng,
    STREAM_DATA,
    STREAM_SOURCE_SHUFFLE,
    STREAM_WEIGHT_INIT,
)
from ctdr.optim import OptimizerState, adam_update
from ctdr.train import LossCombo, TrainConfig, fit

# Reference accuracies for the pinned synthetic runs (measured once with the
# seeds below; deterministic, so reruns must land inside PIN_TOL).
MOONS_SS_ACC = 0.790
MOONS_SS_TU_ACC = 0.970
SKEW_ASSUME_ACC = 0.678
SKEW_KNOWN_ACC = 0.926
PIN_TOL = 0.01

DATA_DIR_VAR = "CTDR_DATA_DIR"
IDX_FILES = {
    "source_images": "mnist_train_images.idx",
    "source_labels": "mnist_train_labels.idx",
    "target_images": "usps_train_images.idx",
    "target_labels": "usps_train_labels.idx",
    "test_images": "usps_test_images.idx",
    "test_labels": "usps_test_labels.idx",
}


def _report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    record_criterion(line)
    print(line)
    assert ok, line


def _skip(num, reason):
    line = f"[criterion {num:02d}] SKIP {reason}"
    record_criterion(line)
    print(line)
    pytest.skip(reason)


def _jittered(arch, seed):
    """Init then nudge every tensor off exact zeros so no ReLU input sits on
    its kink (finite differences straddle the kink, analytic gradients do not)."""
    base = init_params(arch, Rng(seed, STREAM_WEIGHT_INIT))
    jit = Rng(seed, 7)
    tensors = {}
    for name, t in base.tensors.items():
        if t.ndim == 2:
            tensors[name] = t + jit.uniform_matrix(t.shape[0], t.shape[1], -0.05, 0.05)
        else:
            tensors[name] = t + jit.uniform_matrix(t.shape[0], 1, -0.05, 0.05)[:, 0]
    return ParamSet(arch, tensors)


def _relu_margin(params, inputs):
    """Smallest |pre-activation| of any hidden unit on `inputs`. The backward
    record keeps layer outputs only, so each hidden layer's pre-activation is
    rebuilt from the layer's input as `a @ W`, then `+= b`, as the forward walk
    computes it."""
    vals = [1.0]
    for x in inputs:
        cache = forward(params, x)
        for (prefix, _, _), a in zip(cache.layers[:-1], [cache.x] + cache.act[:-2]):
            z = a @ params.tensors[prefix + ".w"]
            z += params.tensors[prefix + ".b"]
            vals.append(float(np.min(np.abs(z))))
    return min(vals)


def test_c01_analytic_gradients_match_finite_differences(pool):
    t0 = time.perf_counter()
    target_configs, max_attempts, tol = 24, 48, 1e-4
    checked, attempts, worst = 0, 0, 0.0
    while checked < target_configs and attempts < max_attempts:
        seed = 100 + attempts
        attempts += 1
        rng = Rng(seed, STREAM_DATA)
        b = 2 + rng.below(6)
        k = 2 + rng.below(3)
        d = 2 + rng.below(5)
        hidden = tuple(2 + rng.below(7) for _ in range(rng.below(3)))
        arch = Architecture.mlp(d, hidden, k)
        params = _jittered(arch, seed)
        names = theta_names(arch)
        assert flat(params, names).size <= 1000

        x_sup = rng.normal_matrix(b, d)
        labels = np.array([rng.below(k) for _ in range(b)], dtype=np.int64)
        x_tgt = rng.normal_matrix(b, d)
        x_fake = rng.normal_matrix(b, d)
        x_real = rng.normal_matrix(b, d)
        raw = np.array([rng.uniform(0.2, 1.0) for _ in range(k)])
        prior = make_prior(raw / raw.sum())

        if _relu_margin(params, (x_sup, x_tgt, x_fake)) < 1e-4:
            continue  # too close to a ReLU kink for central differences
        checked += 1

        real_emb = forward(params, x_real).embeddings.copy()
        gamma = mmd_loss(real_emb, real_emb, None, pool).diagnostics["gamma"]
        pseudo = pseudo_label_select(forward(params, x_tgt).probs, prior)

        for loss_name in ("supervised", "contradist", "adversarial", "mmd"):
            if loss_name == "supervised":
                f = lambda p: source_ce(forward(p, x_sup).probs, labels).value
                cache = forward(params, x_sup)
                rep = source_ce(cache.probs, labels)
                grads, _ = backward(params, cache, rep.grad)
            elif loss_name == "contradist":
                # pseudo-labels are frozen at the base point, matching training,
                # and the report's gradient is for the minimized sign
                f = lambda p: -contradist_loss(forward(p, x_tgt).probs, pseudo, prior).value
                cache = forward(params, x_tgt)
                rep = contradist_loss(cache.probs, pseudo, prior)
                grads, _ = backward(params, cache, rep.grad)
            elif loss_name == "adversarial":
                f = lambda p: adv_bce(forward(p, x_fake).probs).value
                cache = forward(params, x_fake)
                rep = adv_bce(cache.probs)
                grads, _ = backward(params, cache, rep.grad)
            else:
                # the real-side embeddings enter as constants, as in training
                f = lambda p: mmd_loss(forward(p, x_fake).embeddings, real_emb, gamma, pool).value
                cache = forward(params, x_fake)
                rep = mmd_loss(cache.embeddings, real_emb, gamma, pool)
                grads, _ = backward(params, cache.encoder, rep.grad)

            fd = finite_diff_param_grad(f, params, names, h=1e-5)
            # the mmd walk stops at the embeddings: its cls.* gradients are
            # read as zeros, so the check still covers their finite differences
            vec_a = np.concatenate([grads.get(n, np.zeros_like(params.tensors[n])).ravel() for n in names])
            vec_f = np.concatenate([fd[n].ravel() for n in names])
            err = relative_error(vec_a, vec_f)
            worst = max(worst, err)
            assert err <= tol, f"{loss_name} gradient off by {err:.3g} (config seed {seed})"

    elapsed = time.perf_counter() - t0
    ok = checked >= 20 and worst <= tol and elapsed < 60.0
    _report(1, ok, f"4 losses x {checked} configs, worst rel err {worst:.2e} (tol 1e-4), {elapsed:.1f}s")


def test_c02_joint_distribution_marginals():
    t0 = time.perf_counter()
    rng = Rng(21, STREAM_DATA)
    worst_rows, worst_prior = 0.0, 0.0
    for _ in range(100):
        b = 1 + rng.below(16)
        k = 2 + rng.below(5)
        probs = rng.uniform_matrix(b, k, 0.05, 1.0)
        probs /= probs.sum(axis=1, keepdims=True)
        raw = rng.uniform_matrix(1, k, 0.2, 1.0)[0]
        prior = make_prior(raw / raw.sum())
        mass = class_mass(probs)
        qhat = probs / mass
        q = qhat * prior
        worst_rows = max(worst_rows, float(np.max(np.abs(qhat.sum(axis=0) - 1.0))))
        worst_prior = max(worst_prior, float(np.max(np.abs(q.sum(axis=0) - prior))))
    elapsed = time.perf_counter() - t0
    ok = worst_rows <= 1e-9 and worst_prior <= 1e-9 and elapsed < 5.0
    _report(2, ok, f"100 batches: per-class sums off by {worst_rows:.1e}, prior recovery off by {worst_prior:.1e} (tol 1e-9), {elapsed:.1f}s")


def _oracle_select(probs, prior):
    """Per-(sample, class) exhaustive scan with a strict-> argmax.

    The score is spelled with the same association as the batch formula,
    p * (prior / mass): with one row every class ties up to final-ulp
    rounding, and a different grouping would compare rounding noise rather
    than the selection logic.
    """
    b, k = probs.shape
    mass = np.maximum(probs.sum(axis=0), EPS)
    out = np.zeros(b, dtype=np.int64)
    for j in range(b):
        best, best_score = 0, -math.inf
        for c in range(k):
            score = probs[j, c] * (prior[c] / mass[c])
            if score > best_score:
                best, best_score = c, score
        out[j] = best
    return out


def test_c03_pseudo_labels_match_exhaustive_scoring():
    t0 = time.perf_counter()
    rng = Rng(33, STREAM_DATA)
    trials, tie_trials = 10_000, 0
    for trial in range(trials):
        b = 1 + rng.below(8)
        k = 2 + rng.below(3)
        probs = rng.uniform_matrix(b, k, 0.01, 1.0)
        if trial % 10 == 0 and k >= 2:
            probs[:, 1] = probs[:, 0]  # duplicated column: exact score ties
            prior = make_prior(np.full(k, 1.0 / k))
            tie_trials += 1
        else:
            raw = rng.uniform_matrix(1, k, 0.2, 1.0)[0]
            prior = make_prior(raw / raw.sum())
        probs /= probs.sum(axis=1, keepdims=True)
        got = pseudo_label_select(probs, prior)
        want = _oracle_select(probs, prior)
        assert np.array_equal(got, want), f"trial {trial}: {got} vs {want}"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    _report(3, ok, f"{trials} random batches (b<=8, K<=4, {tie_trials} with exact ties) match brute force, {elapsed:.1f}s")


def test_c04_single_sample_batch_collapses_to_prior():
    t0 = time.perf_counter()
    rng = Rng(44, STREAM_DATA)
    worst = 0.0
    for case in range(100):
        k = 2 + rng.below(5)
        probs = rng.uniform_matrix(1, k, 0.05, 1.0)
        probs /= probs.sum(axis=1, keepdims=True)
        raw = rng.uniform_matrix(1, k, 0.2, 1.0)[0]
        prior = make_prior(raw / raw.sum())
        pseudo = pseudo_label_select(probs, prior)
        rep = contradist_loss(probs, pseudo, prior)
        worst = max(worst, abs(rep.value - math.log(prior[pseudo[0]])))
        assert np.all(rep.grad == 0.0)
        if case < 20:  # same thing through a real network: every tensor grad is exactly zero
            d = 2 + rng.below(4)
            arch = Architecture.mlp(d, (3,), k)
            params = _jittered(arch, 4000 + case)
            cache = forward(params, rng.normal_matrix(1, d))
            pl = pseudo_label_select(cache.probs, prior)
            rep_net = contradist_loss(cache.probs, pl, prior)
            grads, _ = backward(params, cache, rep_net.grad)
            assert all(np.all(g == 0.0) for g in grads.values())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(4, ok, f"100 one-row batches: |value - log prior| <= {worst:.1e} (tol 1e-12), gradients exactly zero, {elapsed:.1f}s")


def test_c05_discrepancy_term_sanity(pool):
    t0 = time.perf_counter()
    rng = Rng(55, STREAM_DATA)
    worst_self, worst_neg = 0.0, 0.0
    for _ in range(100):
        n = 1 + rng.below(8)
        d = 1 + rng.below(5)
        x = rng.normal_matrix(n, d)
        y = rng.normal_matrix(1 + rng.below(8), d)
        gamma = rng.uniform(0.1, 2.0)
        worst_self = max(worst_self, abs(mmd_loss(x, x, gamma, pool).value))
        worst_neg = min(worst_neg, mmd_loss(x, y, gamma, pool).value)
    uniform_ok = True
    above_ok = True
    for _ in range(200):
        k = 2 + rng.below(5)
        floor = k * math.log(k)
        uniform = np.full((1, k), 1.0 / k)
        uniform_ok = uniform_ok and abs(adv_bce(uniform).value - floor) <= 1e-9
        p = rng.uniform_matrix(1, k, 0.01, 1.0)
        p /= p.sum(axis=1, keepdims=True)
        if np.max(np.abs(p - 1.0 / k)) > 1e-6:
            above_ok = above_ok and adv_bce(p).value > floor
    elapsed = time.perf_counter() - t0
    ok = worst_self <= 1e-9 and worst_neg >= -1e-9 and uniform_ok and above_ok and elapsed < 5.0
    _report(5, ok, f"mmd(X,X) <= {worst_self:.1e}, min mmd(X,Y) = {worst_neg:.1e} (tol 1e-9); fake-loss floor K*lnK only at uniform, {elapsed:.1f}s")


def test_c06_synthetic_pair_adaptation_gain():
    t0 = time.perf_counter()
    pair = synth_two_moons(500, 35.0, 0.10, seed=2)
    acc = {}
    for combo in ("ss", "ss,tu"):
        config = TrainConfig(combo=LossCombo.parse(combo), epochs=100, seed=3, timing=False)
        _, metrics = fit(config, pair)
        acc[combo] = metrics[-1]["acc"]["target_test"]
    elapsed = time.perf_counter() - t0
    gain = acc["ss,tu"] - acc["ss"]
    ok = (
        abs(acc["ss"] - MOONS_SS_ACC) <= PIN_TOL
        and abs(acc["ss,tu"] - MOONS_SS_TU_ACC) <= PIN_TOL
        and gain >= 0.10
        and elapsed < 120.0
    )
    _report(6, ok, f"rotated-moons target acc {acc['ss']:.3f} -> {acc['ss,tu']:.3f} (pins {MOONS_SS_ACC}/{MOONS_SS_TU_ACC} +-{PIN_TOL}, gain >= 0.10), {elapsed:.1f}s")


def test_c07_known_target_prior_beats_assumed_prior_under_skew():
    t0 = time.perf_counter()
    pair = synth_two_moons(500, 35.0, 0.10, label_skew=(0.8, 0.2), seed=0)
    acc = {}
    for name, prior in (("assumed", None), ("known", (0.8, 0.2))):
        config = TrainConfig(combo=LossCombo.parse("ss,tu"), epochs=100, seed=0, prior=prior, timing=False)
        _, metrics = fit(config, pair)
        acc[name] = metrics[-1]["acc"]["target_test"]
    elapsed = time.perf_counter() - t0
    ok = (
        abs(acc["assumed"] - SKEW_ASSUME_ACC) <= PIN_TOL
        and abs(acc["known"] - SKEW_KNOWN_ACC) <= PIN_TOL
        and acc["known"] >= acc["assumed"]
        and elapsed < 120.0
    )
    _report(7, ok, f"skewed moons acc: assumed prior {acc['assumed']:.3f}, known prior {acc['known']:.3f} (pins {SKEW_ASSUME_ACC}/{SKEW_KNOWN_ACC} +-{PIN_TOL}), {elapsed:.1f}s")


def _find_idx(root, stem):
    for cand in (root / stem, root / (stem + ".gz")):
        if cand.exists():
            return cand
    return None


def test_c08_digit_image_pair_adaptation():
    root = os.environ.get(DATA_DIR_VAR)
    if not root:
        _skip(8, f"{DATA_DIR_VAR} is not set; point it at a directory holding {', '.join(IDX_FILES.values())} (plain or .gz)")
    root = Path(root)
    paths = {key: _find_idx(root, stem) for key, stem in IDX_FILES.items()}
    missing = sorted(IDX_FILES[key] for key, p in paths.items() if p is None)
    if missing:
        _skip(8, f"missing under {root}: {', '.join(missing)}")

    t0 = time.perf_counter()
    digits = lambda split: replace(load_idx(paths[f"{split}_images"], paths[f"{split}_labels"]), num_classes=10)
    source = subsample(digits("source"), 2000, seed=0)
    target = digits("target")
    target = subsample(resize_bilinear(target, (28, 28)), min(2000, target.n), seed=0, variant=1)
    test = resize_bilinear(digits("test"), (28, 28))
    pair = DomainPair(source, target, test)

    acc = {}
    for combo in ("ss", "ss,tu"):
        config = TrainConfig(combo=LossCombo.parse(combo), epochs=50, seed=0, timing=False)
        _, metrics = fit(config, pair)
        acc[combo] = metrics[-1]["acc"]["target_test"]
    elapsed = time.perf_counter() - t0
    ok = acc["ss,tu"] >= acc["ss"] + 0.02 and acc["ss,tu"] >= 0.80 and elapsed < 300.0
    _report(8, ok, f"digit pair target acc {acc['ss']:.3f} -> {acc['ss,tu']:.3f} (need +0.02 and >= 0.80), {elapsed:.1f}s")


def test_c09_runs_are_deterministic_and_blind_to_target_test_labels(tmp_path):
    t0 = time.perf_counter()
    config_text = "\n".join(
        [
            "data = two_moons",
            "n = 100",
            "rotation = 35.0",
            "noise = 0.1",
            "combo = ss,tu",
            "hidden = 16",
            "epochs = 5",
            "batch = 32",
            "seed = 4",
            "standardize = false",
            "timing = false",
            f"out_dir = {tmp_path / 'run_a'}",
        ]
    )
    config_path = tmp_path / "repro.cfg"
    config_path.write_text(config_text + "\n", encoding="utf-8")
    assert cli.main(["train", "--config", str(config_path)]) == 0
    assert cli.main(["train", "--config", str(config_path), "--set", f"out_dir={tmp_path / 'run_b'}"]) == 0
    same_metrics = (tmp_path / "run_a" / "metrics.jsonl").read_bytes() == (tmp_path / "run_b" / "metrics.jsonl").read_bytes()
    same_model = (tmp_path / "run_a" / "model.ctdr").read_bytes() == (tmp_path / "run_b" / "model.ctdr").read_bytes()

    # flipping the held-out labels must change nothing but the reported accuracy
    pair = synth_two_moons(100, 35.0, 0.1, seed=4)
    flipped = DomainPair(
        pair.source,
        pair.target_train,
        replace(pair.target_test, labels=(1 - pair.target_test.labels)),
    )
    config = TrainConfig(combo=LossCombo.parse("ss,tu"), epochs=5, hidden=(16,), batch_size=32, seed=4, timing=False)
    params_a, metrics_a = fit(config, pair)
    params_b, metrics_b = fit(config, flipped)
    ckpt_a, ckpt_b = tmp_path / "a.ctdr", tmp_path / "b.ctdr"
    save_checkpoint(params_a, ckpt_a)
    save_checkpoint(params_b, ckpt_b)
    same_params = ckpt_a.read_bytes() == ckpt_b.read_bytes()
    same_trajectory = all(
        ra["loss"] == rb["loss"] and ra["acc"]["source_train"] == rb["acc"]["source_train"]
        for ra, rb in zip(metrics_a, metrics_b)
    )
    complement = abs((1.0 - metrics_a[-1]["acc"]["target_test"]) - metrics_b[-1]["acc"]["target_test"]) <= 1e-12

    elapsed = time.perf_counter() - t0
    ok = same_metrics and same_model and same_params and same_trajectory and complement and elapsed < 120.0
    _report(9, ok, f"same seed -> byte-identical artifacts; flipped held-out labels -> identical model, complementary accuracy, {elapsed:.1f}s")


def test_c10_training_loop_reproduced_from_primitives():
    t0 = time.perf_counter()
    pair = synth_two_moons(80, 35.0, 0.1, seed=11)
    seed, hidden, batch_size, lr0, decay, every = 11, (16,), 32, 0.001, 0.6, 30

    arch = Architecture.mlp(pair.dim, hidden, pair.num_classes)
    params = init_params(arch, Rng(seed, STREAM_WEIGHT_INIT))
    opt = OptimizerState.for_params(params, theta_names(arch))
    batcher = Batcher(pair.source.n, batch_size, seed, STREAM_SOURCE_SHUFFLE)

    checkpoints = {}
    for epoch in range(7):
        lr = lr0 * decay ** (epoch // every)
        for _ in range(batcher.batches_per_epoch):
            idx = batcher.take()
            cache = forward(params, pair.source.features[idx])
            rep = source_ce(cache.probs, pair.source.labels[idx])
            grads, _ = backward(params, cache, rep.grad)
            params, opt = adam_update(params, grads, opt, lr)
        checkpoints[epoch + 1] = params

    identical = True
    for epochs in (1, 3, 7):
        config = TrainConfig(
            combo=LossCombo.parse("ss"), epochs=epochs, hidden=hidden, batch_size=batch_size,
            lr=lr0, seed=seed, timing=False,
        )
        fitted, _ = fit(config, pair)
        mine = checkpoints[epochs]
        for name in theta_names(arch):
            if not np.array_equal(fitted.tensors[name], mine.tensors[name]):
                identical = False

    elapsed = time.perf_counter() - t0
    ok = identical and elapsed < 60.0
    _report(10, ok, f"source-only trajectory rebuilt from model/loss/optimizer primitives, bit-identical at epochs 1/3/7, {elapsed:.1f}s")
