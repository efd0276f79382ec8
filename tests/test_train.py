"""Tests for the joint training loop: configuration, term combination, the
learning-rate schedule, and determinism contracts."""

import functools
import json
import math
import re
import sys
import threading
import time
import types
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from ctdr.cli import build_train_config, main, resolve_config
from ctdr.data import Batcher, Dataset, DomainPair, synth_two_moons
from ctdr.errors import ConfigError, ContractViolation, NonFiniteLossError
from ctdr.evaluation import evaluate
from ctdr.fake import FakeSourceConfig, gaussian_fakes
from ctdr.losses import LossReport
from ctdr.model import _layers, init_params, phi_names, tensor_names, theta_names
from ctdr.numerics import (
    Rng,
    STREAM_FAKE_SOURCE,
    STREAM_FAKE_TARGET,
    STREAM_SOURCE_SHUFFLE,
    STREAM_TARGET_SHUFFLE,
    STREAM_WEIGHT_INIT,
    column_stats,
)
from ctdr.optim import OptimizerState
from ctdr.train import (
    FAKE_BATCHES,
    LossCombo,
    RunState,
    TERMS,
    TrainConfig,
    fit,
    train_step,
)

import ctdr.fake
import ctdr.losses
import ctdr.train


def tiny_pair(n=40, seed=5, skew=None):
    return synth_two_moons(n, 35.0, 0.1, label_skew=skew, seed=seed)


def oracle_pair(pair):
    """The pair an oracle run (the CLI's `combo = ts`) trains on: target-train's rows and labels as its source split."""
    return DomainPair(pair.target_train_labeled(oracle=True), pair.target_train, pair.target_test)


def quick_config(combo="ss,tu", **kw):
    kw.setdefault("epochs", 2)
    kw.setdefault("hidden", (8,))
    kw.setdefault("batch_size", 16)
    kw.setdefault("timing", False)
    kw.setdefault("seed", 1)
    return TrainConfig(LossCombo.parse(combo), **kw)


def test_loss_combo_parsing_variants():
    assert LossCombo.parse("ss,tu").names == ("ss", "tu")
    assert LossCombo.parse("ss+tu").names == ("ss", "tu")
    assert LossCombo.parse(" tu , ss ").names == ("ss", "tu")


def test_loss_combo_rejects_bad_input():
    with pytest.raises(ConfigError):
        LossCombo.parse("")
    with pytest.raises(ConfigError):
        LossCombo.parse("ss,xx")
    # ts is the CLI's oracle run, not a training term
    for text in ("ts", "ts,ss"):
        with pytest.raises(ConfigError, match="unknown loss term 'ts'; valid: ss, tu, su, ta, sa$"):
            LossCombo.parse(text)
    # the names field itself must be distinct known terms in TERMS order
    for names in (("tu", "ss"), ("ss", "ss"), ("zz",), ("ts",), ()):
        with pytest.raises(ConfigError):
            LossCombo(names)


def test_term_order_is_stable():
    assert TERMS == ("ss", "tu", "su", "ta", "sa")
    combo = LossCombo.parse("sa,ss,tu")
    assert combo.names == ("ss", "tu", "sa")


def test_train_config_validation():
    with pytest.raises(ConfigError):
        quick_config(lr=0.0)
    with pytest.raises(ConfigError):
        quick_config(batch_size=0)
    with pytest.raises(ConfigError):
        quick_config(epochs=-1)
    for lr in (math.inf, math.nan):
        with pytest.raises(ConfigError):
            quick_config(lr=lr)
    for seed in (-1, 1 << 64):
        with pytest.raises(ConfigError, match=r"seed must be in \[0, 2\^64\)"):
            quick_config(seed=seed)
    assert quick_config(seed=(1 << 64) - 1).seed == (1 << 64) - 1
    # a float count fails when the config is built, not with a TypeError inside fit, Rng or RunState.build
    for key, value in (("epochs", 2.5), ("batch_size", 4.5), ("seed", 1.5), ("hidden", (8.7,)), ("hidden", 8)):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            quick_config(**{key: value})
    cfg = quick_config(epochs=np.int64(2), batch_size=np.int64(4), seed=np.uint64(5), hidden=[np.int64(8)])
    assert (cfg.epochs, cfg.batch_size, cfg.seed, cfg.hidden) == (2, 4, 5, (8,))
    assert all(type(v) is int for v in (cfg.epochs, cfg.batch_size, cfg.seed, *cfg.hidden))
    # every field is checked when the config is built: lr is a real number, prior a class prior (its length is
    # checked against a pair's classes later, in RunState.build), timing a bool
    with pytest.raises(ConfigError, match=r"^lr must be a real number, got '0\.1'$"):
        quick_config(lr="0.1")
    for prior, message in (
        ((0.5, 0.5, "x"), "prior entries must be numbers: "),
        (("0.5", "0.5"), "prior entries must be numbers: "),
        ((0.5, 0.6), "prior sums to 1.1, expected 1"),
    ):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            quick_config(prior=prior)
    assert quick_config(prior=[np.float64(0.7), 0.3]).prior == (0.7, 0.3)
    assert quick_config(prior=(0.5, 0.3, 0.2)).prior == (0.5, 0.3, 0.2)
    with pytest.raises(ConfigError, match=r"^timing must be a bool, got 'no'$"):
        quick_config(timing="no")


def test_learning_rate_schedule_exact():
    cfg = TrainConfig(LossCombo.parse("ss"), epochs=100)
    for epoch in (0, 29, 30, 59, 60, 90):
        assert cfg.lr_at(epoch) == 0.001 * 0.6 ** (epoch // 30)


def pair_with_source_labels(labels):
    """A pair whose source split has these labels; the target splits are the source's rows."""
    src = Dataset(np.zeros((len(labels), 2)), np.array(labels), 2, "s")
    return DomainPair(src, Dataset(src.features, None, 2, "t"), src)


def test_target_prior_pass_through_and_empirical():
    balanced = pair_with_source_labels([0, 1, 0, 1])
    target_prior = RunState.build(quick_config(prior=(0.7, 0.3)), balanced).priors["target"]
    assert np.allclose(target_prior, [0.7, 0.3], atol=1e-15)
    assert np.array_equal(RunState.build(quick_config(), balanced).priors["target"], [0.5, 0.5])
    skewed = pair_with_source_labels([0, 0, 0, 1])
    assert np.array_equal(RunState.build(quick_config(), skewed).priors["target"], [0.75, 0.25])


def test_target_prior_rejects_wrong_length():
    with pytest.raises(ContractViolation):
        RunState.build(quick_config(prior=(0.5, 0.3, 0.2)), pair_with_source_labels([0, 1, 0, 1]))


def fake_shapes(run):
    """fake batch -> the shape of its rows in one step's run.draw_fakes(), in the order drawn."""
    return {b: rows.shape for b, rows in run.draw_fakes().items()}


def test_run_state_builds_generator_only_when_needed():
    pair = tiny_pair()
    gaussian = RunState.build(quick_config("ss,tu,ta"), pair)
    assert gaussian.arch.generator == ()
    assert gaussian.reads == {"source", "target", "fake_target"}
    assert fake_shapes(gaussian) == {"fake_target": (16, pair.dim)}  # a step makes rows of the feature width
    gen_cfg = quick_config("ss,ta", fake=FakeSourceConfig(mode="generator"))
    run = RunState.build(gen_cfg, pair)
    # 32-d noise through ReLU layers of widths 64, 64 to the feature width
    assert [shape for _, shape, _ in _layers(run.arch)[1]] == [(32, 64), (64, 64), (64, pair.dim)]
    # the generator's MMD step reads the target batch, though no term does
    assert run.reads == {"source", "fake_target", "target"}
    # generator noise is its stream's 32-d normals as drawn, not gaussian rows
    noise = run.draw_fakes()
    assert list(noise) == ["fake_target"]
    assert noise["fake_target"].tobytes() == Rng(gen_cfg.seed, STREAM_FAKE_TARGET).normal_matrix(16, 32).tobytes()
    # the MMD step forwards fake_target rows, though only sa reads fake rows
    sa_only = RunState.build(quick_config("ss,sa", fake=FakeSourceConfig(mode="generator")), pair)
    assert sa_only.reads == {"source", "target", "fake_target", "fake_source"}
    assert fake_shapes(sa_only) == {"fake_target": (16, 32), "fake_source": (16, 32)}
    # generator mode without an adversarial term never builds a generator
    no_adv = RunState.build(quick_config("ss,tu", fake=FakeSourceConfig(mode="generator")), pair)
    assert no_adv.arch.generator == ()
    assert no_adv.reads == {"source", "target"}
    assert no_adv.draw_fakes() == {}


def test_run_state_fake_rows_default_to_the_batch_size():
    pair = tiny_pair()
    assert fake_shapes(RunState.build(quick_config("ss,ta"), pair)) == {"fake_target": (16, pair.dim)}
    assert fake_shapes(RunState.build(quick_config("ss,ta", batch_size=5), pair)) == {"fake_target": (5, pair.dim)}


@pytest.mark.parametrize(
    "combo, batches",
    [("ss,tu,su,ta,sa", ("fake_target", "fake_source")), ("ss,sa", ("fake_source",)), ("ss,ta", ("fake_target",))],
)
def test_gaussian_fake_rows_are_the_real_rows_stats_over_their_own_streams_normals(combo, batches):
    # each fake batch draws on its own long-lived stream, step after step,
    # whichever other fake batch the run reads
    pair = tiny_pair()
    cfg = quick_config(combo)
    run = RunState.build(cfg, pair)
    streams = {"fake_target": Rng(cfg.seed, STREAM_FAKE_TARGET), "fake_source": Rng(cfg.seed, STREAM_FAKE_SOURCE)}
    real = {"fake_target": pair.target_train, "fake_source": pair.source}
    for _ in range(2):
        fakes = run.draw_fakes()
        assert tuple(fakes) == batches
        for b, rows in fakes.items():
            normals = streams[b].normal_matrix(cfg.batch_size, pair.dim)
            assert rows.tobytes() == gaussian_fakes(*column_stats(real[b].features, b), normals).tobytes()


@pytest.mark.parametrize(
    "combo, mode, expected",
    [
        ("ss,tu", "generator", False),
        ("ss,ta", "generator", True),
        ("ss,sa", "generator", True),
        ("ss,tu,ta", "gaussian", False),
        ("ss", "generator", False),
    ],
)
def test_uses_generator_only_when_generator_fakes_feed_a_term(combo, mode, expected):
    cfg = quick_config(combo, fake=FakeSourceConfig(mode=mode))
    assert bool(RunState.build(cfg, tiny_pair()).arch.generator) is expected


def test_gaussian_rows_of_the_widest_finite_stats_and_largest_normals_stay_finite(monkeypatch):
    # draw_fakes' bound, why the worker needs no errstate: column_stats passes
    # only a finite std, so |x - mean| < ~1.3e154, and a normal here has
    # |z| <= 8.6, the Box-Muller radius of the smallest uniform, 2^-53
    z = math.sqrt(-2.0 * math.log(2.0**-53))
    monkeypatch.setattr(Rng, "normal_matrix", lambda rng, rows, cols: np.full((rows, cols), z) * (-1.0) ** np.arange(rows)[:, None])
    rows = np.array([[9e153, 8.9e307], [-9e153, 8.9e307]])  # a wide spread; a mean near the float64 max
    source = Dataset(rows, np.array([0, 1]), 2, "s")
    run = RunState.build(quick_config("ss,ta,sa", batch_size=4), DomainPair(source, Dataset(rows, None, 2, "t"), source))
    with np.errstate(all="raise"):
        fakes = run.draw_fakes()
    for rows_made in fakes.values():
        assert np.isfinite(rows_made).all()
        assert rows_made[0, 0] == 9e153 * z and rows_made[:, 1].tolist() == [8.9e307] * 4


def test_fit_zero_epochs_returns_init():
    pair = tiny_pair()
    cfg = quick_config(epochs=0)
    params, metrics = fit(cfg, pair)
    assert metrics == []
    expect = init_params(RunState.build(cfg, pair).arch, Rng(cfg.seed, STREAM_WEIGHT_INIT))
    for name in tensor_names(params.arch):
        assert np.array_equal(params.tensors[name], expect.tensors[name])


def test_fit_same_seed_bit_identical():
    pair = tiny_pair()
    cfg = quick_config("ss,tu,su,ta,sa", epochs=3)
    p1, m1 = fit(cfg, pair)
    p2, m2 = fit(cfg, pair)
    assert m1 == m2
    for name in tensor_names(p1.arch):
        assert np.array_equal(p1.tensors[name], p2.tensors[name])


def test_fit_different_seeds_differ():
    pair = tiny_pair()
    a, _ = fit(quick_config(seed=1), pair)
    b, _ = fit(quick_config(seed=2), pair)
    assert any(
        not np.array_equal(a.tensors[n], b.tensors[n]) for n in tensor_names(a.arch)
    )


def test_metrics_record_schema():
    pair = tiny_pair()
    cfg = quick_config("ss,tu", epochs=2)
    _, metrics = fit(cfg, pair)
    assert len(metrics) == 2
    rec = metrics[0]
    assert sorted(rec) == ["acc", "epoch", "loss", "lr", "seconds"]
    assert sorted(rec["loss"]) == ["gen", "sa", "ss", "su", "ta", "tu"]
    assert rec["loss"]["ss"] is not None
    assert rec["loss"]["tu"] is not None
    assert rec["loss"]["su"] is None
    assert rec["loss"]["gen"] is None
    assert sorted(rec["acc"]) == ["source_train", "target_test"]
    assert rec["seconds"] == 0.0
    assert rec["epoch"] == 0 and metrics[1]["epoch"] == 1


def test_an_oracle_fit_records_its_loss_under_ss_and_its_source_accuracy_on_target_train():
    pair = tiny_pair(skew=(0.8, 0.2))
    params, metrics = fit(quick_config("ss"), oracle_pair(pair))
    assert all(list(rec["loss"]) == ["ss", "tu", "su", "ta", "sa", "gen"] for rec in metrics)
    assert all(rec["loss"]["ss"] is not None for rec in metrics)
    assert metrics[-1]["acc"]["source_train"] == evaluate(params, pair.target_train_labeled(oracle=True)).accuracy
    assert metrics[-1]["acc"]["source_train"] != evaluate(params, pair.source).accuracy


def test_metrics_timing_toggle():
    pair = tiny_pair()
    _, metrics = fit(quick_config("ss", timing=True), pair)
    assert all(rec["seconds"] > 0.0 for rec in metrics)


def test_on_epoch_callback_streams_records():
    pair = tiny_pair()
    seen = []
    _, metrics = fit(quick_config("ss"), pair, on_epoch=seen.append)
    assert seen == metrics


def test_ts_trains_ss_on_target_labels_with_no_flag():
    pair = tiny_pair()
    config, fit_pair = build_train_config(resolve_config({"combo": "ts", "hidden": "8"}), pair)
    assert config.combo == LossCombo(("ss",))
    assert np.array_equal(fit_pair.source.features, pair.target_train.features)
    assert np.array_equal(fit_pair.source.labels, pair.target_train_labeled(oracle=True).labels)
    assert (fit_pair.target_train, fit_pair.target_test) == (pair.target_train, pair.target_test)
    _, metrics = fit(replace(config, epochs=2), fit_pair)
    assert metrics
    unlabeled = DomainPair(pair.source, pair.target_train, pair.target_test)
    with pytest.raises(ContractViolation, match="target-train labels are not available"):
        build_train_config(resolve_config({"combo": "ts"}), unlabeled)


def test_single_target_row_reduces_to_source_only():
    # a one-row target batch has an exactly-zero contradistinguish gradient,
    # so {ss,tu} must walk the same parameter trajectory as {ss}
    pair = tiny_pair(n=30, seed=6)
    one_row = DomainPair(
        pair.source,
        Dataset(pair.target_train.features[:1], None, 2, "one"),
        pair.target_test,
    )
    p1, m1 = fit(quick_config("ss", epochs=3), one_row)
    p2, m2 = fit(quick_config("ss,tu", epochs=3), one_row)
    for name in tensor_names(p1.arch):
        assert np.array_equal(p1.tensors[name], p2.tensors[name])
    # the tu report is still present and equals log prior[pseudo-label]
    assert m2[0]["loss"]["tu"] is not None
    assert m2[0]["loss"]["tu"] <= 0.0
    assert m1[0]["loss"]["tu"] is None


def first_rows(pair, n_target=8):
    """(batches, labels) of a direct step: the first 8 source rows, labeled, and the first n_target target rows."""
    return {"source": pair.source.features[:8], "target": pair.target_train.features[:n_target]}, pair.source.labels[:8]


def test_train_step_zero_lr_keeps_params():
    pair = tiny_pair()
    cfg = quick_config("ss,tu")
    run = RunState.build(cfg, pair)
    arch = run.arch
    params = init_params(arch, Rng(cfg.seed, STREAM_WEIGHT_INIT))
    opt = OptimizerState.for_params(params, theta_names(arch))
    batches, labels = first_rows(pair)
    new, _, _, reports = train_step(params, opt, None, None, batches, labels, run, 0.0)
    assert set(reports) == {"ss", "tu"}
    assert all(np.isfinite(rep.value) for rep in reports.values())
    for name in tensor_names(arch):
        assert np.array_equal(new.tensors[name], params.tensors[name])


def test_train_step_does_not_mutate_inputs():
    pair = tiny_pair()
    cfg = quick_config("ss")
    arch = RunState.build(cfg, pair).arch
    params = init_params(arch, Rng(cfg.seed, STREAM_WEIGHT_INIT))
    before = {n: t.copy() for n, t in params.tensors.items()}
    opt = OptimizerState.for_params(params, theta_names(arch))
    train_step(params, opt, None, None, {"source": pair.source.features[:8]}, pair.source.labels[:8], RunState.build(cfg, pair), 0.01)
    for name, t in before.items():
        assert np.array_equal(params.tensors[name], t)


def test_train_step_leaves_batches_state_and_logit_grads_unchanged(monkeypatch):
    # the step sums its terms' gradients in place; nothing it was handed, and
    # no gradient it handed on, may move
    pair = tiny_pair()
    cfg = quick_config("ss,tu,su,ta,sa")
    run = RunState.build(cfg, pair)
    params = init_params(run.arch, Rng(cfg.seed, STREAM_WEIGHT_INIT))
    opt = OptimizerState.for_params(params, theta_names(run.arch))
    opt_before = ({n: a.copy() for n, a in opt.m.items()}, {n: a.copy() for n, a in opt.v.items()})
    batches, labels = first_rows(pair)
    batches |= run.draw_fakes()
    rows_before = {b: rows.copy() for b, rows in batches.items()}
    passed = []
    real_backward = ctdr.train.backward

    def recording_backward(params, cache, grad, input_grad=True):
        passed.append((grad, grad.copy()))
        return real_backward(params, cache, grad, input_grad)

    monkeypatch.setattr(ctdr.train, "backward", recording_backward)
    train_step(params, opt, None, None, batches, labels, run, 0.01)
    assert len(passed) == 5
    for grad, copy in passed:
        assert np.array_equal(grad, copy)
    assert all(np.array_equal(batches[b], rows) for b, rows in rows_before.items())
    for moments, before in zip((opt.m, opt.v), opt_before):
        assert all(np.array_equal(moments[n], before[n]) for n in before)


def test_train_step_forwards_only_the_batches_its_terms_read(monkeypatch, pool):
    pair = tiny_pair()
    batches, labels = first_rows(pair, n_target=5)
    rows = []
    real_forward = ctdr.train.forward

    def counting_forward(params, features):
        rows.append(len(features))
        return real_forward(params, features)

    # the generator step forwards its fake rows from ctdr.fake
    monkeypatch.setattr(ctdr.train, "forward", counting_forward)
    monkeypatch.setattr(ctdr.fake, "forward", counting_forward)

    def step_rows(cfg):
        run = RunState.build(cfg, pair)
        arch = run.arch
        params = init_params(arch, Rng(cfg.seed, STREAM_WEIGHT_INIT))
        opt = OptimizerState.for_params(params, theta_names(arch))
        opt_phi = OptimizerState.for_params(params, phi_names(arch)) if arch.generator else None
        rows.clear()
        step_batches = batches | run.draw_fakes()
        _, _, _, reports = train_step(params, opt, opt_phi, pool, step_batches, labels, run, 0.01)
        assert set(reports) == set(run.terms) | ({"gen"} if arch.generator else set())
        return list(rows)

    # tu reads the target batch and sa the source fakes; no term reads the source batch
    assert step_rows(quick_config("tu,sa")) == [5, 16]
    # the generator step runs first: it forwards the target batch (which tu
    # reuses) and its fake rows (which ta reuses); then the source batch
    gen = FakeSourceConfig(mode="generator")
    assert step_rows(quick_config("ss,tu,ta", fake=gen)) == [5, 16, 8]
    # with no term reading the target batch, the generator step still forwards it once
    assert step_rows(quick_config("ss,ta", fake=gen)) == [5, 16, 8]


@pytest.mark.parametrize("combo", ["ss,tu", "ss,tu,su", "ss,tu,su,ta,sa"])
def test_terms_of_a_combo_add_with_equal_weight(monkeypatch, combo):
    # the step hands Adam the plain sum of its terms' gradients, each the one
    # that term alone would hand it, added in TERM_TABLE order
    pair = tiny_pair()
    batches, labels = first_rows(pair)
    handed = []
    real_adam = ctdr.train.adam_update

    def recording_adam(params, grads, state, lr):
        handed.append({n: g.copy() for n, g in grads.items()})
        return real_adam(params, grads, state, lr)

    monkeypatch.setattr(ctdr.train, "adam_update", recording_adam)

    def step(terms):
        cfg = quick_config(terms)
        run = RunState.build(cfg, pair)
        params = init_params(run.arch, Rng(cfg.seed, STREAM_WEIGHT_INIT))
        opt = OptimizerState.for_params(params, theta_names(run.arch))
        handed.clear()
        _, _, _, reports = train_step(params, opt, None, None, batches | run.draw_fakes(), labels, run, 0.01)
        return handed[0], reports

    total, reports = step(combo)
    expected = {}
    for term in LossCombo.parse(combo).names:
        grads, alone = step(term)
        assert reports[term].value == alone[term].value
        for name, g in grads.items():
            expected[name] = expected[name] + g if name in expected else g
    assert set(total) == set(expected)
    for name in total:
        assert np.array_equal(total[name], expected[name])


def test_gaussian_adversarial_terms_run():
    pair = tiny_pair()
    cfg = quick_config("ss,tu,su,ta,sa", epochs=2)
    params, metrics = fit(cfg, pair)
    rec = metrics[-1]["loss"]
    for term in ("ss", "tu", "su", "ta", "sa"):
        assert rec[term] is not None and math.isfinite(rec[term])
    assert rec["gen"] is None
    assert phi_names(params.arch) == []


@pytest.mark.parametrize(
    "combo, mode, oracle, draws",
    [
        ("ss,tu,su,ta,sa", "gaussian", False, 6),  # 3 steps an epoch, no draw past the last
        ("ss,tu,su,ta,sa", "generator", False, 6),
        ("ss,sa", "generator", False, 6),  # sa's fake_source noise, and a target batch no term reads
        ("ss", "gaussian", True, 0),  # target-train rows and labels as the source batch, no target batch
    ],
    ids=["gaussian", "generator", "generator_sa", "ts"],
)
def test_fit_equals_direct_steps_that_draw_their_fakes_inline(monkeypatch, combo, mode, oracle, draws, pool):
    # fit makes each step's fake batches one step ahead on a worker thread;
    # the direct steps here take fakes made on the spot, in this thread. The
    # skew gives target-train labels that differ from the source's.
    pair = tiny_pair(skew=(0.8, 0.2))
    if oracle:
        pair = oracle_pair(pair)
    cfg = quick_config(combo, epochs=2, fake=FakeSourceConfig(mode=mode))
    here = threading.get_ident()
    drawn_here = []
    real_draw = RunState.draw_fakes

    def recording_draw(run):
        drawn_here.append(threading.get_ident() == here)
        return real_draw(run)

    monkeypatch.setattr(RunState, "draw_fakes", recording_draw)
    fitted, _ = fit(cfg, pair)
    by_fit = list(drawn_here)
    drawn_here.clear()

    run = RunState.build(cfg, pair)
    params = init_params(run.arch, Rng(cfg.seed, STREAM_WEIGHT_INIT))
    opt = OptimizerState.for_params(params, theta_names(run.arch))
    opt_phi = OptimizerState.for_params(params, phi_names(run.arch)) if run.arch.generator else None
    sup = Batcher(pair.source.n, cfg.batch_size, cfg.seed, STREAM_SOURCE_SHUFFLE)
    tgt = Batcher(pair.target_train.n, cfg.batch_size, cfg.seed, STREAM_TARGET_SHUFFLE) if "target" in run.reads else None
    for epoch in range(cfg.epochs):
        for step in range(max(sup.batches_per_epoch, tgt.batches_per_epoch if tgt else 0)):
            i = sup.take()
            batches = {"source": pair.source.features[i]}
            if tgt:
                batches["target"] = pair.target_train.features[tgt.take()]
            if run.reads & FAKE_BATCHES.keys():
                batches |= run.draw_fakes()
            params, opt, opt_phi, _ = train_step(
                params, opt, opt_phi, pool, batches, pair.source.labels[i], run, cfg.lr_at(epoch), epoch, step
            )
    assert by_fit == [False] * draws and drawn_here == [True] * draws
    assert ("target" in run.reads) is not oracle
    assert bool(phi_names(run.arch)) == (mode == "generator")
    for name in tensor_names(run.arch):
        assert params.tensors[name].tobytes() == fitted.tensors[name].tobytes()


def test_fit_leaves_no_thread_behind():
    before = threading.active_count()
    fit(quick_config("ss,tu,su,ta,sa"), tiny_pair())
    assert threading.active_count() == before


def test_nonfinite_loss_mid_run_leaves_no_thread_behind(monkeypatch):
    real_adv = ctdr.train.adv_bce
    calls = []

    def poisoned(probs):
        calls.append(1)
        if len(calls) == 5:  # ta's fifth step: epoch 1, step 1
            return LossReport(float("nan"), np.zeros_like(probs))
        return real_adv(probs)

    monkeypatch.setattr(ctdr.train, "adv_bce", poisoned)
    before = threading.active_count()
    with pytest.raises(NonFiniteLossError) as exc:
        fit(quick_config("ss,tu,ta"), tiny_pair())
    assert (exc.value.term, exc.value.epoch, exc.value.step) == ("ta", 1, 1)
    assert threading.active_count() == before


def test_a_draw_error_comes_out_of_fit_at_the_step_that_takes_its_rows(monkeypatch):
    real_draw = RunState.draw_fakes
    raised = ContractViolation("the third draw fails")
    draws, steps = [], []

    def failing_draw(run):
        draws.append(1)
        if len(draws) == 3:
            raise raised
        return real_draw(run)

    real_step = ctdr.train.train_step

    def counting_step(*args, **kwargs):
        steps.append(1)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(RunState, "draw_fakes", failing_draw)
    monkeypatch.setattr(ctdr.train, "train_step", counting_step)
    before = threading.active_count()
    with pytest.raises(ContractViolation) as exc:
        fit(quick_config("ss,tu,su,ta,sa"), tiny_pair())
    assert exc.value is raised
    assert len(steps) == 2 and len(draws) == 3  # no step takes the failed rows, and no draw follows them
    assert threading.active_count() == before


def test_no_draw_is_in_flight_while_the_epoch_hook_runs(monkeypatch):
    real_draw = RunState.draw_fakes
    in_flight = []

    def slow_draw(run):
        in_flight.append(1)
        time.sleep(0.02)  # far longer than a step here: a draw left running would still run
        try:
            return real_draw(run)
        finally:
            in_flight.pop()

    monkeypatch.setattr(RunState, "draw_fakes", slow_draw)
    seen = []
    fit(quick_config("ss,tu,ta", epochs=3), tiny_pair(), on_epoch=lambda record: seen.append(len(in_flight)))
    assert seen == [0, 0, 0]


def record_draws_and_thread_starts(monkeypatch):
    """(thread ident of each RunState.draw_fakes call, name of each started thread)."""
    draws, started = [], []
    real_draw, real_start = RunState.draw_fakes, threading.Thread.start

    def recording_draw(run):
        draws.append(threading.get_ident())
        return real_draw(run)

    def recording_start(thread):
        started.append(thread.name)
        return real_start(thread)

    monkeypatch.setattr(RunState, "draw_fakes", recording_draw)
    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return draws, started


@pytest.mark.parametrize(
    "combo, mode, epochs",
    [("ss,tu", "gaussian", 2), ("ss,tu,ta", "gaussian", 0), ("ss,tu,ta", "generator", 0)],
    ids=["no-fake-terms", "gaussian-no-steps", "generator-no-steps"],
)
def test_a_fit_with_no_draws_to_make_starts_no_thread(monkeypatch, combo, mode, epochs):
    draws, started = record_draws_and_thread_starts(monkeypatch)
    before = threading.active_count()
    seen = []
    cfg = quick_config(combo, epochs=epochs, fake=FakeSourceConfig(mode=mode))
    fit(cfg, tiny_pair(), on_epoch=lambda record: seen.append(threading.active_count()))
    assert seen == [before] * epochs
    assert draws == [] and started == []


@pytest.mark.parametrize("combo", ["ss,tu,ta", "ss,sa"])
def test_a_generator_fit_starts_one_thread_for_its_draws_and_cross_passes(monkeypatch, combo):
    draws, started = record_draws_and_thread_starts(monkeypatch)
    passes = []  # (arrays passed, thread name) of each distance pass
    real_dists = ctdr.losses._pairwise_sq_dists

    def recording_dists(*arrays):
        passes.append((len(arrays), threading.current_thread().name))
        return real_dists(*arrays)

    monkeypatch.setattr(ctdr.losses, "_pairwise_sq_dists", recording_dists)
    before = threading.active_count()
    fit(quick_config(combo, fake=FakeSourceConfig(mode="generator")), tiny_pair())
    # fit's one worker draws each step's noise and runs each generator step's fake-real pass; 3 steps an epoch
    assert started == ["ctdr-worker_0"]
    assert len(draws) == 6 and threading.get_ident() not in draws
    assert [name for n, name in passes if n == 2] == ["ctdr-worker_0"] * 6
    assert [name for n, name in passes if n == 1] == [threading.current_thread().name] * 12  # both self passes
    assert threading.active_count() == before


def test_a_generator_fit_that_aborts_in_gen_leaves_no_thread_running_and_no_task_pending(monkeypatch, tmp_path):
    submitted = []

    class RecordingPool(ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submitted.append(super().submit(fn, *args, **kwargs))
            return submitted[-1]

    monkeypatch.setattr(ctdr.train, "ThreadPoolExecutor", RecordingPool)
    keys = {
        "data": "two_moons", "n": 40, "noise": 0.1, "epochs": 2, "hidden": 8, "batch": 16, "lr": "1e200",
        "combo": "ss,tu,ta", "fake_mode": "generator", "timing": "false", "out_dir": tmp_path / "out",
    }
    path = tmp_path / "cfg.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    before = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--config", str(path)]) == 3
    last = json.loads((tmp_path / "out" / "metrics.jsonl").read_text().splitlines()[-1])
    assert last["abort"]["term"] == "gen"
    # the first step's draw, then each generator step's cross pass and the next step's draw
    assert len(submitted) > 2 and all(future.done() for future in submitted)
    assert threading.active_count() == before


def test_a_generator_fit_runs_only_its_draws_and_cross_passes_off_the_calling_thread(monkeypatch):
    # perfbench's Tracer keeps one span stack for all threads, so a traced name that ran on the worker would
    # corrupt a traced run. Every ctdr function and method is wrapped; a call off the calling thread may only
    # be a draw, or the MMD's cross pass, or a call that one of those two makes.
    here = threading.get_ident()
    depth = threading.local()
    calls = []  # (qualified name, on the calling thread, outermost wrapped call on its thread)

    def recording(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            level = getattr(depth, "level", 0)
            calls.append((fn.__qualname__, threading.get_ident() == here, level == 0))
            depth.level = level + 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth.level = level

        return call

    modules = [m for name, m in list(sys.modules.items()) if name == "ctdr" or name.startswith("ctdr.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if getattr(value, "__module__", "").startswith("ctdr"):
                if isinstance(value, types.FunctionType):
                    monkeypatch.setattr(module, attr, recording(value))
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    for method, fn in list(vars(value).items()):
                        if isinstance(fn, types.FunctionType) and not method.startswith("__"):
                            monkeypatch.setattr(value, method, recording(fn))
    fit(quick_config("ss,tu,su,ta,sa", fake=FakeSourceConfig(mode="generator")), tiny_pair())
    off = {name for name, on_caller, outermost in calls if not on_caller and outermost}
    assert off == {"RunState.draw_fakes", "_pairwise_sq_dists"}
    here_only = (
        "forward", "backward", "adam_update", "source_ce", "pseudo_label_select", "contradist_loss", "adv_bce",
        "mmd_loss", "median_heuristic_gamma", "gaussian_kernel_matrix",
    )
    for name in here_only:
        on_caller = [here for n, here, _ in calls if n == name]
        assert on_caller and all(on_caller), name


def test_gaussian_fake_rows_are_made_on_the_worker_and_no_thread_outlives_fit(monkeypatch):
    made = []
    real_fakes = ctdr.train.gaussian_fakes

    def recording_fakes(mean, std, z):
        made.append((threading.get_ident(), threading.current_thread().name))
        return real_fakes(mean, std, z)

    monkeypatch.setattr(ctdr.train, "gaussian_fakes", recording_fakes)
    before = threading.active_count()
    fit(quick_config("ss,tu,ta,sa"), tiny_pair())
    # 3 steps an epoch, 2 epochs, a fake_target and a fake_source batch a step
    assert [name for _, name in made] == ["ctdr-worker_0"] * 12
    assert threading.get_ident() not in {ident for ident, _ in made}
    assert threading.active_count() == before


def test_generator_mode_trains_generator():
    pair = tiny_pair()
    cfg = quick_config(
        "ss,tu,ta",
        epochs=2,
        fake=FakeSourceConfig(mode="generator"),
    )
    params, metrics = fit(cfg, pair)
    assert phi_names(params.arch)
    assert metrics[-1]["loss"]["gen"] is not None
    assert math.isfinite(metrics[-1]["loss"]["gen"])
    init = init_params(params.arch, Rng(cfg.seed, STREAM_WEIGHT_INIT))
    moved = [
        n for n in phi_names(params.arch) if not np.array_equal(params.tensors[n], init.tensors[n])
    ]
    assert moved


def test_nonfinite_loss_aborts_with_term_name(monkeypatch):
    pair = tiny_pair()

    def poisoned(probs, labels):
        return LossReport(float("nan"), np.zeros_like(probs))

    monkeypatch.setattr(ctdr.train, "source_ce", poisoned)
    with pytest.raises(NonFiniteLossError) as exc:
        fit(quick_config("ss"), pair)
    assert exc.value.term == "ss"
    assert exc.value.epoch == 0


@pytest.mark.parametrize(
    "batch_size, blamed",
    [
        (16, ("ss", 0, 1, "logits")),  # the second step's forward overflows
        (1000, ("eval", 0, None, "logits")),  # one step per epoch: the epoch-end eval forward overflows first
    ],
)
def test_overflowing_logits_abort_with_the_term_that_forwarded(batch_size, blamed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteLossError) as exc:
            fit(quick_config("ss,tu", lr=1e200, batch_size=batch_size), tiny_pair())
    assert (exc.value.term, exc.value.epoch, exc.value.step, exc.value.what) == blamed


def test_target_test_labels_only_affect_reported_accuracy():
    pair = tiny_pair(n=30, seed=7)
    flipped = DomainPair(
        pair.source,
        Dataset(pair.target_train.features.copy(), None, 2, "t"),
        Dataset(
            pair.target_test.features,
            1 - pair.target_test.labels,
            2,
            "flipped",
        ),
    )
    cfg = quick_config("ss,tu", epochs=3)
    p1, m1 = fit(cfg, pair)
    p2, m2 = fit(cfg, flipped)
    for name in tensor_names(p1.arch):
        assert np.array_equal(p1.tensors[name], p2.tensors[name])
    for r1, r2 in zip(m1, m2):
        assert r1["loss"] == r2["loss"]
        assert r1["acc"]["source_train"] == r2["acc"]["source_train"]
        assert r1["acc"]["target_test"] == pytest.approx(1.0 - r2["acc"]["target_test"])
