"""Tests for the joint training loop: configuration, term combination, the
learning-rate schedule, and determinism contracts."""

import math
import re
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ctdr.cli import build_train_config, resolve_config
from ctdr.data import Batcher, Dataset, DomainPair, synth_two_moons
from ctdr.errors import ConfigError, ContractViolation, NonFiniteLossError
from ctdr.evaluation import evaluate
from ctdr.fake import FakeSourceConfig
from ctdr.losses import LossReport
from ctdr.model import _layers, init_params, phi_names, tensor_names, theta_names
from ctdr.numerics import Rng, STREAM_SOURCE_SHUFFLE, STREAM_TARGET_SHUFFLE, STREAM_WEIGHT_INIT
from ctdr.optim import OptimizerState
from ctdr.train import (
    LossCombo,
    RunState,
    TERMS,
    TrainConfig,
    fit,
    train_step,
)

import ctdr.fake
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


def test_run_state_builds_generator_only_when_needed():
    pair = tiny_pair()
    gaussian = RunState.build(quick_config("ss,tu,ta"), pair)
    assert gaussian.arch.generator == ()
    assert gaussian.reads == {"source", "target", "fake_target"}
    assert gaussian.widths == {"fake_target": pair.dim}  # a step draws normals of the feature width
    gen_cfg = quick_config("ss,ta", fake=FakeSourceConfig(mode="generator"))
    run = RunState.build(gen_cfg, pair)
    # 32-d noise through ReLU layers of widths 64, 64 to the feature width
    assert [shape for _, shape, _ in _layers(run.arch)[1]] == [(32, 64), (64, 64), (64, pair.dim)]
    # the generator's MMD step reads the target batch, though no term does
    assert run.reads == {"source", "fake_target", "target"}
    assert run.fake_stats == {}
    assert run.widths == {"fake_target": 32}
    # the MMD step forwards fake_target rows, though only sa reads fake rows
    sa_only = RunState.build(quick_config("ss,sa", fake=FakeSourceConfig(mode="generator")), pair)
    assert sa_only.reads == {"source", "target", "fake_target", "fake_source"}
    assert sa_only.widths == {"fake_target": 32, "fake_source": 32}
    # generator mode without an adversarial term never builds a generator
    no_adv = RunState.build(quick_config("ss,tu", fake=FakeSourceConfig(mode="generator")), pair)
    assert no_adv.arch.generator == ()
    assert no_adv.reads == {"source", "target"}
    assert no_adv.widths == {}


def test_run_state_fake_rows_default_to_the_batch_size():
    pair = tiny_pair()
    assert RunState.build(quick_config("ss,ta"), pair).n_f == 16
    assert RunState.build(quick_config("ss,ta", batch_size=5), pair).n_f == 5


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
    new, _, _, reports = train_step(params, opt, None, batches, labels, run, 0.0)
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
    train_step(params, opt, None, {"source": pair.source.features[:8]}, pair.source.labels[:8], RunState.build(cfg, pair), 0.01)
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
    batches |= run.fakes_from(run.draw_noise())
    rows_before = {b: rows.copy() for b, rows in batches.items()}
    passed = []
    real_backward = ctdr.train.backward

    def recording_backward(params, cache, grad, input_grad=True):
        passed.append((grad, grad.copy()))
        return real_backward(params, cache, grad, input_grad)

    monkeypatch.setattr(ctdr.train, "backward", recording_backward)
    train_step(params, opt, None, batches, labels, run, 0.01)
    assert len(passed) == 5
    for grad, copy in passed:
        assert np.array_equal(grad, copy)
    assert all(np.array_equal(batches[b], rows) for b, rows in rows_before.items())
    for moments, before in zip((opt.m, opt.v), opt_before):
        assert all(np.array_equal(moments[n], before[n]) for n in before)


def test_train_step_forwards_only_the_batches_its_terms_read(monkeypatch):
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
        step_batches = batches | run.fakes_from(run.draw_noise())
        _, _, _, reports = train_step(params, opt, opt_phi, step_batches, labels, run, 0.01)
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
        _, _, _, reports = train_step(params, opt, None, batches | run.fakes_from(run.draw_noise()), labels, run, 0.01)
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
def test_fit_equals_direct_steps_that_draw_their_fakes_inline(monkeypatch, combo, mode, oracle, draws):
    # fit draws each step's normals one step ahead on a worker thread; the
    # direct steps here take fakes drawn on the spot, in this thread. The
    # skew gives target-train labels that differ from the source's.
    pair = tiny_pair(skew=(0.8, 0.2))
    if oracle:
        pair = oracle_pair(pair)
    cfg = quick_config(combo, epochs=2, fake=FakeSourceConfig(mode=mode))
    here = threading.get_ident()
    drawn_here = []
    real_draw = RunState.draw_noise

    def recording_draw(run):
        drawn_here.append(threading.get_ident() == here)
        return real_draw(run)

    monkeypatch.setattr(RunState, "draw_noise", recording_draw)
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
            if run.widths:
                batches |= run.fakes_from(run.draw_noise())
            params, opt, opt_phi, _ = train_step(
                params, opt, opt_phi, batches, pair.source.labels[i], run, cfg.lr_at(epoch), epoch, step
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
    real_draw = RunState.draw_noise
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

    monkeypatch.setattr(RunState, "draw_noise", failing_draw)
    monkeypatch.setattr(ctdr.train, "train_step", counting_step)
    before = threading.active_count()
    with pytest.raises(ContractViolation) as exc:
        fit(quick_config("ss,tu,su,ta,sa"), tiny_pair())
    assert exc.value is raised
    assert len(steps) == 2 and len(draws) == 3  # no step takes the failed rows, and no draw follows them
    assert threading.active_count() == before


def test_no_draw_is_in_flight_while_the_epoch_hook_runs(monkeypatch):
    real_draw = RunState.draw_noise
    in_flight = []

    def slow_draw(run):
        in_flight.append(1)
        time.sleep(0.02)  # far longer than a step here: a draw left running would still run
        try:
            return real_draw(run)
        finally:
            in_flight.pop()

    monkeypatch.setattr(RunState, "draw_noise", slow_draw)
    seen = []
    fit(quick_config("ss,tu,ta", epochs=3), tiny_pair(), on_epoch=lambda record: seen.append(len(in_flight)))
    assert seen == [0, 0, 0]


def record_draws_and_thread_starts(monkeypatch):
    """(thread ident of each RunState.draw_noise call, name of each started thread)."""
    draws, started = [], []
    real_draw, real_start = RunState.draw_noise, threading.Thread.start

    def recording_draw(run):
        draws.append(threading.get_ident())
        return real_draw(run)

    def recording_start(thread):
        started.append(thread.name)
        return real_start(thread)

    monkeypatch.setattr(RunState, "draw_noise", recording_draw)
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
def test_generator_noise_is_drawn_on_the_worker_and_no_thread_outlives_fit(monkeypatch, combo):
    draws, started = record_draws_and_thread_starts(monkeypatch)
    before = threading.active_count()
    fit(quick_config(combo, fake=FakeSourceConfig(mode="generator")), tiny_pair())
    # the draw worker starts once; every other thread is mmd_loss's worker, one per generator step
    assert started == ["ctdr-fake-rows_0", *["ctdr-mmd_0"] * 6]
    assert len(draws) == 6 and threading.get_ident() not in draws  # 3 steps an epoch
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
