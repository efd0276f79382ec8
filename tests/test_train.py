"""Tests for the joint training loop: configuration, term combination, the
learning-rate schedule, and determinism contracts."""

import math
import warnings

import numpy as np
import pytest

from ctdr.data import Batch, Dataset, DomainPair, synth_two_moons
from ctdr.errors import ConfigError, ContractViolation, NonFiniteLossError
from ctdr.fake import FakeSourceConfig, FeatureStats
from ctdr.losses import LossReport
from ctdr.model import init_params, phi_names, tensor_names, theta_names
from ctdr.numerics import Rng, STREAM_WEIGHT_INIT
from ctdr.optim import OptimizerState
from ctdr.train import (
    LossCombo,
    RunState,
    TERMS,
    TrainConfig,
    fit,
    resolve_prior,
    train_step,
)

import ctdr.fake
import ctdr.train


def tiny_pair(n=40, seed=5, skew=None):
    return synth_two_moons(n, 35.0, 0.1, label_skew=skew, seed=seed)


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
    assert str(LossCombo.parse("tu,ss")) == "ss+tu"
    assert LossCombo.parse("ts").names == ("ts",)


def test_loss_combo_rejects_bad_input():
    with pytest.raises(ConfigError):
        LossCombo.parse("")
    with pytest.raises(ConfigError):
        LossCombo.parse("ss,xx")
    with pytest.raises(ConfigError):
        LossCombo.parse("ts,ss")
    # the names field itself must be distinct known terms in TERMS order
    for names in (("tu", "ss"), ("ss", "ss"), ("zz",), ()):
        with pytest.raises(ConfigError):
            LossCombo(names)


def test_term_order_is_stable():
    assert TERMS == ("ss", "tu", "su", "ta", "sa", "ts")
    combo = LossCombo.parse("sa,ss,tu")
    assert combo.names == ("ss", "tu", "sa")


def test_train_config_validation():
    with pytest.raises(ConfigError):
        quick_config(lr=0.0)
    with pytest.raises(ConfigError):
        quick_config(lr_decay=0.0)
    with pytest.raises(ConfigError):
        quick_config(lr_decay=1.5)
    with pytest.raises(ConfigError):
        quick_config(batch_size=0)
    with pytest.raises(ConfigError):
        quick_config(epochs=-1)
    for lr in (math.inf, math.nan):
        with pytest.raises(ConfigError):
            quick_config(lr=lr)
    for w in (math.nan, math.inf, -1.0):
        with pytest.raises(ConfigError):
            quick_config(weights={"tu": w})


def test_learning_rate_schedule_exact():
    cfg = TrainConfig(LossCombo.parse("ss"), epochs=100)
    for epoch in (0, 29, 30, 59, 60, 90):
        assert cfg.lr_at(epoch) == 0.001 * 0.6 ** (epoch // 30)
    fast = quick_config(lr=0.01, lr_decay=0.5, lr_decay_every=2, epochs=5)
    assert [fast.lr_at(e) for e in range(5)] == [0.01, 0.01, 0.005, 0.005, 0.0025]


def test_weights_default_to_one_and_zero_disables():
    pair = tiny_pair()
    cfg = quick_config("ss,tu,ta")
    assert cfg.weight("ss") == 1.0
    assert tuple(RunState.build(cfg, pair).weights) == ("ss", "tu", "ta")
    cfg = quick_config("ss,tu,ta", weights={"ta": 0.0, "tu": 2.0})
    assert tuple(RunState.build(cfg, pair).weights) == ("ss", "tu")
    assert cfg.weight("tu") == 2.0
    # the run plan leaves zero-weight terms out and keeps TERM_TABLE order
    cfg = quick_config("ta,su,tu,ss", weights={"ss": 0.5, "su": 0.0, "ta": 3.0})
    assert list(RunState.build(cfg, pair).weights.items()) == [("ss", 0.5), ("tu", 1.0), ("ta", 3.0)]


def test_resolve_prior_pass_through_and_empirical():
    src_balanced = Dataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]), 2, "s")
    cfg = quick_config(prior=(0.7, 0.3))
    assert np.allclose(resolve_prior(cfg, src_balanced), [0.7, 0.3], atol=1e-15)
    cfg = quick_config()
    assert np.array_equal(resolve_prior(cfg, src_balanced), [0.5, 0.5])
    skewed = Dataset(np.zeros((4, 2)), np.array([0, 0, 0, 1]), 2, "s")
    assert np.array_equal(resolve_prior(cfg, skewed), [0.75, 0.25])


def test_resolve_prior_rejects_wrong_length():
    src = Dataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]), 2, "s")
    cfg = quick_config(prior=(0.5, 0.3, 0.2))
    with pytest.raises(ContractViolation):
        resolve_prior(cfg, src)


def test_run_state_builds_generator_only_when_needed():
    pair = tiny_pair()
    gaussian = RunState.build(quick_config("ss,tu,ta"), pair)
    assert gaussian.arch.generator == ()
    assert gaussian.reads == {"labeled", "target", "fake_target"}
    gen_cfg = quick_config("ss,ta", fake=FakeSourceConfig(mode="generator", noise_dim=4, gen_hidden=(6,)))
    run = RunState.build(gen_cfg, pair)
    assert run.arch.generator
    assert run.arch.noise_dim == 4
    # the generator's MMD step reads the target batch, though no term does
    assert run.reads == {"labeled", "fake_target", "target"}
    assert run.fake_stats == {}
    # generator mode without an adversarial term never builds a generator
    no_adv = RunState.build(quick_config("ss,tu", fake=FakeSourceConfig(mode="generator")), pair)
    assert no_adv.arch.generator == ()
    assert no_adv.reads == {"labeled", "target"}


def test_run_state_fake_rows_default_to_the_batch_size():
    pair = tiny_pair()
    assert RunState.build(quick_config("ss,ta"), pair).n_f == 16
    assert RunState.build(quick_config("ss,ta", fake=FakeSourceConfig(n_f=5)), pair).n_f == 5


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


def test_metrics_report_ts_only_when_enabled():
    pair = tiny_pair()
    _, metrics = fit(quick_config("ts"), pair)
    assert "ts" in metrics[0]["loss"]
    _, metrics = fit(quick_config("ss"), pair)
    assert "ts" not in metrics[0]["loss"]


def test_metrics_timing_toggle():
    pair = tiny_pair()
    _, metrics = fit(quick_config("ss", timing=True), pair)
    assert all(rec["seconds"] > 0.0 for rec in metrics)


def test_on_epoch_callback_streams_records():
    pair = tiny_pair()
    seen = []
    _, metrics = fit(quick_config("ss"), pair, on_epoch=seen.append)
    assert seen == metrics


def test_ts_trains_on_target_labels_with_no_flag():
    pair = tiny_pair()
    run = RunState.build(quick_config("ts"), pair)
    assert np.array_equal(run.labeled.labels, pair.target_train_labeled(oracle=True).labels)
    params, metrics = fit(quick_config("ts"), pair)
    assert metrics
    unlabeled = DomainPair(pair.source, pair.target_train, pair.target_test)
    with pytest.raises(ContractViolation, match="target-train labels are not available"):
        fit(quick_config("ts"), unlabeled)


def test_all_weights_zero_rejected():
    pair = tiny_pair()
    with pytest.raises(ConfigError):
        fit(quick_config("ss", weights={"ss": 0.0}), pair)


def test_zero_weight_term_is_bit_identical_to_flag_off():
    pair = tiny_pair()
    base = quick_config("ss", epochs=3)
    zeroed = quick_config("ss,tu,ta,sa", epochs=3, weights={"tu": 0.0, "ta": 0.0, "sa": 0.0})
    p1, m1 = fit(base, pair)
    p2, m2 = fit(zeroed, pair)
    for name in tensor_names(p1.arch):
        assert np.array_equal(p1.tensors[name], p2.tensors[name])
    assert m1 == m2


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


def test_train_step_zero_lr_keeps_params():
    pair = tiny_pair()
    cfg = quick_config("ss,tu")
    run = RunState.build(cfg, pair)
    arch = run.arch
    params = init_params(arch, Rng(cfg.seed, STREAM_WEIGHT_INIT))
    opt = OptimizerState.for_params(params, theta_names(arch))
    sup = Batch(pair.source.features[:8], pair.source.labels[:8])
    tgt = Batch(pair.target_train.features[:8])
    new, _, _, reports = train_step(params, opt, None, sup, tgt, run, 0.0)
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
    sup = Batch(pair.source.features[:8], pair.source.labels[:8])
    train_step(params, opt, None, sup, None, RunState.build(cfg, pair), 0.01)
    for name, t in before.items():
        assert np.array_equal(params.tensors[name], t)


def test_train_step_forwards_only_the_batches_its_terms_read(monkeypatch):
    pair = tiny_pair()
    sup = Batch(pair.source.features[:8], pair.source.labels[:8])
    tgt = Batch(pair.target_train.features[:5])
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
        _, _, _, reports = train_step(params, opt, opt_phi, sup, tgt, run, 0.01)
        assert set(reports) == set(run.weights) | ({"gen"} if arch.generator else set())
        return list(rows)

    # tu reads the target batch and sa the source fakes; no term reads the labeled batch
    assert step_rows(quick_config("tu,sa")) == [5, 16]
    # the generator step runs first: it forwards the target batch (which tu
    # reuses) and its fake rows (which ta reuses); then the labeled batch
    gen = FakeSourceConfig(mode="generator", n_f=3, noise_dim=4, gen_hidden=(6,))
    assert step_rows(quick_config("ss,tu,ta", fake=gen)) == [5, 3, 8]
    # with no term reading the target batch, the generator step still forwards it once
    assert step_rows(quick_config("ss,ta", fake=gen)) == [5, 3, 8]


def test_gaussian_adversarial_terms_run():
    pair = tiny_pair()
    cfg = quick_config("ss,tu,su,ta,sa", epochs=2)
    params, metrics = fit(cfg, pair)
    rec = metrics[-1]["loss"]
    for term in ("ss", "tu", "su", "ta", "sa"):
        assert rec[term] is not None and math.isfinite(rec[term])
    assert rec["gen"] is None
    assert phi_names(params.arch) == []


def test_generator_mode_trains_generator():
    pair = tiny_pair()
    cfg = quick_config(
        "ss,tu,ta",
        epochs=2,
        fake=FakeSourceConfig(mode="generator", noise_dim=4, gen_hidden=(6,)),
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
        return LossReport(float("nan"), grad_logits=np.zeros_like(probs))

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
