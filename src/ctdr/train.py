"""The joint training loop.

One classifier is optimized over any combination of loss terms:

  ss  supervised cross-entropy on the labeled source batch
  tu  prior-enforcing objective on the unlabeled target batch
  su  the same objective re-applied to the source batch treated as unlabeled
      (always with the empirical source prior)
  ta  adversarial push-to-uniform on fake target rows
  sa  adversarial push-to-uniform on fake source rows
  ts  supervised cross-entropy on the target-train labels; a supervised
      reference only, combined with no other term

TERM_TABLE says which batch each term reads, its loss and its prior; a step
walks the table in order, after the generator's MMD step when the network
has a generator. RunState.build is the one place that turns a config and a
pair into a run: the term weights, the MMD bandwidth, the network, the
batches a step reads and the labeled set; a step reads no TrainConfig.
Reductions are sums over the batch; enabled terms add with per-term weights
(default 1). A term with weight 0 is treated as disabled: its code never
runs, so "weight 0" and "flag off" produce bit-identical trajectories.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import Batch, Batcher, Dataset, DomainPair, empirical_prior
from .errors import ConfigError, NonFiniteLossError
from .evaluation import evaluate
from .fake import FakeSourceConfig, FeatureStats, gaussian_fakes, generator_fakes, generator_step
from .losses import contradist_loss, make_prior, pseudo_label_select, source_ce, adv_bce
from .model import Architecture, ParamSet, backward, forward, init_params, theta_names, phi_names
from .numerics import (
    STREAM_FAKE_SOURCE,
    STREAM_FAKE_TARGET,
    STREAM_SOURCE_SHUFFLE,
    STREAM_TARGET_SHUFFLE,
    STREAM_WEIGHT_INIT,
    Rng,
)
from .optim import OptimizerState, adam_update


# The adapters name the loss functions at call time, through this module's
# globals, so patching `ctdr.train.source_ce` (say) reaches every term.
def _supervised(probs, labels, prior):
    return source_ce(probs, labels)


def _contradist(probs, labels, prior):
    return contradist_loss(probs, pseudo_label_select(probs, prior), prior)


def _adversarial(probs, labels, prior):
    return adv_bce(probs)


@dataclass(frozen=True)
class Term:
    batch: str  # "labeled", "target", "fake_target" or "fake_source"
    loss: Callable  # (probs, labels, prior) -> LossReport
    prior: str | None = None  # "target" or "source"


# Table order is the order of TERMS, of a step's gradient sum and of the loss
# record. ts is exclusive, so it runs first or last alike.
TERM_TABLE = {
    "ss": Term("labeled", _supervised),
    "tu": Term("target", _contradist, "target"),
    "su": Term("labeled", _contradist, "source"),
    "ta": Term("fake_target", _adversarial),
    "sa": Term("fake_source", _adversarial),
    "ts": Term("labeled", _supervised),
}
TERMS = tuple(TERM_TABLE)


@dataclass(frozen=True)
class LossCombo:
    names: tuple  # the enabled terms, in TERMS order

    def __post_init__(self):
        if not self.names:
            raise ConfigError("loss combo must enable at least one term")
        if self.names != tuple(t for t in TERMS if t in self.names):
            raise ConfigError(f"loss combo {self.names} must name distinct terms in the order {', '.join(TERMS)}")
        if "ts" in self.names and len(self.names) > 1:
            raise ConfigError("ts is an exclusive baseline; combine it with nothing")

    @classmethod
    def parse(cls, text: str) -> "LossCombo":
        toks = [t.strip() for t in text.replace("+", ",").split(",") if t.strip()]
        for t in toks:
            if t not in TERMS:
                raise ConfigError(f"unknown loss term {t!r}; valid: {', '.join(TERMS)}")
        return cls(tuple(t for t in TERMS if t in toks))

    def __str__(self) -> str:
        return "+".join(self.names)


@dataclass(frozen=True)
class TrainConfig:
    combo: LossCombo = LossCombo(("ss", "tu"))
    epochs: int = 100
    batch_size: int = 128
    lr: float = 0.001
    lr_decay: float = 0.6
    lr_decay_every: int = 30
    seed: int = 0
    prior: tuple | None = None  # None = assume the source prior for the target
    hidden: tuple = (128, 128)
    weights: dict = field(default_factory=dict)  # term -> weight, default 1.0
    fake: FakeSourceConfig = field(default_factory=FakeSourceConfig)
    timing: bool = True

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (0.0 < self.lr < np.inf):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not (0.0 < self.lr_decay <= 1.0):
            raise ConfigError("lr_decay must be in (0, 1]")
        if self.lr_decay_every < 1:
            raise ConfigError("lr_decay_every must be >= 1")
        for term, w in self.weights.items():
            if term not in TERMS:
                raise ConfigError(f"weight for unknown term {term!r}")
            if not (0.0 <= w < np.inf):
                raise ConfigError(f"weight for {term} must be finite and >= 0, got {w}")

    def weight(self, term: str) -> float:
        return float(self.weights.get(term, 1.0))

    def lr_at(self, epoch: int) -> float:
        return self.lr * self.lr_decay ** (epoch // self.lr_decay_every)


def resolve_prior(config: TrainConfig, source: Dataset) -> np.ndarray:
    """Target class prior: the configured vector, else the source's empirical one."""
    if config.prior is not None:
        return make_prior(config.prior, source.num_classes)
    return empirical_prior(source)


@dataclass
class RunState:
    """What every step of a run reads besides params and batches.

    weights: term -> weight for the terms that run (nonzero), in TERM_TABLE order
    gamma: the MMD bandwidth of the generator step (None: median heuristic)
    arch: the network; it has a generator when generator fakes feed ta or sa
    reads: the batches a step reads ("target" too when the generator runs)
    n_f: fake rows per fake batch
    labeled: the labeled training set (source, or target-train under ts)
    priors: prior name -> class prior, for the enabled terms that use one
    fake_stats: fake batch -> FeatureStats its gaussian rows are drawn from
    streams: fake batch -> the long-lived Rng its rows draw on
    """

    weights: dict
    gamma: float | None
    arch: Architecture
    reads: frozenset
    n_f: int
    labeled: Dataset
    priors: dict
    fake_stats: dict
    streams: dict

    @classmethod
    def build(cls, config: TrainConfig, pair: DomainPair) -> "RunState":
        weights = {t: config.weight(t) for t in config.combo.names if config.weight(t) != 0.0}
        if not weights:
            raise ConfigError("no enabled loss terms (all weights zero?)")
        # the one training read of target-train labels; ts in the combo unlocks them
        labeled = pair.target_train_labeled(oracle=True) if "ts" in weights else pair.source
        wanted = {TERM_TABLE[t].prior for t in weights}
        priors = {}
        if "target" in wanted:
            priors["target"] = resolve_prior(config, pair.source)
        if "source" in wanted:
            priors["source"] = empirical_prior(labeled)
        reads = {TERM_TABLE[t].batch for t in weights}
        arch = Architecture.mlp(pair.dim, config.hidden, pair.num_classes)
        fake_stats = {}
        if config.fake.mode == "generator" and reads & {"fake_target", "fake_source"}:
            arch = arch.with_generator(config.fake.noise_dim, config.fake.gen_hidden)
            reads.add("target")  # the generator's MMD step reads the target batch
        else:
            real = {"fake_target": pair.target_train, "fake_source": labeled}
            fake_stats = {b: FeatureStats.from_features(ds.features) for b, ds in real.items() if b in reads}
        streams = {"fake_target": Rng(config.seed, STREAM_FAKE_TARGET), "fake_source": Rng(config.seed, STREAM_FAKE_SOURCE)}
        n_f = config.fake.n_f or config.batch_size
        return cls(weights, config.fake.gamma, arch, frozenset(reads), n_f, labeled, priors, fake_stats, streams)


def _check_finite(term: str, value: float, epoch=None, step=None):
    if not np.isfinite(value):
        raise NonFiniteLossError(term, value, epoch, step)


@contextmanager
def _blame(term: str, epoch=None, step=None):
    """Re-raise a NonFiniteLossError from inside (overflowing logits, Adam
    state) as `term`'s, at this epoch and step."""
    try:
        yield
    except NonFiniteLossError as exc:
        raise NonFiniteLossError(term, exc.value, epoch, step, exc.what) from exc


def train_step(
    params: ParamSet,
    opt_theta: OptimizerState,
    opt_phi: OptimizerState | None,
    sup_batch,
    target_batch,
    run: RunState,
    lr: float,
    epoch=None,
    step=None,
):
    """One optimization step over the enabled terms, in TERM_TABLE order.

    sup_batch is the labeled batch (source, or target-train under ts);
    target_batch is the unlabeled target batch (None when no step reads it).
    Each batch gets one forward, when the first term that reads it comes up.
    When the network has a generator, its one MMD step runs first: it
    forwards the target batch and steps on its embeddings, and the forward
    of its fake rows is the fake_target batch's, which ta reads. The step
    changes only gen* tensors, so every other forward is the same after it.
    Returns (params, opt_theta, opt_phi, reports).
    """
    generator = bool(params.arch.generator)
    reports: dict = {}
    total: dict[str, np.ndarray] = {}
    caches: dict = {}
    if generator:
        with _blame("gen", epoch, step):
            caches["target"] = forward(params, target_batch.features)
            params, opt_phi, reports["gen"], caches["fake_target"] = generator_step(
                params, caches["target"].embeddings, run.n_f, run.gamma, opt_phi, lr, run.streams["fake_target"]
            )
        _check_finite("gen", reports["gen"].value, epoch, step)

    def rows(batch: str) -> np.ndarray:
        if batch == "labeled":
            return sup_batch.features
        if batch == "target":
            return target_batch.features
        if not generator:
            return gaussian_fakes(run.fake_stats[batch], run.n_f, run.streams[batch])
        return generator_fakes(params, run.n_f, run.streams[batch])

    for term, w in run.weights.items():
        spec = TERM_TABLE[term]
        if spec.batch not in caches:
            with _blame(term, epoch, step):
                caches[spec.batch] = forward(params, rows(spec.batch))
        cache = caches[spec.batch]
        labels = sup_batch.labels if spec.batch == "labeled" else None
        rep = spec.loss(cache.probs, labels, run.priors.get(spec.prior))
        _check_finite(term, rep.value, epoch, step)
        g, _ = backward(params, cache, grad_logits=rep.grad_logits)
        for name, gt in g.items():
            total[name] = total[name] + w * gt if name in total else w * gt
        reports[term] = rep

    with _blame("adam", epoch, step):
        params, opt_theta = adam_update(params, total, opt_theta, lr)
    return params, opt_theta, opt_phi, reports


@np.errstate(over="ignore", invalid="ignore")
def fit(config: TrainConfig, pair: DomainPair, on_epoch=None):
    """Run the full loop; returns (params, list of per-epoch metric records).

    Overflow prints no numpy warning here: a non-finite term value, logit
    (in a step or the epoch-end eval) or Adam second moment raises
    NonFiniteLossError with the term, epoch and step.

    Metric records carry epoch, lr, per-term mean batch losses (null when a
    term is disabled; ts only appears when it runs), source-train and
    target-test accuracy, and seconds (0.0 when config.timing is off).
    on_epoch, when given, receives each record as it is produced.
    """
    run = RunState.build(config, pair)
    arch = run.arch
    params = init_params(arch, Rng(config.seed, STREAM_WEIGHT_INIT))
    opt_theta = OptimizerState.for_params(params, theta_names(arch))
    opt_phi = OptimizerState.for_params(params, phi_names(arch)) if arch.generator else None

    sup_batcher = Batcher(run.labeled.n, config.batch_size, config.seed, STREAM_SOURCE_SHUFFLE)
    target_batcher = (
        Batcher(pair.target_train.n, config.batch_size, config.seed, STREAM_TARGET_SHUFFLE)
        if "target" in run.reads
        else None
    )
    steps_per_epoch = max(sup_batcher.batches_per_epoch, target_batcher.batches_per_epoch if target_batcher else 0)

    reported = tuple(run.weights) + (("gen",) if arch.generator else ())
    record_keys = tuple(t for t in TERMS if t != "ts") + ("gen",) + (("ts",) if "ts" in run.weights else ())
    metrics = []
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        lr = config.lr_at(epoch)
        sums = dict.fromkeys(reported, 0.0)
        for step in range(steps_per_epoch):
            sup_batch = _slice(run.labeled, sup_batcher.take())
            target_batch = _slice(pair.target_train, target_batcher.take()) if target_batcher else None
            params, opt_theta, opt_phi, reports = train_step(
                params, opt_theta, opt_phi, sup_batch, target_batch, run, lr, epoch, step
            )
            for t, rep in reports.items():
                sums[t] += rep.value
        with _blame("eval", epoch):
            acc = {
                "source_train": evaluate(params, pair.source).accuracy,
                "target_test": evaluate(params, pair.target_test).accuracy,
            }
        record = {
            "epoch": epoch,
            "lr": lr,
            "loss": {t: (sums[t] / steps_per_epoch if t in sums else None) for t in record_keys},
            "acc": acc,
            "seconds": time.perf_counter() - t0 if config.timing else 0.0,
        }
        metrics.append(record)
        if on_epoch is not None:
            on_epoch(record)
    return params, metrics


def _slice(dataset: Dataset, idx: np.ndarray) -> Batch:
    labels = dataset.labels[idx] if dataset.labels is not None else None
    return Batch(dataset.features[idx], labels)
