"""The joint training loop.

One classifier is optimized over any combination of loss terms:

  ss  supervised cross-entropy on the labeled source batch
  tu  prior-enforcing objective on the unlabeled target batch
  su  the same objective re-applied to the source batch treated as unlabeled
      (always with the empirical source prior)
  ta  adversarial push-to-uniform on fake target rows
  sa  adversarial push-to-uniform on fake source rows

TERM_TABLE says which batch each term reads, its loss and its prior; a step
walks the table in order, after the generator's MMD step when the network
has a generator. RunState.build is the one place that turns a config and a
pair into a run: the terms, the network and the batches a step reads; a
step reads no TrainConfig. Reductions are sums over the batch; the terms of
the combo add with equal weight. Training reads the source split's labels
only; the CLI's oracle run is ss on a pair whose source split is target-train.
"""

from __future__ import annotations

import numbers
import operator
import time
from concurrent.futures import Executor, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import Batcher, DomainPair, empirical_prior
from .errors import ConfigError, ContractViolation, NonFiniteLossError, blame
from .evaluation import evaluate
from .fake import FakeSourceConfig, gaussian_fakes, generator_step
from .losses import contradist_loss, make_prior, pseudo_label_select, source_ce, adv_bce
from .model import Architecture, ParamSet, backward, forward, generator_forward, init_params, theta_names, phi_names
from .numerics import (
    STREAM_FAKE_SOURCE,
    STREAM_FAKE_TARGET,
    STREAM_SOURCE_SHUFFLE,
    STREAM_TARGET_SHUFFLE,
    STREAM_WEIGHT_INIT,
    Rng,
    column_stats,
)
from .optim import OptimizerState, adam_update

# The learning rate is multiplied by LR_DECAY every LR_DECAY_EVERY epochs.
LR_DECAY = 0.6
LR_DECAY_EVERY = 30
# A generator maps NOISE_DIM-d noise through ReLU layers of GEN_HIDDEN widths.
NOISE_DIM = 32
GEN_HIDDEN = (64, 64)

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
    batch: str  # "source", "target", "fake_target" or "fake_source"
    loss: Callable  # (probs, labels, prior) -> LossReport
    prior: str | None = None  # "target" or "source"


# Table order is the order of TERMS, of a step's gradient sum and of the loss record.
TERM_TABLE = {
    "ss": Term("source", _supervised),
    "tu": Term("target", _contradist, "target"),
    "su": Term("source", _contradist, "source"),
    "ta": Term("fake_target", _adversarial),
    "sa": Term("fake_source", _adversarial),
}
TERMS = tuple(TERM_TABLE)
# fake batch -> (the stream its normals draw on, the split of the real rows its gaussian rows mimic)
FAKE_BATCHES = {"fake_target": (STREAM_FAKE_TARGET, "target_train"), "fake_source": (STREAM_FAKE_SOURCE, "source")}


@dataclass(frozen=True)
class LossCombo:
    names: tuple  # the enabled terms, in TERMS order

    def __post_init__(self):
        if not self.names:
            raise ConfigError("loss combo must enable at least one term")
        if self.names != tuple(t for t in TERMS if t in self.names):
            raise ConfigError(f"loss combo {self.names} must name distinct terms in the order {', '.join(TERMS)}")

    @classmethod
    def parse(cls, text: str) -> "LossCombo":
        toks = [t.strip() for t in text.replace("+", ",").split(",") if t.strip()]
        for t in toks:
            if t not in TERMS:
                raise ConfigError(f"unknown loss term {t!r}; valid: {', '.join(TERMS)}")
        return cls(tuple(t for t in TERMS if t in toks))


@dataclass(frozen=True)
class TrainConfig:
    combo: LossCombo = LossCombo(("ss", "tu"))
    epochs: int = 100
    batch_size: int = 128
    lr: float = 0.001
    seed: int = 0
    prior: tuple | None = None  # None = assume the source prior for the target
    hidden: tuple = (128, 128)
    fake: FakeSourceConfig = field(default_factory=FakeSourceConfig)
    timing: bool = True

    def __post_init__(self):
        for key in ("epochs", "batch_size", "seed", "hidden"):  # as Architecture does: np.int64 passes, 2.5 fails
            value = getattr(self, key)
            try:
                value = tuple(map(operator.index, value)) if key == "hidden" else operator.index(value)
            except TypeError:
                raise ConfigError(f"{key} must be {'integers' if key == 'hidden' else 'an integer'}, got {value!r}") from None
            object.__setattr__(self, key, value)
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not isinstance(self.lr, numbers.Real):
            raise ConfigError(f"lr must be a real number, got {self.lr!r}")
        if not (0.0 < self.lr < np.inf):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not (0 <= self.seed < 1 << 64):  # Rng reads a seed mod 2^64: two seeds must not give one run
            raise ConfigError(f"seed must be in [0, 2^64), got {self.seed}")
        if self.prior is not None:  # its length is checked against the pair's classes in RunState.build
            try:
                object.__setattr__(self, "prior", tuple(make_prior(self.prior, None, "prior").tolist()))
            except ContractViolation as exc:
                raise ConfigError(str(exc)) from None
        if not isinstance(self.timing, (bool, np.bool_)):
            raise ConfigError(f"timing must be a bool, got {self.timing!r}")

    def lr_at(self, epoch: int) -> float:
        return self.lr * LR_DECAY ** (epoch // LR_DECAY_EVERY)


@dataclass
class RunState:
    """What every step of a run reads besides params, batches and labels.

    terms: the terms that run, in TERM_TABLE order
    arch: the network; it has a generator when generator fakes feed ta or sa
    reads: the batches a step reads (the generator's MMD step forwards "target" and "fake_target")
    priors: prior name -> class prior of the enabled terms; "target" is config.prior, else the source's empirical one
    streams: fake batch the run reads -> (its long-lived Rng, the (batch_size, feature width or NOISE_DIM) of its
      normals, the (mean, std) per column of the real rows its gaussian rows mimic, or None for generator noise)
    """

    terms: tuple
    arch: Architecture
    reads: frozenset
    priors: dict
    streams: dict

    @classmethod
    def build(cls, config: TrainConfig, pair: DomainPair) -> "RunState":
        terms = config.combo.names
        wanted = {TERM_TABLE[t].prior for t in terms}
        priors = {}
        if "target" in wanted:
            priors["target"] = (
                make_prior(config.prior, pair.num_classes) if config.prior is not None else empirical_prior(pair.source)
            )
        if "source" in wanted:
            priors["source"] = empirical_prior(pair.source)
        reads = {TERM_TABLE[t].batch for t in terms}
        arch = Architecture.mlp(pair.dim, config.hidden, pair.num_classes)
        if config.fake.mode == "generator" and reads & FAKE_BATCHES.keys():
            arch = arch.with_generator(NOISE_DIM, GEN_HIDDEN)
            reads |= {"target", "fake_target"}  # the generator's MMD step forwards both
        streams = {}
        for batch, (stream, split) in FAKE_BATCHES.items():
            if batch in reads:
                real = getattr(pair, split)
                stats = None if arch.generator else column_stats(real.features, real.name or batch)
                shape = (config.batch_size, NOISE_DIM if arch.generator else pair.dim)
                streams[batch] = (Rng(config.seed, stream), shape, stats)
        return cls(terms, arch, frozenset(reads), priors, streams)

    def draw_fakes(self) -> dict:
        """One step's fake batches, each of normals on its own stream: gaussian_fakes(mean, std, normals), or
        generator noise as drawn. Nothing else reads streams. The scaling cannot overflow, so no errstate covers
        it: column_stats passes only a finite std, so every |x - mean| < ~1.3e154, and a Box-Muller normal here
        has |z| <= 8.6 (its uniform is at least 2^-53): |z * std| < ~1.2e155 can neither overflow nor move a
        finite mean near the float64 maximum, whose half ulp is ~1e292."""
        fakes = {}
        for batch, (rng, shape, stats) in self.streams.items():
            z = rng.normal_matrix(*shape)
            fakes[batch] = z if stats is None else gaussian_fakes(*stats, z)
        return fakes


def _check_finite(term: str, value: float, epoch=None, step=None):
    if not np.isfinite(value):
        raise NonFiniteLossError(term, value, epoch, step)


def train_step(
    params: ParamSet,
    opt_theta: OptimizerState,
    opt_phi: OptimizerState | None,
    pool: Executor | None,
    batches: dict,
    labels: np.ndarray,
    run: RunState,
    lr: float,
    epoch=None,
    step=None,
):
    """One optimization step over the enabled terms, in TERM_TABLE order.

    batches maps each batch name in run.reads to its rows: "source",
    "target", and the fake batches of this step's run.draw_fakes(). labels
    are the source rows' labels. The step draws nothing.
    Each batch gets one forward, when the first term that reads it comes up;
    generator noise goes through the generator first.
    When the network has a generator, its one MMD step runs first: it
    forwards the target batch and steps on its embeddings, and the forward
    of its fake rows is the fake_target batch's, which ta reads. The step
    changes only gen* tensors, so every other forward is the same after it.
    opt_phi and pool, the executor of the MMD's fake-real distance pass
    (fit's one worker), are read only then: a network with no generator
    may take None for both.
    Returns (params, opt_theta, opt_phi, reports).
    """
    generator = bool(params.arch.generator)
    reports: dict = {}
    total: dict[str, np.ndarray] = {}
    caches: dict = {}
    if generator:
        with blame("gen", epoch, step):
            caches["target"] = forward(params, batches["target"])
            params, opt_phi, reports["gen"], caches["fake_target"] = generator_step(
                params, caches["target"].embeddings, batches["fake_target"], opt_phi, lr, pool
            )
        _check_finite("gen", reports["gen"].value, epoch, step)

    for term in run.terms:
        spec = TERM_TABLE[term]
        if spec.batch not in caches:
            with blame(term, epoch, step):
                rows = batches[spec.batch]
                if generator and spec.batch in FAKE_BATCHES:
                    rows = generator_forward(params, rows)
                caches[spec.batch] = forward(params, rows)
        cache = caches[spec.batch]
        rep = spec.loss(cache.probs, labels if spec.batch == "source" else None, run.priors.get(spec.prior))
        _check_finite(term, rep.value, epoch, step)
        g, _ = backward(params, cache, rep.grad, input_grad=False)
        for name, gt in g.items():  # gt is this backward's own array: add in place
            if name in total:
                total[name] += gt
            else:
                total[name] = gt
        reports[term] = rep

    with blame("adam", epoch, step):
        params, opt_theta = adam_update(params, total, opt_theta, lr)
    return params, opt_theta, opt_phi, reports


@np.errstate(over="ignore", invalid="ignore")
def fit(config: TrainConfig, pair: DomainPair, on_epoch=None):
    """Run the full loop; returns (params, list of per-epoch metric records).

    Overflow prints no numpy warning here: a non-finite term value, logit
    (in a step or the epoch-end eval) or Adam second moment raises
    NonFiniteLossError with the term, epoch and step.

    Metric records carry epoch, lr, per-term mean batch losses (null when a
    term is disabled), source-train and target-test accuracy, and seconds
    (0.0 when config.timing is off).
    on_epoch, when given, receives each record as it is produced.

    A step's batches (see train_step) are rows of pair.source and of
    pair.target_train, and fake batches made one step ahead, with the bytes
    of making them in each step: one run.draw_fakes(), the only reader of
    run.streams, is in flight on a one-worker pool, the run's only worker
    thread. A generator step's mmd_loss runs its fake-real distance pass on
    the same pool, queued behind that draw, and waits for it. The pool starts
    no thread when the run reads no fake batch or has no steps. No draw goes
    past the last step, runs while on_epoch does, or outlives fit; a draw's
    exception is raised, the same object, at the step that takes its rows.
    """
    run = RunState.build(config, pair)
    arch = run.arch
    params = init_params(arch, Rng(config.seed, STREAM_WEIGHT_INIT))
    opt_theta = OptimizerState.for_params(params, theta_names(arch))
    opt_phi = OptimizerState.for_params(params, phi_names(arch)) if arch.generator else None

    sup_batcher = Batcher(pair.source.n, config.batch_size, config.seed, STREAM_SOURCE_SHUFFLE)
    target_batcher = (
        Batcher(pair.target_train.n, config.batch_size, config.seed, STREAM_TARGET_SHUFFLE)
        if "target" in run.reads
        else None
    )
    steps_per_epoch = max(sup_batcher.batches_per_epoch, target_batcher.batches_per_epoch if target_batcher else 0)

    reported = run.terms + (("gen",) if arch.generator else ())
    metrics = []
    steps = config.epochs * steps_per_epoch
    drawn = None  # the Future of the next step's fake batches
    with ThreadPoolExecutor(1, thread_name_prefix="ctdr-worker") as pool:
        if run.reads & FAKE_BATCHES.keys() and steps:
            drawn = pool.submit(run.draw_fakes)
        for epoch in range(config.epochs):
            t0 = time.perf_counter()
            lr = config.lr_at(epoch)
            sums = dict.fromkeys(reported, 0.0)
            for step in range(steps_per_epoch):
                i = sup_batcher.take()
                batches = {"source": pair.source.features[i]}
                if target_batcher:
                    batches["target"] = pair.target_train.features[target_batcher.take()]
                if drawn:
                    batches |= drawn.result()
                steps -= 1
                if drawn and steps:
                    drawn = pool.submit(run.draw_fakes)
                params, opt_theta, opt_phi, reports = train_step(
                    params, opt_theta, opt_phi, pool, batches, pair.source.labels[i], run, lr, epoch, step
                )
                for t, rep in reports.items():
                    sums[t] += rep.value
            with blame("eval", epoch):
                acc = {
                    "source_train": evaluate(params, pair.source).accuracy,
                    "target_test": evaluate(params, pair.target_test).accuracy,
                }
            if drawn is not None:
                wait((drawn,))  # the hook runs with no draw in flight
            record = {
                "epoch": epoch,
                "lr": lr,
                "loss": {t: (sums[t] / steps_per_epoch if t in sums else None) for t in (*TERMS, "gen")},
                "acc": acc,
                "seconds": time.perf_counter() - t0 if config.timing else 0.0,
            }
            metrics.append(record)
            if on_epoch is not None:
                on_epoch(record)
    return params, metrics

