"""One benchmark run of one workload: timed rounds, checks, metrics.

A round is two set-ups (build the domain pair, standardize it) and one
`fit`, followed by the correctness checks. Set-up and every epoch of `fit` are timed
as separate short units, each bracketed by the reference kernel (see
hostnorm). Rounds repeat until the run's time is up, and at least twice, so
the repeated-fit checks always have a pair to compare.
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from ctdr import data, train
from ctdr.errors import CtdrError

import spans
import workloads
from hostnorm import HostClock
from workloads import CheckFailed, require

MIN_ROUNDS = 2
# Set-up is one long unit on gauss784_ladder, of which a run holds few; more
# samples per round steady its median.
SETUPS_PER_ROUND = 2
OUT_DIR = Path(".perfbench_out")

END_TO_END = (
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("epoch_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class RunState:
    workload: workloads.Workload
    clock: HostClock
    workdir: Path
    setup_s: list = field(default_factory=list)
    setup_raw_s: list = field(default_factory=list)
    fit_s: list = field(default_factory=list)
    fit_raw_s: list = field(default_factory=list)
    epoch_s: list = field(default_factory=list)
    epoch_raw_s: list = field(default_factory=list)
    pair_digest: str | None = None
    checkpoint: bytes | None = None
    target_acc: float | None = None
    c06_acc: tuple | None = None
    rounds: int = 0


def _digest(pair) -> str:
    h = hashlib.sha256()
    for ds in (pair.source, pair.target_train, pair.target_test):
        h.update(ds.features.tobytes())
        h.update(ds.labels.tobytes() if ds.labels is not None else b"-")
    return h.hexdigest()


def timed_setup(st: RunState):
    st.clock.start()
    pair, _transform = data.standardize(st.workload.build_pair())
    norm, raw = st.clock.stop()
    st.setup_s.append(norm)
    st.setup_raw_s.append(raw)
    return pair


def timed_fit(st: RunState, pair, tracer=None):
    """fit() with each epoch timed as its own unit; the hook runs between units."""
    clock = st.clock
    windows = []

    def on_epoch(_record):
        windows.append(clock.stop())
        clock.start(fresh=False)

    hook = on_epoch
    if tracer is not None:

        def hook(record):
            with tracer.span(spans.BENCH_SPAN):
                on_epoch(record)

    clock.start()
    params, records = train.fit(st.workload.config, pair, on_epoch=hook)
    windows.append(clock.stop())  # the return from fit after the last epoch
    st.fit_s.append(sum(norm for norm, _ in windows))
    st.fit_raw_s.append(sum(raw for _, raw in windows))
    # the first window also holds init_params; the last is the return
    st.epoch_s.extend(norm for norm, _ in windows[1:-1])
    st.epoch_raw_s.extend(raw for _, raw in windows[1:-1])
    return params, records


def run_round(st: RunState, tracer=None) -> None:
    """Set-ups and one fit, then every check; each round does the same work."""
    w = st.workload
    for _ in range(SETUPS_PER_ROUND):
        pair = timed_setup(st)
        digest = _digest(pair)
        st.pair_digest = st.pair_digest or digest
        require(digest == st.pair_digest, "the same seed built different inputs in one run")
    params, records = timed_fit(st, pair, tracer)

    workloads.check_pair(w, pair)
    workloads.check_records(records, w.config.epochs)
    target_acc = workloads.check_predictions(params, pair.target_test, records[-1]["acc"]["target_test"])
    source_acc = workloads.check_predictions(params, pair.source, records[-1]["acc"]["source_train"])
    workloads.check_accuracy(w, target_acc, source_acc)
    st.target_acc = target_acc
    blob = workloads.check_roundtrip(params, st.workdir / "round.ckpt")
    st.checkpoint = st.checkpoint or blob
    require(blob == st.checkpoint, "repeated fits of one (config, seed) gave different checkpoints")
    st.rounds += 1


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def run(w: workloads.Workload, seconds: float, trace: bool, out_dir: Path = OUT_DIR) -> dict:
    """Run one workload; returns the result object printed by run.py."""
    tag = f"{w.name}-seed{w.config.seed}"
    workdir = out_dir / f"{tag}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    st = RunState(w, HostClock(), workdir)
    problems: list[str] = []
    errors: list[str] = []
    attempted = failed = 0
    try:
        if w.c06_gain_check:
            st.c06_acc = workloads.check_c06_gain()
        if trace:
            metrics = _traced(st, seconds, out_dir / f"spans-{tag}.jsonl")
            attempted = st.rounds
        else:
            deadline = time.perf_counter() + seconds
            while attempted < MIN_ROUNDS or time.perf_counter() < deadline:
                attempted += 1
                try:
                    run_round(st)
                except CtdrError as exc:
                    failed += 1
                    errors.append(f"{type(exc).__name__}: {exc}")
            require(st.rounds > 0, f"every round failed: {errors[0] if errors else ''}")
            metrics = _end_to_end(st)
    except CheckFailed as exc:
        problems.append(str(exc))
        metrics = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "errors": sorted(set(errors)),
        "raw": _raw_summary(st),
    }


def _end_to_end(st: RunState) -> dict:
    values = {
        "setup_s": statistics.median(st.setup_s),
        "fit_s": statistics.median(st.fit_s),
        "epoch_s": statistics.median(st.epoch_s),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _raw_summary(st: RunState) -> dict:
    def med(xs):
        return statistics.median(xs) if xs else None

    return {
        "rounds": st.rounds,
        "setup_raw_s": med(st.setup_raw_s),
        "fit_raw_s": med(st.fit_raw_s),
        "epoch_raw_s": med(st.epoch_raw_s),
        "ref_ms": med(st.clock.refs) * 1e3,
        "target_acc": st.target_acc,
        "c06_target_acc_ss_vs_ss_tu": st.c06_acc,
    }


def _traced(st: RunState, seconds: float, spans_path: Path) -> dict:
    """Untraced reference rounds, then traced rounds; per-layer metrics per round."""
    for _ in range(MIN_ROUNDS):
        run_round(st)
    untraced_fit = statistics.median(st.fit_s)
    st.fit_s.clear()

    tracer = spans.Tracer()
    deadline = time.perf_counter() + seconds
    rounds_before = st.rounds
    tracer.install()
    patched = tracer.patched_attributes()
    try:
        while st.rounds == rounds_before or time.perf_counter() < deadline:
            run_round(st, tracer)
    finally:
        tracer.uninstall()
    require(all(getattr(holder, name) is original for holder, name, original in patched), "a wrapper outlived the trace")
    traced_rounds = st.rounds - rounds_before
    tracer.write(spans_path)

    per_round = {f"{layer}_s": v / traced_rounds for layer, v in tracer.self_times(st.clock.scale_at).items()}
    for counter in spans.COUNTERS:
        per_round[counter] = tracer.counts.get(counter, 0) / traced_rounds
    per_round["trace.overhead_s"] = statistics.median(st.fit_s) - untraced_fit
    return {name: {"value": per_round[name], "unit": unit} for name, unit in per_layer_metrics()}


def per_layer_metrics() -> list[tuple[str, str]]:
    out = [(f"{layer}_s", "s") for layer in spans.LAYERS]
    out += [(c, "count") for c in spans.COUNTERS]
    out.append(("trace.overhead_s", "s"))
    return out
