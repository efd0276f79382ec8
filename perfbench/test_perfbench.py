"""Self-tests for the benchmark: python3 -m pytest perfbench -q (from the repository root)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
for p in (HERE, HERE.parent / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import bench  # noqa: E402
import hostnorm  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ctdr import data, model, numerics, train  # noqa: E402


def tiny(name: str) -> workloads.Workload:
    """A seconds-long version of a workload; sizes this small carry no accuracy floor."""
    w = workloads.WORKLOADS[name].with_seed(5)
    gauss = w.kind == "gauss"
    return replace(
        w,
        n=60,
        gauss_dim=64 if gauss else w.gauss_dim,
        config=replace(w.config, epochs=2 if gauss else 3),
        min_target_acc=0.0,
        min_source_acc=0.0,
        c06_gain_check=False,
    )


# --- normalisation ---------------------------------------------------------------


def test_normalise_scales_by_nominal_over_mean_reference():
    assert hostnorm.normalise(2.0, 0.004, 0.004, nominal_s=0.004) == 2.0
    assert hostnorm.normalise(1.0, 0.002, 0.006, nominal_s=0.004) == 1.0
    assert hostnorm.normalise(3.0, 0.008, 0.008, nominal_s=0.004) == 1.5
    assert hostnorm.normalise(1.0, 0.001, 0.001, nominal_s=0.004) == 4.0
    with pytest.raises(ValueError):
        hostnorm.normalise(1.0, 0.0, 0.0)


def test_clock_windows_carry_their_scale():
    clock = hostnorm.HostClock()
    clock.start()
    norm, raw = clock.stop()
    start, end, scale = clock.windows[0]
    assert raw == end - start and raw > 0.0
    assert norm == pytest.approx(raw * scale)
    assert scale == hostnorm.normalise(1.0, clock.refs[-2], clock.refs[-1])
    assert clock.scale_at(start) == scale
    outside = clock.scale_at(end + 1.0)
    assert outside == hostnorm.NOMINAL_REF_S / float(np.median(clock.refs))


# --- checks ----------------------------------------------------------------------


def test_largest_remainder_counts():
    assert workloads.largest_remainder([0.5, 0.5], 500) == [250, 250]
    assert workloads.largest_remainder([1 / 3] * 3, 10) == [4, 3, 3]
    assert workloads.largest_remainder([0.1] * 10, 256) == [26] * 6 + [25] * 4
    assert workloads.largest_remainder([0.8, 0.2], 7) == [6, 1]


def test_numpy_forward_matches_program_logits():
    arch = model.Architecture.mlp(5, (7, 4), 3)
    params = model.init_params(arch, numerics.Rng(1, 1))
    x = np.random.default_rng(0).normal(size=(9, 5))
    ours = workloads.numpy_logits(params.tensors, len(arch.encoder), x)
    assert np.array_equal(ours, model.forward(params, x).logits)


# --- tracing ---------------------------------------------------------------------


def _attribute_snapshot():
    holders = spans._ctdr_modules() + [numerics.Rng, data.Batcher]
    return [(h, name, value) for h in holders for name, value in list(vars(h).items()) if callable(value)]


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    before = _attribute_snapshot()
    result = bench.run(tiny("moons_gen"), 0.0, trace=True, out_dir=tmp_path)
    assert result["correct"], result["problems"]
    assert all(getattr(h, name) is value for h, name, value in before)
    assert (tmp_path / "spans-moons_gen-seed5.jsonl").stat().st_size > 0


def test_install_wraps_every_namespace_that_calls_a_function():
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = {(getattr(h, "__name__", h), name) for h, name, _ in tracer.patched_attributes()}
    finally:
        tracer.uninstall()
    for module in ("ctdr.train", "ctdr.fake", "ctdr.evaluation", "ctdr.model"):
        assert (module, "forward") in wrapped
    assert ("Rng", "normal_matrix") in wrapped and ("Batcher", "take") in wrapped
    assert ("ctdr.train", "adam_update") in wrapped and ("ctdr.optim", "adam_update") in wrapped
    assert not any(name in ("normal", "next_u32") for _, name in wrapped)


def test_tracing_is_read_only(tmp_path):
    w = tiny("gauss784_ladder")
    pair, _ = data.standardize(w.build_pair())
    blobs = []
    for traced in (False, True):
        tracer = spans.Tracer()
        if traced:
            tracer.install()
        try:
            params, _ = train.fit(w.config, pair)
        finally:
            tracer.uninstall()
        path = tmp_path / f"traced{int(traced)}.ckpt"
        model.save_checkpoint(params, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    assert tracer.spans and tracer.counts["model.backward_calls"] > 0


def test_self_time_subtracts_wrapped_children():
    tracer = spans.Tracer()
    with tracer.span("train.fit"):
        with tracer.span("model.forward"):
            pass
    (name, t0, t1, parent), (cname, c0, c1, cparent) = tracer.spans[1], tracer.spans[0]
    assert (name, parent, cname, cparent) == ("model.forward", 0, "train.fit", -1)
    times = tracer.self_times()
    assert times["train.fit"] == pytest.approx((c1 - c0) - (t1 - t0))
    assert times["model.forward"] == pytest.approx(t1 - t0)


# --- smoke runs ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_of_each_workload(name, tmp_path):
    result = bench.run(tiny(name), 0.0, trace=False, out_dir=tmp_path)
    assert result["correct"], result["problems"]
    assert result["attempted"] == bench.MIN_ROUNDS and result["failed"] == 0
    assert [m for m, _ in bench.END_TO_END] == list(result["metrics"])
    assert all(v["value"] > 0.0 for v in result["metrics"].values())


def test_tiny_traced_run_reports_every_per_layer_metric(tmp_path):
    result = bench.run(tiny("gauss784_ladder"), 0.0, trace=True, out_dir=tmp_path)
    assert result["correct"], result["problems"]
    assert [m for m, _ in bench.per_layer_metrics()] == list(result["metrics"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["train.steps"] == 2 * 1 and m["model.backward_calls"] == 5 * m["train.steps"]
    assert m["numerics.normal_draws"] > 0 and m["fake.gaussian_s"] > 0.0


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [m for m, _ in bench.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [m for m, _ in bench.per_layer_metrics()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "moons_tu", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
