"""The benchmark's workloads and the correctness checks run on their outputs.

Every input is a pure function of the workload seed. Program calls go through
`ctdr` module attributes (`data.synth_two_moons`, `train.fit`, ...) so a
traced run sees them. The checks are computed here, apart from the program,
or are properties the method must have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from ctdr import data, evaluation, fake, model, train


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "moons" or "gauss"
    n: int  # rows per split
    config: train.TrainConfig
    min_target_acc: float = 0.0  # floor on final target-test accuracy
    min_source_acc: float = 0.0  # floor on final source-train accuracy
    c06_gain_check: bool = False  # also re-check the c06 adaptation gain, once per run
    gauss_dim: int = 784

    def with_seed(self, seed: int) -> "Workload":
        return replace(self, config=replace(self.config, seed=seed))

    def build_pair(self):
        """The raw domain pair; set-up time covers this and standardize()."""
        seed = self.config.seed
        if self.kind == "moons":
            return data.synth_two_moons(self.n, 35.0, 0.10, seed=seed)
        # cov_scale 0.5 (the target's noise is half the source's) keeps the
        # target accuracy at 2-3x chance with 256 rows per split; at the CLI's
        # 1.5 it sits near chance unless the splits hold thousands of rows,
        # whose set-up alone would take longer than a run.
        return data.synth_gauss_shift(self.n, num_classes=10, dim=self.gauss_dim, mean_shift=1.0, cov_scale=0.5, seed=seed)


def _combo(text):
    return train.LossCombo.parse(text)


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
# The accuracy floors sit well below the lowest value seen over seeds 0-19
# (moons_tu 0.676, moons_gen 0.672, gauss784_ladder 0.188 target / 0.562 source)
# and well above chance (0.5, 0.5, 0.1).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "moons_tu",
            "moons",
            500,
            train.TrainConfig(combo=_combo("ss,tu"), epochs=100, timing=False),
            min_target_acc=0.60,
            c06_gain_check=True,
        ),
        Workload(
            "moons_gen",
            "moons",
            500,
            train.TrainConfig(
                combo=_combo("ss,tu,ta"), epochs=10, timing=False, fake=fake.FakeSourceConfig(mode="generator")
            ),
            min_target_acc=0.60,
        ),
        Workload(
            "gauss784_ladder",
            "gauss",
            256,
            train.TrainConfig(combo=_combo("ss,tu,su,sa,ta"), epochs=8, batch_size=64, timing=False),
            min_target_acc=0.13,
            min_source_acc=0.40,
        ),
    )
}


# --- checks --------------------------------------------------------------------


class CheckFailed(Exception):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def largest_remainder(shares, n: int) -> list[int]:
    """Integer counts summing to n; leftover units go to the largest fractional
    parts, ties to the lower class index. Exact rational arithmetic."""
    raw = [Fraction(s) * n for s in shares]
    counts = [math.floor(r) for r in raw]
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[: n - sum(counts)]:
        counts[i] += 1
    return counts


def check_pair(w: Workload, pair) -> None:
    """Class counts per split and standardization of the training rows."""
    k = pair.num_classes
    expected = largest_remainder([Fraction(1, k)] * k, w.n)
    splits = {
        "source": pair.source.labels,
        "target_train": pair.target_train_labeled(oracle=True).labels,
        "target_test": pair.target_test.labels,
    }
    for split, labels in splits.items():
        got = np.bincount(labels, minlength=k).tolist()
        require(got == expected, f"{split} class counts {got}, largest remainder gives {expected}")
    stacked = np.concatenate([pair.source.features, pair.target_train.features], axis=0)
    mean_err = float(np.abs(stacked.mean(axis=0)).max())
    std_err = float(np.abs(stacked.std(axis=0) - 1.0).max())
    require(mean_err < 1e-9 and std_err < 1e-9, f"standardized features off: |mean| {mean_err:.3g}, |std-1| {std_err:.3g}")


def check_records(records, epochs: int) -> None:
    require(len(records) == epochs, f"{len(records)} epoch records, expected {epochs}")
    for rec in records:
        for term, value in rec["loss"].items():
            require(value is None or math.isfinite(value), f"epoch {rec['epoch']}: loss {term} = {value}")


def numpy_logits(tensors: dict, n_layers: int, x: np.ndarray) -> np.ndarray:
    """ReLU MLP forward written from the checkpoint tensor names alone."""
    a = x
    for i in range(n_layers):
        a = np.maximum(a @ tensors[f"enc{i}.w"] + tensors[f"enc{i}.b"], 0.0)
    return a @ tensors["cls.w"] + tensors["cls.b"]


def check_predictions(params, dataset, record_acc: float) -> float:
    """A numpy forward reproduces evaluate()'s predictions and accuracy.

    Rows whose two largest logits are within 1e-9 may round either way
    through the softmax; they are the only ones allowed to differ.
    """
    logits = numpy_logits(params.tensors, len(params.arch.encoder), dataset.features)
    ours = logits.argmax(axis=1)
    theirs = evaluation.predict(params, dataset.features)
    report = evaluation.evaluate(params, dataset)
    top2 = np.sort(logits, axis=1)[:, -2:]
    near_tie = (top2[:, 1] - top2[:, 0]) <= 1e-9 * np.maximum(1.0, np.abs(top2[:, 1]))
    differ = ours != theirs
    require(not np.any(differ & ~near_tie), f"{int(differ.sum())} predictions differ from a numpy forward pass")
    acc = float(np.mean(ours == dataset.labels))
    slack = float(near_tie.sum()) / dataset.n
    require(abs(acc - report.accuracy) <= slack, f"numpy accuracy {acc} vs evaluate {report.accuracy}")
    require(report.accuracy == record_acc, f"evaluate accuracy {report.accuracy} vs final record {record_acc}")
    return report.accuracy


def check_roundtrip(params, path) -> bytes:
    """save_checkpoint -> load_checkpoint returns every tensor exactly; returns the bytes."""
    model.save_checkpoint(params, path)
    blob = path.read_bytes()
    loaded = model.load_checkpoint(path)
    require(loaded.arch == params.arch, "checkpoint architecture changed in the round trip")
    for name, t in params.tensors.items():
        back = loaded.tensors[name]
        require(back.dtype == t.dtype and back.shape == t.shape and back.tobytes() == t.tobytes(), f"tensor {name} changed in the round trip")
    return blob


def check_accuracy(w: Workload, target_acc: float, source_acc: float) -> None:
    require(target_acc >= w.min_target_acc, f"target accuracy {target_acc:.3f} below {w.min_target_acc}")
    require(source_acc >= w.min_source_acc, f"source accuracy {source_acc:.3f} below {w.min_source_acc}")


C06_MIN_GAIN = 0.10


def check_c06_gain() -> tuple[float, float]:
    """ss+tu beats a source-only fit by C06_MIN_GAIN on the c06 inputs.

    The inputs are c06's fixed ones (data seed 2, training seed 3, raw
    features), not the run's: on most other seeds ss+tu gains nothing over
    ss, so a seeded version of this check would fail for reasons unrelated to
    a change under test. Returns (source-only, ss+tu) target accuracy.
    """
    pair = data.synth_two_moons(500, 35.0, 0.10, seed=2)
    acc = {}
    for combo in ("ss", "ss,tu"):
        _, records = train.fit(train.TrainConfig(combo=_combo(combo), epochs=100, seed=3, timing=False), pair)
        acc[combo] = records[-1]["acc"]["target_test"]
    require(
        acc["ss,tu"] >= acc["ss"] + C06_MIN_GAIN,
        f"c06 inputs: ss+tu target accuracy {acc['ss,tu']:.3f} not {C06_MIN_GAIN} above source-only {acc['ss']:.3f}",
    )
    return acc["ss"], acc["ss,tu"]
