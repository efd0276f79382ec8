"""Per-layer tracing of `ctdr`, done from outside the program.

`Tracer.install()` replaces each public function of the traced layers with a
timing wrapper, in every `ctdr` module namespace that holds it (and, for
methods, on the class). Each call becomes a span (layer, start, end, parent)
kept in memory; a layer's self time is its spans' durations minus the parts
covered by wrapped children. `uninstall()` puts every original back.

The per-element `Rng.normal` and `Rng.next_u32` are deliberately not wrapped:
a span per draw would cost more than the draw.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from ctdr import data, evaluation, fake, losses, model, numerics, optim, train


def _one(args, kwargs):
    return 1


# (layer, owner, attribute, counter name or None, count function)
TARGETS = (
    ("numerics.normal_matrix", numerics.Rng, "normal_matrix", "numerics.normal_draws", lambda a, k: a[1] * a[2]),
    ("numerics.uniform_matrix", numerics.Rng, "uniform_matrix", None, None),
    ("numerics.permutation", numerics.Rng, "permutation", None, None),
    ("numerics.kernel", numerics, "gaussian_kernel_matrix", None, None),
    ("data.synth", data, "synth_two_moons", None, None),
    ("data.synth", data, "synth_gauss_shift", None, None),
    ("data.standardize", data, "standardize", None, None),
    ("data.batch", data.Batcher, "take", None, None),
    ("model.init", model, "init_params", None, None),
    ("model.forward", model, "forward", "model.forward_calls", _one),
    ("model.backward", model, "backward", "model.backward_calls", _one),
    ("model.generator", model, "generator_forward_cache", None, None),
    ("model.generator", model, "generator_forward", None, None),
    ("model.generator", model, "generator_backward", None, None),
    ("model.checkpoint", model, "save_checkpoint", None, None),
    ("model.checkpoint", model, "load_checkpoint", None, None),
    ("losses.source_ce", losses, "source_ce", None, None),
    ("losses.pseudo_label", losses, "pseudo_label_select", None, None),
    ("losses.contradist", losses, "contradist_loss", None, None),
    ("losses.adv", losses, "adv_bce", None, None),
    ("losses.mmd", losses, "mmd_loss", None, None),
    ("losses.median_gamma", losses, "median_heuristic_gamma", None, None),
    ("fake.gaussian", fake, "gaussian_fakes", None, None),
    ("fake.generator_step", fake, "generator_step", None, None),
    ("optim.adam", optim, "adam_update", "optim.adam_calls", _one),
    ("evaluation.evaluate", evaluation, "evaluate", "evaluation.evaluate_rows", lambda a, k: a[1].n),
    ("train.step", train, "train_step", "train.steps", _one),
    ("train.fit", train, "fit", None, None),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))
COUNTERS = tuple(dict.fromkeys(c for *_, c, _f in TARGETS if c))
# Span name for the benchmark's own work inside a traced call (the epoch
# hook); it is subtracted from its parent's self time and not reported.
BENCH_SPAN = "perfbench.hook"


def _ctdr_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == "ctdr" or name.startswith("ctdr."))]


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: dict[str, int] = defaultdict(int)
        self._child: list[float] = []
        self._stack: list[int] = []
        self._patched: list = []  # (owner, attribute, original)

    # --- recording -------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._child.append(0.0)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, t0, t1):
        self._stack.pop()
        self.spans[idx] = (name, t0, t1, parent)
        if parent >= 0:
            self._child[parent] += t1 - t0

    @contextmanager
    def span(self, name: str):
        idx, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, name, t0, time.perf_counter())

    def _wrap(self, layer, fn, counter, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter:
                self.counts[counter] += count(args, kwargs)
            idx, parent = self._open()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, parent, layer, t0, time.perf_counter())

        return wrapper

    # --- patching --------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _ctdr_modules()
        for layer, owner, attr, counter, count in TARGETS:
            original = owner.__dict__[attr]
            wrapper = self._wrap(layer, original, counter, count)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [m for m in modules if any(v is original for v in vars(m).values())]
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, name, original))
                        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            holder, name, original = self._patched.pop()
            setattr(holder, name, original)

    def patched_attributes(self) -> list:
        return list(self._patched)

    # --- results ---------------------------------------------------------

    def self_times(self, scale_at=lambda t: 1.0) -> dict[str, float]:
        """Self seconds per layer, each span scaled by scale_at(its start)."""
        out = {layer: 0.0 for layer in LAYERS}
        for idx, (name, t0, t1, _parent) in enumerate(self.spans):
            if name in out:
                out[name] += ((t1 - t0) - self._child[idx]) * scale_at(t0)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps([name, t0, t1, parent]) + "\n")
