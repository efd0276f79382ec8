"""Encoder + softmax classifier (and optional fake-sample generator).

An architecture is a tuple of layer widths, so its layers chain. Each network
(classifier path, generator) is one tuple of (tensor prefix, (in, out), relu)
layers from `_layers`, built once per architecture; one forward and one
backward walk over it do all the float64 layer arithmetic. Plus a functional
parameter container and a little-endian binary checkpoint format, the one input
whose layers may not chain.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import CheckpointError, ConfigError, ContractViolation, NonFiniteLossError
from .numerics import Rng, as_matrix, softmax_rows


@dataclass(frozen=True)
class Architecture:
    """A network as its layer widths; each pair of consecutive widths is one layer.

    `widths` is (features, *hidden, classes): ReLU encoder layers to the
    embeddings, then the affine classifier to class logits. `generator` is
    (noise, *gen_hidden), or () for none; its last layer maps to widths[0].
    """

    widths: tuple
    generator: tuple = ()

    def __post_init__(self):
        for key in ("widths", "generator"):  # hashable, so the layer tables can be cached per architecture
            object.__setattr__(self, key, tuple(map(operator.index, getattr(self, key))))
        if len(self.widths) < 2 or min((*self.widths, *self.generator)) < 1:
            raise ContractViolation(f"need >= 2 layer widths, each >= 1: got {self.widths}, generator {self.generator}")
        if max((*self.widths, *self.generator)) >= 2**32:  # checkpoints store layer widths as u32
            raise ContractViolation(f"layer widths must be < 2^32: got {self.widths}, generator {self.generator}")

    @property
    def feature_dim(self) -> int:
        return self.widths[0]

    @property
    def embedding_dim(self) -> int:
        return self.widths[-2]

    @property
    def num_classes(self) -> int:
        return self.widths[-1]

    @property
    def noise_dim(self) -> int:
        if not self.generator:
            raise ConfigError("architecture has no generator")
        return self.generator[0]

    @property
    def encoder(self) -> tuple:
        """(in, out) of each encoder layer."""
        return tuple(zip(self.widths[:-2], self.widths[1:-1]))

    @staticmethod
    def mlp(feature_dim: int, hidden, num_classes: int) -> "Architecture":
        """ReLU MLP encoder with the given hidden widths, affine classifier."""
        return Architecture((feature_dim, *hidden, num_classes))

    def with_generator(self, noise_dim: int, gen_hidden) -> "Architecture":
        return Architecture(self.widths, (noise_dim, *gen_hidden))


@functools.cache
def _layers(arch: Architecture) -> tuple[tuple, tuple]:
    """(tensor prefix, (in, out), relu) per layer, as two walks: the classifier
    path (encoder layers, then the classifier) and the generator. Layer `p` owns
    the tensors `p.w` and `p.b`; the canonical order is path, then generator.
    ReLU follows every layer of a walk except its last, which is affine. Built
    once per architecture; the walks are tuples, so every caller shares them."""

    def walk(prefixes, widths):
        return tuple((p, (a, b), i < len(prefixes) - 1) for i, (p, a, b) in enumerate(zip(prefixes, widths, widths[1:])))

    path = walk([f"enc{i}" for i in range(len(arch.widths) - 2)] + ["cls"], arch.widths)
    return path, walk([f"gen{i}" for i in range(len(arch.generator))], (*arch.generator, arch.widths[0]))


def _names(layers) -> list[str]:
    return [f"{prefix}.{t}" for prefix, _, _ in layers for t in "wb"]


@functools.cache
def _expected_shapes(arch: Architecture) -> MappingProxyType:
    """Tensor name -> shape, in canonical order. Built once per architecture
    and shared, so it is a read-only view."""
    path, gen = _layers(arch)
    return MappingProxyType({f"{p}.{t}": shape if t == "w" else shape[1:] for p, shape, _ in path + gen for t in "wb"})


def tensor_names(arch: Architecture) -> list[str]:
    """Canonical tensor order: encoder, classifier, generator."""
    return list(_expected_shapes(arch))


def theta_names(arch: Architecture) -> list[str]:
    """Classifier-path parameters (everything except the generator)."""
    return _names(_layers(arch)[0])


def phi_names(arch: Architecture) -> list[str]:
    """Generator parameters."""
    return _names(_layers(arch)[1])


@dataclass
class ParamSet:
    """Architecture plus tensors, keyed by canonical names (enc0.w, cls.b, ...)."""

    arch: Architecture
    tensors: dict[str, np.ndarray]

    def __post_init__(self):
        expected = _expected_shapes(self.arch)
        if list(self.tensors) != list(expected):
            raise ContractViolation("tensor names/order do not match architecture")
        for name, t in self.tensors.items():
            if t.shape != expected[name] or t.dtype != np.float64:
                raise ContractViolation(f"tensor {name}: expected float64 {expected[name]}, got {t.dtype} {t.shape}")


def init_params(arch: Architecture, rng: Rng) -> ParamSet:
    """Uniform [-1/sqrt(fan_in), +1/sqrt(fan_in)] weights, zero biases.

    Draw order is the canonical layer order, so theta init does not depend
    on whether a generator is configured.
    """
    tensors: dict[str, np.ndarray] = {}
    path, gen = _layers(arch)
    for prefix, (fan_in, fan_out), _ in path + gen:
        bound = 1.0 / np.sqrt(fan_in)
        tensors[f"{prefix}.w"] = rng.uniform_matrix(fan_in, fan_out, -bound, bound)
        tensors[f"{prefix}.b"] = np.zeros(fan_out)
    return ParamSet(arch, tensors)


@dataclass
class ForwardCache:
    """One walk's record, kept for the backward walk: the (prefix, (in, out), relu)
    layers, the input rows, each layer's output (a ReLU's mask is its output
    > 0), and the softmax probabilities (classifier path only). With no layers,
    a record outputs its input."""

    layers: tuple
    x: np.ndarray
    act: list
    probs: np.ndarray = None

    @property
    def out(self) -> np.ndarray:
        return self.act[-1] if self.act else self.x

    logits = out

    @property
    def encoder(self) -> "ForwardCache":
        """The record of every layer but the last: on the classifier path, its output is the embeddings."""
        return ForwardCache(self.layers[:-1], self.x, self.act[:-1])

    @property
    def embeddings(self) -> np.ndarray:
        return self.encoder.out


def _walk_forward(params: ParamSet, layers, x: np.ndarray, record: bool = True):
    """(output rows of `layers` on `x`, the ForwardCache for a backward walk or
    None). ReLU works in place; without a record, only the current and the
    previous layer's arrays are alive. The values are the same either way."""
    act = []
    a = x
    for prefix, _, relu in layers:
        a = a @ params.tensors[prefix + ".w"]
        a += params.tensors[prefix + ".b"]
        if relu:
            np.maximum(a, 0.0, out=a)
        if record:
            act.append(a)
    return a, (ForwardCache(layers, x, act) if record else None)


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises NonFiniteLossError below, with no numpy warning
def _path_forward(params: ParamSet, x, record: bool):
    x = as_matrix(x, "x")
    if x.shape[1] != params.arch.feature_dim:
        raise ContractViolation(f"forward: input width {x.shape[1]}, model expects {params.arch.feature_dim}")
    logits, cache = _walk_forward(params, _layers(params.arch)[0], x, record)
    if not np.isfinite(logits).all():
        raise NonFiniteLossError("forward", float(logits[~np.isfinite(logits)][0]), what="logits")
    return logits, cache


def forward(params: ParamSet, x) -> ForwardCache:
    """Classifier-path forward pass on a batch of feature rows.

    Logits that overflowed raise NonFiniteLossError (term "forward").
    """
    logits, cache = _path_forward(params, x, record=True)
    cache.probs = softmax_rows(logits)
    return cache


def forward_logits(params: ParamSet, x) -> np.ndarray:
    """forward(params, x).logits, bit for bit, without the record a backward
    pass would need; the same checks and errors."""
    return _path_forward(params, x, record=False)[0]


def backward(params: ParamSet, cache: ForwardCache, grad, input_grad=True):
    """Backprop `grad`, d(loss)/d(cache.out), along the record's own layers: a
    forward record for the logits, its `encoder` for the embeddings, a generator
    record for its rows. Returns (grads of those layers' tensors, in canonical
    order; grad wrt the record's input rows, None without input_grad). ReLU
    passes d where its output is > 0, which is where its input is (NaN too):
    none at exactly 0."""
    d = as_matrix(grad, "grad")
    if d.shape != cache.out.shape:
        raise ContractViolation(f"backward: grad shape {d.shape}, the record's output is {cache.out.shape}")
    grads = {}
    for i in range(len(cache.layers) - 1, -1, -1):
        prefix, _, relu = cache.layers[i]
        if relu:
            d = d * (cache.act[i] > 0.0)
        grads[prefix + ".b"] = d.sum(axis=0)
        grads[prefix + ".w"] = (cache.act[i - 1] if i > 0 else cache.x).T @ d
        d = d @ params.tensors[prefix + ".w"].T if i or input_grad else None
    return dict(reversed(grads.items())), (d if input_grad else None)


def generator_forward_cache(params: ParamSet, noise) -> ForwardCache:
    noise = as_matrix(noise, "noise")
    if noise.shape[1] != params.arch.noise_dim:
        raise ContractViolation(f"generator: noise width {noise.shape[1]}, expects {params.arch.noise_dim}")
    return _walk_forward(params, _layers(params.arch)[1], noise)[1]


def generator_forward(params: ParamSet, noise) -> np.ndarray:
    """Map noise rows to fake rows in input-feature space."""
    return generator_forward_cache(params, noise).out


def generator_backward(params: ParamSet, cache: ForwardCache, grad_out):
    """Grads of the generator tensors given d(loss)/d(generator output)."""
    return backward(params, cache, grad_out, input_grad=False)[0]


# --- checkpoint format -------------------------------------------------------
#
# magic "CTDR" | u16 version | u16 n_enc | per layer: u32 in, u32 out, u8 act
# | classifier: u32 in, u32 out, u8 act | u16 n_gen | gen layers likewise
# (act is 1 for ReLU, 0 for affine, and must match the rule in `_layers`)
# | u32 n_tensors | per tensor: u16 name_len, name utf-8, u8 ndim, u32 dims...,
#   float64 little-endian payload.

CHECKPOINT_MAGIC = b"CTDR"
CHECKPOINT_VERSION = 1


def save_checkpoint(params: ParamSet, path) -> None:
    arch = params.arch
    out = bytearray(CHECKPOINT_MAGIC + struct.pack("<H", CHECKPOINT_VERSION))
    for count, layers in zip((len(arch.encoder), len(arch.generator)), _layers(arch)):
        out += struct.pack("<H", count)
        for _, shape, relu in layers:
            out += struct.pack("<IIB", *shape, relu)

    names = tensor_names(arch)
    out += struct.pack("<I", len(names))
    for name in names:
        raw = name.encode("utf-8")
        t = params.tensors[name]
        out += struct.pack("<H", len(raw)) + raw + struct.pack(f"<B{t.ndim}I", t.ndim, *t.shape)
        out += np.ascontiguousarray(t, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(out))


class _Cursor:
    def __init__(self, buf, path):
        self.buf, self.path = buf, path
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.buf):
            raise CheckpointError(f"{self.path}: checkpoint truncated at byte {self.pos} (wanted {n} more)")
        chunk = self.buf[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> ParamSet:
    """The ParamSet saved at `path`. The architecture's widths are the layer
    table's input widths plus the classifier's output width; each stored layer
    must be the (in, out) those widths make, with the activation byte its place
    needs. Any fault is a CheckpointError naming the file."""
    with open(path, "rb") as fh:
        buf = fh.read()
    cur = _Cursor(buf, path)
    if cur.take(4) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    (version,) = cur.unpack("<H")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: checkpoint version {version}, this build reads {CHECKPOINT_VERSION}")

    (n_enc,) = cur.unpack("<H")
    rows = [cur.unpack("<IIB") for _ in range(n_enc + 1)]
    (n_gen,) = cur.unpack("<H")
    rows += [cur.unpack("<IIB") for _ in range(n_gen)]
    ins = tuple(in_dim for in_dim, _, _ in rows)
    try:
        arch = Architecture((*ins[: n_enc + 1], rows[n_enc][1]), ins[n_enc + 1 :])
    except ContractViolation as exc:
        raise CheckpointError(f"{path}: invalid architecture table: {exc}") from exc
    path_layers, gen_layers = _layers(arch)
    for (prefix, shape, relu), (in_dim, out_dim, act) in zip(path_layers + gen_layers, rows):
        if (in_dim, out_dim) != shape:
            raise CheckpointError(f"{path}: layer {prefix} is {in_dim}x{out_dim}, its neighbours make it {shape[0]}x{shape[1]}")
        if act != relu:
            raise CheckpointError(f"{path}: layer {prefix} has activation byte {act}, its place in the network needs {int(relu)}")

    expected = _expected_shapes(arch)
    order = tensor_names(arch)
    (n_tensors,) = cur.unpack("<I")
    if n_tensors != len(order):
        raise CheckpointError(f"{path}: {n_tensors} tensors listed, architecture needs {len(order)}")
    tensors = {}
    for idx in range(n_tensors):
        (name_len,) = cur.unpack("<H")
        try:
            name = cur.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: tensor {idx} name is not UTF-8") from exc
        if name != order[idx]:
            raise CheckpointError(f"{path}: tensor {idx} is {name!r}, expected {order[idx]!r}")
        (ndim,) = cur.unpack("<B")
        shape = tuple(cur.unpack("<" + "I" * ndim)) if ndim else ()
        if shape != expected[name]:
            raise CheckpointError(f"{path}: tensor {name}: shape {shape}, architecture says {expected[name]}")
        payload = cur.take(8 * math.prod(shape))
        tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
        if not np.isfinite(tensors[name]).all():
            raise CheckpointError(f"{path}: tensor {name} has non-finite values")
    if cur.pos != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - cur.pos} trailing bytes after payload")
    return ParamSet(arch, tensors)
