"""Encoder + softmax classifier (and optional fake-sample generator).

Plain MLP stacks over float64 arrays with hand-written backward passes, a
functional parameter container, and a little-endian binary checkpoint format.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError, ConfigError, ContractViolation, NonFiniteLossError
from .numerics import Rng, as_matrix, softmax_rows

ACTIVATIONS = ("relu", "none")


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str = "relu"

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ContractViolation(f"layer dims must be >= 1, got {self.in_dim}x{self.out_dim}")
        if self.activation not in ACTIVATIONS:
            raise ContractViolation(f"unknown activation {self.activation!r}")


def _check_chain(layers, what):
    for a, b in zip(layers, layers[1:]):
        if a.out_dim != b.in_dim:
            raise ContractViolation(f"{what} layers do not chain: {a.out_dim} -> {b.in_dim}")


@dataclass(frozen=True)
class Architecture:
    """Layer shapes for the encoder, the classifier head, and the generator.

    The encoder maps input features to embeddings, the classifier maps
    embeddings to class logits. The generator (optional, empty tuple when
    absent) maps noise to rows in input-feature space.
    """

    encoder: tuple[LayerSpec, ...]
    classifier: LayerSpec
    generator: tuple[LayerSpec, ...] = ()

    def __post_init__(self):
        _check_chain(self.encoder, "encoder")
        if self.encoder and self.encoder[-1].out_dim != self.classifier.in_dim:
            raise ContractViolation("classifier input width must match encoder output")
        if self.classifier.activation != "none":
            raise ContractViolation("classifier layer must have activation 'none'")
        if self.generator:
            _check_chain(self.generator, "generator")
            if self.generator[-1].out_dim != self.feature_dim:
                raise ContractViolation("generator output width must match input feature width")

    @property
    def feature_dim(self) -> int:
        return self.encoder[0].in_dim if self.encoder else self.classifier.in_dim

    @property
    def embedding_dim(self) -> int:
        return self.classifier.in_dim

    @property
    def num_classes(self) -> int:
        return self.classifier.out_dim

    @property
    def noise_dim(self) -> int:
        if not self.generator:
            raise ConfigError("architecture has no generator")
        return self.generator[0].in_dim

    @staticmethod
    def mlp(feature_dim: int, hidden, num_classes: int) -> "Architecture":
        """ReLU MLP encoder with the given hidden widths, affine classifier."""
        widths = [feature_dim, *hidden]
        enc = tuple(LayerSpec(widths[i], widths[i + 1], "relu") for i in range(len(widths) - 1))
        return Architecture(enc, LayerSpec(widths[-1], num_classes, "none"))

    def with_generator(self, noise_dim: int, gen_hidden) -> "Architecture":
        widths = [noise_dim, *gen_hidden]
        gen = [LayerSpec(widths[i], widths[i + 1], "relu") for i in range(len(widths) - 1)]
        gen.append(LayerSpec(widths[-1], self.feature_dim, "none"))
        return Architecture(self.encoder, self.classifier, tuple(gen))


def _layers(arch: Architecture) -> list[tuple[str, LayerSpec]]:
    """(tensor prefix, spec) per layer, in the canonical order: encoder,
    classifier, generator. Layer `p` owns the tensors `p.w` and `p.b`."""
    return [
        *((f"enc{i}", spec) for i, spec in enumerate(arch.encoder)),
        ("cls", arch.classifier),
        *((f"gen{i}", spec) for i, spec in enumerate(arch.generator)),
    ]


def _expected_shapes(arch: Architecture) -> dict[str, tuple]:
    shapes = {}
    for prefix, spec in _layers(arch):
        shapes[f"{prefix}.w"] = (spec.in_dim, spec.out_dim)
        shapes[f"{prefix}.b"] = (spec.out_dim,)
    return shapes


def tensor_names(arch: Architecture) -> list[str]:
    """Canonical tensor order: encoder, classifier, generator."""
    return list(_expected_shapes(arch))


def theta_names(arch: Architecture) -> list[str]:
    """Classifier-path parameters (everything except the generator)."""
    return [n for n in tensor_names(arch) if not n.startswith("gen")]


def phi_names(arch: Architecture) -> list[str]:
    """Generator parameters."""
    return [n for n in tensor_names(arch) if n.startswith("gen")]


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
    for prefix, spec in _layers(arch):
        bound = 1.0 / np.sqrt(spec.in_dim)
        tensors[f"{prefix}.w"] = rng.uniform_matrix(spec.in_dim, spec.out_dim, -bound, bound)
        tensors[f"{prefix}.b"] = np.zeros(spec.out_dim)
    return ParamSet(arch, tensors)


def _stack_forward(params: ParamSet, prefix: str, layers, x: np.ndarray):
    """Returns (pre_list, act_list); act_list[-1] is the stack output."""
    pre, act = [], []
    a = x
    for i, spec in enumerate(layers):
        z = a @ params.tensors[f"{prefix}{i}.w"] + params.tensors[f"{prefix}{i}.b"]
        a = np.maximum(z, 0.0) if spec.activation == "relu" else z
        pre.append(z)
        act.append(a)
    return pre, act


def _stack_backward(params: ParamSet, prefix: str, layers, x, pre, act, d_out):
    """Grads for one stack. Returns (grads dict, grad wrt stack input).

    ReLU uses the 0 subgradient at exactly 0 (strict > mask).
    """
    grads = {}
    d = d_out
    for i in range(len(layers) - 1, -1, -1):
        if layers[i].activation == "relu":
            d = d * (pre[i] > 0.0)
        a_in = act[i - 1] if i > 0 else x
        grads[f"{prefix}{i}.w"] = a_in.T @ d
        grads[f"{prefix}{i}.b"] = d.sum(axis=0)
        d = d @ params.tensors[f"{prefix}{i}.w"].T
    return grads, d


@dataclass
class ForwardCache:
    """Everything forward() computed, kept for backward()."""

    x: np.ndarray
    enc_pre: list = field(default_factory=list)
    enc_act: list = field(default_factory=list)
    embeddings: np.ndarray = None
    logits: np.ndarray = None
    probs: np.ndarray = None


def forward(params: ParamSet, x) -> ForwardCache:
    """Encoder + classifier forward pass on a batch of feature rows.

    Logits that overflowed raise NonFiniteLossError (term "forward").
    """
    x = as_matrix(x, "x")
    if x.shape[1] != params.arch.feature_dim:
        raise ContractViolation(f"forward: input width {x.shape[1]}, model expects {params.arch.feature_dim}")
    pre, act = _stack_forward(params, "enc", params.arch.encoder, x)
    emb = act[-1] if act else x
    logits = emb @ params.tensors["cls.w"] + params.tensors["cls.b"]
    if not np.isfinite(logits).all():
        raise NonFiniteLossError("forward", float(logits[~np.isfinite(logits)][0]), what="logits")
    return ForwardCache(x, pre, act, emb, logits, softmax_rows(logits))


def backward(params: ParamSet, cache: ForwardCache, grad_logits=None, grad_embeddings=None):
    """Backprop loss gradients to all classifier-path tensors.

    Pass grad_logits, grad_embeddings, or both (contributions add at the
    embedding). Returns (grads keyed like theta_names, grad wrt input rows).
    """
    if grad_logits is None and grad_embeddings is None:
        raise ContractViolation("backward: need grad_logits and/or grad_embeddings")
    grads = {}
    if grad_logits is not None:
        gl = as_matrix(grad_logits, "grad_logits")
        if gl.shape != cache.logits.shape:
            raise ContractViolation("backward: grad_logits shape mismatch")
        grads["cls.w"] = cache.embeddings.T @ gl
        grads["cls.b"] = gl.sum(axis=0)
        d = gl @ params.tensors["cls.w"].T
    else:
        grads["cls.w"] = np.zeros_like(params.tensors["cls.w"])
        grads["cls.b"] = np.zeros_like(params.tensors["cls.b"])
        d = np.zeros_like(cache.embeddings)
    if grad_embeddings is not None:
        ge = as_matrix(grad_embeddings, "grad_embeddings")
        if ge.shape != cache.embeddings.shape:
            raise ContractViolation("backward: grad_embeddings shape mismatch")
        d = d + ge
    enc_grads, d_in = _stack_backward(params, "enc", params.arch.encoder, cache.x, cache.enc_pre, cache.enc_act, d)
    grads.update(enc_grads)
    return {n: grads[n] for n in theta_names(params.arch)}, d_in


@dataclass
class GenCache:
    noise: np.ndarray
    pre: list
    act: list

    @property
    def out(self) -> np.ndarray:
        return self.act[-1]


def generator_forward_cache(params: ParamSet, noise) -> GenCache:
    noise = as_matrix(noise, "noise")
    if noise.shape[1] != params.arch.noise_dim:
        raise ContractViolation(f"generator: noise width {noise.shape[1]}, expects {params.arch.noise_dim}")
    pre, act = _stack_forward(params, "gen", params.arch.generator, noise)
    return GenCache(noise, pre, act)


def generator_forward(params: ParamSet, noise) -> np.ndarray:
    """Map noise rows to fake rows in input-feature space."""
    return generator_forward_cache(params, noise).out


def generator_backward(params: ParamSet, cache: GenCache, grad_out):
    """Grads of the generator tensors given d(loss)/d(generator output)."""
    go = as_matrix(grad_out, "grad_out")
    if go.shape != cache.out.shape:
        raise ContractViolation("generator_backward: grad shape mismatch")
    grads, _ = _stack_backward(params, "gen", params.arch.generator, cache.noise, cache.pre, cache.act, go)
    return {n: grads[n] for n in phi_names(params.arch)}


# --- checkpoint format -------------------------------------------------------
#
# magic "CTDR" | u16 version | u16 n_enc | per layer: u32 in, u32 out, u8 act
# | classifier: u32 in, u32 out, u8 act | u16 n_gen | gen layers likewise
# | u32 n_tensors | per tensor: u16 name_len, name utf-8, u8 ndim, u32 dims...,
#   float64 little-endian payload.

CHECKPOINT_MAGIC = b"CTDR"
CHECKPOINT_VERSION = 1
_ACT_CODE = {"none": 0, "relu": 1}
_ACT_NAME = {v: k for k, v in _ACT_CODE.items()}


def save_checkpoint(params: ParamSet, path) -> None:
    arch = params.arch
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<H", CHECKPOINT_VERSION)

    def pack_layer(spec):
        return struct.pack("<IIB", spec.in_dim, spec.out_dim, _ACT_CODE[spec.activation])

    out += struct.pack("<H", len(arch.encoder))
    for spec in arch.encoder:
        out += pack_layer(spec)
    out += pack_layer(arch.classifier)
    out += struct.pack("<H", len(arch.generator))
    for spec in arch.generator:
        out += pack_layer(spec)

    names = tensor_names(arch)
    out += struct.pack("<I", len(names))
    for name in names:
        raw = name.encode("utf-8")
        t = params.tensors[name]
        out += struct.pack("<H", len(raw)) + raw
        out += struct.pack("<B", t.ndim)
        for dim in t.shape:
            out += struct.pack("<I", dim)
        out += np.ascontiguousarray(t, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(out))


class _Cursor:
    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.buf):
            raise CheckpointError(f"checkpoint truncated at byte {self.pos} (wanted {n} more)")
        chunk = self.buf[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> ParamSet:
    with open(path, "rb") as fh:
        buf = fh.read()
    cur = _Cursor(buf)
    if cur.take(4) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    (version,) = cur.unpack("<H")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: checkpoint version {version}, this build reads {CHECKPOINT_VERSION}")

    def read_layer():
        in_dim, out_dim, act = cur.unpack("<IIB")
        if act not in _ACT_NAME:
            raise CheckpointError(f"{path}: unknown activation code {act}")
        return LayerSpec(in_dim, out_dim, _ACT_NAME[act])

    (n_enc,) = cur.unpack("<H")
    encoder = tuple(read_layer() for _ in range(n_enc))
    classifier = read_layer()
    (n_gen,) = cur.unpack("<H")
    generator = tuple(read_layer() for _ in range(n_gen))
    try:
        arch = Architecture(encoder, classifier, generator)
    except ContractViolation as exc:
        raise CheckpointError(f"{path}: invalid architecture table: {exc}") from exc

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
        if not np.all(np.isfinite(tensors[name])):
            raise CheckpointError(f"{path}: tensor {name} has non-finite values")
    if cur.pos != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - cur.pos} trailing bytes after payload")
    return ParamSet(arch, tensors)
