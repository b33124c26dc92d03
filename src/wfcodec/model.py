"""Forward-only energy-flow video autoencoder.

The encoder consumes the level-1 wavelet subband stack of the input video and
injects the level-2/level-3 stacks into the backbone right after each
downsampling stage (channel-remapped to ``c_flow`` channels and concatenated).
The decoder mirrors this: it taps ``c_flow`` channels off the backbone before
each upsampling stage, predicts the level-3 and level-2 subband sets, and
recombines them additively into the low-pass chain::

    s2_hhh = idwt2d(w3_hat) + outflow2_hhh
    s1_hhh = idwt3d(w2_hat) + outflow1_hhh

so low-frequency content travels to and from the latent along a short linear
path. The final video is the inverse 3D transform of the predicted level-1
set.

Every temporal operation in the graph is causal, so encode and decode run
through one chunk executor for any chunk plan with identical results; direct
mode is the plan of a single chunk. See :mod:`wfcodec.causal` for the
caching machinery. Each conv feed runs its GEMMs with the BLAS at one thread
and shares its row tiles out to ``W`` workers (:mod:`wfcodec.blas`), so the
output bits depend on neither thread count.

Inputs require time = 4k + 1 (a first frame plus groups of four), height and
width divisible by 8. The latent then has shape
(latent_channels, (t - 1) / 4 + 1, h / 8, w / 8).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, fields, replace
from typing import ClassVar

import numpy as np

from .causal import (
    ChunkPlan,
    ConvSpec,
    _ConvStream,
    _Prologue,
    _iter_chunks,
    silu,
)
from .errors import FormatError, ParameterError, ShapeError, WeightError
from .tensor import Rng, VideoTensor, read_f32, sha256_hex, write_atomic
from .wavelet import (
    KEYS_2D,
    KEYS_3D,
    Dwt3dStream,
    Idwt3dStream,
    SubbandSet2D,
    SubbandSet3D,
    _analyze_2d,
    _synthesize_2d,
)

PRESET_BASE_CHANNELS = {"wfvae-s": 128, "wfvae-m": 160, "wfvae-l": 192}

LATENT_CHANNEL_CHOICES = (4, 8, 16, 32)

NORM_FRAME_LAYERNORM = "frame_layernorm"
NORM_GROUPNORM = "groupnorm"


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of the forward graph.

    Stage widths grow by one base-channel width per downsampling layer:
    (bc, 2*bc, 3*bc). ``norm`` selects per-frame layer normalization
    (stream-safe, the default) or whole-clip group normalization (the
    documented negative control for chunked inference).
    """

    base_channels: int = 128
    c_flow: int = 128
    latent_channels: int = 4
    input_channels: int = 3
    blocks_per_stage: int = 2
    norm: str = NORM_FRAME_LAYERNORM
    groupnorm_groups: int = 8
    # Not a setting: the norms run at the layer functions' default eps. Kept
    # readable because the benchmark's per-layer replay passes it explicitly.
    eps: ClassVar[float] = 1e-5

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and type(value) is not int:  # also rejects bool
                raise ParameterError(f"{f.name} must be an integer, got {value!r}")
        if self.base_channels < 1 or self.c_flow < 1 or self.input_channels < 1:
            raise ParameterError("channel counts must be >= 1")
        if self.latent_channels not in LATENT_CHANNEL_CHOICES:
            raise ParameterError(
                f"latent_channels must be one of {LATENT_CHANNEL_CHOICES}"
            )
        if self.blocks_per_stage < 1:
            raise ParameterError("blocks_per_stage must be >= 1")
        if self.norm not in (NORM_FRAME_LAYERNORM, NORM_GROUPNORM):
            raise ParameterError(f"unknown norm kind {self.norm!r}")
        if self.groupnorm_groups < 1:
            raise ParameterError("groupnorm_groups must be >= 1")
        if self.c_flow > 2 * self.base_channels:
            raise ParameterError(
                "c_flow cannot exceed twice base_channels (decoder tap width)"
            )
        if self.norm == NORM_GROUPNORM:
            for width in self._normed_widths():
                if width % self.groupnorm_groups:
                    raise ParameterError(
                        f"groupnorm_groups ({self.groupnorm_groups}) must divide "
                        f"every normalized width, including {width}"
                    )

    @property
    def stage_widths(self) -> tuple[int, int, int]:
        bc = self.base_channels
        return (bc, 2 * bc, 3 * bc)

    def _normed_widths(self):
        w0, w1, w2 = self.stage_widths
        return sorted({w0, w1, w2, w1 + self.c_flow, w2 + self.c_flow})

    def latent_time(self, t: int) -> int:
        return (t - 1) // 4 + 1


def preset_config(name: str, latent_channels: int = 4, **overrides) -> ModelConfig:
    """Named configuration; presets differ only in base width."""
    if name not in PRESET_BASE_CHANNELS:
        raise ParameterError(
            f"unknown preset {name!r}; choose from {sorted(PRESET_BASE_CHANNELS)}"
        )
    if "base_channels" in overrides:
        raise ParameterError(
            "a preset sets base_channels; build a ModelConfig to choose it"
        )
    return ModelConfig(
        base_channels=PRESET_BASE_CHANNELS[name],
        latent_channels=latent_channels,
        **overrides,
    )


# ---------------------------------------------------------------------------
# Weight container and its file format.
#
# Weight file ("WFWT", extension .wfwt), little-endian:
#   magic "WFWT", version u32=1, entry count u32, then per entry (sorted by
#   name): name length u16, UTF-8 name, ndim u32, dims u32[ndim], f32 payload.
# ---------------------------------------------------------------------------

_WEIGHT_MAGIC = b"WFWT"
_WEIGHT_VERSION = 1


class WeightStore:
    """Named float32 tensors (rank 1..5) for every graph parameter."""

    def __init__(self, tensors: dict[str, np.ndarray] | None = None):
        self._tensors: dict[str, np.ndarray] = {}
        if tensors:
            for name, arr in tensors.items():
                self.put(name, arr)

    def put(self, name: str, arr) -> None:
        arr = np.ascontiguousarray(np.asarray(arr, dtype=np.float32))
        if not 1 <= arr.ndim <= 5:
            raise ParameterError(f"{name}: rank must be 1..5, got {arr.ndim}")
        self._tensors[name] = arr

    def get(self, name: str) -> np.ndarray:
        try:
            return self._tensors[name]
        except KeyError:
            raise WeightError(f"missing parameter {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._tensors)

    def items(self):
        return ((name, self._tensors[name]) for name in self.names())

    def __len__(self) -> int:
        return len(self._tensors)

    def _serialized(self):
        yield _WEIGHT_MAGIC
        yield struct.pack("<II", _WEIGHT_VERSION, len(self._tensors))
        for name, arr in self.items():
            encoded = name.encode("utf-8")
            yield struct.pack("<H", len(encoded))
            yield encoded
            yield struct.pack("<I", arr.ndim)
            yield struct.pack(f"<{arr.ndim}I", *arr.shape)
            yield arr

    def digest(self) -> str:
        """SHA-256 hex of the ``.wfwt`` file :meth:`save` writes; for a loaded
        store, the hash of its file, as :meth:`load` takes only that layout."""
        return sha256_hex(self._serialized())

    def save(self, path) -> None:
        write_atomic(path, self._serialized())

    @classmethod
    def load(cls, path) -> "WeightStore":
        """Read a ``.wfwt`` file; every tensor is its own aligned array."""
        with open(path, "rb") as fh:
            total = os.fstat(fh.fileno()).st_size
            head = fh.read(12)
            if len(head) < 12 or head[:4] != _WEIGHT_MAGIC:
                raise FormatError(f"{path}: not a weight file")
            version, count = struct.unpack_from("<II", head, 4)
            if version != _WEIGHT_VERSION:
                raise FormatError(f"{path}: unsupported weight version {version}")
            store = cls()
            previous = None
            for _ in range(count):
                try:
                    (name_len,) = struct.unpack("<H", fh.read(2))
                    name = fh.read(name_len).decode("utf-8")
                    (ndim,) = struct.unpack("<I", fh.read(4))
                    if not 1 <= ndim <= 5:
                        raise FormatError(f"{path}: bad rank {ndim} for {name!r}")
                    dims = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
                except struct.error as exc:
                    raise FormatError(f"{path}: truncated entry table") from exc
                except UnicodeDecodeError as exc:
                    raise FormatError(f"{path}: parameter name is not UTF-8") from exc
                # Code point order of str equals byte order of UTF-8.
                if previous is not None and name <= previous:
                    raise FormatError(
                        f"{path}: entry {name!r} does not sort after {previous!r}"
                    )
                previous = name
                store.put(name, read_f32(fh, dims, total, f"{path}: {name!r}"))
            trailing = total - fh.tell()
        if trailing:
            raise FormatError(f"{path}: {trailing} trailing bytes")
        return store

    def validate(self, config: ModelConfig) -> None:
        """Check that exactly the parameters of ``config`` are present."""
        expected = dict(parameter_manifest(config))
        for name, shape in expected.items():
            if name not in self._tensors:
                raise WeightError(f"missing parameter {name!r}")
            actual = self._tensors[name].shape
            if tuple(actual) != tuple(shape):
                raise WeightError(
                    f"parameter {name!r} has shape {actual}, config expects {shape}"
                )
        extras = set(self._tensors) - set(expected)
        if extras:
            raise WeightError(f"unexpected parameters: {sorted(extras)[:4]}")


# ---------------------------------------------------------------------------
# The graph, defined once: the encoder and the decoder as ordered node lists.
# parameter_manifest and the executor both walk them, in the same order.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Node:
    """One graph node: a conv, a residual block, or an energy-flow branch.

    ``kind`` is conv, block, inflow or outflow. ``spec`` is the conv
    geometry of conv and branch nodes. A conv reads its input through the
    nearest upsample ``factors``, or through SiLU of the norm named ``norm``
    (a layer with a gain and a bias over the input channels). ``keys`` are
    the subbands a branch carries; a block runs ``body`` and adds its input,
    through the ``skip`` conv when the width changes.
    """

    kind: str
    name: str = ""
    spec: ConvSpec | None = None
    norm: str = ""
    factors: tuple[int, int, int] = (1, 1, 1)
    keys: tuple[str, ...] = ()
    body: tuple[_Node, ...] = ()
    skip: _Node | None = None


def _conv(
    name: str, cin: int, cout: int, kernel=(3, 3, 3), stride=(1, 1, 1),
    factors=(1, 1, 1), norm: str = "",
) -> _Node:
    pad = ((kernel[1] - 1) // 2, (kernel[2] - 1) // 2)
    spec = ConvSpec(cin, cout, tuple(kernel), tuple(stride), pad)
    return _Node("conv", name, spec, norm, factors)


def _branch(kind: str, name: str, cin: int, cout: int, keys) -> _Node:
    """A 1x1x1 conv between the backbone and a wavelet subband stack."""
    return replace(_conv(name, cin, cout, kernel=(1, 1, 1)), kind=kind, keys=keys)


def _stage(prefix: str, cin: int, cout: int, blocks: int) -> list[_Node]:
    nodes = []
    for i in range(blocks):
        p, c = f"{prefix}.block{i}", cin if i == 0 else cout
        body = (
            _conv(f"{p}.conv1", c, cout, norm=f"{p}.norm1"),
            _conv(f"{p}.conv2", cout, cout, norm=f"{p}.norm2"),
        )
        skip = _conv(f"{p}.skip", c, cout, kernel=(1, 1, 1)) if c != cout else None
        nodes.append(_Node("block", p, body=body, skip=skip))
    return nodes


def _graph(config: ModelConfig) -> tuple[list[_Node], list[_Node]]:
    """The encoder and the decoder, each in execution order."""
    w0, w1, w2 = config.stage_widths
    cf, blocks, chn = config.c_flow, config.blocks_per_stage, config.latent_channels
    stack3d, stack2d = 8 * config.input_channels, 4 * config.input_channels
    encoder = [
        _conv("enc.stem", stack3d, w0),
        *_stage("enc.stage1", w0, w0, blocks),
        _conv("enc.down1", w0, w1, stride=(2, 2, 2)),
        _branch("inflow", "enc.inflow2", stack3d, cf, KEYS_3D),
        *_stage("enc.stage2", w1 + cf, w1, blocks),
        _conv("enc.down2", w1, w2, stride=(1, 2, 2)),
        _branch("inflow", "enc.inflow3", stack2d, cf, KEYS_2D),
        *_stage("enc.stage3", w2 + cf, w2, blocks),
        _conv("enc.head.conv", w2, 2 * chn, norm="enc.head.norm"),
    ]
    decoder = [
        _conv("dec.stem", chn, w2),
        *_stage("dec.stage3", w2, w2, blocks),
        _branch("outflow", "dec.outflow3", cf, stack2d, KEYS_2D),
        _conv("dec.up2", w2, w1, factors=(1, 2, 2)),
        *_stage("dec.stage2", w1, w1, blocks),
        _branch("outflow", "dec.outflow2", cf, stack3d, KEYS_3D),
        _conv("dec.up1", w1, w0, factors=(2, 2, 2)),
        *_stage("dec.stage1", w0, w0, blocks),
        _conv("dec.out.conv", w0, stack3d, norm="dec.out.norm"),
    ]
    return encoder, decoder


def _node_params(node: _Node):
    if node.norm:
        yield f"{node.norm}.gain", (node.spec.in_channels,)
        yield f"{node.norm}.bias", (node.spec.in_channels,)
    if node.spec is not None:
        yield f"{node.name}.weight", node.spec.weight_shape()
        yield f"{node.name}.bias", (node.spec.out_channels,)
    for child in (*node.body, *filter(None, [node.skip])):
        yield from _node_params(child)


def parameter_manifest(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Every graph parameter with its shape, in deterministic graph order."""
    encoder, decoder = _graph(config)
    return [entry for node in encoder + decoder for entry in _node_params(node)]


def init_weights(config: ModelConfig, rng: Rng) -> WeightStore:
    """Deterministic seeded initialization.

    Convolution weights are normal with std 1/sqrt(fan_in); all biases start
    at zero and all normalization gains at one.
    """
    store = WeightStore()
    for name, shape in parameter_manifest(config):
        if name.endswith(".gain"):
            store.put(name, np.ones(shape, dtype=np.float32))
        elif name.endswith(".bias"):
            store.put(name, np.zeros(shape, dtype=np.float32))
        else:
            fan_in = int(np.prod(shape[1:], dtype=np.int64))
            store.put(name, rng.normal(shape, std=1.0 / math.sqrt(fan_in)))
    return store


# ---------------------------------------------------------------------------
# Latent container.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianLatent:
    """Per-element posterior mean and log-variance."""

    mean: VideoTensor
    logvar: VideoTensor

    def __post_init__(self):
        if self.mean.shape != self.logvar.shape:
            raise ShapeError(
                f"mean/logvar shapes differ: {self.mean.shape} vs "
                f"{self.logvar.shape}"
            )

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.mean.shape


def sample_latent(latent: GaussianLatent, rng: Rng) -> VideoTensor:
    """Reparameterized draw z = mean + exp(logvar / 2) * eps."""
    eps = rng.normal(latent.shape)
    z = latent.mean.data + np.exp(latent.logvar.data * np.float32(0.5)) * eps
    return VideoTensor(z)


@dataclass(frozen=True)
class EncodeResult:
    latent: GaussianLatent
    w2: SubbandSet3D
    w3: SubbandSet2D
    latent_chunks: tuple[int, ...]  # latent frames emitted per input chunk


@dataclass(frozen=True)
class DecodeResult:
    video: VideoTensor
    w2_hat: SubbandSet3D
    w3_hat: SubbandSet2D


@dataclass(frozen=True)
class ForwardResult:
    reconstruction: VideoTensor
    latent: GaussianLatent
    w2_hat: SubbandSet3D
    w3_hat: SubbandSet2D
    w2: SubbandSet3D
    w3: SubbandSet2D


# ---------------------------------------------------------------------------
# Execution: one chunk executor for every plan; direct mode is the plan with
# a single chunk. The encoder and the decoder are each one ordered list of
# executor nodes, built straight from the graph's _Nodes: every node is an
# object with feed(frames, final), and _feed_streams runs a chunk through a
# list of them. Keeping the whole backbone in one list means only the
# executor holds an activation, so each is freed as soon as the next node has
# consumed it; that keeps peak memory at that of a hand-written whole-clip pass.
# ---------------------------------------------------------------------------


def _feed_streams(streams, frames: np.ndarray, final: bool) -> np.ndarray:
    """Feed one chunk through a chain of executor nodes, in order."""
    for stream in streams:
        frames = stream.feed(frames, final)
    return frames


def _stream(node: _Node, config: ModelConfig, weights: WeightStore):
    """The executor node of one graph node."""
    if node.kind == "block":
        body = [_stream(child, config, weights) for child in node.body]
        skip = _stream(node.skip, config, weights) if node.skip else None
        return _Block(body, skip, whole_chunk=config.norm == NORM_GROUPNORM)
    prologue = None
    if node.norm:
        # Group norm, the negative control, takes its statistics over the chunk.
        groups = config.groupnorm_groups if config.norm == NORM_GROUPNORM else 0
        prologue = _Prologue(
            weights.get(f"{node.norm}.gain"), weights.get(f"{node.norm}.bias"), groups
        )
    elif node.kind == "outflow":
        prologue = _Prologue()  # SiLU alone
    conv = _ConvStream(
        node.spec, weights.get(f"{node.name}.weight"),
        weights.get(f"{node.name}.bias"), node.factors, prologue,
    )
    if node.kind == "inflow":
        return _Inflow(node, conv)
    if node.kind == "outflow":
        return _Outflow(node, conv)
    return conv


class _Block:
    """Residual block: skip(x) + body(x), skip being the identity or a conv.

    The body runs one frame at a time. Slice k of the chunk goes through the
    body convs, whose caches carry the frames before it; every body conv has
    time stride 1, so the body emits exactly frame k, and the block adds that
    one frame into frame k of the skip buffer. The body's intermediate
    activation is never held for the whole chunk, and the sum is never a
    separate array. With the identity skip that buffer is the block input
    itself, which every graph node produces fresh and reads no more: frame k
    of it has been read, and cached where a later window needs it, before the
    sum lands there.

    Group norm, the negative control, takes its statistics over the chunk, so
    with ``whole_chunk`` the body is fed the chunk as one slice, and its
    whole output is held before the add.
    """

    def __init__(self, body: list, skip: _ConvStream | None, whole_chunk: bool):
        self.body = body
        self.skip = skip
        self.whole_chunk = whole_chunk

    def feed(self, frames: np.ndarray, final: bool) -> np.ndarray:
        skip = self.skip.feed(frames, final) if self.skip else frames
        n = frames.shape[1]
        step = max(n, 1) if self.whole_chunk else 1
        # A chunk of no frames still makes one feed, so final reaches every cache.
        for k in range(0, max(n, 1), step):
            last = final and k + step >= n
            skip[:, k : k + step] += _feed_streams(
                self.body, frames[:, k : k + step], last
            )
        return skip


def _split_bands(stack: np.ndarray, keys) -> dict[str, np.ndarray]:
    c = stack.shape[0] // len(keys)
    return {key: stack[i * c : (i + 1) * c] for i, key in enumerate(keys)}


class _Branch:
    """Energy-flow branch: a 1x1x1 conv between the backbone and the subband
    stack ``node.keys``; ``bands`` holds the current chunk's subbands."""

    def __init__(self, node: _Node, conv: _ConvStream):
        self.node = node
        self.conv = conv
        self.bands: dict[str, np.ndarray] = {}


class _Inflow(_Branch):
    """concat(x, act(conv(bands))); the encoder sets ``bands`` per chunk."""

    def feed(self, x: np.ndarray, final: bool) -> np.ndarray:
        stack = np.concatenate([self.bands[k] for k in self.node.keys], axis=0)
        flow = silu(self.conv.feed(stack, final))
        if x.shape[1] != flow.shape[1]:
            raise ShapeError(
                f"backbone/wavelet rate mismatch at {self.node.name}: "
                f"{x.shape[1]} vs {flow.shape[1]} frames"
            )
        return np.concatenate([x, flow], axis=0)


class _Outflow(_Branch):
    """Passes x through; predicts ``bands`` as conv(act(x[:c_flow])), the
    conv's prologue being the act."""

    def feed(self, x: np.ndarray, final: bool) -> np.ndarray:
        out = self.conv.feed(x[: self.node.spec.in_channels], final)
        self.bands = _split_bands(out, self.node.keys)
        return x


class _EncoderStream:
    """Chunk-by-chunk encoder; emissions align across branches at every rate."""

    def __init__(self, config: ModelConfig, weights: WeightStore):
        encoder, _ = _graph(config)
        self.chain = [_stream(node, config, weights) for node in encoder]
        self.inflow2, self.inflow3 = (s for s in self.chain if isinstance(s, _Inflow))
        self.latent_channels = config.latent_channels
        # Inputs are 4k+1 frames, and so is level 1's hhh band: both pad.
        self.wave1 = Dwt3dStream(pad_first=True)
        self.wave2 = Dwt3dStream(pad_first=True)

    def feed(self, frames: np.ndarray, final: bool):
        w1 = self.wave1.feed(frames)
        w2 = self.wave2.feed(w1["hhh"])
        w3 = _analyze_2d(w2["hhh"])
        self.inflow2.bands, self.inflow3.bands = w2, w3
        # Popping the bands leaves the stacked copy as level 1's only one, and
        # the chain frees that once the stem has read it.
        x = _feed_streams(
            self.chain, np.concatenate([w1.pop(k) for k in KEYS_3D], axis=0), final
        )
        chn = self.latent_channels
        return x[:chn], x[chn:], w2, w3


class _DecoderStream:
    def __init__(self, config: ModelConfig, weights: WeightStore):
        _, decoder = _graph(config)
        self.chain = [_stream(node, config, weights) for node in decoder]
        self.outflow3, self.outflow2 = (
            s for s in self.chain if isinstance(s, _Outflow)
        )
        # Videos are 4k+1 frames and level 1 has 2k+1: both drop the pad.
        self.idwt_w2 = Idwt3dStream(drop_first=True)
        self.idwt_final = Idwt3dStream(drop_first=True)

    def feed(self, z_frames: np.ndarray, final: bool):
        w1_bands = _split_bands(_feed_streams(self.chain, z_frames, final), KEYS_3D)
        w3_bands, w2_bands = self.outflow3.bands, self.outflow2.bands
        # The sums land in the conv outputs the bands are views of, which
        # nothing else reads, so the final synthesis holds no second hhh band.
        w2_bands["hhh"] += _synthesize_2d(w3_bands)
        contrib = self.idwt_w2.feed(w2_bands)
        if w1_bands["hhh"].shape[1] != contrib.shape[1]:
            raise ShapeError(
                f"backbone/wavelet rate mismatch at level 1: "
                f"{w1_bands['hhh'].shape[1]} vs {contrib.shape[1]} frames"
            )
        w1_bands["hhh"] += contrib
        return self.idwt_final.feed(w1_bands), w2_bands, w3_bands


def _concat(chunks: list[np.ndarray]) -> VideoTensor:
    return VideoTensor(np.concatenate(chunks, axis=1))


def _concat_bands(chunks: list[dict[str, np.ndarray]], keys) -> dict[str, VideoTensor]:
    return {key: _concat([chunk[key] for chunk in chunks]) for key in keys}


# ---------------------------------------------------------------------------
# Public entry points.
# ---------------------------------------------------------------------------


def _validate_encode_input(v: VideoTensor, config: ModelConfig):
    if v.channels != config.input_channels:
        raise ShapeError(
            f"input has {v.channels} channels, config expects "
            f"{config.input_channels}"
        )
    if v.height % 8 or v.width % 8:
        raise ShapeError(
            f"height and width must be divisible by 8, got "
            f"({v.height}, {v.width})"
        )
    if v.time % 4 != 1:
        raise ShapeError(f"time must be 4k+1, got {v.time}")


def encode(
    v: VideoTensor,
    config: ModelConfig,
    weights: WeightStore,
    mode: ChunkPlan | None = None,
) -> EncodeResult:
    """Encode a video into a Gaussian latent plus its level-2/3 subband echo.

    Every plan runs the same chunk executor; ``latent_chunks`` lists the
    latent frames each chunk emitted (direct mode: one chunk).
    """
    _validate_encode_input(v, config)
    weights.validate(config)
    stream = _EncoderStream(config, weights)
    parts = [
        stream.feed(chunk, final)
        for chunk, final in _iter_chunks(v.data, mode or ChunkPlan.direct())
    ]
    mean, logvar, w2, w3 = zip(*parts)
    result = EncodeResult(
        GaussianLatent(_concat(mean), _concat(logvar)),
        SubbandSet3D(_concat_bands(w2, KEYS_3D)),
        SubbandSet2D(_concat_bands(w3, KEYS_2D)),
        tuple(part.shape[1] for part in mean),
    )
    expected_t = config.latent_time(v.time)
    if result.latent.shape[1] != expected_t:
        raise ShapeError(
            f"latent has {result.latent.shape[1]} frames, expected {expected_t}"
        )
    return result


def decode(
    z: VideoTensor,
    config: ModelConfig,
    weights: WeightStore,
    original_t: int,
    mode: ChunkPlan | None = None,
) -> DecodeResult:
    """Decode a latent back to video; also returns the predicted subband sets."""
    if original_t < 1 or original_t % 4 != 1:
        raise ShapeError(f"original_t must be 4k+1, got {original_t}")
    if z.channels != config.latent_channels:
        raise ShapeError(
            f"latent has {z.channels} channels, config expects "
            f"{config.latent_channels}"
        )
    expected_t = config.latent_time(original_t)
    if z.time != expected_t:
        raise ShapeError(
            f"latent has {z.time} frames, {original_t} video frames need "
            f"{expected_t}"
        )
    weights.validate(config)
    stream = _DecoderStream(config, weights)
    parts = [
        stream.feed(chunk, final)
        for chunk, final in _iter_chunks(z.data, mode or ChunkPlan.direct())
    ]
    video, w2, w3 = zip(*parts)
    result = DecodeResult(
        _concat(video),
        SubbandSet3D(_concat_bands(w2, KEYS_3D)),
        SubbandSet2D(_concat_bands(w3, KEYS_2D)),
    )
    if result.video.time != original_t:
        raise ShapeError(
            f"decode produced {result.video.time} frames, expected {original_t}"
        )
    return result


def forward(
    v: VideoTensor,
    config: ModelConfig,
    weights: WeightStore,
    rng: Rng,
    mode: ChunkPlan | None = None,
) -> ForwardResult:
    """encode -> sample -> decode, returning everything the losses need.

    The latent is sampled once from the fully assembled posterior, so the
    result is identical in direct and streamed modes given the same rng seed.
    """
    enc = encode(v, config, weights, mode)
    z = sample_latent(enc.latent, rng)
    dec = decode(z, config, weights, v.time, mode)
    return ForwardResult(
        reconstruction=dec.video,
        latent=enc.latent,
        w2_hat=dec.w2_hat,
        w3_hat=dec.w3_hat,
        w2=enc.w2,
        w3=enc.w3,
    )
