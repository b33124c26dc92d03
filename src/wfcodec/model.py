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

The whole codec is one graph, defined once in ``_graph`` as two node lists:
the Haar analysis levels, the convs, the residual blocks, the energy-flow
branches, the syntheses and both recombinations are nodes, which hand
subband sets to each other by name (``w1``, ``w2``, ``w3``). Every temporal
operation in the graph is causal, so encode and decode each run their list
through one chunk executor, ``_Chain``, for any chunk plan with identical
results; direct mode is the plan of a single chunk. See
:mod:`wfcodec.causal` for the caching machinery. Each conv feed runs its GEMMs with the BLAS at one thread
and shares its row tiles out to ``W`` workers (:mod:`wfcodec.blas`), so the
output bits depend on neither thread count.

Inputs require time = 4k + 1 (a first frame plus groups of four), height and
width divisible by 8. The latent then has shape
(latent_channels, (t - 1) / 4 + 1, h / 8, w / 8).
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, fields, replace
from typing import ClassVar

import numpy as np

from . import blas
from .causal import (
    ChunkPlan,
    ConvSpec,
    _ConvStream,
    _Prologue,
    _iter_chunks,
    silu,
)
from .errors import FormatError, ParameterError, ShapeError, WeightError
from .tensor import Rng, VideoTensor, _map_file, _payload, sha256_hex, write_atomic
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
#   magic "WFWT", version u32, entry count u32, then per entry (sorted by
#   name): name length u16, UTF-8 name, ndim u32, dims u32[ndim], zero pad,
#   f32 payload. The pad puts each payload at a 64-byte file offset in
#   version 2 and is empty in version 1, which is still read.
# ---------------------------------------------------------------------------

_WEIGHT_MAGIC = b"WFWT"
_WEIGHT_VERSION = 2
_PAYLOAD_ALIGN = {1: 1, 2: 64}  # per version


class WeightStore:
    """Named float32 tensors (rank 1..5) for every graph parameter."""

    def __init__(self, tensors: dict[str, np.ndarray] | None = None):
        self._tensors: dict[str, np.ndarray] = {}
        self._version = _WEIGHT_VERSION  # the layout digest() hashes
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

    def _serialized(self, version: int):
        align = _PAYLOAD_ALIGN[version]
        yield _WEIGHT_MAGIC + struct.pack("<II", version, len(self._tensors))
        offset = 12
        for name, arr in self.items():
            encoded = name.encode("utf-8")
            entry = struct.pack(
                f"<H{len(encoded)}sI{arr.ndim}I", len(encoded), encoded, arr.ndim, *arr.shape
            )
            pad = -(offset + len(entry)) % align
            yield entry + bytes(pad)
            yield arr
            offset += len(entry) + pad + arr.nbytes

    def digest(self) -> str:
        """SHA-256 hex of the ``.wfwt`` file this store was loaded from, in
        its version; for a store built in memory, of the file :meth:`save`
        writes. :meth:`load` takes only that layout (sorted names, zero
        pads), so the two agree."""
        return sha256_hex(self._serialized(self._version))

    def save(self, path) -> None:
        """Write a version 2 ``.wfwt`` file."""
        write_atomic(path, self._serialized(_WEIGHT_VERSION))

    @classmethod
    def load(cls, path) -> "WeightStore":
        """Read a ``.wfwt`` file of either version. The file is mapped once
        (:func:`tensor._map_file`, which documents the mapping's lifetime),
        and every tensor is a read-only, aligned view of the mapping, or a
        read-only copy of a version 1 payload at an unaligned offset. Each
        payload is scanned once, so a NaN or infinity is FormatError naming
        its entry."""
        mapped = _map_file(path)
        if len(mapped) < 12 or mapped[:4] != _WEIGHT_MAGIC:
            raise FormatError(f"{path}: not a weight file")
        version, count = struct.unpack_from("<II", mapped, 4)
        if version not in _PAYLOAD_ALIGN:
            raise FormatError(f"{path}: unsupported weight version {version}")
        store = cls()
        store._version = version
        offset, previous = 12, None
        for _ in range(count):
            try:
                (name_len,) = struct.unpack_from("<H", mapped, offset)
                name = mapped[offset + 2 : offset + 2 + name_len].decode("utf-8")
                (ndim,) = struct.unpack_from("<I", mapped, offset + 2 + name_len)
                if not 1 <= ndim <= 5:
                    raise FormatError(f"{path}: bad rank {ndim} for {name!r}")
                dims = struct.unpack_from(f"<{ndim}I", mapped, offset + 6 + name_len)
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
            offset += 6 + name_len + 4 * ndim
            pad = -offset % _PAYLOAD_ALIGN[version]
            if any(mapped[offset : offset + pad]):
                raise FormatError(f"{path}: non-zero pad before {name!r}")
            offset += pad
            values, _ = _payload(mapped, offset, dims, f"{path}: {name!r}")
            store.put(name, values)
            offset += values.nbytes
        if len(mapped) > offset:
            raise FormatError(f"{path}: {len(mapped) - offset} trailing bytes")
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


@dataclass(frozen=True, slots=True)
class _Node:
    """One graph node: a conv, a residual block, an energy-flow branch, a
    Haar level or the pipeline split.

    ``kind`` is conv, block, inflow, outflow, dwt, idwt or split. A split
    computes nothing: it marks where a pipelined run (:func:`_run`) cuts the
    node list into its front and back halves. ``spec`` is the
    conv geometry of conv and branch nodes. A conv reads its input through
    the nearest upsample ``factors``, or through SiLU of the norm named
    ``norm`` (a layer with a gain and a bias over the input channels). A
    block runs ``body`` and adds its input, through the ``skip`` conv when
    the width changes.

    ``src`` and ``dst`` name the subband set a node reads and the one it
    writes, ``w1``, ``w2`` or ``w3``; "" is the backbone. ``keys`` are the
    bands of that set, in the order a conv stacks them on its channels: a
    conv or an inflow that reads a set reads its bands stacked, and a conv or
    an outflow that writes one splits its output. A dwt analyzes the
    backbone, or the ``hhh`` band of set ``src``, into set ``dst``; an idwt
    synthesizes set ``src`` and adds the result into the ``hhh`` band of set
    ``dst``, or, with no ``dst``, makes it the backbone. ``keys`` make a Haar
    level 3D or 2D.
    """

    kind: str
    name: str = ""
    spec: ConvSpec | None = None
    norm: str = ""
    factors: tuple[int, int, int] = (1, 1, 1)
    keys: tuple[str, ...] = ()
    src: str = ""
    dst: str = ""
    body: tuple[_Node, ...] = ()
    skip: _Node | None = None


def _conv(
    name: str, cin: int, cout: int, kernel=(3, 3, 3), stride=(1, 1, 1),
    factors=(1, 1, 1), norm: str = "", **bands,
) -> _Node:
    pad = ((kernel[1] - 1) // 2, (kernel[2] - 1) // 2)
    spec = ConvSpec(cin, cout, tuple(kernel), tuple(stride), pad)
    return _Node("conv", name, spec, norm, factors, **bands)


def _branch(kind: str, name: str, cin: int, cout: int, **bands) -> _Node:
    """A 1x1x1 conv between the backbone and a wavelet subband set."""
    return replace(_conv(name, cin, cout, kernel=(1, 1, 1), **bands), kind=kind)


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
    """The encoder and the decoder, each in execution order: from the video
    to the latent, and from the latent to the video."""
    w0, w1, w2 = config.stage_widths
    cf, blocks, chn = config.c_flow, config.blocks_per_stage, config.latent_channels
    stack3d, stack2d = 8 * config.input_channels, 4 * config.input_channels
    encoder = [
        _Node("dwt", "enc.dwt1", keys=KEYS_3D, dst="w1"),
        _Node("dwt", "enc.dwt2", keys=KEYS_3D, src="w1", dst="w2"),
        _Node("dwt", "enc.dwt3", keys=KEYS_2D, src="w2", dst="w3"),
        _conv("enc.stem", stack3d, w0, keys=KEYS_3D, src="w1"),
        *_stage("enc.stage1", w0, w0, blocks),
        _conv("enc.down1", w0, w1, stride=(2, 2, 2)),
        _Node("split"),
        _branch("inflow", "enc.inflow2", stack3d, cf, keys=KEYS_3D, src="w2"),
        *_stage("enc.stage2", w1 + cf, w1, blocks),
        _conv("enc.down2", w1, w2, stride=(1, 2, 2)),
        _branch("inflow", "enc.inflow3", stack2d, cf, keys=KEYS_2D, src="w3"),
        *_stage("enc.stage3", w2 + cf, w2, blocks),
        _conv("enc.head.conv", w2, 2 * chn, norm="enc.head.norm"),
    ]
    decoder = [
        _conv("dec.stem", chn, w2),
        *_stage("dec.stage3", w2, w2, blocks),
        _branch("outflow", "dec.outflow3", cf, stack2d, keys=KEYS_2D, dst="w3"),
        _conv("dec.up2", w2, w1, factors=(1, 2, 2)),
        *_stage("dec.stage2", w1, w1, blocks),
        _branch("outflow", "dec.outflow2", cf, stack3d, keys=KEYS_3D, dst="w2"),
        _conv("dec.up1", w1, w0, factors=(2, 2, 2)),
        *_stage("dec.stage1", w0, w0, blocks),
        _conv("dec.out.conv", w0, stack3d, norm="dec.out.norm", keys=KEYS_3D, dst="w1"),
        _Node("idwt", "dec.idwt3", keys=KEYS_2D, src="w3", dst="w2"),
        _Node("idwt", "dec.idwt2", keys=KEYS_3D, src="w2", dst="w1"),
        _Node("idwt", "dec.idwt1", keys=KEYS_3D, src="w1"),
    ]
    return encoder, decoder


def _convs(node: _Node):
    """The conv nodes of ``node``, itself and its children, in graph order."""
    if node.spec is not None:
        yield node
    for child in (*node.body, *filter(None, [node.skip])):
        yield from _convs(child)


def parameter_manifest(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Every graph parameter with its shape, in deterministic graph order."""
    encoder, decoder = _graph(config)
    manifest = []
    for conv in (conv for node in encoder + decoder for conv in _convs(node)):
        cin, cout = conv.spec.in_channels, conv.spec.out_channels
        if conv.norm:
            manifest += [(f"{conv.norm}.gain", (cin,)), (f"{conv.norm}.bias", (cin,))]
        manifest.append((f"{conv.name}.weight", conv.spec.weight_shape()))
        manifest.append((f"{conv.name}.bias", (cout,)))
    return manifest


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
# a single chunk. The encoder and the decoder are each one _Chain: a table of
# every conv's stream and one of every Haar level's transform, both keyed by
# node name, and one walk over the graph's _Nodes that feeds them. Only the
# walk holds an activation or a subband set, so each is freed as soon as the
# last node that reads it has run; that keeps peak memory at that of a
# hand-written whole-clip pass.
# ---------------------------------------------------------------------------


def _stack(bands: dict[str, np.ndarray], keys) -> np.ndarray:
    """The bands ``keys`` stacked on the channel axis. A set handed to this
    call alone is freed once its stack is made."""
    return np.concatenate([bands[key] for key in keys])


def _split_bands(stack: np.ndarray, keys) -> dict[str, np.ndarray]:
    c = stack.shape[0] // len(keys)
    return {key: stack[i * c : (i + 1) * c] for i, key in enumerate(keys)}


def _check_rate(where: str, backbone: np.ndarray, wavelet: np.ndarray) -> None:
    if backbone.shape[1] != wavelet.shape[1]:
        raise ShapeError(
            f"backbone/wavelet rate mismatch at {where}: "
            f"{backbone.shape[1]} vs {wavelet.shape[1]} frames"
        )


class _Chain:
    """The executor of a list of graph nodes, fed one chunk at a time.

    A split node in the list cuts it in two: ``front`` holds the nodes
    before it and ``back`` those after (empty without a split); ``nodes`` is
    both, in order. :meth:`walk` runs any run of nodes on one chunk's carry,
    so a pipelined run (:func:`_run`) walks the two halves on two threads.
    Each conv and Haar stream belongs to one half, and only that half's
    thread feeds it.

    ``convs`` maps every conv node's name, block bodies and skips included,
    to its cached conv stream. A conv after a norm reads through the norm and
    SiLU (group norm, the negative control, takes its statistics over the
    chunk), an outflow conv through SiLU alone. ``haar`` maps every Haar
    level's name to its transform of one chunk: a 3D level is a
    ``Dwt3dStream``/``Idwt3dStream``, which carries frames from chunk to
    chunk, and a 2D level transforms each frame on its own.

    A residual block adds its body to its input, through the skip conv when
    the width changes. The body runs one frame at a time: slice k of the
    chunk goes through the body convs, whose caches carry the frames before
    it; every body conv has time stride 1, so the body emits exactly frame k,
    and the block adds that one frame into frame k of the skip buffer. The
    body's intermediate activation is never held for the whole chunk, and the
    sum is never a separate array. With the identity skip that buffer is the
    block input itself, which every node produces fresh and reads no more:
    frame k of it has been read, and cached where a later window needs it,
    before the sum lands there. Group norm feeds the body the chunk as one
    slice, and holds its whole output before the add.

    An inflow appends act(conv(bands)) to the backbone, the bands being set
    ``src`` stacked; an outflow passes the backbone through and predicts set
    ``dst`` as conv(act(x[:c_flow])). A recombination adds its synthesis
    into the ``hhh`` band of set ``dst`` in place: that band is a view of the
    conv output that predicted it, which nothing else reads, so the next
    synthesis holds no second copy of it. A node that makes the backbone from
    a set (the encoder's stem, the decoder's last synthesis) consumes that
    set; the sets that no node consumes are the subband echo.
    """

    def __init__(self, nodes: list[_Node], config: ModelConfig, weights: WeightStore):
        cut = next((i for i, node in enumerate(nodes) if node.kind == "split"), len(nodes))
        self.front, self.back = nodes[:cut], nodes[cut + 1 :]
        self.nodes = self.front + self.back
        self.whole_chunk = config.norm == NORM_GROUPNORM
        groups = config.groupnorm_groups if self.whole_chunk else 0
        self.convs: dict[str, _ConvStream] = {}
        for conv in (conv for node in nodes for conv in _convs(node)):
            prologue = None
            if conv.norm:
                prologue = _Prologue(
                    weights.get(f"{conv.norm}.gain"), weights.get(f"{conv.norm}.bias"), groups
                )
            elif conv.kind == "outflow":
                prologue = _Prologue()  # SiLU alone
            self.convs[conv.name] = _ConvStream(
                conv.spec, weights.get(f"{conv.name}.weight"),
                weights.get(f"{conv.name}.bias"), conv.factors, prologue,
            )
        # Inputs are 4k+1 frames, and so is level 1's hhh band: both 3D
        # levels pad frame 0 before analysis and drop its copy after synthesis.
        self.haar = {}
        for node in nodes:
            if node.kind == "dwt" and node.keys == KEYS_3D:
                self.haar[node.name] = Dwt3dStream(pad_first=True).feed
            elif node.kind == "idwt" and node.keys == KEYS_3D:
                self.haar[node.name] = Idwt3dStream(drop_first=True).feed
            elif node.kind == "dwt":
                self.haar[node.name] = lambda frames: _analyze_2d(frames)[0]
            elif node.kind == "idwt":
                self.haar[node.name] = lambda bands: _synthesize_2d(bands)[0]

    def feed(self, x: np.ndarray, final: bool):
        """Feed one chunk through the nodes in order; returns the backbone's
        output and, by name, the subband sets that no node consumed."""
        x, sets, _ = self.walk(self.nodes, [x, {}, final])
        return x, sets

    def walk(self, nodes: list[_Node], carry: list) -> list:
        """Run ``nodes`` on one chunk's ``carry``, [x, sets, final], and
        return the carry they leave. The walk empties the list it is handed,
        so it holds the only reference to the activation it was given."""
        x, sets, final = carry
        carry.clear()
        for node in nodes:
            conv, haar = self.convs.get(node.name), self.haar.get(node.name)
            if node.kind == "conv":
                x = conv.feed(_stack(sets.pop(node.src), node.keys) if node.src else x, final)
                if node.dst:
                    sets[node.dst], x = _split_bands(x, node.keys), None
            elif node.kind == "block":
                skip = self.convs[node.skip.name].feed(x, final) if node.skip else x
                n = x.shape[1]
                step = max(n, 1) if self.whole_chunk else 1
                # A chunk of no frames still makes one feed, so final reaches every cache.
                *firsts, last = (self.convs[body.name] for body in node.body)
                for k in range(0, max(n, 1), step):
                    y = [x[:, k : k + step]]  # each body conv frees it once read
                    for conv in firsts:
                        y = [conv.feed(y, final and k + step >= n)]
                    last.feed(y, final and k + step >= n, into=skip[:, k : k + step])
                x = skip
                del y, skip  # no activation outlives the node that reads it
            elif node.kind == "inflow":
                flow = silu(conv.feed(_stack(sets[node.src], node.keys), final))
                _check_rate(node.name, x, flow)
                x = np.concatenate([x, flow])
                del flow
            elif node.kind == "outflow":
                out = conv.feed(x[: node.spec.in_channels], final)
                sets[node.dst] = _split_bands(out, node.keys)
            elif node.kind == "dwt":
                sets[node.dst] = haar(sets[node.src]["hhh"] if node.src else x)
            elif node.dst:  # s_hhh = idwt(w_hat) + outflow_hhh
                out = haar(sets[node.src])
                _check_rate(node.name, sets[node.dst]["hhh"], out)
                sets[node.dst]["hhh"] += out
                del out
            else:  # the last synthesis: the video
                x = haar(sets.pop(node.src))
        return [x, sets, final]


def _run(chain: _Chain, frames: np.ndarray, plan: ChunkPlan | None):
    """Feed ``frames`` through ``chain`` chunk by chunk. Returns the
    backbone's output chunks, then the echo's sets w2 and w3, each band's
    chunks concatenated in time.

    A plan of two chunks or more on ``W`` >= 2 workers runs the chain's two
    halves as a pipeline (:func:`blas.pipeline`): the caller walks the front
    half on chunk k + 1 while one pool worker walks the back half on chunk
    k, each half's kernels on one worker. Without a back half (the decoder),
    on one chunk or on one worker, the caller walks every node, its kernels
    on ``W`` workers. Either way each frame meets the same GEMMs, so the
    output bits are the same. One BLAS pin holds for the whole run.
    """
    plan = plan or ChunkPlan.direct()
    carries = ([c, {}, final] for c, final in _iter_chunks(frames, plan))
    with blas.one_blas_thread() as workers:
        halves = [chain.nodes]
        if chain.back and workers > 1 and len(plan.split(frames.shape[1])) > 1:
            halves = [chain.front, chain.back]
        out = blas.pipeline(carries, *(functools.partial(chain.walk, half) for half in halves))
    chunks, echoes, _ = zip(*out)
    return chunks, *(
        cls({key: _concat([echo[name][key] for echo in echoes]) for key in cls.KEYS})
        for cls, name in ((SubbandSet3D, "w2"), (SubbandSet2D, "w3"))
    )


def _concat(chunks: list[np.ndarray]) -> VideoTensor:
    return VideoTensor(np.concatenate(chunks, axis=1))


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
    latent frames each chunk emitted (direct mode: one chunk). A plan of two
    chunks or more on two workers or more runs as a two-stage pipeline split
    after ``enc.down1`` (:func:`_run`); the bits are the same.
    """
    _validate_encode_input(v, config)
    weights.validate(config)
    latent, w2, w3 = _run(_Chain(_graph(config)[0], config, weights), v.data, mode)
    chn = config.latent_channels
    mean, logvar = _concat([x[:chn] for x in latent]), _concat([x[chn:] for x in latent])
    result = EncodeResult(
        GaussianLatent(mean, logvar), w2, w3, tuple(x.shape[1] for x in latent)
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
    """Decode a latent back to video; also returns the predicted subband sets.

    Decode never pipelines: its node list has no split, so the caller walks
    every node on every chunk. The one split that keeps all stage-1
    resolution nodes on one side is before ``dec.up1``; that cut is 39/61 of
    the work, and a prototype of it ran about 9% slower than the unsplit walk
    over 10 in-process rounds. The balanced cut, after ``dec.up1`` (59/41),
    holds two stage-1 transients at once: the prototype's traced stream-65
    decode peak rose 18.32 -> 20.77 MiB, beyond the benchmark's 10% bound.
    """
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
    video, w2, w3 = _run(_Chain(_graph(config)[1], config, weights), z.data, mode)
    result = DecodeResult(_concat(video), w2, w3)
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
        dec.video, enc.latent, w2_hat=dec.w2_hat, w3_hat=dec.w3_hat, w2=enc.w2, w3=enc.w3
    )
