"""Causal 3D convolution and the tail-frame cache for lossless chunked inference.

A causal convolution pads the time axis only at the front, by ``k_t - 1``
frames, so output frame 0 depends on input frame 0 alone (plus padding).
Because every sliding window then looks strictly backwards, a stream can be
processed in arbitrary temporal chunks: each step caches the tail frames that
future windows still need, and the concatenated chunk outputs equal the
whole-clip result exactly.

The closed-form cache size for canonical chunking (first frame alone, then
blocks of ``t_chunk``) is::

    cache_len(k_t, s_t, t_chunk, m) = k_t + m*t_chunk - s_t * (m*t_chunk // s_t + 1)

:func:`cache_len_by_simulation` computes the same quantity by literally
walking the sliding windows and is used as an independent cross-check. Both
can be negative when ``k_t <= s_t``: stride then out-runs the kernel and the
next window starts beyond the frames seen so far, so nothing is cached and
the gap is skipped in the incoming chunk.

Normalization kinds differ in stream safety. Per-frame layer normalization
uses no cross-time statistics and streams losslessly. Whole-clip group
normalization does not: its statistics change with the chunk boundaries, and
it is provided purely as the documented negative control.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParameterError, ShapeError, StateError
from .tensor import VideoTensor

PAD_REPLICATE = "replicate"
PAD_ZEROS = "zeros"


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of one causal 3D convolution.

    Temporal padding is always ``kernel[0] - 1`` frames at the front;
    ``pad_mode`` selects their content (replicate first frame, or zeros).
    Spatial padding is symmetric and zero-filled.
    """

    in_channels: int
    out_channels: int
    kernel: tuple[int, int, int]
    stride: tuple[int, int, int] = (1, 1, 1)
    spatial_pad: tuple[int, int] = (0, 0)
    pad_mode: str = PAD_REPLICATE

    def __post_init__(self):
        if self.in_channels < 1 or self.out_channels < 1:
            raise ParameterError("channel counts must be >= 1")
        if len(self.kernel) != 3 or min(self.kernel) < 1:
            raise ParameterError(f"kernel must be three counts >= 1, got {self.kernel}")
        if len(self.stride) != 3 or min(self.stride) < 1:
            raise ParameterError(f"stride must be three counts >= 1, got {self.stride}")
        if len(self.spatial_pad) != 2 or min(self.spatial_pad) < 0:
            raise ParameterError(f"spatial_pad must be two counts >= 0, got {self.spatial_pad}")
        if self.pad_mode not in (PAD_REPLICATE, PAD_ZEROS):
            raise ParameterError(f"unknown pad_mode {self.pad_mode!r}")

    @property
    def temporal_pad(self) -> int:
        return self.kernel[0] - 1

    def weight_shape(self) -> tuple[int, int, int, int, int]:
        return (self.out_channels, self.in_channels) + tuple(self.kernel)

    def out_time(self, t: int) -> int:
        """Output frames for t input frames: (t - 1) // s_t + 1."""
        return (t - 1) // self.stride[0] + 1


def _check_weights(spec: ConvSpec, weight: np.ndarray, bias):
    weight = np.asarray(weight, dtype=np.float32)
    if weight.shape != spec.weight_shape():
        raise ShapeError(
            f"weight shape {weight.shape} does not match spec {spec.weight_shape()}"
        )
    if bias is None:
        bias = np.zeros(spec.out_channels, dtype=np.float32)
    else:
        bias = np.asarray(bias, dtype=np.float32)
        if bias.shape != (spec.out_channels,):
            raise ShapeError(
                f"bias shape {bias.shape} does not match ({spec.out_channels},)"
            )
    return weight, bias


# Byte budget of one im2col tile. The tile size is a function of the layer's
# geometry alone, never of the chunk length, so every frame is computed by
# the same GEMM under every chunk plan and streamed output equals direct
# output bit for bit. 8 MiB keeps the GEMM's N large enough for full BLAS
# speed on the wide layers while bounding the kernel's transient memory:
# halving it slowed direct decode, doubling it raised streamed peak memory
# by more than 10%.
_COL_TILE_BYTES = 8 << 20


def _conv3d_core(
    xp: np.ndarray, weight: np.ndarray, bias: np.ndarray, spec: ConvSpec
) -> np.ndarray:
    """Window engine for every convolution path: one im2col GEMM per tile.

    ``xp`` is already padded in time (causal lead or cached frames) and in
    space; no padding happens here. Emits every window that fits, i.e.
    (Tp - k_t) // s_t + 1 output frames, or none when Tp < k_t.

    A tile is a band of output rows of one output frame. Its column rows are
    ordered (c, dt, dy, dx), the order of the stored weight, so the GEMM
    takes ``weight.reshape(cout, -1)`` without a copy and writes straight
    into the output.
    """
    cin, tp, hp, wp = xp.shape
    cout = spec.out_channels
    kt, kh, kw = spec.kernel
    st, sh, sw = spec.stride
    if hp < kh or wp < kw:
        raise ShapeError(
            f"spatial extent ({hp}, {wp}) smaller than kernel ({kh}, {kw})"
        )
    ho = (hp - kh) // sh + 1
    wo = (wp - kw) // sw + 1
    to = max(0, (tp - kt) // st + 1)
    out = np.empty((cout, to, ho, wo), dtype=np.float32)
    k = cin * kt * kh * kw
    rows = max(1, min(ho, _COL_TILE_BYTES // (4 * k * wo)))
    rows = -(-ho // -(-ho // rows))  # balance the bands of one frame
    wmat = weight.reshape(cout, k)
    col_buf = np.empty(k * rows * wo, dtype=np.float32)
    out_rows = out.reshape(cout, to, ho * wo)
    for t in range(to):
        frames = xp[:, t * st : t * st + kt]
        for y0 in range(0, ho, rows):
            r = min(rows, ho - y0)
            col = col_buf[: k * r * wo].reshape(cin, kt, kh, kw, r, wo)
            for dy in range(kh):
                ys = y0 * sh + dy
                band = frames[:, :, ys : ys + sh * (r - 1) + 1 : sh]
                for dx in range(kw):
                    col[:, :, dy, dx] = band[..., dx : dx + sw * (wo - 1) + 1 : sw]
            np.matmul(
                wmat, col.reshape(k, r * wo),
                out=out_rows[:, t, y0 * wo : (y0 + r) * wo],
            )
    out += bias[:, None, None, None]
    return out


def causal_conv3d(
    x: VideoTensor, spec: ConvSpec, weight, bias=None
) -> VideoTensor:
    """Whole-clip causal convolution: a stream of one chunk."""
    if x.channels != spec.in_channels:
        raise ShapeError(
            f"input has {x.channels} channels, spec expects {spec.in_channels}"
        )
    weight, bias = _check_weights(spec, weight, bias)
    out, _ = _stream_conv_core(CacheState(), x.data, spec, weight, bias, final=True)
    return VideoTensor(out)


# ---------------------------------------------------------------------------
# Cache-size bookkeeping.
# ---------------------------------------------------------------------------


def _check_cache_args(k_t: int, s_t: int, t_chunk: int, m: int):
    if k_t < 1 or s_t < 1 or t_chunk < 1:
        raise ParameterError(
            f"kernel, stride and chunk size must be >= 1, got "
            f"({k_t}, {s_t}, {t_chunk})"
        )
    if m < 0:
        raise ParameterError(f"chunk index must be >= 0, got {m}")


def cache_len(k_t: int, s_t: int, t_chunk: int, m: int) -> int:
    """Closed-form cached-frame count after chunk ``m`` under canonical chunking.

    Chunk 0 is the initial frame alone; chunk m >= 1 is the m-th block of
    ``t_chunk`` frames. May be negative when ``k_t <= s_t`` (see module docs).
    """
    _check_cache_args(k_t, s_t, t_chunk, m)
    return k_t + m * t_chunk - s_t * (m * t_chunk // s_t + 1)


def cache_len_by_simulation(k_t: int, s_t: int, t_chunk: int, m: int) -> int:
    """Sliding-window walk computing the same quantity as :func:`cache_len`.

    Enumerates window start positions until one extends past the frames
    available after chunk ``m``; the cache must keep everything from that
    window's start to the last available frame.
    """
    _check_cache_args(k_t, s_t, t_chunk, m)
    last_available = k_t - 1 + m * t_chunk
    n = 0
    while n * s_t + k_t - 1 <= last_available:
        n += 1
    return last_available - n * s_t + 1


_EMPTY = np.zeros((0,), dtype=np.float32)


@dataclass(frozen=True)
class CacheState:
    """Per-stream tail-frame cache for one causal convolution.

    Tracks absolute frame indices in post-padding coordinates, so irregular
    chunk sizes work; the canonical-chunking formula is then a checkable
    special case of this bookkeeping, not its implementation. ``cache`` holds
    the retained frames without the spatial border. Treat instances as
    immutable; :func:`stream_conv3d` returns updated copies.
    """

    chunk_index: int = 0
    frames_seen: int = 0
    next_window_start: int = 0
    cache: np.ndarray = field(default_factory=lambda: _EMPTY)
    finalized: bool = False

    @property
    def occupancy(self) -> int:
        """Number of frames currently retained."""
        return 0 if self.cache.ndim != 4 else self.cache.shape[1]

    def finalize(self) -> "CacheState":
        """Mark the stream complete; any further chunk raises StateError."""
        return replace(self, finalized=True)


def _stream_conv_core(
    state: CacheState,
    frames: np.ndarray,
    spec: ConvSpec,
    weight,
    bias,
    final: bool = False,
) -> tuple[np.ndarray, CacheState]:
    """Convolve one chunk against the cache; ``final`` ends the stream.

    The conv input is assembled once, in a single zero-filled buffer that
    already carries the spatial border: cached frames, then the causal lead
    (first chunk only), then the chunk. The cache keeps unpadded frames; the
    final chunk keeps none and returns a finalized state.
    """
    if state.finalized:
        raise StateError("chunk fed after the stream was finalized")
    st = spec.stride[0]
    n = frames.shape[1]
    lead = spec.temporal_pad if n and state.frames_seen == 0 else 0
    cached = state.occupancy
    head = cached + lead
    new_seen = state.frames_seen + lead + n
    slab_start = new_seen - head - n
    # A non-empty cache starts exactly at the next window, so frames are
    # skipped (offset > 0) only from a chunk that follows an empty cache.
    offset = state.next_window_start - slab_start
    if offset < 0:
        raise StateError("cache lost frames still needed by the next window")
    ph, pw = spec.spatial_pad
    h, w = frames.shape[2:]
    xp = np.zeros(
        (frames.shape[0], max(head + n - offset, 0), h + 2 * ph, w + 2 * pw),
        dtype=np.float32,
    )
    inner = xp[:, :, ph : ph + h, pw : pw + w]
    if cached:
        inner[:, :cached] = state.cache
    if lead and spec.pad_mode == PAD_REPLICATE:
        inner[:, cached:head] = frames[:, :1]
    inner[:, head:] = frames[:, offset:]
    out = _conv3d_core(xp, weight, bias, spec)
    new_next = state.next_window_start + out.shape[1] * st
    keep_from = new_next - slab_start - offset
    if final or keep_from >= inner.shape[1]:
        cache = _EMPTY
    else:
        cache = np.ascontiguousarray(inner[:, keep_from:])
    new_state = CacheState(
        chunk_index=state.chunk_index + 1,
        frames_seen=new_seen,
        next_window_start=new_next,
        cache=cache,
        finalized=final,
    )
    return out, new_state


def stream_conv3d(
    state: CacheState, chunk: VideoTensor, spec: ConvSpec, weight, bias=None
) -> tuple[VideoTensor | None, CacheState]:
    """Feed one chunk; returns (output chunk or None, updated state).

    None means no window completed yet (the frames were cached). Concatenating
    all non-None outputs over a stream reproduces :func:`causal_conv3d` on the
    concatenated input exactly.
    """
    if chunk.time < 1:
        raise ShapeError("chunk must contain at least one frame")
    if chunk.channels != spec.in_channels:
        raise ShapeError(
            f"chunk has {chunk.channels} channels, spec expects {spec.in_channels}"
        )
    weight, bias = _check_weights(spec, weight, bias)
    out, new_state = _stream_conv_core(state, chunk.data, spec, weight, bias)
    if out.shape[1] == 0:
        return None, new_state
    return VideoTensor(out), new_state


# ---------------------------------------------------------------------------
# Stream-safe pointwise/per-frame layers and the whole-clip negative control.
# ---------------------------------------------------------------------------


def silu(x: np.ndarray) -> np.ndarray:
    """Smooth gate x * sigmoid(x) = x / (1 + exp(-x)).

    Large negative inputs overflow exp harmlessly (x / inf underflows to -0),
    so the computation stays branch-free.
    """
    x = np.asarray(x, dtype=np.float32)
    with np.errstate(over="ignore"):
        return x / (1.0 + np.exp(-x))


def _frame_layernorm_core(
    frames: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    if frames.shape[1] == 0:
        return frames
    # Float64 accumulators, float32 arithmetic: per-frame statistics are
    # independent of chunk boundaries, keeping this layer stream-safe.
    mean = frames.mean(axis=(0, 2, 3), keepdims=True, dtype=np.float64)
    ex2 = np.mean(np.square(frames), axis=(0, 2, 3), keepdims=True, dtype=np.float64)
    var = np.maximum(ex2 - np.square(mean), 0.0)
    scale = (1.0 / np.sqrt(var + eps)).astype(np.float32)
    shift = mean.astype(np.float32)
    out = (frames - shift) * scale
    out *= gain[:, None, None, None]
    out += bias[:, None, None, None]
    return out


def frame_layernorm(
    x: VideoTensor, gain, bias, eps: float = 1e-5
) -> VideoTensor:
    """Normalize each frame over (channels, height, width); stream-safe.

    No statistic crosses the time axis, so chunked evaluation is identical to
    whole-clip evaluation.
    """
    gain, bias, _ = _check_affine(x.channels, gain, bias, eps)
    return VideoTensor(_frame_layernorm_core(x.data, gain, bias, eps))


def _check_affine(channels: int, gain, bias, eps: float):
    if eps <= 0:
        raise ParameterError(f"eps must be > 0, got {eps}")
    gain = np.asarray(gain, dtype=np.float32)
    bias = np.asarray(bias, dtype=np.float32)
    if gain.shape != (channels,) or bias.shape != (channels,):
        raise ShapeError(
            f"gain/bias must have shape ({channels},), got {gain.shape}/{bias.shape}"
        )
    return gain, bias, eps


def _groupnorm_core(
    frames: np.ndarray,
    groups: int,
    gain: np.ndarray,
    bias: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    c, t, h, w = frames.shape
    if frames.shape[1] == 0:
        return frames
    grouped = frames.reshape(groups, c // groups, t, h, w)
    mean = grouped.mean(axis=(1, 2, 3, 4), keepdims=True, dtype=np.float64)
    ex2 = np.mean(
        np.square(grouped), axis=(1, 2, 3, 4), keepdims=True, dtype=np.float64
    )
    var = np.maximum(ex2 - np.square(mean), 0.0)
    scale = (1.0 / np.sqrt(var + eps)).astype(np.float32)
    shift = mean.astype(np.float32)
    out = ((grouped - shift) * scale).reshape(c, t, h, w)
    out *= gain[:, None, None, None]
    out += bias[:, None, None, None]
    return out


def groupnorm_whole_clip(
    x: VideoTensor, groups: int, gain, bias, eps: float = 1e-5
) -> VideoTensor:
    """Group normalization with statistics over the full clip.

    Statistics span (group-channels, time, height, width), so they depend on
    where chunk boundaries fall: this layer deliberately breaks the streaming
    guarantee and exists as the negative control for it.
    """
    if x.channels % groups:
        raise ParameterError(
            f"channels ({x.channels}) not divisible by groups ({groups})"
        )
    gain, bias, _ = _check_affine(x.channels, gain, bias, eps)
    return VideoTensor(_groupnorm_core(x.data, groups, gain, bias, eps))


def _upsample_core(frames: np.ndarray, factors, first_chunk: bool) -> np.ndarray:
    ft, fh, fw = factors
    out = frames
    if fh > 1:
        out = np.repeat(out, fh, axis=2)
    if fw > 1:
        out = np.repeat(out, fw, axis=3)
    if ft == 2 and out.shape[1]:
        out = np.repeat(out, 2, axis=1)
        if first_chunk:
            out = out[:, 1:]
    return out


def nearest_upsample(x: VideoTensor, factors: tuple[int, int, int]) -> VideoTensor:
    """Nearest-neighbor upsampling with a causal time rule.

    Temporal factor 2 emits 2t frames and drops the duplicated first frame,
    yielding 2t - 1: the inverse of the causal pad-then-halve time law, and
    per-frame (hence stream-safe).
    """
    ft, fh, fw = factors
    if ft not in (1, 2) or fh < 1 or fw < 1:
        raise ParameterError(f"unsupported upsample factors {factors}")
    return VideoTensor(_upsample_core(x.data, factors, first_chunk=True))


# ---------------------------------------------------------------------------
# Chunk plans: how the executor splits a clip's time axis.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChunkPlan:
    """How to drive a stream: direct, canonical chunking, or explicit sizes."""

    mode: str  # "direct" | "canonical" | "explicit"
    chunk_size: int = 0
    sizes: tuple[int, ...] = ()

    @classmethod
    def direct(cls) -> "ChunkPlan":
        return cls(mode="direct")

    @classmethod
    def canonical(cls, t_chunk: int) -> "ChunkPlan":
        if t_chunk < 1:
            raise ParameterError(f"t_chunk must be >= 1, got {t_chunk}")
        return cls(mode="canonical", chunk_size=t_chunk)

    @classmethod
    def explicit(cls, sizes) -> "ChunkPlan":
        sizes = tuple(int(s) for s in sizes)
        if not sizes or min(sizes) < 1:
            raise ParameterError(f"explicit sizes must all be >= 1, got {sizes}")
        return cls(mode="explicit", sizes=sizes)

    @classmethod
    def parse(cls, text: str) -> "ChunkPlan":
        """Parse "direct", "canonical:N", or "explicit:a,b,c"."""
        text = text.strip()
        kind, _, args = text.partition(":")
        try:
            if text == "direct":
                return cls.direct()
            if kind == "canonical":
                return cls.canonical(int(args))
            if kind == "explicit":
                return cls.explicit([int(s) for s in args.split(",")])
        except ValueError:
            pass
        raise ParameterError(f"cannot parse chunk plan {text!r}")

    @property
    def is_streaming(self) -> bool:
        return self.mode != "direct"

    def split(self, total: int) -> list[int]:
        """Chunk sizes summing to ``total`` frames."""
        if total < 1:
            raise ParameterError(f"stream length must be >= 1, got {total}")
        if self.mode == "direct":
            return [total]
        if self.mode == "canonical":
            sizes = [1]
            remaining = total - 1
            while remaining > 0:
                step = min(self.chunk_size, remaining)
                sizes.append(step)
                remaining -= step
            return sizes
        if sum(self.sizes) != total:
            raise ParameterError(
                f"explicit sizes sum to {sum(self.sizes)}, stream has {total} frames"
            )
        return list(self.sizes)

    def describe(self) -> str:
        if self.mode == "direct":
            return "direct"
        if self.mode == "canonical":
            return f"canonical:{self.chunk_size}"
        return "explicit:" + ",".join(str(s) for s in self.sizes)


def _iter_chunks(frames: np.ndarray, plan: ChunkPlan):
    """Yield (chunk, is_last) over the time axis of (c, t, h, w) frames."""
    sizes = plan.split(frames.shape[1])
    start = 0
    for i, size in enumerate(sizes):
        yield frames[:, start : start + size], i == len(sizes) - 1
        start += size
