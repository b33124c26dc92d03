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

from dataclasses import dataclass, field

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
# output bit for bit. A tile's column is one ordered copy from a strided view
# of the window, 1.2-1.6x faster than a copy per (dy, dx) tap, so a smaller
# tile costs little: measured on wfvae-s's conv shapes (2 BLAS threads, best
# of 3 x 7), 4 MiB ran no slower than per-tap columns at 8 MiB and takes
# 3.4 MiB off both direct-33 peaks, 8 MiB was within noise of 4 MiB, and
# 3 and 2 MiB slowed the dec.up1 conv by 15% and 23%.
_COL_TILE_BYTES = 4 << 20


def _tile_rows(k: int, ho: int, wo: int) -> int:
    """Output rows per tile of a conv with K = ``k`` and ``ho`` x ``wo``
    output frames: as many as fit the budget, balanced over the frame."""
    rows = max(1, min(ho, _COL_TILE_BYTES // (4 * k * wo)))
    return -(-ho // -(-ho // rows))


def _conv3d_core(
    fill, length: int, shape, weight: np.ndarray, bias: np.ndarray, spec: ConvSpec,
    scratch: int = 0, up: tuple[int, int] = (1, 1),
) -> tuple[np.ndarray, np.ndarray | None]:
    """Window engine for every convolution path: one im2col GEMM per tile.

    The conv input is a virtual sequence of ``length`` frames of ``shape``
    (c, h, w), already padded in time (causal lead or cached frames), read
    through a nearest spatial upsample by ``up`` = (fh, fw);
    ``fill(dst, p, buf)`` writes its frame ``p`` into ``dst`` and may use the
    first ``scratch`` floats of ``buf``, the column buffer, which is idle
    while the window fills. One zero-bordered window of k_t frames slides
    over the sequence: each output frame shifts the window down by s_t and
    fills the s_t newest frames, so no buffer grows with the chunk. The
    window holds frames at source resolution, with a border of
    ceil(ph / fh) rows and ceil(pw / fw) columns; an upsampling conv expands
    only the rows one tile reads into a reused band, where padded upsampled
    row Y is window row (Y - ph) // fh + ceil(ph / fh), and columns alike.
    Emits every window that fits, i.e. (length - k_t) // s_t + 1 output
    frames, or none when length < k_t.

    A tile is a band of output rows of one output frame. Its column is one
    copy from a sliding-window view of the window (or of the row band), with
    rows ordered (c, dt, dy, dx), the order of the stored weight, so the GEMM
    takes ``weight.reshape(cout, -1)`` without a copy and writes straight
    into the output.

    Returns the output and the last window's k_t frames without their
    border, or None when no window fit.
    """
    cin, h, w = shape
    cout = spec.out_channels
    kt, kh, kw = spec.kernel
    st, sh, sw = spec.stride
    ph, pw = spec.spatial_pad
    fh, fw = up
    upsampled = fh > 1 or fw > 1
    if upsampled and (sh, sw) != (1, 1):
        raise ParameterError(
            f"spatial upsampling {up} needs spatial stride 1, got {(sh, sw)}"
        )
    hp, wp = fh * h + 2 * ph, fw * w + 2 * pw
    if hp < kh or wp < kw:
        raise ShapeError(
            f"spatial extent ({hp}, {wp}) smaller than kernel ({kh}, {kw})"
        )
    ho = (hp - kh) // sh + 1
    wo = (wp - kw) // sw + 1
    to = max(0, (length - kt) // st + 1)
    out = np.empty((cout, to, ho, wo), dtype=np.float32)
    if to == 0:
        return out, None
    k = cin * kt * kh * kw
    rows = _tile_rows(k, ho, wo)
    wmat = weight.reshape(cout, k)
    col_buf = np.empty(max(k * rows * wo, scratch), dtype=np.float32)
    out_rows = out.reshape(cout, to, ho * wo)
    qh, qw = -(-ph // fh), -(-pw // fw)
    # Time-major, so shifting the window copies whole frames, which do not
    # overlap; fill, columns and cache read it channel-major through ``frames``.
    window = np.zeros((kt, cin, h + 2 * qh, w + 2 * qw), dtype=np.float32)
    frames = window.transpose(1, 0, 2, 3)
    inner = frames[:, :, qh : qh + h, qw : qw + w]
    src = frames
    if upsampled:
        src = np.empty((cin, kt, rows + kh - 1, wp), dtype=np.float32)  # row band
        # Band columns j, j + fw, ... are the m window columns from x on.
        col_phases = [
            (j, (j - pw) // fw + qw, len(range(j, wp, fw))) for j in range(fw)
        ]
    # taps[c, dt, Y, X, dy, dx] = src[c, dt, Y + dy, X + dx]: a read-only view.
    taps = np.lib.stride_tricks.sliding_window_view(src, (kh, kw), axis=(2, 3))
    kept = 0  # window frames carried over from the previous output frame
    for t in range(to):
        for dt in range(kt):
            if dt < kept:
                window[dt] = window[dt + st]
            else:
                fill(inner[:, dt], t * st + dt, col_buf)
        kept = max(kt - st, 0)
        for y0 in range(0, ho, rows):
            r = min(rows, ho - y0)
            base = 0 if upsampled else y0 * sh
            if upsampled:
                band = src[:, :, : r + kh - 1]
                for i in range(fh):  # band rows i, i + fh, ...: window rows y on
                    y = (y0 + i - ph) // fh + qh
                    n = len(range(i, r + kh - 1, fh))
                    for j, x, m in col_phases:
                        band[:, :, i::fh, j::fw] = frames[:, :, y : y + n, x : x + m]
            col = col_buf[: k * r * wo].reshape(cin, kt, kh, kw, r, wo)
            tile = taps[:, :, base : base + sh * (r - 1) + 1 : sh, :: sw]
            np.copyto(col, tile.transpose(0, 1, 4, 5, 2, 3))
            np.matmul(
                wmat, col.reshape(k, r * wo),
                out=out_rows[:, t, y0 * wo : (y0 + r) * wo],
            )
    out += bias[:, None, None, None]
    return out, inner


def causal_conv3d(
    x: VideoTensor, spec: ConvSpec, weight, bias=None
) -> VideoTensor:
    """Whole-clip causal convolution: a stream of one chunk."""
    if x.channels != spec.in_channels:
        raise ShapeError(
            f"input has {x.channels} channels, spec expects {spec.in_channels}"
        )
    conv = _ConvStream(spec, *_check_weights(spec, weight, bias))
    return VideoTensor(conv.feed(x.data, final=True))


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

    frames_seen: int = 0
    next_window_start: int = 0
    cache: np.ndarray = field(default_factory=lambda: _EMPTY)
    finalized: bool = False

    @property
    def occupancy(self) -> int:
        """Number of frames currently retained."""
        return 0 if self.cache.ndim != 4 else self.cache.shape[1]


@dataclass(eq=False)
class _ConvStream:
    """A causal conv and its tail-frame cache, fed one chunk at a time.

    The conv input is a virtual sequence: cached frames, then the causal lead
    (first chunk only), then the chunk. Its frames are written straight into
    the conv window, so the padded input is never assembled. ``factors``
    makes the conv read the chunk through a nearest upsample with the causal
    time rule of :func:`nearest_upsample`: time doubling repeats a frame's
    index in the sequence, and the window keeps source-resolution frames that
    :func:`_conv3d_core` expands a row band at a time, so neither the
    upsampled chunk nor an upsampled frame is made. Likewise ``prologue`` is
    applied to each chunk frame as it enters the window; a conv reads through
    one of the two, never both. The cache keeps conv-input frames after the
    prologue, before the upsample and the spatial border; the final chunk
    keeps none and leaves a finalized ``state``.
    """

    spec: ConvSpec
    weight: np.ndarray
    bias: np.ndarray
    factors: tuple[int, int, int] = (1, 1, 1)
    prologue: _Prologue | None = None
    state: CacheState = field(default_factory=CacheState)

    def feed(self, frames: np.ndarray, final: bool = False) -> np.ndarray:
        """Convolve one chunk against the cache; ``final`` ends the stream."""
        state, spec, prologue = self.state, self.spec, self.prologue
        if state.finalized:
            raise StateError("chunk fed after the stream was finalized")
        ft, fh, fw = self.factors
        st = spec.stride[0]
        c, n, h, w = frames.shape
        scratch = 0 if prologue is None or not n else 2 * c * h * w
        stats = None
        if scratch and prologue.gain is not None:
            stats = _ChunkNorm(frames, prologue.gain, prologue.bias, prologue.groups)
        # Factor-2 time upsampling doubles every frame but the stream's first.
        drop = int(ft == 2 and state.frames_seen == 0)
        n = max(n * ft - drop, 0)
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
        length = max(head + n - offset, 0)

        def fill(dst: np.ndarray, p: int, buf: np.ndarray) -> None:
            """Write conv-input frame ``p`` (unpadded) into ``dst``."""
            if p < cached:
                dst[...] = state.cache[:, p]
            elif p < head and spec.pad_mode == PAD_ZEROS:
                dst[...] = 0.0
            else:
                q = 0 if p < head else p - head + offset  # replicate: chunk frame 0
                j = (q + drop) // ft
                if prologue is None:
                    dst[...] = frames[:, j]
                    return
                # The prologue works in two contiguous frames at the start of
                # ``buf``; only the final division writes ``dst``.
                normed, tmp = buf[: 2 * c * h * w].reshape(2, c, h, w)
                src = frames[:, j]
                if stats is not None:
                    stats.apply(src, j, normed)
                    src = normed
                _silu_into(src, dst, tmp)

        shape = (c, h, w)
        out, last = _conv3d_core(
            fill, length, shape, self.weight, self.bias, spec, scratch, (fh, fw)
        )
        keep_from = out.shape[1] * st
        if final or keep_from >= length:
            cache = _EMPTY
        else:
            cache = np.empty((c, length - keep_from) + shape[1:], dtype=np.float32)
            buf = np.empty(scratch, dtype=np.float32)
            first = keep_from - st  # the last window's first frame
            for p in range(keep_from, length):
                if last is not None and p - first < last.shape[1]:
                    cache[:, p - keep_from] = last[:, p - first]  # filled already
                else:
                    fill(cache[:, p - keep_from], p, buf)
        self.state = CacheState(
            frames_seen=new_seen,
            next_window_start=state.next_window_start + keep_from,
            cache=cache,
            finalized=final,
        )
        return out


def stream_conv3d(
    state: CacheState, chunk: VideoTensor, spec: ConvSpec, weight, bias=None
) -> tuple[VideoTensor | None, CacheState]:
    """Feed one chunk; returns (output chunk or None, updated state).

    None means no window completed yet (the frames were cached). Concatenating
    all non-None outputs over a stream reproduces :func:`causal_conv3d` on the
    concatenated input exactly.
    """
    if chunk.channels != spec.in_channels:
        raise ShapeError(
            f"chunk has {chunk.channels} channels, spec expects {spec.in_channels}"
        )
    conv = _ConvStream(spec, *_check_weights(spec, weight, bias), state=state)
    out = conv.feed(chunk.data)
    if out.shape[1] == 0:
        return None, conv.state
    return VideoTensor(out), conv.state


# ---------------------------------------------------------------------------
# Stream-safe pointwise/per-frame layers and the whole-clip negative control.
# ---------------------------------------------------------------------------


def silu(x: np.ndarray) -> np.ndarray:
    """Smooth gate x * sigmoid(x) = x / (1 + exp(-x)).

    Large negative inputs overflow exp harmlessly (x / inf underflows to -0),
    so the computation stays branch-free.
    """
    x = np.asarray(x, dtype=np.float32)
    out = np.empty(x.shape, dtype=np.float32)
    _silu_into(x, out, np.empty(x.shape, dtype=np.float32))
    return out


def _silu_into(x: np.ndarray, dst: np.ndarray, tmp: np.ndarray) -> None:
    """dst = x / (1 + exp(-x)), the float ops of :func:`silu` and of every
    conv prologue.

    exp runs on the contiguous ``tmp``: numpy's vectorized float32 exp and
    its strided fallback can differ in the last bit.
    """
    np.negative(x, out=tmp)
    with np.errstate(over="ignore"):
        np.exp(tmp, out=tmp)
    tmp += 1.0
    np.divide(x, tmp, out=dst)


class _ChunkNorm:
    """A norm layer's statistics over one chunk, applied frame by frame: the
    frame is normalized, scaled by ``gain`` and shifted by ``bias``.

    ``groups`` 0 normalizes each frame over (channels, height, width); no
    statistic crosses the time axis, so the layer is stream-safe. ``groups``
    g normalizes each of g channel groups over the whole chunk, whose
    statistics then depend on where chunk boundaries fall (the negative
    control). Float64 accumulators, float32 arithmetic; the chunk is squared
    at once, which in a residual block's body is one frame. A slice whose
    float32 squares overflow (|x| above about 1.8e19) is normalized in float64
    instead; every other slice keeps the float32 result, bit for bit.
    Statistics are held per (channel, frame), broadcast over whichever axis
    they do not span.
    """

    def __init__(
        self, frames: np.ndarray, gain: np.ndarray, bias: np.ndarray,
        groups: int = 0, eps: float = 1e-5,
    ):
        c, t, h, w = frames.shape
        if groups:
            x, axes = frames.reshape(groups, c // groups, t, h, w), (1, 2, 3, 4)
        else:
            x, axes = frames, (0, 2, 3)

        def per_frame(a: np.ndarray) -> np.ndarray:
            if not groups:
                return a  # (1, t, 1, 1)
            per_channel = np.repeat(a.reshape(groups, 1, 1, 1), c // groups, axis=0)
            return np.broadcast_to(per_channel, (c, t, 1, 1))

        mean = x.mean(axis=axes, keepdims=True, dtype=np.float64)
        with np.errstate(over="ignore"):
            ex2 = np.mean(np.square(x), axis=axes, keepdims=True, dtype=np.float64)
        wide = ~np.isfinite(ex2)
        var = np.maximum(ex2 - np.square(mean), 0.0)
        # Scale is 0 on the wide slices; a zero shift there keeps x * 0 finite.
        self.scale = per_frame((1.0 / np.sqrt(var + eps)).astype(np.float32))
        self.shift = per_frame(np.where(wide, 0.0, mean).astype(np.float32))
        self.wide = per_frame(wide)
        if wide.any():
            centered = x.astype(np.float64) - mean
            var = np.mean(np.square(centered), axis=axes, keepdims=True)
            self.mean = per_frame(mean)
            self.root = per_frame(np.sqrt(var + eps))
        self.gain = gain[:, None, None]
        self.bias = bias[:, None, None]

    def apply(self, src: np.ndarray, t: int, dst: np.ndarray) -> None:
        """Write the normalized frame ``t`` of the chunk, ``src``, into ``dst``."""
        np.subtract(src, self.shift[:, t], out=dst)
        dst *= self.scale[:, t]
        wide = self.wide[:, t]
        if wide.any():
            exact = (src.astype(np.float64) - self.mean[:, t]) / self.root[:, t]
            np.copyto(dst, exact.astype(np.float32), where=wide)
        dst *= self.gain
        dst += self.bias


@dataclass(frozen=True, eq=False)
class _Prologue:
    """What a conv applies to each input frame as it enters the window: SiLU
    of the norm with ``gain``, ``bias`` and ``groups`` (see
    :class:`_ChunkNorm`), or SiLU alone when ``gain`` is None. The normalized
    and activated chunk is never made as a whole."""

    gain: np.ndarray | None = None
    bias: np.ndarray | None = None
    groups: int = 0


def _normalized(frames: np.ndarray, gain, bias, groups: int, eps: float) -> np.ndarray:
    out = np.empty(frames.shape, dtype=np.float32)
    if frames.shape[1]:
        stats = _ChunkNorm(frames, gain, bias, groups, eps)
        for t in range(frames.shape[1]):
            stats.apply(frames[:, t], t, out[:, t])
    return out


def frame_layernorm(
    x: VideoTensor, gain, bias, eps: float = 1e-5
) -> VideoTensor:
    """Normalize each frame over (channels, height, width); stream-safe.

    No statistic crosses the time axis, so chunked evaluation is identical to
    whole-clip evaluation.
    """
    gain, bias, _ = _check_affine(x.channels, gain, bias, eps)
    return VideoTensor(_normalized(x.data, gain, bias, 0, eps))


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
    return VideoTensor(_normalized(x.data, gain, bias, groups, eps))


def nearest_upsample(x: VideoTensor, factors: tuple[int, int, int]) -> VideoTensor:
    """Nearest-neighbor upsampling with a causal time rule.

    Temporal factor 2 emits 2t frames and drops the duplicated first frame,
    yielding 2t - 1: the inverse of the causal pad-then-halve time law, and
    per-frame (hence stream-safe).
    """
    ft, fh, fw = factors
    if ft not in (1, 2) or fh < 1 or fw < 1:
        raise ParameterError(f"unsupported upsample factors {factors}")
    out = np.repeat(np.repeat(x.data, fh, axis=2), fw, axis=3)
    if ft == 2:
        out = np.repeat(out, 2, axis=1)[:, 1:]
    return VideoTensor(out)


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
