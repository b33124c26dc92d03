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

import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import blas
from .errors import ParameterError, ShapeError, StateError
from .tensor import VideoTensor, _check_frame

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
# geometry alone, never of the chunk length or of the worker count, so every
# frame is computed by the same GEMMs under every chunk plan and on any number
# of workers, and the output bits depend on neither. A tile's column is one
# ordered copy from a strided view of the window, 1.2-1.6x faster than a copy
# per (dy, dx) tap. Each of up to W workers holds one column, so on 2 workers
# the columns hold the 4 MiB that one 4 MiB column held on one: on one BLAS
# thread the 2 MiB tiles cost 15-23% on the dec.up1 conv, which a second
# worker wins back.
_COL_TILE_BYTES = 2 << 20


def _tile_rows(k: int, ho: int, wo: int) -> int:
    """Output rows per tile of a conv with K = ``k`` and ``ho`` x ``wo``
    output frames: as many as fit the budget, balanced over the frame."""
    rows = max(1, min(ho, _COL_TILE_BYTES // (4 * k * wo)))
    return -(-ho // -(-ho // rows))


def causal_conv3d(
    x: VideoTensor, spec: ConvSpec, weight, bias=None
) -> VideoTensor:
    """Whole-clip causal convolution: a stream of one chunk."""
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
    frame: tuple[int, int, int] | None = None  # the first chunk's (c, h, w)

    @property
    def occupancy(self) -> int:
        """Number of frames currently retained."""
        return 0 if self.cache.ndim != 4 else self.cache.shape[1]


@dataclass(eq=False)
class _ConvStream:
    """A causal conv and its tail-frame cache, fed one chunk at a time.

    The conv input is a virtual sequence: cached frames, then the causal lead
    (first chunk only), then the chunk, written frame by frame into one
    zero-bordered window of k_t frames, so the padded input is never
    assembled. Each output frame shifts the window down by s_t and fills the
    s_t newest frames, so no buffer grows with the chunk; a feed emits every
    window that fits, (length - k_t) // s_t + 1 output frames of a sequence
    of ``length``, or none when length < k_t. ``factors`` makes the conv read
    the chunk through a nearest upsample with the causal time rule of
    :func:`nearest_upsample`: time doubling repeats a frame's index in the
    sequence, and the window holds source-resolution frames with a border of
    ceil(ph / fh) rows and ceil(pw / fw) columns, so neither the upsampled
    chunk nor an upsampled frame is made. Likewise ``prologue`` is applied to
    each chunk frame as it enters the window; a conv reads through one of the
    two, never both.

    A tile is a band of output rows of one output frame, and one im2col GEMM.
    Its column is one copy from a sliding-window view of the window, or of a
    reused row band into which an upsampling conv expands the rows the tile
    reads (padded upsampled row Y is window row (Y - ph) // fh + ceil(ph / fh),
    and columns alike). Column rows are ordered (c, dt, dy, dx), the order of
    the stored weight, so the GEMM takes ``weight.reshape(cout, -1)`` without
    a copy and writes straight into the output. Once the window holds a
    frame's inputs, up to ``W`` workers take its tiles (:func:`blas.share_out`)
    with the BLAS pinned at one thread (:func:`blas.one_blas_thread`), each
    with its own column buffer and row band; only as many sets are made as a
    frame has tiles. The prologue works in the first column buffer, which is
    idle while the window fills.

    The cache keeps conv-input frames after the prologue, before the upsample
    and the spatial border; the final chunk keeps none and leaves a finalized
    ``state``. A chunk whose channels differ from the spec's, or whose
    (c, h, w) differs from the stream's first chunk's, is rejected before
    ``state`` changes. Then the feed takes the cache out of ``state`` and
    drops it once the first window holds its frames, before the column
    buffers are made, so unless someone else holds it (as
    :func:`stream_conv3d`'s caller does) cache, window and columns are
    never held at once. Until the feed ends the state lacks the cache, so
    after a failed feed the next one raises StateError instead of silently
    missing the cached frames.
    """

    spec: ConvSpec
    weight: np.ndarray
    bias: np.ndarray
    factors: tuple[int, int, int] = (1, 1, 1)
    prologue: _Prologue | None = None
    state: CacheState = field(default_factory=CacheState)

    # ``sliding_window_view`` reads its array's ``__array_interface__``, a
    # dict whose keys the interpreter interns as it builds it and drops with
    # it. Held here they stay interned, so a feed's window views leave the
    # interned-string table as it was: a table that fills with dropped keys
    # is rebuilt, and in a large process that makes a 1.8 MiB table mid-call.
    _interface_keys = tuple(sys.intern(key) for key in np.empty(0).__array_interface__)

    def feed(
        self, frames: np.ndarray | list[np.ndarray], final: bool = False,
        into: np.ndarray | None = None,
    ) -> np.ndarray:
        """Convolve one chunk against the cache; ``final`` ends the stream.

        ``frames`` may come as a one-item list, which the feed empties once
        the window holds every chunk frame it still reads: a caller that
        keeps no other reference frees the chunk before the last frame's
        GEMMs. With ``into``, an array of the output's shape, each tile's
        GEMM and bias land in a per-worker tile buffer that is added into
        ``into`` (the float ops of ``out += bias; into += out``), and
        ``into`` is returned: no output array is made.
        """
        box = frames if isinstance(frames, list) else None
        if box is not None:
            frames = box[0]
        state, spec, prologue = self.state, self.spec, self.prologue
        if state.finalized:
            raise StateError("chunk fed after the stream was finalized")
        ft, fh, fw = self.factors
        cout = spec.out_channels
        kt, kh, kw = spec.kernel
        st, sh, sw = spec.stride
        ph, pw = spec.spatial_pad
        c, n, h, w = frames.shape
        if c != spec.in_channels:
            raise ShapeError(f"chunk has {c} channels, spec expects {spec.in_channels}")
        _check_frame(state.frame, (c, h, w))
        cached = state.occupancy
        upsampled = fh > 1 or fw > 1
        if upsampled and (sh, sw) != (1, 1):
            raise ParameterError(
                f"spatial upsampling {(fh, fw)} needs spatial stride 1, got {(sh, sw)}"
            )
        hp, wp = fh * h + 2 * ph, fw * w + 2 * pw
        if hp < kh or wp < kw:
            raise ShapeError(
                f"spatial extent ({hp}, {wp}) smaller than kernel ({kh}, {kw})"
            )
        ho, wo = (hp - kh) // sh + 1, (wp - kw) // sw + 1
        scratch = 0 if prologue is None or not n else 2 * c * h * w
        stats = None
        if scratch and prologue.gain is not None:
            stats = _ChunkNorm(frames, prologue.gain, prologue.bias, prologue.groups)
        # Factor-2 time upsampling doubles every frame but the stream's first.
        drop = int(ft == 2 and state.frames_seen == 0)
        n = max(n * ft - drop, 0)
        lead = spec.temporal_pad if n and state.frames_seen == 0 else 0
        head = cached + lead
        new_seen = state.frames_seen + lead + n
        slab_start = new_seen - head - n
        # A non-empty cache starts exactly at the next window, so frames are
        # skipped (offset > 0) only from a chunk that follows an empty cache.
        offset = state.next_window_start - slab_start
        if offset < 0:
            raise StateError("cache lost frames still needed by the next window")
        length = max(head + n - offset, 0)
        to = max(0, (length - kt) // st + 1)

        def fill(dst: np.ndarray, p: int, buf: np.ndarray) -> None:
            """Write conv-input frame ``p`` >= ``cached`` (unpadded) into ``dst``."""
            if p < head and spec.pad_mode == PAD_ZEROS:
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

        if into is None:
            out = np.empty((cout, to, ho, wo), dtype=np.float32)
        elif into.shape != (cout, to, ho, wo):
            raise ShapeError(f"output {(cout, to, ho, wo)} cannot add into {into.shape}")
        else:
            out = into
        last = state.cache if cached else None  # filled frames from frame 0 on
        self.state = state = replace(state, cache=_EMPTY)
        if to:
            k = c * kt * kh * kw
            rows = _tile_rows(k, ho, wo)
            tiles = -(-ho // rows)
            wmat = self.weight.reshape(cout, k)
            out_rows = out.reshape(cout, to, ho * wo) if into is None else None
            qh, qw = -(-ph // fh), -(-pw // fw)
            # Time-major, so a shift copies whole frames, which do not overlap;
            # fill, columns and cache read it channel-major through ``slots``.
            window = np.zeros((kt, c, h + 2 * qh, w + 2 * qw), dtype=np.float32)
            slots = window.transpose(1, 0, 2, 3)
            inner = slots[:, :, qh : qh + h, qw : qw + w]
            if cached:
                inner[:, :cached] = last
            last = inner  # from here on, the last window's frames
            with blas.one_blas_thread() as workers:
                workers = max(1, min(workers, tiles))
                cols = [np.empty(max(k * rows * wo, scratch), dtype=np.float32)]
                cols += [np.empty(k * rows * wo, dtype=np.float32) for _ in range(workers - 1)]
                parts = []  # the tile buffers of a feed ``into``
                if into is not None:
                    parts = [np.empty((cout, rows * wo), dtype=np.float32) for _ in cols]
                    bias = self.bias[:, None]
                srcs = [slots] * workers
                if upsampled:
                    srcs = [  # row bands
                        np.empty((c, kt, rows + kh - 1, wp), dtype=np.float32) for _ in cols
                    ]
                    # Band columns j, j + fw, ... are the m window columns from x on.
                    col_phases = [
                        (j, (j - pw) // fw + qw, len(range(j, wp, fw))) for j in range(fw)
                    ]
                # taps[c, dt, Y, X, dy, dx] = src[c, dt, Y + dy, X + dx]: read-only views.
                taps = [
                    np.lib.stride_tricks.sliding_window_view(src, (kh, kw), axis=(2, 3))
                    for src in srcs
                ]

                def run_tile(worker: int, tile: int, t: int) -> None:
                    """Output rows ``tile * rows`` on of output frame ``t``."""
                    y0 = tile * rows
                    r = min(rows, ho - y0)
                    base = 0 if upsampled else y0 * sh
                    if upsampled:
                        band = srcs[worker][:, :, : r + kh - 1]
                        for i in range(fh):  # band rows i, i + fh, ...: window rows y on
                            y = (y0 + i - ph) // fh + qh
                            n = len(range(i, r + kh - 1, fh))
                            for j, x, m in col_phases:
                                band[:, :, i::fh, j::fw] = slots[:, :, y : y + n, x : x + m]
                    col = cols[worker][: k * r * wo].reshape(c, kt, kh, kw, r, wo)
                    tile_view = taps[worker][:, :, base : base + sh * (r - 1) + 1 : sh, :: sw]
                    np.copyto(col, tile_view.transpose(0, 1, 4, 5, 2, 3))
                    col = col.reshape(k, r * wo)
                    if into is None:
                        np.matmul(wmat, col, out=out_rows[:, t, y0 * wo : (y0 + r) * wo])
                    else:
                        part = np.matmul(wmat, col, out=parts[worker][:, : r * wo])
                        part += bias
                        into[:, t, y0 : y0 + r] += part.reshape(cout, r, wo)

                kept = 0  # window frames carried over from the previous output frame
                for t in range(to):
                    for dt in range(kt):
                        if dt < kept:
                            window[dt] = window[dt + st]
                        elif t or dt >= cached:
                            fill(inner[:, dt], t * st + dt, cols[0])
                    kept = max(kt - st, 0)
                    if box and t == to - 1 and length <= t * st + kt:
                        box.clear()  # the cache is rebuilt from the window
                        frames = None
                    blas.share_out(tiles, workers, lambda i, tile: run_tile(i, tile, t))
                del cols, srcs, taps, parts  # before the bias add, which may make a buffer
            if into is None:
                out += self.bias[:, None, None, None]
        keep_from = to * st
        cache = _EMPTY
        if not final and keep_from < length:
            cache = np.empty((c, length - keep_from, h, w), dtype=np.float32)
            buf = None  # made for the first frame not filled already
            first = max(keep_from - st, 0)  # where ``last`` starts
            for p in range(keep_from, length):
                if last is not None and p - first < last.shape[1]:
                    cache[:, p - keep_from] = last[:, p - first]  # filled already
                else:
                    if buf is None:
                        buf = np.empty(scratch, dtype=np.float32)
                    fill(cache[:, p - keep_from], p, buf)
        self.state = CacheState(
            frames_seen=new_seen,
            next_window_start=state.next_window_start + keep_from,
            cache=cache,
            finalized=final,
            frame=(c, h, w),
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


def _moments(x: np.ndarray, axes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float64 mean and variance E[x^2] - mean^2 of ``x`` over ``axes``, the
    squares taken in float32, and the variance to use where those overflow
    (the first variance is inf there): the float64 variance about the mean."""
    mean = x.mean(axis=axes, keepdims=True, dtype=np.float64)
    with np.errstate(over="ignore"):
        ex2 = np.mean(np.square(x), axis=axes, keepdims=True, dtype=np.float64)
    var = exact = np.maximum(ex2 - np.square(mean), 0.0)
    if not np.isfinite(var).all():
        centered = x.astype(np.float64) - mean
        exact = np.mean(np.square(centered), axis=axes, keepdims=True)
    return mean, var, exact


class _ChunkNorm:
    """A norm layer's statistics over one chunk, applied frame by frame: the
    frame is normalized, scaled by ``gain`` and shifted by ``bias``.

    ``groups`` 0 normalizes each frame over (channels, height, width), taking
    the statistics one frame at a time: no statistic crosses the time axis,
    no temporary exceeds a frame, and a frame's statistics are the same bits
    in every chunk, so the layer is stream-safe bit for bit. ``groups`` g
    normalizes each of g channel groups over the whole chunk, whose
    statistics then depend on where chunk boundaries fall (the negative
    control). Float64 accumulators, float32 arithmetic. A slice whose float32
    squares overflow (|x| above about 1.8e19) is normalized in float64
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
            x = frames.reshape(groups, c // groups, t, h, w)
            mean, var, exact = _moments(x, (1, 2, 3, 4))
        else:
            per = [_moments(frames[:, i : i + 1], (0, 2, 3)) for i in range(t)]
            mean, var, exact = (np.concatenate(a, axis=1) for a in zip(*per))

        def per_frame(a: np.ndarray) -> np.ndarray:
            if not groups:
                return a  # (1, t, 1, 1)
            per_channel = np.repeat(a.reshape(groups, 1, 1, 1), c // groups, axis=0)
            return np.broadcast_to(per_channel, (c, t, 1, 1))

        wide = ~np.isfinite(var)
        # Scale is 0 on the wide slices; a zero shift there keeps x * 0 finite.
        self.scale = per_frame((1.0 / np.sqrt(var + eps)).astype(np.float32))
        self.shift = per_frame(np.where(wide, 0.0, mean).astype(np.float32))
        self.wide = per_frame(wide)
        self.mean = per_frame(mean)
        self.root = per_frame(np.sqrt(exact + eps))
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
