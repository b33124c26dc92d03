"""Haar filter banks in 1D, composed into 2D/3D transforms and a 3-level pyramid.

The scaling filter averages adjacent samples and the wavelet filter differences
them, both scaled by 1/sqrt(2), so every single-level transform is orthonormal:
it preserves squared L2 norm and inverts exactly (up to float32 rounding).

Axis convention: subband keys spell the per-axis filter choice, low-pass ``h``
or high-pass ``g``, in (time, height, width) order for 3D and (height, width)
order for 2D. ``hhh`` is therefore the all-low-pass band that carries most of
the energy of natural video.

Odd temporal lengths are handled causally: frame 0 is replicated once at the
front before pairing, so the first temporal coefficient of every subband
depends only on input frame 0. Spatial extents must be even; there is no
spatial padding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blas
from .errors import ShapeError
from .tensor import VideoTensor, _check_frame, _widen, _with_range

INV_SQRT2 = 2.0**-0.5

KEYS_3D = ("hhh", "hhg", "hgh", "ghh", "hgg", "ggh", "ghg", "ggg")
KEYS_2D = ("hh", "hg", "gh", "gg")

# Budget of one block of the 3D kernels: the temporal butterflies of a block
# write two (c, pairs, h, w) scratch arrays of at most this size each (at
# least one pair), which the spatial passes read back while they are still
# warm. Writing into fresh clip-sized temporaries costs more in page faults
# than the arithmetic itself, so the kernels allocate only their outputs and
# these small reused buffers. On a (3,129,256,256) pyramid round trip any
# budget from 128 KiB to 4 MiB ran equally fast and 16 MiB was slower. The
# block depends on the frame geometry alone, never on a chunk's length, and
# every element sees the same float32 operations in any block. A call that
# spans several blocks divides this scratch among its worker threads: each
# holds the work arrays of only its own range of rows. The 2D kernels take as
# many frames per block as the 3D kernels take pairs.
_BLOCK_BYTES = 1 << 20
# Runs of blocks a split call cuts its time axis into, so that threads share
# out tiles as they finish instead of waiting on the slowest (``_over_tiles``).
_SEGMENTS = 4


def _over_tiles(rows: int, blocks: int, split: bool, run) -> list:
    """The results of ``run(band_rows, block_range)`` on tiles that cover
    band rows 0:rows and blocks 0:blocks once each.

    Unless ``split``, one tile covers everything on the calling thread.
    Otherwise the rows are cut into up to ``W`` (:func:`blas.worker_count`)
    contiguous ranges, one per worker, and the blocks into up to
    ``_SEGMENTS`` runs. Each worker takes the next tile when it finishes
    one (:func:`blas.share_out`), so a worker on a slower CPU delays the
    call by at most one tile. A tile makes the work arrays of its own rows
    and frees them before its worker takes the next, so the tiles running at
    once hold one serial call's work arrays, give or take a row each.
    """
    workers = min(blas.worker_count(), rows) if split else 1
    if workers <= 1:
        return [run(slice(0, rows), range(blocks))]
    bounds = [rows * i // workers for i in range(workers + 1)]
    step = -(-blocks // min(blocks, _SEGMENTS))  # a split call has blocks >= 1
    tiles = [
        (slice(a, b), range(start, min(start + step, blocks)))
        for start in range(0, blocks, step)
        for a, b in zip(bounds, bounds[1:])
    ]
    return blas.share_out(len(tiles), workers, lambda _, i: run(*tiles[i]))


def _union(ranges):
    """The smallest (min, max) that covers every range in ``ranges``, where
    None stands for no values; None when all are None."""
    bounds = None
    for part in ranges:
        if part is not None:
            bounds = _widen(bounds, *part)
    return bounds


def _block_pairs(c: int, h: int, w: int) -> int:
    """Temporal pairs per block for (c, h, w) full-resolution frames."""
    return max(1, _BLOCK_BYTES // (4 * c * h * w))


def _butterfly(x, y, low, high) -> None:
    """low = (x + y) / sqrt(2), high = (x - y) / sqrt(2), in place; None skips."""
    if low is not None:
        np.add(x, y, out=low)
        low *= INV_SQRT2
    if high is not None:
        np.subtract(x, y, out=high)
        high *= INV_SQRT2


def _analyze_2d_into(frames, bands, prefix: str, where, row) -> None:
    """Spatial analysis of (c, t, h, w) frames into bands[prefix+hh..gg][where].

    Height, then width, for the low and then the high height-pass output,
    each made in ``row``, one (c, t, h/2, w) scratch array.
    """
    for hkey, low, high in (("h", row, None), ("g", None, row)):
        _butterfly(frames[:, :, 0::2], frames[:, :, 1::2], low, high)
        _butterfly(
            row[..., 0::2],
            row[..., 1::2],
            bands[prefix + hkey + "h"][where],
            bands[prefix + hkey + "g"][where],
        )


def _synthesize_2d_into(bands, prefix: str, where, out, rows) -> None:
    """Exact inverse of :func:`_analyze_2d_into`: bands[...][where] -> out.

    ``out`` is (c, t, 2h, 2w); ``rows`` is two (c, t, h, 2w) scratch arrays.
    """
    for hkey, row in zip("hg", rows):
        _butterfly(
            bands[prefix + hkey + "h"][where],
            bands[prefix + hkey + "g"][where],
            row[..., 0::2],
            row[..., 1::2],
        )
    _butterfly(rows[0], rows[1], out[:, :, 0::2], out[:, :, 1::2])


def _empty_bands(keys, c: int, t: int, h: int, w: int) -> dict[str, np.ndarray]:
    return {k: np.empty((c, t, h, w), dtype=np.float32) for k in keys}


def _scratch(c: int, t: int, *frame_shapes) -> list[np.ndarray]:
    """Uninitialized (c, t, *frame_shape) float32 work arrays.

    A 3D kernel tile makes them for its own band rows and reuses them for
    every block it runs: the temporal butterfly's low and high outputs, then
    the height-pass output of the spatial transform (one for analysis, two
    for synthesis). A block of ``n`` pairs uses the first ``n`` frames of each.
    """
    return [np.empty((c, t, *shape), dtype=np.float32) for shape in frame_shapes]


def _common_shape(bands, keys) -> tuple[int, ...]:
    shapes = {np.shape(bands[k]) for k in keys}
    if len(shapes) != 1:
        raise ShapeError(f"subband shapes differ: {sorted(shapes)}")
    return shapes.pop()


def _analyze_2d(arr: np.ndarray):
    """Spatial analysis of (c, t, h, w) frames into bands keyed hh..gg.

    Runs a block of frames at a time (see ``_BLOCK_BYTES``) through one
    (c, block, h/2, w) scratch array, and takes each band block's min and max
    as soon as it is written. Returns the bands and their exact (min, max) by
    key, None for a band of no frames.
    """
    arr = np.asarray(arr, dtype=np.float32)
    c, t, h, w = arr.shape
    if h % 2 or w % 2:
        raise ShapeError(f"height and width must be even, got ({h}, {w})")
    bands = _empty_bands(KEYS_2D, c, t, h // 2, w // 2)
    size = max(1, min(_block_pairs(c, h, w), t))
    (row,) = _scratch(c, size, (h // 2, w))
    ranges = dict.fromkeys(KEYS_2D)
    for start in range(0, t, size):
        where = (slice(None), slice(start, start + size))
        _analyze_2d_into(arr[where], bands, "", where, row[:, : t - start])
        for key, band in bands.items():
            part = band[where]
            ranges[key] = _widen(ranges[key], part.min(), part.max())
    return bands, ranges


def _synthesize_2d(bands):
    """Exact inverse of :func:`_analyze_2d`, a block of frames at a time
    through two (c, block, h, 2w) scratch arrays. Returns the frames and
    their exact (min, max), taken from each block as it is written (None
    for no frames)."""
    c, t, h, w = _common_shape(bands, KEYS_2D)
    out = np.empty((c, t, 2 * h, 2 * w), dtype=np.float32)
    size = max(1, min(_block_pairs(c, 2 * h, 2 * w), t))
    rows = _scratch(c, size, (h, 2 * w), (h, 2 * w))
    bounds = None
    for start in range(0, t, size):
        where = (slice(None), slice(start, start + size))
        part = out[where]
        _synthesize_2d_into(bands, "", where, part, [r[:, : t - start] for r in rows])
        bounds = _widen(bounds, part.min(), part.max())
    return out, bounds


class _SubbandSet:
    """Fixed-key, uniform-shape collection of subband tensors."""

    KEYS: tuple[str, ...] = ()

    def __init__(self, bands):
        missing = set(self.KEYS) - set(bands)
        extra = set(bands) - set(self.KEYS)
        if missing or extra:
            raise ShapeError(
                f"subband keys must be exactly {self.KEYS}; "
                f"missing={sorted(missing)} extra={sorted(extra)}"
            )
        ordered = {}
        shape = None
        for key in self.KEYS:
            band = bands[key]
            if not isinstance(band, VideoTensor):
                band = VideoTensor(band)
            if shape is None:
                shape = band.shape
            elif band.shape != shape:
                raise ShapeError(
                    f"subband {key} has shape {band.shape}, expected {shape}"
                )
            ordered[key] = band
        self._bands = ordered

    def __getitem__(self, key: str) -> VideoTensor:
        return self._bands[key]

    def keys(self) -> tuple[str, ...]:
        return self.KEYS

    def items(self):
        return ((k, self._bands[k]) for k in self.KEYS)

    @property
    def band_shape(self) -> tuple[int, int, int, int]:
        return self._bands[self.KEYS[0]].shape

    @property
    def time(self) -> int:
        return self.band_shape[1]

    def replace(self, key: str, tensor: VideoTensor):
        if key not in self.KEYS:
            raise ShapeError(f"unknown subband key {key!r}")
        bands = dict(self._bands)
        bands[key] = tensor
        return type(self)(bands)

    def stack(self) -> np.ndarray:
        """Channel-axis concatenation in canonical key order: (nkeys*c, t, h, w)."""
        return np.concatenate([self._bands[k].data for k in self.KEYS], axis=0)

    @classmethod
    def from_stack(cls, arr):
        arr = arr.data if isinstance(arr, VideoTensor) else np.asarray(arr)
        nkeys = len(cls.KEYS)
        if arr.ndim != 4 or arr.shape[0] % nkeys:
            raise ShapeError(
                f"stacked array needs channels divisible by {nkeys}, "
                f"got shape {arr.shape}"
            )
        c = arr.shape[0] // nkeys
        return cls(
            {k: VideoTensor(arr[i * c : (i + 1) * c]) for i, k in enumerate(cls.KEYS)}
        )


class SubbandSet3D(_SubbandSet):
    """Eight subbands of one 3D transform level, keyed hhh..ggg."""

    KEYS = KEYS_3D


class SubbandSet2D(_SubbandSet):
    """Four subbands of one spatial 2D transform level, keyed hh..gg."""

    KEYS = KEYS_2D


def dwt3d(v: VideoTensor) -> SubbandSet3D:
    """Single-level 3D analysis with stride 2 on every axis.

    Applies the causal odd-length rule on time, then separable 1D analysis
    along time, height, and width (in that order). Preserves the squared L2
    norm of the padded input. Runs as a one-chunk :class:`Dwt3dStream`, whose
    tiles take each band's range as they write it.
    """
    stream = Dwt3dStream(pad_first=v.time % 2 == 1)
    bands = stream.feed(v.data)
    return SubbandSet3D({key: _with_range(bands[key], *stream.ranges[key]) for key in KEYS_3D})


def idwt3d(s: SubbandSet3D, original_t: int) -> VideoTensor:
    """Exact inverse of :func:`dwt3d`, trimming the causal pad to original_t frames."""
    pad = 2 * s.time - original_t
    if pad not in (0, 1):
        raise ShapeError(
            f"cannot restore {original_t} frames from {s.time} temporal coefficients"
        )
    stream = Idwt3dStream(drop_first=pad == 1)
    out = stream.feed({key: band.data for key, band in s.items()})
    return _with_range(out, *stream.ranges)


def dwt2d(v: VideoTensor) -> SubbandSet2D:
    """Spatial-only analysis; the time axis passes through untouched.

    Height and width must be even (ShapeError otherwise). The kernel takes
    each band's range as it writes it.
    """
    bands, ranges = _analyze_2d(v.data)
    return SubbandSet2D({key: _with_range(b, *ranges[key]) for key, b in bands.items()})


def idwt2d(s: SubbandSet2D) -> VideoTensor:
    """Exact inverse of :func:`dwt2d`; the kernel takes the range as it writes."""
    out, bounds = _synthesize_2d({key: band.data for key, band in s.items()})
    return _with_range(out, *bounds)


@dataclass(frozen=True)
class WaveletPyramid:
    """Three-level decomposition: two 3D levels then one spatial 2D level.

    level2 is computed from level1's hhh band and level3 from level2's, giving
    an overall 4x8x8 (time x height x width) token compression for inputs with
    time = 4k+1. :func:`build_pyramid` is the constructor and makes the level
    shapes agree; :func:`reconstruct_pyramid` raises ShapeError for levels
    that do not.
    """

    level1: SubbandSet3D
    level2: SubbandSet3D
    level3: SubbandSet2D


def build_pyramid(v: VideoTensor) -> WaveletPyramid:
    """Full 3-level decomposition of a video with spatial dims divisible by 8."""
    h, w = v.shape[2:]
    if h % 8 or w % 8:
        raise ShapeError(f"height and width must be divisible by 8, got ({h}, {w})")
    level1 = dwt3d(v)
    level2 = dwt3d(level1["hhh"])
    level3 = dwt2d(level2["hhh"])
    return WaveletPyramid(level1=level1, level2=level2, level3=level3)


def reconstruct_pyramid(p: WaveletPyramid, original_t: int) -> VideoTensor:
    """Exact inverse of :func:`build_pyramid` for the stated frame count."""
    t1 = p.level1.time
    if 2 * t1 - original_t not in (0, 1):
        raise ShapeError(
            f"cannot restore {original_t} frames from a level 1 of {t1} frames"
        )
    # Nested so the level-2 hhh band and its replaced set die before the
    # level-1 synthesis allocates its output.
    s1_hhh = idwt3d(p.level2.replace("hhh", idwt2d(p.level3)), original_t=t1)
    return idwt3d(p.level1.replace("hhh", s1_hhh), original_t=original_t)


# ---------------------------------------------------------------------------
# Streaming forms of the temporal transform. Spatial transforms are per-frame
# and need no state; only the temporal pairing buffers anything (at most one
# frame). Feeding the same frames in any chunking reproduces the direct
# transform bit for bit, because the pairing and the per-frame spatial passes
# see identical values in identical order.
# ---------------------------------------------------------------------------


class Dwt3dStream:
    """Chunked :func:`dwt3d`: feed (c, n, h, w) frames, collect subband chunks.

    ``pad_first`` must be True exactly when the total stream length is odd,
    mirroring the causal odd-length rule of the direct transform.

    Frame-blocked kernel: the eight band arrays are allocated once per chunk
    and filled block by block (see ``_BLOCK_BYTES``). A chunk's first pair
    may start with a leading frame that is not in the chunk, either the
    replicated frame 0 or the odd frame carried over from the last chunk; it
    is paired in place, never concatenated onto the chunk. A chunk of more
    than one block is split into tiles of band rows and blocks that threads
    share out (``_over_tiles``); the leading pair goes with the first block.

    After each :meth:`feed`, ``ranges`` maps every band key to the exact
    (min, max) of that chunk's band, or to None when the chunk made no band
    frames: each tile takes it from the band rows it wrote, on its thread.
    """

    def __init__(self, pad_first: bool):
        self.pad_first = pad_first
        self._carry: np.ndarray | None = None
        self._frame: tuple[int, int, int] | None = None  # (c, h, w) of the first frames
        self.ranges = dict.fromkeys(KEYS_3D)

    def feed(self, frames: np.ndarray) -> dict[str, np.ndarray]:
        frames = np.asarray(frames, dtype=np.float32)
        if frames.ndim != 4:
            raise ShapeError("expected (c, n, h, w) frames")
        c, n, h, w = frames.shape
        if h % 2 or w % 2:
            raise ShapeError(f"height and width must be even, got ({h}, {w})")
        _check_frame(self._frame, (c, h, w))
        if n == 0:
            self.ranges = dict.fromkeys(KEYS_3D)
            return _empty_bands(KEYS_3D, c, 0, h // 2, w // 2)
        lead = self._carry
        if self._frame is None:
            self._frame = (c, h, w)
            if self.pad_first:
                lead = frames[:, :1]
        rest = frames if lead is None else frames[:, 1:]
        pairs = rest.shape[1] // 2
        first = 0 if lead is None else 1
        bands = _empty_bands(KEYS_3D, c, first + pairs, h // 2, w // 2)
        size = min(_block_pairs(c, h, w), max(first + pairs, 1))
        blocks = -(-pairs // size)

        def analyze_tile(band_rows: slice, block_range: range) -> dict:
            m = band_rows.stop - band_rows.start
            work = _scratch(c, size, (2 * m, w), (2 * m, w), (m, w))
            full = slice(2 * band_rows.start, 2 * band_rows.stop)
            src = rest[:, :, full]
            if lead is not None and block_range.start == 0:
                _analyze_pair_block(
                    lead[:, :, full], frames[:, :1, full], bands, 0, band_rows, work
                )
            for block in block_range:
                start, stop = block * size, min(block * size + size, pairs)
                _analyze_pair_block(
                    src[:, 2 * start : 2 * stop : 2],
                    src[:, 2 * start + 1 : 2 * stop : 2],
                    bands,
                    first + start,
                    band_rows,
                    work,
                )
            # The band frames this tile wrote, the leading pair included.
            start = 0 if block_range.start == 0 else first + block_range.start * size
            written = slice(start, first + min(block_range.stop * size, pairs))
            if written.start == written.stop:
                return dict.fromkeys(bands)
            parts = ((key, band[:, written, band_rows]) for key, band in bands.items())
            return {key: (part.min(), part.max()) for key, part in parts}

        tiles = _over_tiles(h // 2, blocks, first + pairs > size, analyze_tile)
        self.ranges = {key: _union(tile[key] for tile in tiles) for key in KEYS_3D}
        self._carry = rest[:, 2 * pairs :].copy() if rest.shape[1] % 2 else None
        return bands


class Idwt3dStream:
    """Chunked :func:`idwt3d`: feed subband chunks, collect video frames.

    ``drop_first`` must be True exactly when the original stream length is
    odd, so the synthesized duplicate of frame 0 is discarded once.

    Frame-blocked kernel: the output frames are allocated once per chunk and
    each block's even and odd frames are written straight into them. The
    dropped duplicate of frame 0 is never computed, so the result is one
    contiguous array. A chunk of more than one block is split into tiles of
    band rows and blocks that threads share out (``_over_tiles``).

    After each :meth:`feed`, ``ranges`` is the exact (min, max) of that
    chunk's frames, or None when it made none: each tile takes it from every
    block of frames it writes, while the block is still in cache.
    """

    def __init__(self, drop_first: bool):
        self.drop_first = drop_first
        self._frame: tuple[int, int, int] | None = None  # (c, h, w) of the first bands
        self.ranges = None

    def feed(self, bands: dict[str, np.ndarray]) -> np.ndarray:
        c, n, h, w = _common_shape(bands, KEYS_3D)
        _check_frame(self._frame, (c, h, w))
        drop = n > 0 and self.drop_first and self._frame is None
        self._frame = (c, h, w) if n else self._frame
        out = np.empty((c, 2 * n - drop, 2 * h, 2 * w), dtype=np.float32)
        size = min(_block_pairs(c, 2 * h, 2 * w), max(n, 1))

        def synthesize_tile(band_rows: slice, block_range: range):
            m = band_rows.stop - band_rows.start
            work = _scratch(c, size, (2 * m, 2 * w), (2 * m, 2 * w), (m, 2 * w), (m, 2 * w))
            full = slice(2 * band_rows.start, 2 * band_rows.stop)
            dest = out[:, :, full]
            bounds = None
            for block in block_range:
                start, stop = block * size, min(block * size + size, n)
                low, high, *rows = (a[:, : stop - start] for a in work)
                where = (slice(None), slice(start, stop), band_rows)
                _synthesize_2d_into(bands, "h", where, low, rows)
                _synthesize_2d_into(bands, "g", where, high, rows)
                # Pair p becomes frames 2p - drop (even) and 2p + 1 - drop (odd).
                frame = 2 * start - drop
                written = max(frame, 0)
                if frame < 0:
                    _butterfly(low[:, :1], high[:, :1], None, dest[:, :1])
                    low, high, frame = low[:, 1:], high[:, 1:], 1
                end = frame + 2 * low.shape[1]
                _butterfly(low, high, dest[:, frame:end:2], dest[:, frame + 1 : end : 2])
                part = dest[:, written:end]
                bounds = _widen(bounds, part.min(), part.max())
            return bounds

        tiles = _over_tiles(h, -(-n // size), n > size, synthesize_tile)
        self.ranges = _union(tiles)
        return out


def _analyze_pair_block(even, odd, bands, start: int, band_rows: slice, scratch) -> None:
    """Analyze the frame pairs (even[:, i], odd[:, i]) into the band rows
    ``band_rows`` of bands[:, start + i]."""
    n = even.shape[1]
    low, high, row = (a[:, :n] for a in scratch)
    where = (slice(None), slice(start, start + n), band_rows)
    _butterfly(even, odd, low, high)
    _analyze_2d_into(low, bands, "h", where, row)
    _analyze_2d_into(high, bands, "g", where, row)
