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

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ShapeError
from .tensor import VideoTensor, load_tensor, save_tensor

INV_SQRT2 = 2.0**-0.5

KEYS_3D = ("hhh", "hhg", "hgh", "ghh", "hgg", "ggh", "ghg", "ggg")
KEYS_2D = ("hh", "hg", "gh", "gg")

PADDING_RULE = "replicate-first-frame"


# Budget of one block of the 3D kernels: the temporal butterflies of a block
# write two (c, pairs, h, w) scratch arrays of at most this size each (at
# least one pair), which the spatial passes read back while they are still
# warm. Writing into fresh clip-sized temporaries costs more in page faults
# than the arithmetic itself, so the kernels allocate only their outputs and
# these small reused buffers. On a (3,129,256,256) pyramid round trip any
# budget from 128 KiB to 4 MiB ran equally fast and 16 MiB was slower. The
# block depends on the frame geometry alone, never on a chunk's length, and
# every element sees the same float32 operations in any block.
_BLOCK_BYTES = 1 << 20


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


def _analyze_2d_into(frames, bands, prefix: str, where: slice, rows) -> None:
    """Spatial analysis of (c, t, h, w) frames into bands[prefix+hh..gg][:, where].

    Height first, then width; ``rows`` is two (c, t, h/2, w) scratch arrays.
    """
    low, high = rows
    _butterfly(frames[:, :, 0::2], frames[:, :, 1::2], low, high)
    for hkey, harr in (("h", low), ("g", high)):
        _butterfly(
            harr[..., 0::2],
            harr[..., 1::2],
            bands[prefix + hkey + "h"][:, where],
            bands[prefix + hkey + "g"][:, where],
        )


def _synthesize_2d_into(bands, prefix: str, where: slice, out, rows) -> None:
    """Exact inverse of :func:`_analyze_2d_into`: bands[...][:, where] -> out.

    ``out`` is (c, t, 2h, 2w); ``rows`` is two (c, t, h, 2w) scratch arrays.
    """
    for hkey, row in zip("hg", rows):
        _butterfly(
            bands[prefix + hkey + "h"][:, where],
            bands[prefix + hkey + "g"][:, where],
            row[..., 0::2],
            row[..., 1::2],
        )
    _butterfly(rows[0], rows[1], out[:, :, 0::2], out[:, :, 1::2])


def _empty_bands(keys, c: int, t: int, h: int, w: int) -> dict[str, np.ndarray]:
    return {k: np.empty((c, t, h, w), dtype=np.float32) for k in keys}


def _scratch(c: int, t: int, *frame_shapes) -> list[np.ndarray]:
    """Uninitialized (c, t, *frame_shape) float32 work arrays.

    The 3D kernels take four per chunk and reuse them for every block: the
    temporal butterfly's low and high outputs, then the two height-pass
    outputs of the spatial transform. A block of ``n`` pairs uses the first
    ``n`` frames of each.
    """
    return [np.empty((c, t, *shape), dtype=np.float32) for shape in frame_shapes]


def _common_shape(bands, keys) -> tuple[int, ...]:
    shapes = {np.shape(bands[k]) for k in keys}
    if len(shapes) != 1:
        raise ShapeError(f"subband shapes differ: {sorted(shapes)}")
    return shapes.pop()


def _analyze_2d(arr: np.ndarray, prefix: str = "") -> dict[str, np.ndarray]:
    """Spatial analysis of (c, t, h, w) frames into bands keyed prefix+hh..gg."""
    arr = np.asarray(arr, dtype=np.float32)
    c, t, h, w = arr.shape
    if h % 2 or w % 2:
        raise ShapeError(f"height and width must be even, got ({h}, {w})")
    bands = _empty_bands([prefix + k for k in KEYS_2D], c, t, h // 2, w // 2)
    rows = _scratch(c, t, (h // 2, w), (h // 2, w))
    _analyze_2d_into(arr, bands, prefix, slice(None), rows)
    return bands


def _synthesize_2d(bands, prefix: str = "") -> np.ndarray:
    """Exact inverse of :func:`_analyze_2d` for the bands keyed prefix+hh..gg."""
    c, t, h, w = _common_shape(bands, [prefix + k for k in KEYS_2D])
    out = np.empty((c, t, 2 * h, 2 * w), dtype=np.float32)
    rows = _scratch(c, t, (h, 2 * w), (h, 2 * w))
    _synthesize_2d_into(bands, prefix, slice(None), out, rows)
    return out


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
    norm of the padded input. Runs as a one-chunk :class:`Dwt3dStream`.
    """
    return SubbandSet3D(Dwt3dStream(pad_first=v.time % 2 == 1).feed(v.data))


def idwt3d(s: SubbandSet3D, original_t: int) -> VideoTensor:
    """Exact inverse of :func:`dwt3d`, trimming the causal pad to original_t frames."""
    pad = 2 * s.time - original_t
    if pad not in (0, 1):
        raise ShapeError(
            f"cannot restore {original_t} frames from {s.time} temporal coefficients"
        )
    bands = {key: band.data for key, band in s.items()}
    return VideoTensor(Idwt3dStream(drop_first=pad == 1).feed(bands))


def dwt2d(v: VideoTensor) -> SubbandSet2D:
    """Spatial-only analysis; the time axis passes through untouched.

    Height and width must be even (ShapeError otherwise).
    """
    return SubbandSet2D(_analyze_2d(v.data))


def idwt2d(s: SubbandSet2D) -> VideoTensor:
    """Exact inverse of :func:`dwt2d`."""
    return VideoTensor(_synthesize_2d({key: band.data for key, band in s.items()}))


def _half_time(t: int) -> int:
    return (t + (t % 2)) // 2


@dataclass(frozen=True)
class WaveletPyramid:
    """Three-level decomposition: two 3D levels then one spatial 2D level.

    level2 is computed from level1's hhh band and level3 from level2's, giving
    an overall 4x8x8 (time x height x width) token compression for inputs with
    time = 4k+1.
    """

    level1: SubbandSet3D
    level2: SubbandSet3D
    level3: SubbandSet2D
    source_time: int

    def __post_init__(self):
        c1, t1, h1, w1 = self.level1.band_shape
        c2, t2, h2, w2 = self.level2.band_shape
        c3, t3, h3, w3 = self.level3.band_shape
        if (c2, t2, h2, w2) != (c1, _half_time(t1), h1 // 2, w1 // 2):
            raise ShapeError(
                f"level2 shape {self.level2.band_shape} inconsistent with "
                f"level1 {self.level1.band_shape}"
            )
        if (c3, t3, h3, w3) != (c2, t2, h2 // 2, w2 // 2):
            raise ShapeError(
                f"level3 shape {self.level3.band_shape} inconsistent with "
                f"level2 {self.level2.band_shape}"
            )
        if _half_time(self.source_time) != t1:
            raise ShapeError(
                f"source_time {self.source_time} inconsistent with level1 "
                f"time {t1}"
            )


def build_pyramid(v: VideoTensor) -> WaveletPyramid:
    """Full 3-level decomposition of a video with spatial dims divisible by 8."""
    c, t, h, w = v.shape
    if h % 8 or w % 8:
        raise ShapeError(f"height and width must be divisible by 8, got ({h}, {w})")
    level1 = dwt3d(v)
    level2 = dwt3d(level1["hhh"])
    level3 = dwt2d(level2["hhh"])
    return WaveletPyramid(level1=level1, level2=level2, level3=level3, source_time=t)


def reconstruct_pyramid(p: WaveletPyramid, original_t: int) -> VideoTensor:
    """Exact inverse of :func:`build_pyramid` for the stated frame count."""
    t1 = p.level1.time
    if 2 * t1 - original_t not in (0, 1):
        raise ShapeError(
            f"cannot restore {original_t} frames from a pyramid built on "
            f"{p.source_time}"
        )
    s2_hhh = idwt2d(p.level3)
    level2 = p.level2.replace("hhh", s2_hhh)
    s1_hhh = idwt3d(level2, original_t=t1)
    level1 = p.level1.replace("hhh", s1_hhh)
    return idwt3d(level1, original_t=original_t)


# ---------------------------------------------------------------------------
# Pyramid serialization: one VTensor file per subband plus a JSON manifest.
# ---------------------------------------------------------------------------

_MANIFEST_NAME = "pyramid.json"


def save_pyramid(p: WaveletPyramid, dirpath) -> None:
    os.makedirs(dirpath, exist_ok=True)
    levels = (("1", p.level1), ("2", p.level2), ("3", p.level3))
    for lvl, subbands in levels:
        for key, band in subbands.items():
            save_tensor(band, os.path.join(dirpath, f"L{lvl}_{key}.wfvt"))
    c1, t1, h1, w1 = p.level1.band_shape
    manifest = {
        "format": "wfcodec-pyramid",
        "version": 1,
        "levels": 3,
        "original_shape": [c1, p.source_time, h1 * 2, w1 * 2],
        "padding_rule": PADDING_RULE,
    }
    with open(os.path.join(dirpath, _MANIFEST_NAME), "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def load_pyramid(dirpath) -> WaveletPyramid:
    """Read a pyramid directory written by :func:`save_pyramid`.

    Raises FormatError for any defect of the manifest or the subband files,
    including subband shapes that disagree with each other or with the
    manifest's ``original_shape``.
    """
    manifest_path = os.path.join(dirpath, _MANIFEST_NAME)
    try:
        with open(manifest_path, "rb") as fh:
            manifest = json.loads(fh.read())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise FormatError(f"{manifest_path}: unreadable manifest ({exc})") from exc
    if (
        not isinstance(manifest, dict)
        or manifest.get("format") != "wfcodec-pyramid"
        or manifest.get("version") != 1
        or manifest.get("levels") != 3
    ):
        raise FormatError(f"{manifest_path}: not a v1 3-level pyramid manifest")
    if manifest.get("padding_rule") != PADDING_RULE:
        raise FormatError(
            f"{manifest_path}: unknown padding rule {manifest.get('padding_rule')!r}"
        )
    shape = manifest.get("original_shape")
    if not (
        isinstance(shape, list)
        and len(shape) == 4
        and all(type(d) is int and d >= 1 for d in shape)
    ):
        raise FormatError(
            f"{manifest_path}: original_shape must be 4 positive integers, "
            f"got {shape!r}"
        )

    def load_level(cls, lvl):
        return cls(
            {
                key: load_tensor(os.path.join(dirpath, f"L{lvl}_{key}.wfvt"))
                for key in cls.KEYS
            }
        )

    try:
        pyramid = WaveletPyramid(
            level1=load_level(SubbandSet3D, "1"),
            level2=load_level(SubbandSet3D, "2"),
            level3=load_level(SubbandSet2D, "3"),
            source_time=shape[1],
        )
    except ShapeError as exc:
        raise FormatError(f"{dirpath}: inconsistent pyramid ({exc})") from exc
    c1, _, h1, w1 = pyramid.level1.band_shape
    if (c1, 2 * h1, 2 * w1) != (shape[0], shape[2], shape[3]):
        raise FormatError(
            f"{manifest_path}: original_shape {shape} disagrees with level-1 "
            f"subbands of shape {pyramid.level1.band_shape}"
        )
    return pyramid


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
    is paired in place, never concatenated onto the chunk.
    """

    def __init__(self, pad_first: bool):
        self.pad_first = pad_first
        self._carry: np.ndarray | None = None
        self._started = False

    def feed(self, frames: np.ndarray) -> dict[str, np.ndarray]:
        frames = np.asarray(frames, dtype=np.float32)
        if frames.ndim != 4:
            raise ShapeError("expected (c, n, h, w) frames")
        c, n, h, w = frames.shape
        if h % 2 or w % 2:
            raise ShapeError(f"height and width must be even, got ({h}, {w})")
        if n == 0:
            return _empty_bands(KEYS_3D, c, 0, h // 2, w // 2)
        lead = self._carry
        if not self._started:
            self._started = True
            if self.pad_first:
                lead = frames[:, :1]
        rest = frames if lead is None else frames[:, 1:]
        pairs = rest.shape[1] // 2
        first = 0 if lead is None else 1
        bands = _empty_bands(KEYS_3D, c, first + pairs, h // 2, w // 2)
        size = min(_block_pairs(c, h, w), max(first + pairs, 1))
        scratch = _scratch(c, size, (h, w), (h, w), (h // 2, w), (h // 2, w))
        if lead is not None:
            _analyze_pair_block(lead, frames[:, :1], bands, 0, scratch)
        for start in range(0, pairs, size):
            stop = min(start + size, pairs)
            _analyze_pair_block(
                rest[:, 2 * start : 2 * stop : 2],
                rest[:, 2 * start + 1 : 2 * stop : 2],
                bands,
                first + start,
                scratch,
            )
        self._carry = rest[:, 2 * pairs :].copy() if rest.shape[1] % 2 else None
        return bands


class Idwt3dStream:
    """Chunked :func:`idwt3d`: feed subband chunks, collect video frames.

    ``drop_first`` must be True exactly when the original stream length is
    odd, so the synthesized duplicate of frame 0 is discarded once.

    Frame-blocked kernel: the output frames are allocated once per chunk and
    each block's even and odd frames are written straight into them. The
    dropped duplicate of frame 0 is never computed, so the result is one
    contiguous array.
    """

    def __init__(self, drop_first: bool):
        self.drop_first = drop_first
        self._started = False

    def feed(self, bands: dict[str, np.ndarray]) -> np.ndarray:
        c, n, h, w = _common_shape(bands, KEYS_3D)
        drop = n > 0 and self.drop_first and not self._started
        self._started = self._started or n > 0
        out = np.empty((c, 2 * n - drop, 2 * h, 2 * w), dtype=np.float32)
        size = min(_block_pairs(c, 2 * h, 2 * w), max(n, 1))
        frame_shape, row_shape = (2 * h, 2 * w), (h, 2 * w)
        scratch = _scratch(c, size, frame_shape, frame_shape, row_shape, row_shape)
        for start in range(0, n, size):
            stop = min(start + size, n)
            low, high, *rows = (a[:, : stop - start] for a in scratch)
            _synthesize_2d_into(bands, "h", slice(start, stop), low, rows)
            _synthesize_2d_into(bands, "g", slice(start, stop), high, rows)
            # Pair p becomes frames 2p - drop (even) and 2p + 1 - drop (odd).
            frame = 2 * start - drop
            if frame < 0:
                _butterfly(low[:, :1], high[:, :1], None, out[:, :1])
                low, high, frame = low[:, 1:], high[:, 1:], 1
            end = frame + 2 * low.shape[1]
            _butterfly(low, high, out[:, frame:end:2], out[:, frame + 1 : end : 2])
        return out


def _analyze_pair_block(even, odd, bands, start: int, scratch) -> None:
    """Analyze the frame pairs (even[:, i], odd[:, i]) into bands[:, start + i]."""
    n = even.shape[1]
    low, high, *rows = (a[:, :n] for a in scratch)
    where = slice(start, start + n)
    _butterfly(even, odd, low, high)
    _analyze_2d_into(low, bands, "h", where, rows)
    _analyze_2d_into(high, bands, "g", where, rows)
