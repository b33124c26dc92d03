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


@dataclass(frozen=True)
class HaarFilters:
    """Orthonormal Haar pair: <h,h> = <g,g> = 1 and <h,g> = 0."""

    scaling: tuple[float, float] = (INV_SQRT2, INV_SQRT2)
    wavelet: tuple[float, float] = (INV_SQRT2, -INV_SQRT2)


HAAR = HaarFilters()


def haar_1d_analysis(signal) -> tuple[np.ndarray, np.ndarray]:
    """One analysis step on an even-length 1D signal.

    approx[i] = (x[2i] + x[2i+1]) / sqrt(2); detail[i] = (x[2i] - x[2i+1]) / sqrt(2).
    """
    x = np.asarray(signal, dtype=np.float32)
    if x.ndim != 1:
        raise ShapeError(f"expected a 1D signal, got {x.ndim} dims")
    if x.size < 2 or x.size % 2:
        raise ShapeError(f"signal length must be even and >= 2, got {x.size}")
    even, odd = x[0::2], x[1::2]
    return (even + odd) * INV_SQRT2, (even - odd) * INV_SQRT2


def haar_1d_synthesis(approx, detail) -> np.ndarray:
    """Exact inverse of :func:`haar_1d_analysis`."""
    a = np.asarray(approx, dtype=np.float32)
    d = np.asarray(detail, dtype=np.float32)
    if a.shape != d.shape or a.ndim != 1:
        raise ShapeError(f"approx/detail shapes differ: {a.shape} vs {d.shape}")
    out = np.empty(2 * a.size, dtype=np.float32)
    out[0::2] = (a + d) * INV_SQRT2
    out[1::2] = (a - d) * INV_SQRT2
    return out


def _analyze_axis(arr: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    n = arr.shape[axis]
    if n < 2 or n % 2:
        raise ShapeError(f"axis {axis} length must be even and >= 2, got {n}")
    even = [slice(None)] * arr.ndim
    odd = [slice(None)] * arr.ndim
    even[axis] = slice(0, None, 2)
    odd[axis] = slice(1, None, 2)
    e, o = arr[tuple(even)], arr[tuple(odd)]
    return (e + o) * INV_SQRT2, (e - o) * INV_SQRT2


def _synthesize_axis(approx: np.ndarray, detail: np.ndarray, axis: int) -> np.ndarray:
    if approx.shape != detail.shape:
        raise ShapeError(
            f"approx/detail shapes differ on axis {axis}: "
            f"{approx.shape} vs {detail.shape}"
        )
    shape = list(approx.shape)
    shape[axis] *= 2
    out = np.empty(shape, dtype=np.float32)
    even = [slice(None)] * approx.ndim
    odd = [slice(None)] * approx.ndim
    even[axis] = slice(0, None, 2)
    odd[axis] = slice(1, None, 2)
    out[tuple(even)] = (approx + detail) * INV_SQRT2
    out[tuple(odd)] = (approx - detail) * INV_SQRT2
    return out


def _analyze_2d(arr: np.ndarray, prefix: str = "") -> dict[str, np.ndarray]:
    """Spatial analysis of (c, t, h, w) frames into bands keyed prefix+hh..gg."""
    a_h, d_h = _analyze_axis(arr, axis=2)
    bands = {}
    for hkey, harr in (("h", a_h), ("g", d_h)):
        bands[prefix + hkey + "h"], bands[prefix + hkey + "g"] = _analyze_axis(
            harr, axis=3
        )
    return bands


def _synthesize_2d(bands, prefix: str = "") -> np.ndarray:
    """Exact inverse of :func:`_analyze_2d` for the bands keyed prefix+hh..gg."""
    rows = {
        hkey: _synthesize_axis(
            bands[prefix + hkey + "h"], bands[prefix + hkey + "g"], axis=3
        )
        for hkey in "hg"
    }
    return _synthesize_axis(rows["h"], rows["g"], axis=2)


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
    manifest_path = os.path.join(dirpath, _MANIFEST_NAME)
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"{manifest_path}: unreadable manifest ({exc})") from exc
    if manifest.get("format") != "wfcodec-pyramid" or manifest.get("version") != 1:
        raise FormatError(f"{manifest_path}: not a v1 pyramid manifest")
    if manifest.get("padding_rule") != PADDING_RULE:
        raise FormatError(
            f"{manifest_path}: unknown padding rule {manifest.get('padding_rule')!r}"
        )

    def load_level(cls, lvl):
        return cls(
            {
                key: load_tensor(os.path.join(dirpath, f"L{lvl}_{key}.wfvt"))
                for key in cls.KEYS
            }
        )

    source_time = int(manifest["original_shape"][1])
    return WaveletPyramid(
        level1=load_level(SubbandSet3D, "1"),
        level2=load_level(SubbandSet3D, "2"),
        level3=load_level(SubbandSet2D, "3"),
        source_time=source_time,
    )


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
    """

    def __init__(self, pad_first: bool):
        self.pad_first = pad_first
        self._buffer: np.ndarray | None = None
        self._started = False

    def feed(self, frames: np.ndarray) -> dict[str, np.ndarray]:
        if frames.ndim != 4:
            raise ShapeError("expected (c, n, h, w) frames")
        c, n, h, w = frames.shape
        if h % 2 or w % 2:
            raise ShapeError(f"height and width must be even, got ({h}, {w})")
        empty = frames[:, :0, : h // 2, : w // 2]
        if n == 0:
            return {k: empty for k in KEYS_3D}
        if not self._started:
            if self.pad_first:
                frames = np.concatenate([frames[:, :1], frames], axis=1)
            self._started = True
        if self._buffer is not None:
            frames = np.concatenate([self._buffer, frames], axis=1)
        pairs = frames.shape[1] // 2
        self._buffer = frames[:, 2 * pairs :].copy() if frames.shape[1] % 2 else None
        if pairs == 0:
            return {k: empty for k in KEYS_3D}
        a_t, d_t = _analyze_axis(frames[:, : 2 * pairs], axis=1)
        return {**_analyze_2d(a_t, "h"), **_analyze_2d(d_t, "g")}


class Idwt3dStream:
    """Chunked :func:`idwt3d`: feed subband chunks, collect video frames.

    ``drop_first`` must be True exactly when the original stream length is
    odd, so the synthesized duplicate of frame 0 is discarded once.
    """

    def __init__(self, drop_first: bool):
        self.drop_first = drop_first
        self._started = False

    def feed(self, bands: dict[str, np.ndarray]) -> np.ndarray:
        ref = bands["hhh"]
        if ref.shape[1] == 0:
            return ref[:, :0].repeat(2, axis=2).repeat(2, axis=3)
        frames = _synthesize_axis(
            _synthesize_2d(bands, "h"), _synthesize_2d(bands, "g"), axis=1
        )
        if not self._started:
            if self.drop_first:
                frames = frames[:, 1:]
            self._started = True
        return frames
