"""Rank-4 video tensors, seeded random generation, and bit-exact file I/O.

The carrier type everywhere in this package is :class:`VideoTensor`: a dense
float32 array laid out as (channels, time, height, width) with the width index
fastest (C order). Tensors are immutable once constructed, so they can be
shared freely across threads.

File format ("VTensor", extension ``.wfvt``), little-endian throughout::

    magic   4 bytes  b"WFVT"
    version u32      1
    dtype   u32      0  (float32; the only code defined in v1)
    ndim    u32      4
    dims    4 x u32  (channels, time, height, width)
    payload c*t*h*w float32 values, row-major, no padding, no checksum
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import FormatError, ParameterError, ShapeError

MAGIC = b"WFVT"
FORMAT_VERSION = 1
DTYPE_F32 = 0

_HEADER = struct.Struct("<4sIII4I")

# Largest per-axis extent the file header accepts. Keeps dims * 4 bytes well
# inside the u32 payload arithmetic.
MAX_DIM = 2**31 - 1


class VideoTensor:
    """Immutable (channels, time, height, width) float32 tensor.

    Wraps a C-contiguous, write-protected numpy array. All public operations
    in this package produce tensors whose values are finite.
    """

    __slots__ = ("_data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float32)
        if arr.ndim != 4:
            raise ShapeError(f"expected 4 dimensions (c,t,h,w), got {arr.ndim}")
        if min(arr.shape) < 1:
            raise ShapeError(f"all dimensions must be >= 1, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ShapeError("tensor contains NaN or Inf values")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        self._data = arr

    @property
    def data(self) -> np.ndarray:
        """Read-only view of the underlying float32 array."""
        return self._data

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self._data.shape

    @property
    def channels(self) -> int:
        return self._data.shape[0]

    @property
    def time(self) -> int:
        return self._data.shape[1]

    @property
    def height(self) -> int:
        return self._data.shape[2]

    @property
    def width(self) -> int:
        return self._data.shape[3]

    def __eq__(self, other) -> bool:
        if not isinstance(other, VideoTensor):
            return NotImplemented
        return self.shape == other.shape and bool(
            np.array_equal(self._data, other._data)
        )

    def __repr__(self) -> str:
        c, t, h, w = self.shape
        return f"VideoTensor(c={c}, t={t}, h={h}, w={w})"


class Rng:
    """Deterministic random stream backed by the Philox counter-based generator.

    Philox is keyed directly (no entropy pooling), so the mapping from
    ``(seed, stream)`` to samples is fixed across platforms and processes.
    An Rng is single-owner: parallel code must derive independent child
    streams via :meth:`split`, never share one instance.
    """

    def __init__(self, seed: int, stream: int = 0):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ParameterError("seed must be a 64-bit unsigned integer")
        self.seed = seed
        self.stream = int(stream)
        key = np.array([seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def split(self, stream: int) -> "Rng":
        """Independent child stream; disjoint from this one for any stream id."""
        return Rng(self.seed, self.stream * 65537 + 1 + int(stream))

    def normal(self, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """Float32 i.i.d. normal draws; identical for identical (seed, stream)."""
        if std < 0:
            raise ParameterError(f"std must be >= 0, got {std}")
        z = self._gen.standard_normal(size=shape, dtype=np.float32)
        if std != 1.0:
            z *= np.float32(std)
        if mean != 0.0:
            z += np.float32(mean)
        return z

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """Float32 uniform draws on [low, high)."""
        if high < low:
            raise ParameterError("uniform bounds reversed")
        u = self._gen.random(size=shape, dtype=np.float32)
        return (u * np.float32(high - low) + np.float32(low)).astype(np.float32)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)


def new_tensor(c: int, t: int, h: int, w: int, fill: float = 0.0) -> VideoTensor:
    """Constant-filled tensor of the given shape."""
    for name, dim in (("channels", c), ("time", t), ("height", h), ("width", w)):
        if dim < 1:
            raise ShapeError(f"{name} must be >= 1, got {dim}")
    return VideoTensor(np.full((c, t, h, w), fill, dtype=np.float32))


def random_normal(rng: Rng, shape, mean: float = 0.0, std: float = 1.0) -> VideoTensor:
    """Seeded normal tensor; same (rng seed, shape, mean, std) gives bit-equal data."""
    c, t, h, w = shape
    if min(c, t, h, w) < 1:
        raise ShapeError(f"all dimensions must be >= 1, got {tuple(shape)}")
    return VideoTensor(rng.normal((c, t, h, w), mean=mean, std=std))


def save_tensor(tensor: VideoTensor, path) -> None:
    """Write a tensor in the VTensor format. load(save(t)) is bit-identical."""
    c, t, h, w = tensor.shape
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, DTYPE_F32, 4, c, t, h, w)
    payload = np.ascontiguousarray(tensor.data).tobytes()
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(payload)
    os.replace(tmp, path)


def load_tensor(path) -> VideoTensor:
    """Read a VTensor file; raises FormatError on any structural defect."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: file shorter than header")
    magic, version, dtype, ndim, c, t, h, w = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if dtype != DTYPE_F32:
        raise FormatError(f"{path}: unsupported dtype code {dtype}")
    if ndim != 4:
        raise FormatError(f"{path}: expected 4 dims, header says {ndim}")
    dims = (c, t, h, w)
    if min(dims) < 1 or max(dims) > MAX_DIM:
        raise FormatError(f"{path}: dimension out of range {dims}")
    count = c * t * h * w
    expected = _HEADER.size + 4 * count
    if len(raw) < expected:
        raise FormatError(
            f"{path}: truncated payload ({len(raw) - _HEADER.size} bytes, "
            f"need {4 * count})"
        )
    if len(raw) > expected:
        raise FormatError(f"{path}: {len(raw) - expected} trailing bytes")
    values = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size, count=count)
    try:
        return VideoTensor(values.reshape(dims))
    except ShapeError as exc:
        # The dims passed the checks above, so VideoTensor's one remaining
        # check failed: the payload is not finite.
        raise FormatError(f"{path}: payload contains non-finite values") from exc
