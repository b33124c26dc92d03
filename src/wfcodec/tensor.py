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

This module also holds the file-format plumbing every other format shares:
the one atomic writer, the one checked float32 payload reader, the one JSON
manifest reader and writer, and the one SHA-256 digest of a serialization.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct

import numpy as np

from .errors import FormatError, ParameterError, ShapeError

MAGIC = b"WFVT"
FORMAT_VERSION = 1
DTYPE_F32 = 0

_HEADER = struct.Struct("<4sIII4I")

# Block size of a checked payload read that inspects each block
# (:func:`read_f32`): small enough that the block is still in cache when it is
# inspected.
_READ_BYTES = 1 << 20

# Largest per-axis extent the file header accepts. Keeps dims * 4 bytes well
# inside the u32 payload arithmetic.
MAX_DIM = 2**31 - 1


class VideoTensor:
    """Immutable (channels, time, height, width) float32 tensor.

    Wraps a C-contiguous, write-protected numpy array. All public operations
    in this package produce tensors whose values are finite. A tensor also
    carries :attr:`value_range`, the exact min and max of its elements:
    ``VideoTensor(arr)`` scans ``arr`` once for them, which is its finiteness
    check, and code that writes a tensor block by block (:func:`load_tensor`,
    the 3D Haar kernels) takes them in that pass and wraps the result with
    :func:`_with_range`, so it is not scanned again.
    """

    __slots__ = ("_data", "_lo", "_hi")

    def __init__(self, data):
        arr = _checked_shape(np.asarray(data, dtype=np.float32))
        self._wrap(arr, *_scan(arr))

    def _wrap(self, arr: np.ndarray, lo, hi) -> None:
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ShapeError("tensor contains NaN or Inf values")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        self._data = arr
        self._lo, self._hi = lo, hi

    @property
    def data(self) -> np.ndarray:
        """Read-only view of the underlying float32 array."""
        return self._data

    @property
    def value_range(self) -> tuple[float, float]:
        """The exact (min, max) of the elements, both finite."""
        return self._lo, self._hi

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


def _checked_shape(arr: np.ndarray) -> np.ndarray:
    if arr.ndim != 4:
        raise ShapeError(f"expected 4 dimensions (c,t,h,w), got {arr.ndim}")
    if min(arr.shape) < 1:
        raise ShapeError(f"all dimensions must be >= 1, got shape {arr.shape}")
    return arr


def _scan(arr: np.ndarray):
    """(min, max) of every element of ``arr``: the whole-array pass that
    ``VideoTensor(arr)`` makes. min and max propagate NaN and +-inf, and
    allocate nothing."""
    return arr.min(), arr.max()


def _widen(bounds, lo, hi):
    """The smallest (min, max) that covers ``bounds`` (None for no values
    yet) and [lo, hi]. A NaN bound stays NaN, so a non-finite value in any
    block reaches the range."""
    if bounds is None:
        return lo, hi
    return np.minimum(bounds[0], lo), np.maximum(bounds[1], hi)


def _with_range(arr: np.ndarray, lo, hi) -> VideoTensor:
    """Wrap the float32 array ``arr`` as a :class:`VideoTensor` without
    scanning it, for a producer that took its range while writing it.

    Invariant, which the caller guarantees: ``lo`` and ``hi`` are the exact
    min and max of every element of ``arr`` (a NaN anywhere makes one of
    them NaN). A non-finite bound raises ShapeError, as ``VideoTensor(arr)``
    would.
    """
    tensor = VideoTensor.__new__(VideoTensor)
    tensor._wrap(_checked_shape(arr), lo, hi)
    return tensor


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


def write_atomic(path, blobs) -> None:
    """Write ``blobs`` (bytes or C-contiguous arrays, written from their own
    buffers) to a tmp file, then move it over ``path``; a failure leaves
    ``path`` as it was and removes the tmp file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            for blob in blobs:
                fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def sha256_hex(blobs) -> str:
    """SHA-256 over ``blobs`` (bytes or C-contiguous arrays), without copies."""
    hasher = hashlib.sha256()
    for blob in blobs:
        hasher.update(blob)
    return hasher.hexdigest()


def read_f32(fh, dims, total: int, what: str, each=None) -> np.ndarray:
    """Read a float32 array of shape ``dims`` from ``fh`` of ``total`` bytes.

    Corrupt dims must not become a huge array, so the size is checked first.
    With ``each``, the payload is read in blocks of ``_READ_BYTES`` and
    ``each(block)`` sees every flat block as soon as it is read, while it is
    still in cache; without it, the payload is read in one call."""
    nbytes = 4 * math.prod(dims)
    left = total - fh.tell()
    if nbytes > left:
        raise FormatError(f"{what}: truncated payload ({left} bytes, need {nbytes})")
    values = np.empty(dims, dtype="<f4")
    flat = values.reshape(-1)
    step = _READ_BYTES // 4 if each is not None else max(flat.size, 1)
    for start in range(0, flat.size, step):
        block = flat[start : start + step]
        got = fh.readinto(block)
        if got != block.nbytes:
            got += 4 * start
            raise FormatError(f"{what}: truncated payload ({got} bytes, need {nbytes})")
        if each is not None:
            each(block)
    return values


def save_manifest(manifest: dict, path) -> None:
    """Write a JSON manifest atomically, indented, with a final newline."""
    write_atomic(path, [(json.dumps(manifest, indent=2) + "\n").encode()])


def load_manifest(path) -> dict:
    """Read a JSON manifest; any defect raises FormatError."""
    try:
        with open(path, "rb") as fh:
            manifest = json.loads(fh.read())
    # ValueError: bad JSON or bad UTF-8; RecursionError: absurd nesting.
    except (OSError, ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: unreadable manifest ({exc!r})") from exc
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: manifest is not a JSON object")
    return manifest


def _serialized(tensor: VideoTensor):
    yield _HEADER.pack(MAGIC, FORMAT_VERSION, DTYPE_F32, 4, *tensor.shape)
    yield tensor.data


def save_tensor(tensor: VideoTensor, path) -> None:
    """Write a tensor in the VTensor format. load(save(t)) is bit-identical."""
    write_atomic(path, _serialized(tensor))


def tensor_digest(tensor: VideoTensor) -> str:
    """SHA-256 hex of the tensor's VTensor file; for a loaded tensor, the
    hash of its file, as :func:`load_tensor` pins the header and the size."""
    return sha256_hex(_serialized(tensor))


def load_tensor(path) -> VideoTensor:
    """Read a VTensor file; raises FormatError on any structural defect.

    The payload is read in ``_READ_BYTES`` blocks through :func:`read_f32`,
    and each block's min and max are taken while it is still in cache: a
    NaN or infinity raises FormatError at the first block that holds one, and
    the tensor is wrapped with the payload's exact range, never scanned again.
    """
    with open(path, "rb") as fh:
        total = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FormatError(f"{path}: file shorter than header")
        magic, version, dtype, ndim, c, t, h, w = _HEADER.unpack(head)
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
        trailing = total - _HEADER.size - 4 * math.prod(dims)
        if trailing > 0:
            raise FormatError(f"{path}: {trailing} trailing bytes")
        bounds = None

        def widen(block):
            nonlocal bounds
            bounds = _widen(bounds, block.min(), block.max())
            if not (np.isfinite(bounds[0]) and np.isfinite(bounds[1])):
                raise FormatError(f"{path}: payload contains non-finite values")

        values = read_f32(fh, dims, total, path, widen)
    return _with_range(values, *bounds)
