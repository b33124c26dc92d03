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
the one atomic writer, the one file mapping (:func:`_map_file`), the one
checked float32 payload view (:func:`_payload`), the one JSON manifest reader
and writer, and the one SHA-256 digest of a serialization.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import mmap
import os
import struct

import numpy as np

from .errors import FormatError, ParameterError, ShapeError

MAGIC = b"WFVT"
FORMAT_VERSION = 1
DTYPE_F32 = 0

_HEADER = struct.Struct("<4sIII4I")

# Block size of the range scan of a mapped payload (:func:`_payload`): small
# enough that a block's min and max are taken while it is still in cache.
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


def _check_frame(first, frame: tuple[int, int, int]) -> None:
    """Reject a stream chunk whose (c, h, w) ``frame`` is not ``first``, the
    stream's first chunk's (None before the stream has one)."""
    if first not in (None, frame):
        raise ShapeError(f"chunk frames (c, h, w) = {frame} differ from the stream's {first}")


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


def _map_file(path):
    """The bytes of the file at ``path``, mapped read-only; ``b""`` for an
    empty file, which cannot be mapped. The one place this package maps a
    file.

    The file is opened, sized with ``fstat`` and mapped at that size, so a
    file that shrank in between is FormatError "truncated". Views of the
    mapping read pages in as they are first touched, and the mapping holds a
    duplicate of the file's descriptor until it and every view of it are
    gone. Replacing the file leaves the views as they were; truncating it in
    place while a view lives can end the process with SIGBUS on its next
    read, which :func:`write_atomic`, the one writer, never does.
    """
    with open(path, "rb") as fh:
        total = os.fstat(fh.fileno()).st_size
        if not total:
            return b""
        try:
            return mmap.mmap(fh.fileno(), total, access=mmap.ACCESS_READ)
        except ValueError:  # "mmap length is greater than file size"
            raise FormatError(f"{path}: truncated file (shorter than {total} bytes)") from None


def _payload(mapped, offset: int, dims, what: str):
    """The float32 array of shape ``dims`` at byte ``offset`` of ``mapped``,
    and its (min, max) (None for no values).

    Corrupt dims must not reach past the file, so the size is checked first.
    The array is a read-only view of the mapping, or a read-only copy where
    ``offset`` is not 4-byte aligned. It is scanned once, in ``_READ_BYTES``
    blocks, for its min and max: a NaN or infinity raises FormatError naming
    ``what`` at the first block that holds one.
    """
    count = math.prod(dims)
    left = len(mapped) - offset
    if 4 * count > left:
        raise FormatError(f"{what}: truncated payload ({max(left, 0)} bytes, need {4 * count})")
    values = np.frombuffer(mapped, dtype="<f4", count=count, offset=offset)
    bounds = None
    step = _READ_BYTES // 4
    for start in range(0, count, step):
        block = values[start : start + step]
        bounds = _widen(bounds, block.min(), block.max())
        if not (np.isfinite(bounds[0]) and np.isfinite(bounds[1])):
            raise FormatError(f"{what}: payload contains non-finite values")
    if not values.flags.aligned:
        values = values.copy()
        values.flags.writeable = False
        # The pages wholly inside the copied payload leave this process's
        # resident set (the page cache keeps them), so the copy is not
        # counted twice.
        page = mmap.PAGESIZE
        first, stop = -(-offset // page) * page, (offset + 4 * count) // page * page
        if stop > first:
            mapped.madvise(mmap.MADV_DONTNEED, first, stop - first)
    return values.reshape(dims), bounds


def load_tensor(path) -> VideoTensor:
    """Read a VTensor file; raises FormatError on any structural defect.

    The payload is not copied: the tensor is a view of the file's read-only
    mapping (:func:`_map_file`), scanned once for its min and max by
    :func:`_payload`, so it is wrapped with the payload's exact range and
    never scanned again.
    """
    mapped = _map_file(path)
    if len(mapped) < _HEADER.size:
        raise FormatError(f"{path}: file shorter than header")
    magic, version, dtype, ndim, c, t, h, w = _HEADER.unpack_from(mapped)
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
    trailing = len(mapped) - _HEADER.size - 4 * math.prod(dims)
    if trailing > 0:
        raise FormatError(f"{path}: {trailing} trailing bytes")
    values, bounds = _payload(mapped, _HEADER.size, dims, str(path))
    return _with_range(values, *bounds)
