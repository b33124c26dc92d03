"""Tensor core: construction, RNG determinism, and file-format round trips."""

import hashlib
import math
import os
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfcodec import tensor as tensor_module
from wfcodec import (
    FormatError,
    ParameterError,
    Rng,
    ShapeError,
    VideoTensor,
    WeightStore,
    load_tensor,
    new_tensor,
    random_normal,
    save_tensor,
)
from wfcodec.tensor import load_manifest, save_manifest, tensor_digest

from helpers import make_random, tear_writes, traced_peak


class TestNewTensor:
    def test_zero_fill(self):
        t = new_tensor(1, 2, 2, 2, 0.0)
        assert t.shape == (1, 2, 2, 2)
        assert np.all(t.data == 0.0)
        assert t.data.size == 8

    def test_constant_fill(self):
        t = new_tensor(3, 4, 4, 4, 1.5)
        assert t.data.size == 192
        assert np.all(t.data == np.float32(1.5))

    def test_unit_shape(self):
        t = new_tensor(1, 1, 1, 1, -2.0)
        assert t.data[0, 0, 0, 0] == -2.0

    @pytest.mark.parametrize("shape", [(0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)])
    def test_zero_dimension_rejected(self, shape):
        with pytest.raises(ShapeError):
            new_tensor(*shape, 0.0)

    def test_non_finite_fill_rejected(self):
        with pytest.raises(ShapeError):
            new_tensor(1, 1, 1, 1, float("nan"))
        with pytest.raises(ShapeError):
            new_tensor(1, 1, 1, 1, float("inf"))


class TestVideoTensor:
    def test_rejects_nan(self):
        arr = np.zeros((1, 1, 2, 2), dtype=np.float32)
        arr[0, 0, 0, 0] = np.nan
        with pytest.raises(ShapeError):
            VideoTensor(arr)

    def test_rejects_inf(self):
        arr = np.zeros((1, 1, 2, 2), dtype=np.float32)
        arr[0, 0, 1, 1] = np.inf
        with pytest.raises(ShapeError):
            VideoTensor(arr)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_rejects_non_finite_anywhere(self, value, where):
        arr = make_random(2, (2, 3, 4, 5)).data.copy()
        flat = arr.reshape(-1)
        flat[{"first": 0, "middle": flat.size // 2, "last": -1}[where]] = value
        with pytest.raises(ShapeError):
            VideoTensor(arr)

    def test_wrapping_allocates_no_temporary(self):
        """The finiteness check must not build a per-element mask, which for
        this 16 MiB float32 array would be a 4 MiB bool temporary."""
        arr = np.random.default_rng(0).standard_normal(
            (1, 64, 256, 256), dtype=np.float32
        )
        _, peak = traced_peak(lambda: VideoTensor(arr))
        assert peak < 1 << 20

    def test_carries_exact_range(self):
        arr = make_random(3, (2, 3, 4, 5)).data
        assert VideoTensor(arr).value_range == (float(arr.min()), float(arr.max()))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            VideoTensor(np.zeros((2, 2, 2), dtype=np.float32))

    def test_data_is_read_only(self):
        t = new_tensor(1, 1, 2, 2, 1.0)
        with pytest.raises(ValueError):
            t.data[0, 0, 0, 0] = 5.0

    def test_accessor_matches_flat_offset(self):
        """data[c,t,h,w] must address offset ((c*T + t)*H + h)*W + w.

        Checked against an explicit nested-loop walk of the flat buffer.
        """
        tensor = make_random(5, (2, 3, 4, 5))
        flat = tensor.data.ravel()
        c_n, t_n, h_n, w_n = tensor.shape
        for c in range(c_n):
            for t in range(t_n):
                for h in range(h_n):
                    for w in range(w_n):
                        offset = ((c * t_n + t) * h_n + h) * w_n + w
                        assert tensor.data[c, t, h, w] == flat[offset]

    def test_equality_by_content(self):
        a = new_tensor(1, 2, 2, 2, 3.0)
        b = new_tensor(1, 2, 2, 2, 3.0)
        c = new_tensor(1, 2, 2, 2, 4.0)
        assert a == b
        assert a != c


class TestRng:
    def test_same_seed_same_stream(self):
        a = random_normal(Rng(42), (2, 3, 4, 4))
        b = random_normal(Rng(42), (2, 3, 4, 4))
        assert np.array_equal(a.data, b.data)

    def test_different_seeds_differ(self):
        a = random_normal(Rng(1), (1, 1, 8, 8))
        b = random_normal(Rng(2), (1, 1, 8, 8))
        assert not np.array_equal(a.data, b.data)

    def test_zero_std_gives_mean(self):
        t = random_normal(Rng(3), (1, 2, 2, 2), mean=4.0, std=0.0)
        assert np.all(t.data == np.float32(4.0))

    def test_sample_mean_near_zero(self):
        # Statistical check from the build: 16 unit-normal draws, |mean| < 1.
        t = random_normal(Rng(7), (1, 1, 4, 4), mean=0.0, std=1.0)
        assert abs(float(t.data.mean())) < 1.0

    def test_negative_std_rejected(self):
        with pytest.raises(ParameterError):
            random_normal(Rng(1), (1, 1, 1, 1), std=-0.1)

    def test_split_streams_are_independent(self):
        base = Rng(99)
        a = base.split(0).normal((64,))
        b = base.split(1).normal((64,))
        assert not np.array_equal(a, b)

    def test_split_is_reproducible(self):
        a = Rng(99).split(5).normal((16,))
        b = Rng(99).split(5).normal((16,))
        assert np.array_equal(a, b)

    def test_seed_range(self):
        Rng(0)
        Rng(2**64 - 1)
        with pytest.raises(ParameterError):
            Rng(2**64)
        with pytest.raises(ParameterError):
            Rng(-1)


class TestFileFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        tensor = make_random(11, (3, 5, 8, 6))
        path = tmp_path / "t.wfvt"
        save_tensor(tensor, path)
        loaded = load_tensor(path)
        assert loaded.shape == tensor.shape
        assert np.array_equal(
            loaded.data.view(np.uint32), tensor.data.view(np.uint32)
        )

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.wfvt"
        tensor = new_tensor(1, 1, 2, 2, 1.0)
        save_tensor(tensor, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_tensor(path)

    def test_truncated_payload(self, tmp_path):
        """Header promises (3,33,256,256) but carries almost no payload."""
        path = tmp_path / "short.wfvt"
        header = struct.pack("<4sIII4I", b"WFVT", 1, 0, 4, 3, 33, 256, 256)
        path.write_bytes(header + b"\x00" * 64)
        with pytest.raises(FormatError, match="truncated"):
            load_tensor(path)

    def test_short_read_is_format_error(self, tmp_path, monkeypatch):
        """A payload that shrinks between the size check and the read."""
        path = tmp_path / "shrunk.wfvt"
        save_tensor(new_tensor(1, 1, 2, 2, 1.0), path)
        full = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-4])
        with monkeypatch.context() as m:
            m.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=full))
            with pytest.raises(FormatError, match="truncated"):
                load_tensor(path)

    def test_wrong_dtype_code(self, tmp_path):
        path = tmp_path / "dtype.wfvt"
        header = struct.pack("<4sIII4I", b"WFVT", 1, 7, 4, 1, 1, 1, 1)
        path.write_bytes(header + b"\x00" * 4)
        with pytest.raises(FormatError, match="dtype"):
            load_tensor(path)

    def test_zero_dim_rejected(self, tmp_path):
        path = tmp_path / "dim.wfvt"
        header = struct.pack("<4sIII4I", b"WFVT", 1, 0, 4, 1, 0, 1, 1)
        path.write_bytes(header)
        with pytest.raises(FormatError, match="dimension"):
            load_tensor(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "ver.wfvt"
        header = struct.pack("<4sIII4I", b"WFVT", 9, 0, 4, 1, 1, 1, 1)
        path.write_bytes(header + b"\x00" * 4)
        with pytest.raises(FormatError, match="version"):
            load_tensor(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "extra.wfvt"
        tensor = new_tensor(1, 1, 1, 1, 2.0)
        save_tensor(tensor, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError, match="trailing"):
            load_tensor(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_is_format_error(self, tmp_path, monkeypatch, value):
        """In a one-block payload, and at the first and the last element of
        every read block of a payload read 4 values at a time, whose last
        block is short (30 values)."""
        path = tmp_path / "nan.wfvt"
        header = struct.pack("<4sIII4I", b"WFVT", 1, 0, 4, 1, 1, 1, 2)
        path.write_bytes(header + np.array([1.0, value], dtype="<f4").tobytes())
        with pytest.raises(FormatError, match="non-finite"):
            load_tensor(path)
        monkeypatch.setattr(tensor_module, "_READ_BYTES", 16)
        shape = (2, 1, 3, 5)
        size = math.prod(shape)
        for first in range(0, size, 4):
            for where in (first, min(first + 3, size - 1)):
                payload = make_random(where, shape).data.copy()
                payload.reshape(-1)[where] = value
                save_tensor_bytes(path, payload)
                with pytest.raises(FormatError, match="non-finite"):
                    load_tensor(path)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        shape=st.tuples(*[st.integers(1, 4)] * 4),
        block=st.sampled_from([1, 3, 4, 7, 256, None]),
        spike=st.floats(0, 1, exclude_max=True),
        sign=st.sampled_from([-1.0, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_loaded_tensor_carries_exact_range(
        self, tmp_path_factory, shape, block, spike, sign, seed
    ):
        """The range load_tensor takes block by block equals the loaded
        values' min and max, for payloads of one block, of several, and of a
        length that is no multiple of the block (``block`` values per read;
        None keeps the 1 MiB default)."""
        payload = Rng(seed).normal(shape)
        payload.reshape(-1)[int(spike * payload.size)] = sign * 50.0
        path = tmp_path_factory.mktemp("range") / "range.wfvt"
        save_tensor_bytes(path, payload)
        with pytest.MonkeyPatch.context() as mp:
            if block:
                mp.setattr(tensor_module, "_READ_BYTES", 4 * block)
            loaded = load_tensor(path)
        assert np.array_equal(loaded.data, payload)
        assert loaded.value_range == (float(payload.min()), float(payload.max()))

    def test_roundtrip_many_seeds(self, tmp_path):
        for seed in range(5):
            tensor = make_random(seed, (2, 4, 6, 8))
            path = tmp_path / f"{seed}.wfvt"
            save_tensor(tensor, path)
            assert load_tensor(path) == tensor

    def test_digest_is_file_hash(self, tmp_path):
        path = tmp_path / "d.wfvt"
        tensor = make_random(3, (2, 3, 4, 5))
        save_tensor(tensor, path)
        expected = hashlib.sha256(path.read_bytes()).hexdigest()
        assert tensor_digest(tensor) == expected
        assert tensor_digest(load_tensor(path)) == expected

    def test_writes_and_digests_copy_no_array(self, tmp_path):
        tensor = make_random(4, (1, 16, 256, 256))  # 4 MiB payload
        weights = WeightStore({"w": tensor.data})

        def write_and_digest():
            save_tensor(tensor, tmp_path / "t.wfvt")
            tensor_digest(tensor)
            weights.save(tmp_path / "w.wfwt")
            weights.digest()

        _, peak = traced_peak(write_and_digest)
        assert peak < 1 << 20


class TestManifest:
    @pytest.mark.parametrize(
        "raw",
        [b"[1, 2]", b'"text"', b"{", b'{"a": "\xff"}', b"[" * 100_000],
        ids=["array", "string", "bad-json", "non-utf8", "deep-nesting"],
    )
    def test_defect_is_format_error(self, tmp_path, raw):
        path = tmp_path / "m.json"
        path.write_bytes(raw)
        with pytest.raises(FormatError):
            load_manifest(path)

    def test_missing_file_is_format_error(self, tmp_path):
        with pytest.raises(FormatError):
            load_manifest(tmp_path / "absent.json")


class TestAtomicWrites:
    """A write that fails partway leaves the previous file intact and no
    tmp file behind."""

    @staticmethod
    def _check_torn(monkeypatch, path, write):
        before = path.read_bytes()
        with monkeypatch.context() as m:
            tear_writes(m, path.name)
            with pytest.raises(OSError):
                write()
        assert path.read_bytes() == before
        assert not list(path.parent.glob("*.tmp.*"))

    def test_tensor(self, tmp_path, monkeypatch):
        path = tmp_path / "t.wfvt"
        save_tensor(make_random(1, (1, 2, 4, 4)), path)
        self._check_torn(
            monkeypatch, path, lambda: save_tensor(make_random(2, (1, 3, 4, 4)), path)
        )

    def test_weight_file(self, tmp_path, monkeypatch):
        path = tmp_path / "w.wfwt"
        WeightStore({"a": np.ones(3)}).save(path)
        other = WeightStore({"a": np.zeros(5), "b": np.ones((2, 2))})
        self._check_torn(monkeypatch, path, lambda: other.save(path))

    def test_manifest(self, tmp_path, monkeypatch):
        path = tmp_path / "m.json"
        save_manifest({"version": 1}, path)
        self._check_torn(
            monkeypatch, path, lambda: save_manifest({"version": 2, "x": [1]}, path)
        )


def save_tensor_bytes(path, payload: np.ndarray) -> None:
    """Write ``payload`` as a ``.wfvt`` file without wrapping it first, so a
    non-finite payload can be planted."""
    header = struct.pack("<4sIII4I", b"WFVT", 1, 0, 4, *payload.shape)
    path.write_bytes(header + payload.astype("<f4").tobytes())
