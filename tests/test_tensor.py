"""Tensor core: construction, RNG determinism, and file-format round trips."""

import struct

import numpy as np
import pytest

from wfcodec import (
    FormatError,
    ParameterError,
    Rng,
    ShapeError,
    VideoTensor,
    load_tensor,
    new_tensor,
    random_normal,
    save_tensor,
)

from helpers import make_random


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
    def test_non_finite_payload_is_format_error(self, tmp_path, value):
        path = tmp_path / "nan.wfvt"
        header = struct.pack("<4sIII4I", b"WFVT", 1, 0, 4, 1, 1, 1, 2)
        path.write_bytes(header + np.array([1.0, value], dtype="<f4").tobytes())
        with pytest.raises(FormatError, match="non-finite"):
            load_tensor(path)

    def test_roundtrip_many_seeds(self, tmp_path):
        for seed in range(5):
            tensor = make_random(seed, (2, 4, 6, 8))
            path = tmp_path / f"{seed}.wfvt"
            save_tensor(tensor, path)
            assert load_tensor(path) == tensor
