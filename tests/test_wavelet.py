"""Filter bank and pyramid tests: exact values, an independent 3D oracle,
perfect reconstruction, orthonormality, causality and streamed/direct
agreement."""

import dataclasses
import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfcodec import (
    ModelConfig,
    Rng,
    ShapeError,
    SubbandSet2D,
    SubbandSet3D,
    VideoTensor,
    build_pyramid,
    decode,
    dwt2d,
    dwt3d,
    encode,
    idwt2d,
    idwt3d,
    init_weights,
    load_tensor,
    new_tensor,
    random_normal,
    reconstruct_pyramid,
    save_tensor,
)
from wfcodec import blas, wavelet
from wfcodec import tensor as tensor_module
from wfcodec.analysis import analyze_pyramid
from wfcodec.wavelet import KEYS_2D, KEYS_3D, Dwt3dStream, Idwt3dStream

from helpers import (
    haar3d_oracle,
    ihaar3d_oracle,
    make_random,
    max_abs_diff,
    ramp_video,
    squared_l2,
    traced_peak,
)

SQRT2 = math.sqrt(2.0)


def haar_1d(signal) -> tuple[np.ndarray, np.ndarray]:
    """One analysis step of the butterfly every transform runs, on a 1D signal."""
    x = np.asarray(signal, dtype=np.float32)
    approx, detail = np.empty((2, x.size // 2), dtype=np.float32)
    wavelet._butterfly(x[0::2], x[1::2], approx, detail)
    return approx, detail


def ihaar_1d(approx, detail) -> np.ndarray:
    """The butterfly's synthesis step: the inverse of :func:`haar_1d`."""
    a = np.asarray(approx, dtype=np.float32)
    out = np.empty(2 * a.size, dtype=np.float32)
    wavelet._butterfly(a, np.asarray(detail, dtype=np.float32), out[0::2], out[1::2])
    return out


class TestHaar1D:
    """The filter pair, on the one butterfly that every transform shares."""

    def test_known_signal(self):
        """Direct evaluation of the filter definition on [1,2,3,4]:

        approx = [(1+2)/sqrt2, (3+4)/sqrt2], detail = [(1-2)/sqrt2, (3-4)/sqrt2].
        """
        approx, detail = haar_1d([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(approx, [3 / SQRT2, 7 / SQRT2], atol=1e-6)
        np.testing.assert_allclose(detail, [-1 / SQRT2, -1 / SQRT2], atol=1e-6)
        np.testing.assert_allclose(approx, [2.1213, 4.9497], atol=1e-4)
        np.testing.assert_allclose(detail, [-0.7071, -0.7071], atol=1e-4)

    def test_constant_signal(self):
        approx, detail = haar_1d([5.0] * 4)
        np.testing.assert_allclose(approx, [7.0711, 7.0711], atol=1e-4)
        np.testing.assert_allclose(detail, [0.0, 0.0], atol=1e-7)

    def test_zero_signal(self):
        approx, detail = haar_1d([0.0, 0.0])
        assert approx.tolist() == [0.0]
        assert detail.tolist() == [0.0]

    def test_odd_length_rejected(self):
        with pytest.raises(ShapeError):
            dwt2d(new_tensor(1, 1, 2, 3, 0.0))

    def test_synthesis_inverts_analysis(self):
        x = [1.0, 2.0, 3.0, 4.0]
        approx, detail = haar_1d(x)
        np.testing.assert_allclose(ihaar_1d(approx, detail), x, atol=1e-6)

    def test_synthesis_constant_case(self):
        c = 3.25
        out = ihaar_1d([SQRT2 * c] * 3, [0.0] * 3)
        np.testing.assert_allclose(out, [c] * 6, atol=1e-6)

    def test_synthesis_length_mismatch(self):
        bands = {key: np.zeros((1, 1, 2, 2), np.float32) for key in KEYS_2D}
        bands["gg"] = np.zeros((1, 1, 2, 1), np.float32)
        with pytest.raises(ShapeError):
            idwt2d(SubbandSet2D({k: VideoTensor(v) for k, v in bands.items()}))

    def test_random_roundtrip_length_64(self):
        x = Rng(64).normal((64,))
        approx, detail = haar_1d(x)
        back = ihaar_1d(approx, detail)
        assert float(np.max(np.abs(back - x))) <= 1e-5


class TestDwt3d:
    def test_constant_input(self):
        c = 1.75
        bands = dwt3d(new_tensor(2, 4, 4, 4, c))
        np.testing.assert_allclose(
            bands["hhh"].data, 2 * SQRT2 * c, rtol=1e-6
        )
        for key in KEYS_3D[1:]:
            assert np.max(np.abs(bands[key].data)) <= 1e-6

    def test_zero_input(self):
        bands = dwt3d(new_tensor(1, 2, 2, 2, 0.0))
        for key in KEYS_3D:
            assert np.all(bands[key].data == 0.0)

    def test_energy_conservation_even_time(self):
        """Orthonormality: total subband energy equals input energy (no pad)."""
        v = make_random(31, (3, 8, 16, 16))
        bands = dwt3d(v)
        total = sum(squared_l2(bands[k].data) for k in KEYS_3D)
        assert total == pytest.approx(squared_l2(v.data), rel=1e-4)

    def test_energy_conservation_odd_time_uses_padded_input(self):
        v = make_random(32, (2, 5, 8, 8))
        padded = np.concatenate([v.data[:, :1], v.data], axis=1)
        bands = dwt3d(v)
        total = sum(squared_l2(bands[k].data) for k in KEYS_3D)
        assert total == pytest.approx(squared_l2(padded), rel=1e-4)

    def test_odd_spatial_rejected(self):
        with pytest.raises(ShapeError):
            dwt3d(new_tensor(1, 2, 3, 4, 0.0))
        with pytest.raises(ShapeError):
            dwt3d(new_tensor(1, 2, 4, 5, 0.0))

    def test_linearity(self):
        x = make_random(41, (2, 4, 8, 8))
        y = make_random(42, (2, 4, 8, 8))
        a, b = 1.5, -0.75
        combo = VideoTensor(a * x.data + b * y.data)
        bx, by, bc = dwt3d(x), dwt3d(y), dwt3d(combo)
        for key in KEYS_3D:
            np.testing.assert_allclose(
                bc[key].data,
                a * bx[key].data + b * by[key].data,
                atol=1e-5,
            )

    def test_roundtrip_random(self):
        for seed, t in ((1, 4), (2, 5), (3, 1)):
            v = make_random(seed, (2, t, 8, 8))
            assert max_abs_diff(idwt3d(dwt3d(v), t), v) <= 1e-5

    def test_zero_bands_give_zero_video(self):
        bands = dwt3d(new_tensor(1, 4, 4, 4, 0.0))
        out = idwt3d(bands, 4)
        assert np.all(out.data == 0.0)

    def test_idwt_shape_mismatch(self):
        bands = dwt3d(make_random(9, (1, 4, 4, 4)))
        with pytest.raises(ShapeError):
            idwt3d(bands, 9)

    def test_hhh_only_ramp_approximation(self):
        """Keeping only the all-low-pass band of a smooth ramp loses little.

        The oracle is the full transform itself: relative L2 error of the
        hhh-only reconstruction, computed fresh here, must be under 5%.
        """
        v = ramp_video(2, 8, 16, 16)
        bands = dwt3d(v)
        zero = np.zeros_like(bands["hhh"].data)
        only_hhh = {
            key: bands[key] if key == "hhh" else VideoTensor(zero)
            for key in KEYS_3D
        }
        approx = idwt3d(type(bands)(only_hhh), v.time)
        err = math.sqrt(squared_l2(approx.data - v.data) / squared_l2(v.data))
        assert err < 0.05

    def test_first_coefficient_causal_for_odd_time(self):
        """With the replicate-first rule, coefficient 0 of every subband
        depends only on frame 0: perturbing frames 1.. leaves it bit-equal."""
        base = make_random(77, (2, 5, 8, 8))
        perturbed = base.data.copy()
        perturbed[:, 1:] += Rng(78).normal(perturbed[:, 1:].shape)
        b0 = dwt3d(base)
        b1 = dwt3d(VideoTensor(perturbed))
        for key in KEYS_3D:
            assert np.array_equal(b0[key].data[:, 0], b1[key].data[:, 0])


def _blocks_of(pairs: int, c: int, h: int, w: int):
    """A ``_BLOCK_BYTES`` that makes the 3D kernels take ``pairs`` pairs per
    block on (c, h, w) full-resolution frames."""
    return 4 * c * h * w * pairs


class TestHaarOracle:
    """dwt3d/idwt3d against per-block butterflies written out in float64.

    Two pairs per block, so T >= 9 spans several blocks: T = 10 ends on a
    short block in both directions, T = 11 in the analysis and T = 9 in the
    synthesis. T = 1 and 2 are the single-pair edge cases."""

    SHAPE = (2, 8, 12)  # c, h, w; h != w catches a swapped spatial pass

    @pytest.mark.parametrize("t", [1, 2, 9, 10, 11])
    def test_analysis_matches_oracle(self, monkeypatch, t):
        monkeypatch.setattr(wavelet, "_BLOCK_BYTES", _blocks_of(2, *self.SHAPE))
        c, h, w = self.SHAPE
        v = make_random(500 + t, (c, t, h, w))
        bands = dwt3d(v)
        expected = haar3d_oracle(v.data)
        for key in KEYS_3D:
            assert bands[key].shape == expected[key].shape
            assert max_abs_diff(bands[key], expected[key]) <= 1e-5, key

    @pytest.mark.parametrize("t", [1, 2, 9, 10, 11])
    def test_synthesis_matches_oracle(self, monkeypatch, t):
        """Arbitrary band values, not analysis outputs, so a synthesis bug
        cannot hide behind a matching analysis bug."""
        monkeypatch.setattr(wavelet, "_BLOCK_BYTES", _blocks_of(2, *self.SHAPE))
        c, h, w = self.SHAPE
        n = (t + 1) // 2
        rng = Rng(600 + t)
        raw = {key: rng.normal((c, n, h // 2, w // 2)) for key in KEYS_3D}
        out = idwt3d(SubbandSet3D(raw), t)
        assert out.shape == (c, t, h, w)
        assert max_abs_diff(out, ihaar3d_oracle(raw, t)) <= 1e-5

    def test_synthesis_output_is_contiguous(self):
        bands = dwt3d(make_random(7, (2, 9, 8, 8)))
        frames = Idwt3dStream(drop_first=True).feed(
            {key: bands[key].data for key in KEYS_3D}
        )
        assert frames.shape == (2, 9, 8, 8)
        assert frames.flags.c_contiguous


class TestDwt2d:
    def test_constant_input(self):
        c = -2.5
        bands = dwt2d(new_tensor(1, 3, 4, 4, c))
        np.testing.assert_allclose(bands["hh"].data, 2 * c, rtol=1e-6)
        for key in KEYS_2D[1:]:
            assert np.max(np.abs(bands[key].data)) <= 1e-6

    def test_roundtrip(self):
        v = make_random(55, (3, 2, 8, 10))
        assert max_abs_diff(idwt2d(dwt2d(v)), v) <= 1e-5

    def test_energy_conservation(self):
        v = make_random(56, (2, 3, 16, 16))
        bands = dwt2d(v)
        total = sum(squared_l2(bands[k].data) for k in KEYS_2D)
        assert total == pytest.approx(squared_l2(v.data), rel=1e-4)

    def test_time_axis_untouched(self):
        v = make_random(57, (1, 7, 4, 4))
        assert dwt2d(v).band_shape == (1, 7, 2, 2)


class TestPyramid:
    def test_reference_shapes(self):
        """(3,33,256,256): odd-time padding gives 33->17->9 with spatial
        halving per level, hence subbands (3,17,128,128), (3,9,64,64),
        (3,9,32,32)."""
        v = make_random(8, (3, 33, 256, 256))
        p = build_pyramid(v)
        assert p.level1.band_shape == (3, 17, 128, 128)
        assert p.level2.band_shape == (3, 9, 64, 64)
        assert p.level3.band_shape == (3, 9, 32, 32)

    def test_constant_video_only_low_pass_chain(self):
        p = build_pyramid(new_tensor(2, 9, 16, 16, 3.0))
        for key in KEYS_3D[1:]:
            assert np.max(np.abs(p.level1[key].data)) <= 1e-5
            assert np.max(np.abs(p.level2[key].data)) <= 1e-5
        for key in KEYS_2D[1:]:
            assert np.max(np.abs(p.level3[key].data)) <= 1e-5
        assert np.min(np.abs(p.level1["hhh"].data)) > 0.0
        assert np.min(np.abs(p.level3["hh"].data)) > 0.0

    @pytest.mark.parametrize("t", [1, 5, 9, 33])
    def test_roundtrip_odd_times(self, t):
        v = make_random(100 + t, (2, t, 16, 16))
        back = reconstruct_pyramid(build_pyramid(v), t)
        assert max_abs_diff(back, v) <= 1e-5

    def test_roundtrip_even_time(self):
        v = make_random(222, (1, 8, 16, 16))
        back = reconstruct_pyramid(build_pyramid(v), 8)
        assert max_abs_diff(back, v) <= 1e-5

    def test_roundtrip_constant_and_zero(self):
        const = new_tensor(1, 5, 8, 8, 2.0)
        assert max_abs_diff(
            reconstruct_pyramid(build_pyramid(const), 5), const
        ) <= 1e-6
        zero = new_tensor(1, 5, 8, 8, 0.0)
        assert max_abs_diff(reconstruct_pyramid(build_pyramid(zero), 5), zero) == 0.0

    def test_indivisible_spatial_rejected(self):
        with pytest.raises(ShapeError):
            build_pyramid(new_tensor(1, 5, 12, 16, 0.0))

    def test_wrong_original_t_rejected(self):
        p = build_pyramid(make_random(6, (1, 9, 16, 16)))
        with pytest.raises(ShapeError):
            reconstruct_pyramid(p, 12)

    @pytest.mark.parametrize(
        "levels, other_shape",
        [
            (("level3",), (1, 9, 32, 32)),
            (("level3",), (2, 9, 16, 16)),
            (("level2", "level3"), (1, 17, 16, 16)),
            (("level2", "level3"), (1, 9, 32, 32)),
        ],
        ids=["level3-space", "level3-channels", "level2-time", "level2-space"],
    )
    def test_hand_built_mismatch_rejected(self, levels, other_shape):
        """build_pyramid is the only checked constructor; levels spliced
        from another pyramid fail in reconstruct_pyramid."""
        p = build_pyramid(make_random(6, (1, 9, 16, 16)))
        other = build_pyramid(make_random(7, other_shape))
        spliced = dataclasses.replace(p, **{k: getattr(other, k) for k in levels})
        with pytest.raises(ShapeError):
            reconstruct_pyramid(spliced, 9)

    def test_reconstruct_peak_holds_no_level2_band(self):
        """The level-1 synthesis runs after the level-2 hhh band and its
        replaced level-2 set have died: the traced peak is the output, the
        rebuilt level-1 hhh band and the level-1 scratch, plus less than half
        of one level-2 band (ufunc buffers and small objects)."""
        c, t, h, w = 3, 129, 128, 128
        p = build_pyramid(make_random(310, (c, t, h, w)))
        _, peak = traced_peak(lambda: reconstruct_pyramid(p, t))
        size = min(wavelet._block_pairs(c, h, w), p.level1.time)
        scratch = 3 * c * size * h * w * 4  # two full-resolution arrays, two half
        floor = c * t * h * w * 4 + p.level1["hhh"].data.nbytes + scratch
        assert peak - floor < p.level2["hhh"].data.nbytes // 2, (peak, floor)

    def test_first_frame_causality_through_pyramid(self):
        base = make_random(301, (2, 9, 16, 16))
        perturbed = base.data.copy()
        perturbed[:, 1:] += 10.0
        p0 = build_pyramid(base)
        p1 = build_pyramid(VideoTensor(perturbed))
        for key in KEYS_3D:
            assert np.array_equal(p0.level1[key].data[:, 0], p1.level1[key].data[:, 0])
            assert np.array_equal(p0.level2[key].data[:, 0], p1.level2[key].data[:, 0])
        for key in KEYS_2D:
            assert np.array_equal(p0.level3[key].data[:, 0], p1.level3[key].data[:, 0])


def _range_of(arr: np.ndarray):
    """The exact (min, max) of ``arr``, None when it is empty."""
    return (arr.min(), arr.max()) if arr.size else None


def _stream_dwt(v: VideoTensor, sizes) -> dict:
    """Feed ``v`` to one Dwt3dStream in chunks of ``sizes`` frames; after
    every feed, the stream's ranges are those of the bands it returned."""
    stream = Dwt3dStream(pad_first=v.time % 2 == 1)
    chunks, start = [], 0
    for size in sizes:
        chunks.append(stream.feed(v.data[:, start : start + size]))
        assert stream.ranges == {key: _range_of(chunks[-1][key]) for key in KEYS_3D}
        start += size
    return {key: np.concatenate([c[key] for c in chunks], axis=1) for key in KEYS_3D}


def _stream_idwt(bands: dict, sizes, drop_first: bool) -> np.ndarray:
    """Feed ``bands`` to one Idwt3dStream in chunks of ``sizes`` pairs; after
    every feed, the stream's range is that of the frames it returned."""
    stream = Idwt3dStream(drop_first=drop_first)
    pieces, start = [], 0
    for size in sizes:
        pieces.append(
            stream.feed({k: bands[k][:, start : start + size] for k in KEYS_3D})
        )
        assert stream.ranges == _range_of(pieces[-1])
        start += size
    return np.concatenate(pieces, axis=1)


_CHUNKINGS = st.lists(st.integers(0, 5), min_size=1, max_size=8).filter(
    lambda sizes: sum(sizes) > 0
)


class TestStreamingTransforms:
    """Chunked temporal transforms must match the direct ones bit for bit."""

    @pytest.mark.parametrize("sizes", [[1, 4, 4], [2, 3, 4], [9], [1] * 9])
    def test_dwt_stream_matches_direct(self, sizes):
        v = make_random(410, (2, 9, 8, 8))
        direct = dwt3d(v)
        got = _stream_dwt(v, sizes)
        for key in KEYS_3D:
            assert np.array_equal(got[key], direct[key].data)

    def test_dwt_stream_even_length_no_pad(self):
        v = make_random(411, (1, 8, 8, 8))
        direct = dwt3d(v)
        got = _stream_dwt(v, [3, 5])
        for key in KEYS_3D:
            assert np.array_equal(got[key], direct[key].data)

    @pytest.mark.parametrize("sizes", [[1, 2, 2], [5], [1] * 5, [2, 3]])
    def test_idwt_stream_matches_direct(self, sizes):
        v = make_random(412, (2, 9, 8, 8))
        bands = dwt3d(v)
        direct = idwt3d(bands, 9)
        got = _stream_idwt({k: bands[k].data for k in KEYS_3D}, sizes, True)
        assert np.array_equal(got, direct.data)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        sizes=_CHUNKINGS,
        block=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_dwt_any_chunking_equals_one_chunk(self, sizes, block, seed):
        """Random chunk sizes (empty chunks included) and block budgets."""
        v = make_random(seed, (2, sum(sizes), 4, 6))
        direct = dwt3d(v)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wavelet, "_BLOCK_BYTES", _blocks_of(block, 2, 4, 6))
            got = _stream_dwt(v, sizes)
        for key in KEYS_3D:
            assert np.array_equal(got[key], direct[key].data), key

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        sizes=_CHUNKINGS,
        drop_first=st.booleans(),
        block=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_idwt_any_chunking_equals_one_chunk(self, sizes, drop_first, block, seed):
        rng = Rng(seed)
        bands = {k: rng.normal((2, sum(sizes), 2, 3)) for k in KEYS_3D}
        whole = Idwt3dStream(drop_first=drop_first).feed(bands)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wavelet, "_BLOCK_BYTES", _blocks_of(block, 2, 4, 6))
            got = _stream_idwt(bands, sizes, drop_first)
        assert np.array_equal(got, whole)


def _at_workers(mp, workers: int) -> None:
    """Make the kernels see ``workers`` usable CPUs, whatever the host has."""
    mp.setattr(blas, "worker_count", lambda: workers)


_WORKERS = [2, 3, 5]


class TestWorkerSplit:
    """Tiles of band rows and blocks shared out to threads: bits equal to one
    worker at any count.

    Two pairs per block, so every T >= 5 spans several blocks and T = 9..11
    several runs of them. h = 10 gives 5 band rows, split unevenly 3 ways;
    h = 2 gives one band row, fewer than any worker count."""

    @staticmethod
    def _dwt(v, workers, block=2):
        c, _, h, w = v.shape
        with pytest.MonkeyPatch.context() as mp:
            _at_workers(mp, workers)
            mp.setattr(wavelet, "_BLOCK_BYTES", _blocks_of(block, c, h, w))
            return dwt3d(v)

    @pytest.mark.parametrize("h", [10, 2])
    @pytest.mark.parametrize("t", [1, 2, 9, 10, 11])
    def test_dwt3d_and_idwt3d_bits_equal_any_worker_count(self, h, t):
        v = make_random(900 + t, (2, t, h, 6))
        serial = self._dwt(v, 1)
        restored = idwt3d(serial, t)
        for workers in _WORKERS:
            bands = self._dwt(v, workers)
            for key in KEYS_3D:
                assert np.array_equal(bands[key].data, serial[key].data), (workers, key)
            with pytest.MonkeyPatch.context() as mp:
                _at_workers(mp, workers)
                mp.setattr(wavelet, "_BLOCK_BYTES", _blocks_of(2, 2, h, 6))
                assert np.array_equal(idwt3d(serial, t).data, restored.data), workers

    def test_multi_block_call_covers_every_row(self):
        """A split that handled only some rows would leave np.empty garbage."""
        v = make_random(910, (2, 11, 10, 6))
        for workers in [1, *_WORKERS]:
            bands = self._dwt(v, workers)
            expected = haar3d_oracle(v.data)
            for key in KEYS_3D:
                assert max_abs_diff(bands[key], expected[key]) <= 1e-5, (workers, key)

    def test_pyramid_bits_equal_any_worker_count(self):
        v = make_random(920, (2, 17, 24, 16))

        def roundtrip(workers):
            with pytest.MonkeyPatch.context() as mp:
                _at_workers(mp, workers)
                mp.setattr(wavelet, "_BLOCK_BYTES", _blocks_of(1, 2, 24, 16))
                p = build_pyramid(v)
                return p, reconstruct_pyramid(p, v.time)

        p1, r1 = roundtrip(1)
        for workers in _WORKERS:
            p, r = roundtrip(workers)
            for level in ("level1", "level2", "level3"):
                for key, band in getattr(p, level).items():
                    assert np.array_equal(band.data, getattr(p1, level)[key].data), (
                        workers, level, key)
            assert np.array_equal(r.data, r1.data), workers

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        sizes=_CHUNKINGS,
        workers=st.sampled_from([1, *_WORKERS]),
        h=st.sampled_from([2, 10]),
        block=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_dwt_stream_any_chunking_and_worker_count(self, sizes, workers, h, block, seed):
        """pad_first follows the total length, so both ways are drawn; after
        every feed, empty and one-frame chunks included, ``ranges`` holds the
        exact range of each band the feed returned (``_stream_dwt``)."""
        v = make_random(seed, (2, sum(sizes), h, 6))
        serial = self._dwt(v, 1)
        with pytest.MonkeyPatch.context() as mp:
            _at_workers(mp, workers)
            mp.setattr(wavelet, "_BLOCK_BYTES", _blocks_of(block, 2, h, 6))
            got = _stream_dwt(v, sizes)
        for key in KEYS_3D:
            assert np.array_equal(got[key], serial[key].data), key

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        sizes=_CHUNKINGS,
        drop_first=st.booleans(),
        workers=st.sampled_from([1, *_WORKERS]),
        h=st.sampled_from([1, 5]),
        block=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_idwt_stream_any_chunking_and_worker_count(
        self, sizes, drop_first, workers, h, block, seed
    ):
        """After every feed, ``ranges`` is the exact range of the frames it
        returned, or None for none (``_stream_idwt``)."""
        rng = Rng(seed)
        bands = {k: rng.normal((2, sum(sizes), h, 3)) for k in KEYS_3D}
        with pytest.MonkeyPatch.context() as mp:
            _at_workers(mp, 1)
            serial = Idwt3dStream(drop_first=drop_first).feed(bands)
            _at_workers(mp, workers)
            mp.setattr(wavelet, "_BLOCK_BYTES", _blocks_of(block, 2, 2 * h, 6))
            got = _stream_idwt(bands, sizes, drop_first)
        assert np.array_equal(got, serial)

    def test_more_workers_than_cores_with_fast_switching(self):
        """Threads that share the outputs and pass scratch sets along never
        touch each other's tiles, even when the interpreter switches every
        microsecond: a stray write would change some band or frame."""
        v = make_random(940, (2, 11, 10, 6))
        serial = self._dwt(v, 1)
        restored = idwt3d(serial, 11)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                with pytest.MonkeyPatch.context() as mp:
                    _at_workers(mp, 5)
                    mp.setattr(wavelet, "_BLOCK_BYTES", _blocks_of(1, 2, 10, 6))
                    bands = dwt3d(v)
                    frames = idwt3d(serial, 11)
                for key in KEYS_3D:
                    assert np.array_equal(bands[key].data, serial[key].data), key
                assert np.array_equal(frames.data, restored.data)
        finally:
            sys.setswitchinterval(interval)

    def test_single_block_calls_start_no_thread(self, monkeypatch):
        """Every Haar call of a (3,33,64,64) encode and decode fits in one
        block, so it runs on the calling thread even with many workers: no
        call takes the split path, the only one that shares tiles out."""
        serial = wavelet._over_tiles

        def unsplit(rows, blocks, split, run):
            assert not split, "a single-block Haar call was split over workers"
            return serial(rows, blocks, split, run)

        _at_workers(monkeypatch, 4)
        monkeypatch.setattr(wavelet, "_over_tiles", unsplit)
        config = ModelConfig(base_channels=8, c_flow=8, latent_channels=4, blocks_per_stage=1)
        weights = init_weights(config, Rng(42))
        video = random_normal(Rng(1), (3, 33, 64, 64))
        latent = encode(video, config, weights).latent
        assert decode(latent.mean, config, weights, video.time).video.shape == video.shape

    def test_split_adds_no_scratch(self):
        """At 4 workers the traced peaks of multi-block stream calls stay
        within 128 KiB of one worker's: the threads divide one scratch set."""
        c, t, h, w = 3, 17, 128, 128  # 5 pairs per 1 MiB block, so 2+ blocks
        v = make_random(930, (c, t, h, w))
        bands = dwt3d(v)
        arrays = {key: bands[key].data for key in KEYS_3D}

        def peaks(workers):
            with pytest.MonkeyPatch.context() as mp:
                _at_workers(mp, workers)
                _, analysis = traced_peak(lambda: Dwt3dStream(pad_first=True).feed(v.data))
                _, synthesis = traced_peak(
                    lambda: Idwt3dStream(drop_first=True).feed(arrays))
            return analysis, synthesis

        for one, four in zip(peaks(1), peaks(4)):
            assert four - one <= 128 << 10, (one, four)


def _exact_range(tensor: VideoTensor) -> bool:
    return tensor.value_range == (float(tensor.data.min()), float(tensor.data.max()))


class TestCarriedRanges:
    """Every tensor dwt3d, idwt3d, build_pyramid and reconstruct_pyramid
    return carries the exact min and max of its elements, which the kernels'
    tiles take as they write: at any worker count, for odd and even T, in
    single- and multi-block calls. A spike planted at any frame and row must
    reach the range, so a tile that skipped its rows would be caught."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        t=st.integers(1, 12),
        h=st.sampled_from([2, 10]),
        workers=st.sampled_from([1, 2, 3, 5]),
        block=st.sampled_from([1, 2, None]),
        spike=st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True)),
        sign=st.sampled_from([-1.0, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_dwt3d_and_idwt3d(self, t, h, workers, block, spike, sign, seed):
        """``block=None`` keeps the 1 MiB default: one block, one tile."""
        arr = Rng(seed).normal((2, t, h, 6))
        arr[1, int(spike[0] * t), int(spike[1] * h), 3] = sign * 100.0
        with pytest.MonkeyPatch.context() as mp:
            _at_workers(mp, workers)
            if block:
                mp.setattr(wavelet, "_BLOCK_BYTES", _blocks_of(block, 2, h, 6))
            bands = dwt3d(VideoTensor(arr))
            restored = idwt3d(bands, t)
        for key, band in bands.items():
            assert _exact_range(band), key
        assert _exact_range(restored)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        t=st.integers(1, 11),
        workers=st.sampled_from([1, 2, 3, 5]),
        block=st.sampled_from([1, None]),
        seed=st.integers(0, 2**16),
    )
    def test_pyramid(self, t, workers, block, seed):
        v = make_random(seed, (2, t, 16, 8))
        with pytest.MonkeyPatch.context() as mp:
            _at_workers(mp, workers)
            if block:
                mp.setattr(wavelet, "_BLOCK_BYTES", _blocks_of(block, 2, 16, 8))
            p = build_pyramid(v)
            restored = reconstruct_pyramid(p, t)
        for level in (p.level1, p.level2, p.level3):
            for key, band in level.items():
                assert _exact_range(band), key
        assert _exact_range(restored)

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_overflow_in_a_tiles_last_row_is_shape_error(self, workers):
        """Two frames near the float32 maximum overflow their sum in the
        last band row of every tile in turn (h = 10: 5 band rows, cut into
        up to ``workers`` ranges), in a multi-block call."""
        big = np.finfo(np.float32).max / 2 ** 0.25
        bounds = [5 * i // min(workers, 5) for i in range(min(workers, 5) + 1)]
        for row in {b - 1 for b in bounds[1:]}:
            arr = Rng(workers).normal((2, 9, 10, 6))
            arr[0, 5:7, 2 * row] = big  # frames 5 and 6 are one pair at T = 9
            quiet = np.errstate(over="ignore", invalid="ignore")
            with pytest.MonkeyPatch.context() as mp, quiet:
                _at_workers(mp, workers)
                mp.setattr(wavelet, "_BLOCK_BYTES", _blocks_of(1, 2, 10, 6))
                with pytest.raises(ShapeError, match="NaN or Inf"):
                    dwt3d(VideoTensor(arr))
                bands = {key: np.zeros((2, 5, 5, 3), np.float32) for key in KEYS_3D}
                for band in bands.values():
                    band[0, 2, row, 1] = big
                with pytest.raises(ShapeError, match="NaN or Inf"):
                    idwt3d(SubbandSet3D(bands), 9)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        t=st.integers(1, 12),
        workers=st.sampled_from([1, 2, 3]),
        frames=st.sampled_from([1, 2, 5, None]),
        spike=st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True)),
        sign=st.sampled_from([-1.0, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_dwt2d_and_idwt2d(self, t, workers, frames, spike, sign, seed):
        """``frames`` frames per 2D block (None keeps the default: one
        block). Blocks change no bit of the one-block round trip, which is
        exact to the float32 rounding of the 100.0 spike."""
        arr = Rng(seed).normal((2, t, 6, 4))
        arr[1, int(spike[0] * t), int(spike[1] * 6), 1] = sign * 100.0
        with pytest.MonkeyPatch.context() as mp:
            _at_workers(mp, workers)
            if frames:
                mp.setattr(wavelet, "_BLOCK_BYTES", _blocks_of(frames, 2, 6, 4))
            bands = dwt2d(VideoTensor(arr))
            restored = idwt2d(bands)
        for key, band in bands.items():
            assert _exact_range(band), key
        assert _exact_range(restored)
        assert restored == idwt2d(dwt2d(VideoTensor(arr)))
        assert max_abs_diff(restored, arr) <= 1e-4

    def test_pipeline_makes_no_wrap_scan(self, tmp_path, monkeypatch):
        """load_tensor -> build_pyramid -> reconstruct_pyramid and
        analyze_pyramid never scan a whole tensor for its range: every wrap
        takes the range its producer computed. Neither ``_scan`` nor a min or
        max over a whole array a kernel made runs; the kernels take ranges
        from views of the blocks they write. The clip spans several read
        blocks and several Haar blocks, and the kernels run on 2 workers."""
        path = tmp_path / "clip.wfvt"
        save_tensor(make_random(5, (2, 9, 16, 8)), path)
        scans = []
        real_scan = tensor_module._scan
        monkeypatch.setattr(
            tensor_module, "_scan", lambda arr: scans.append(arr.shape) or real_scan(arr)
        )
        whole = []

        class Watched(np.ndarray):
            """An array the kernels made; slicing it gives views that are not."""

            made = False

            def __array_finalize__(self, obj):
                self.made = False

            def min(self, *args, **kwargs):
                if self.made:
                    whole.append(("min", self.shape))
                return super().min(*args, **kwargs)

            def max(self, *args, **kwargs):
                if self.made:
                    whole.append(("max", self.shape))
                return super().max(*args, **kwargs)

        class WatchedNumpy:
            """numpy, but every array ``np.empty`` makes is Watched."""

            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def empty(*args, **kwargs):
                arr = np.empty(*args, **kwargs).view(Watched)
                arr.made = True
                return arr

        monkeypatch.setattr(wavelet, "np", WatchedNumpy())
        monkeypatch.setattr(tensor_module, "_READ_BYTES", 1000)
        monkeypatch.setattr(wavelet, "_BLOCK_BYTES", _blocks_of(1, 2, 16, 8))
        _at_workers(monkeypatch, 2)
        video = load_tensor(path)
        pyramid = build_pyramid(video)
        reconstruct_pyramid(pyramid, video.time)
        analyze_pyramid(pyramid)
        assert scans == []
        assert whole == []
        VideoTensor(video.data)  # the public constructor still scans
        assert scans == [video.shape]
        wavelet._empty_bands(KEYS_2D, 1, 1, 1, 1)["hh"].min()  # and the spy sees
        assert whole == [("min", (1, 1, 1, 1))]

    def test_clip_near_float32_max_is_shape_error(self):
        v = new_tensor(3, 9, 16, 16, float(np.finfo(np.float32).max) * 0.9)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ShapeError, match="NaN or Inf"
        ):
            build_pyramid(v)


class TestReferenceBits:
    """The Haar kernels' output bits against a fixed SHA-256, not against
    the kernels themselves, so a change that moved every bit the same way
    would still fail. The clip is a formula with no RNG and no
    transcendental function, so only the Haar sums, differences and
    ``× 2^-½`` touch it, and those round exactly on every platform. One
    pair per block at every level, so each call spans several blocks."""

    SHA256 = "709391bb059b70b4e1691c003d4fc45696db5765845ddfef543eff2fba36fd52"

    @staticmethod
    def _clip():
        shape = (3, 9, 32, 16)
        n = math.prod(shape)
        values = ((np.arange(n) * 7919) % 1009).astype(np.float32) / np.float32(1009)
        return VideoTensor((values - np.float32(0.5)).reshape(shape))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_pyramid_round_trip_matches_reference(self, monkeypatch, workers):
        _at_workers(monkeypatch, workers)
        monkeypatch.setattr(wavelet, "_BLOCK_BYTES", 1)
        v = self._clip()
        pyramid = build_pyramid(v)
        restored = reconstruct_pyramid(pyramid, v.time)
        digest = hashlib.sha256()
        for level in (pyramid.level1, pyramid.level2, pyramid.level3):
            for _, band in level.items():
                digest.update(band.data.astype("<f4").tobytes())
        digest.update(restored.data.astype("<f4").tobytes())
        assert max_abs_diff(restored, v.data) <= 1e-6
        assert digest.hexdigest() == self.SHA256
