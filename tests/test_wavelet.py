"""Filter bank and pyramid tests: exact values, an independent 3D oracle,
perfect reconstruction, orthonormality, causality, streamed/direct agreement,
and pyramid file defects."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfcodec import (
    FormatError,
    Rng,
    ShapeError,
    SubbandSet2D,
    SubbandSet3D,
    VideoTensor,
    build_pyramid,
    dwt2d,
    dwt3d,
    idwt2d,
    idwt3d,
    load_pyramid,
    new_tensor,
    reconstruct_pyramid,
    save_pyramid,
)
from wfcodec import wavelet
from wfcodec.wavelet import KEYS_2D, KEYS_3D, Dwt3dStream, Idwt3dStream

from helpers import (
    haar3d_oracle,
    ihaar3d_oracle,
    make_random,
    max_abs_diff,
    ramp_video,
    squared_l2,
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


@pytest.fixture(scope="module")
def pyramid_dir(tmp_path_factory):
    target = tmp_path_factory.mktemp("pyramid") / "pyr"
    save_pyramid(build_pyramid(make_random(12, (1, 5, 8, 8))), target)
    return target


class TestPyramidSerialization:
    def test_roundtrip(self, tmp_path):
        p = build_pyramid(make_random(12, (2, 5, 16, 16)))
        target = tmp_path / "pyr"
        save_pyramid(p, target)
        loaded = load_pyramid(target)
        for lvl_a, lvl_b in (
            (p.level1, loaded.level1),
            (p.level2, loaded.level2),
            (p.level3, loaded.level3),
        ):
            for key, band in lvl_a.items():
                assert np.array_equal(band.data, lvl_b[key].data)
        assert loaded.source_time == 5

    def test_bad_manifest(self, tmp_path):
        target = tmp_path / "pyr"
        save_pyramid(build_pyramid(make_random(12, (1, 5, 8, 8))), target)
        (target / "pyramid.json").write_text("{}")
        with pytest.raises(FormatError):
            load_pyramid(target)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: {k: v for k, v in m.items() if k != "original_shape"},
            lambda m: {**m, "original_shape": "x"},
            lambda m: {**m, "original_shape": [1]},
            lambda m: {**m, "original_shape": [1, "5", 8, 8]},
            lambda m: {**m, "original_shape": [1, 5.0, 8, 8]},
            lambda m: {**m, "original_shape": [1, 9, 8, 8]},  # time vs bands
            lambda m: {**m, "original_shape": [2, 5, 8, 8]},  # channels vs bands
            lambda m: {**m, "original_shape": [1, 5, 8, 16]},  # width vs bands
            lambda m: {**m, "levels": 4},
            lambda m: [m],
        ],
        ids=[
            "no-shape", "shape-str", "shape-short", "time-str", "time-float",
            "time-mismatch", "channel-mismatch", "width-mismatch", "levels",
            "not-object",
        ],
    )
    def test_manifest_defect_is_format_error(self, pyramid_dir, edit):
        path = pyramid_dir / "pyramid.json"
        raw = path.read_bytes()
        try:
            path.write_text(json.dumps(edit(json.loads(raw))))
            with pytest.raises(FormatError):
                load_pyramid(pyramid_dir)
        finally:
            path.write_bytes(raw)
        assert load_pyramid(pyramid_dir).source_time == 5

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(name=st.sampled_from(["pyramid.json", "L1_ghg.wfvt"]), data=st.data())
    def test_prefix_or_byte_flip_is_format_error(self, pyramid_dir, name, data):
        path = pyramid_dir / name
        raw = path.read_bytes()
        # Cutting only the manifest's trailing newline leaves the same JSON
        # document, so prefixes are taken of the document itself.
        doc = raw.rstrip() if name.endswith(".json") else raw
        try:
            cut = data.draw(st.integers(0, len(doc) - 1), label="cut")
            path.write_bytes(doc[:cut])
            with pytest.raises(FormatError):
                load_pyramid(pyramid_dir)
            pos = data.draw(st.integers(0, len(raw) - 1), label="pos")
            flipped = bytearray(raw)
            flipped[pos] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[pos]))
            path.write_bytes(bytes(flipped))
            try:
                load_pyramid(pyramid_dir)
            except FormatError:
                pass
        finally:
            path.write_bytes(raw)


def _stream_dwt(v: VideoTensor, sizes) -> dict:
    """Feed ``v`` to one Dwt3dStream in chunks of ``sizes`` frames."""
    stream = Dwt3dStream(pad_first=v.time % 2 == 1)
    chunks, start = [], 0
    for size in sizes:
        chunks.append(stream.feed(v.data[:, start : start + size]))
        start += size
    return {key: np.concatenate([c[key] for c in chunks], axis=1) for key in KEYS_3D}


def _stream_idwt(bands: dict, sizes, drop_first: bool) -> np.ndarray:
    """Feed ``bands`` to one Idwt3dStream in chunks of ``sizes`` pairs."""
    stream = Idwt3dStream(drop_first=drop_first)
    pieces, start = [], 0
    for size in sizes:
        pieces.append(
            stream.feed({k: bands[k][:, start : start + size] for k in KEYS_3D})
        )
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
