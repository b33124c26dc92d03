"""Causal convolution, cache bookkeeping, normalization, upsampling, chunk plans.

The two independent routes are kept strictly apart: the closed-form
cache_len is checked against the sliding-window simulation, and the
vectorized convolution against a plain nested-loop reference.
"""

import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfcodec import (
    CacheState,
    ChunkPlan,
    ConvSpec,
    ParameterError,
    Rng,
    ShapeError,
    StateError,
    VideoTensor,
    cache_len,
    cache_len_by_simulation,
    causal_conv3d,
    frame_layernorm,
    groupnorm_whole_clip,
    nearest_upsample,
    new_tensor,
    silu,
    stream_conv3d,
)

from wfcodec import blas, causal

from helpers import (
    conv3d_loop_oracle, draw_chunk_sizes, make_random, max_abs_diff, per_tap_conv3d,
    traced_peak,
)


def norm64(x, groups, gain, bias, eps=1e-5):
    """Float64 group normalization; one group over all channels is the
    per-frame layer norm of a single frame."""
    c = x.shape[0]
    grouped = x.astype(np.float64).reshape(groups, c // groups, *x.shape[1:])
    mean = grouped.mean(axis=(1, 2, 3, 4), keepdims=True)
    var = grouped.var(axis=(1, 2, 3, 4), keepdims=True)
    out = ((grouped - mean) / np.sqrt(var + eps)).reshape(x.shape)
    return out * gain[:, None, None, None] + bias[:, None, None, None]


# Squares of this frame overflow float32 (|x| above about 1.8e19).
HUGE_FRAME = np.array(
    [3e19, -1e19, 3e19, -1e19, 1, 2, 3, 4], dtype=np.float32
).reshape(2, 1, 2, 2)


def stream_all(x: VideoTensor, spec, weight, bias, sizes):
    """Drive stream_conv3d over the given chunk sizes; concat the outputs."""
    state = CacheState()
    pieces = []
    start = 0
    for size in sizes:
        chunk = VideoTensor(x.data[:, start : start + size])
        start += size
        out, state = stream_conv3d(state, chunk, spec, weight, bias)
        if out is not None:
            pieces.append(out.data)
    assert start == x.time
    return np.concatenate(pieces, axis=1), state


class TestConvSpec:
    def test_temporal_pad_is_kernel_minus_one(self):
        spec = ConvSpec(2, 3, (4, 3, 3))
        assert spec.temporal_pad == 3

    def test_invalid_specs(self):
        with pytest.raises(ParameterError):
            ConvSpec(0, 1, (1, 1, 1))
        with pytest.raises(ParameterError):
            ConvSpec(1, 1, (0, 1, 1))
        with pytest.raises(ParameterError):
            ConvSpec(1, 1, (1, 1, 1), (1, 0, 1))
        with pytest.raises(ParameterError):
            ConvSpec(1, 1, (1, 1, 1), pad_mode="wrap")


class TestCausalConv3d:
    def test_identity_kernel(self):
        x = make_random(1, (3, 5, 6, 6))
        weight = np.zeros((3, 3, 1, 1, 1), dtype=np.float32)
        for i in range(3):
            weight[i, i, 0, 0, 0] = 1.0
        spec = ConvSpec(3, 3, (1, 1, 1))
        out = causal_conv3d(x, spec, weight)
        assert np.array_equal(out.data, x.data)

    def test_averaging_preserves_constants(self):
        c = 0.6
        cin, kt, kh, kw = 2, 3, 3, 3
        x = new_tensor(cin, 5, 8, 8, c)
        weight = np.full(
            (1, cin, kt, kh, kw), 1.0 / (kt * kh * kw * cin), dtype=np.float32
        )
        spec = ConvSpec(cin, 1, (kt, kh, kw))  # valid conv: no spatial pad
        out = causal_conv3d(x, spec, weight)
        assert out.shape == (1, 5, 6, 6)
        np.testing.assert_allclose(out.data, c, atol=1e-6)

    def test_matches_loop_oracle_on_reference_shape(self):
        x = make_random(2, (2, 5, 6, 6))
        rng = Rng(3)
        weight = rng.normal((3, 2, 3, 2, 2), std=0.5)
        bias = rng.normal((3,), std=0.1)
        spec = ConvSpec(2, 3, (3, 2, 2), (1, 1, 1), (1, 1))
        out = causal_conv3d(x, spec, weight, bias)
        expected = conv3d_loop_oracle(x.data, weight, bias, (1, 1, 1), (1, 1))
        assert out.shape == expected.shape
        assert max_abs_diff(out.data, expected) <= 1e-5

    def test_matches_loop_oracle_random_specs(self):
        """A spread of random geometries against the brute-force reference."""
        rng = Rng(202)
        for trial in range(12):
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 4))
            kernel = tuple(int(rng.integers(1, 4)) for _ in range(3))
            stride = tuple(int(rng.integers(1, 3)) for _ in range(3))
            pad = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            pad_mode = "replicate" if trial % 2 else "zeros"
            t = int(rng.integers(1, 7))
            h = kernel[1] + int(rng.integers(0, 5))
            w = kernel[2] + int(rng.integers(0, 5))
            spec = ConvSpec(cin, cout, kernel, stride, pad, pad_mode)
            x = VideoTensor(rng.normal((cin, t, h, w)))
            weight = rng.normal(spec.weight_shape(), std=0.5)
            bias = rng.normal((cout,), std=0.2)
            out = causal_conv3d(x, spec, weight, bias)
            expected = conv3d_loop_oracle(x.data, weight, bias, stride, pad, pad_mode)
            assert out.shape == expected.shape
            assert max_abs_diff(out.data, expected) <= 1e-5

    def test_output_frame0_causal(self):
        spec = ConvSpec(2, 2, (3, 3, 3), (1, 1, 1), (1, 1))
        weight = Rng(5).normal(spec.weight_shape(), std=0.3)
        base = make_random(6, (2, 6, 8, 8))
        perturbed = base.data.copy()
        perturbed[:, 1:] += 3.0
        out0 = causal_conv3d(base, spec, weight)
        out1 = causal_conv3d(VideoTensor(perturbed), spec, weight)
        assert np.array_equal(out0.data[:, 0], out1.data[:, 0])

    def test_channel_mismatch(self):
        spec = ConvSpec(3, 1, (1, 1, 1))
        weight = np.ones(spec.weight_shape(), dtype=np.float32)
        with pytest.raises(ShapeError):
            causal_conv3d(new_tensor(2, 1, 2, 2, 0.0), spec, weight)

    def test_weight_shape_mismatch(self):
        spec = ConvSpec(2, 1, (3, 3, 3))
        with pytest.raises(ShapeError):
            causal_conv3d(
                new_tensor(2, 2, 4, 4, 0.0),
                spec,
                np.ones((1, 2, 3, 3), dtype=np.float32),
            )


class TestRowTiles:
    """Frames split into several row tiles: the kernel's tile seams."""

    CASES = [
        # (spec, input shape); every case has a short last tile.
        (ConvSpec(2, 3, (3, 3, 3), (1, 1, 1), (1, 1)), (2, 5, 7, 9)),
        (ConvSpec(3, 2, (3, 3, 3), (1, 2, 2), (1, 1), "zeros"), (3, 6, 13, 10)),
        (ConvSpec(2, 2, (1, 3, 3), (1, 1, 1), (1, 1)), (2, 4, 9, 6)),
        (ConvSpec(2, 3, (3, 1, 3), (2, 1, 1), (0, 1)), (2, 7, 7, 5)),
        (ConvSpec(3, 2, (1, 1, 1)), (3, 4, 5, 6)),
    ]

    @staticmethod
    def _two_row_tiles(monkeypatch, spec, shape):
        """Shrink the tile budget to two output rows, leaving a short last tile."""
        (ph, pw), (sh, sw) = spec.spatial_pad, spec.stride[1:]
        ho = (shape[2] + 2 * ph - spec.kernel[1]) // sh + 1
        wo = (shape[3] + 2 * pw - spec.kernel[2]) // sw + 1
        k = spec.in_channels * int(np.prod(spec.kernel))
        monkeypatch.setattr(causal, "_COL_TILE_BYTES", 4 * k * wo * 2)
        assert ho > 2 and ho % 2

    @pytest.mark.parametrize("spec,shape", CASES)
    def test_matches_loop_oracle(self, monkeypatch, spec, shape):
        self._two_row_tiles(monkeypatch, spec, shape)
        rng = Rng(17)
        x = VideoTensor(rng.normal(shape))
        weight = rng.normal(spec.weight_shape(), std=0.5)
        bias = rng.normal((spec.out_channels,), std=0.2)
        out = causal_conv3d(x, spec, weight, bias)
        expected = conv3d_loop_oracle(
            x.data, weight, bias, spec.stride, spec.spatial_pad, spec.pad_mode
        )
        assert out.shape == expected.shape
        assert max_abs_diff(out.data, expected) <= 1e-5

    @pytest.mark.parametrize("spec,shape", CASES)
    def test_equals_per_tap_lowering(self, monkeypatch, spec, shape):
        # One strided copy per tile writes the same column as a copy per tap.
        self._two_row_tiles(monkeypatch, spec, shape)
        rng = Rng(19)
        x = VideoTensor(rng.normal(shape))
        weight = rng.normal(spec.weight_shape(), std=0.5)
        bias = rng.normal((spec.out_channels,), std=0.2)
        out = causal_conv3d(x, spec, weight, bias)
        expected = per_tap_conv3d(x.data, weight, bias, spec, rows=2)
        assert np.array_equal(out.data, expected)

    @pytest.mark.parametrize("spec,shape", CASES)
    def test_stream_equals_whole_clip(self, monkeypatch, spec, shape):
        # Tiles depend on geometry only, so every plan runs the same GEMMs.
        self._two_row_tiles(monkeypatch, spec, shape)
        rng = Rng(18)
        x = VideoTensor(rng.normal(shape))
        weight = rng.normal(spec.weight_shape(), std=0.5)
        bias = rng.normal((spec.out_channels,), std=0.2)
        direct = causal_conv3d(x, spec, weight, bias)
        t = shape[1]
        sizes = ChunkPlan.explicit([1, t - 2, 1]).split(t)
        streamed, _ = stream_all(x, spec, weight, bias, sizes)
        assert np.array_equal(streamed, direct.data)


class TestCacheLen:
    def test_stride1_caches_two_frames(self):
        for m in range(12):
            assert cache_len(3, 1, 4, m) == 2

    def test_stride2_caches_single_frame(self):
        for m in range(12):
            assert cache_len(3, 2, 4, m) == 1

    def test_modular_cache_cycle(self):
        for m in range(12):
            assert cache_len(4, 3, 4, m) == (m % 3) + 1

    def test_formula_equals_simulation_sample_grid(self):
        for k in range(1, 7):
            for s in range(1, 5):
                for tc in (1, 3, 8):
                    for m in range(12):
                        assert cache_len(k, s, tc, m) == cache_len_by_simulation(
                            k, s, tc, m
                        )

    def test_negative_when_stride_outruns_kernel(self):
        # k=1, s=2: nothing needs caching and the next window starts one
        # frame past the data; both routes agree on the signed value.
        assert cache_len(1, 2, 1, 0) == -1
        assert cache_len_by_simulation(1, 2, 1, 0) == -1

    def test_stride_equal_kernel_periodicity(self):
        # s_t == k_t with chunk a multiple of k_t: occupancy repeats with m.
        values = [cache_len(3, 3, 6, m) for m in range(9)]
        sims = [cache_len_by_simulation(3, 3, 6, m) for m in range(9)]
        assert values == sims
        assert values[:3] * 3 == values

    def test_invalid_arguments(self):
        with pytest.raises(ParameterError):
            cache_len(0, 1, 1, 0)
        with pytest.raises(ParameterError):
            cache_len(1, 0, 1, 0)
        with pytest.raises(ParameterError):
            cache_len(1, 1, 0, 0)
        with pytest.raises(ParameterError):
            cache_len_by_simulation(1, 1, 1, -1)


class TestStreamConv3d:
    def _setup(self, seed, cin=2, cout=3, kernel=(3, 3, 3), stride=(1, 1, 1)):
        spec = ConvSpec(cin, cout, kernel, stride, (1, 1))
        rng = Rng(seed)
        weight = rng.normal(spec.weight_shape(), std=0.4)
        bias = rng.normal((cout,), std=0.1)
        return spec, weight, bias

    def test_single_chunk_equals_direct(self):
        spec, weight, bias = self._setup(21)
        x = make_random(22, (2, 9, 8, 8))
        direct = causal_conv3d(x, spec, weight, bias)
        streamed, _ = stream_all(x, spec, weight, bias, [9])
        assert max_abs_diff(streamed, direct.data) <= 1e-6

    def test_canonical_chunking_33_frames(self):
        """k_t=3, s_t=1, T=33, chunking 1 + 8 x 4 matches direct evaluation."""
        spec, weight, bias = self._setup(23)
        x = make_random(24, (2, 33, 8, 8))
        direct = causal_conv3d(x, spec, weight, bias)
        streamed, _ = stream_all(x, spec, weight, bias, [1] + [4] * 8)
        assert max_abs_diff(streamed, direct.data) <= 1e-6

    @pytest.mark.parametrize(
        "kernel_t,stride_t", [(1, 1), (2, 1), (3, 2), (4, 3), (5, 2), (2, 4)]
    )
    def test_mixed_chunkings_match_direct(self, kernel_t, stride_t):
        spec, weight, bias = self._setup(
            25, kernel=(kernel_t, 3, 3), stride=(stride_t, 1, 1)
        )
        x = make_random(26 + kernel_t, (2, 17, 8, 8))
        direct = causal_conv3d(x, spec, weight, bias)
        plans = [[17], [1] + [4] * 4, [2, 5, 1, 8, 1], [1] * 17, [8, 8, 1]]
        for sizes in plans:
            streamed, _ = stream_all(x, spec, weight, bias, sizes)
            assert streamed.shape == direct.shape
            assert max_abs_diff(streamed, direct.data) <= 1e-6

    def test_cache_occupancy_trace_k3_s2(self):
        """Canonical chunking k_t=3, s_t=2, T_chunk=4: only the last frame is
        ever cached, occupancy trace [1, 1, 1, ...]."""
        spec, weight, bias = self._setup(27, kernel=(3, 3, 3), stride=(2, 1, 1))
        x = make_random(28, (2, 33, 8, 8))
        state = CacheState()
        occupancies = []
        start = 0
        for size in [1] + [4] * 8:
            chunk = VideoTensor(x.data[:, start : start + size])
            start += size
            _, state = stream_conv3d(state, chunk, spec, weight, bias)
            occupancies.append(state.occupancy)
        assert occupancies == [1] * 9

    @pytest.mark.parametrize("kernel_t,stride_t,t_chunk", [(3, 1, 4), (4, 3, 4), (5, 4, 2), (2, 2, 3)])
    def test_occupancy_matches_formula_canonical(self, kernel_t, stride_t, t_chunk):
        spec, weight, bias = self._setup(
            29, kernel=(kernel_t, 1, 1), stride=(stride_t, 1, 1)
        )
        total = 1 + 6 * t_chunk
        x = make_random(30, (2, total, 4, 4))
        state = CacheState()
        start = 0
        for m, size in enumerate([1] + [t_chunk] * 6):
            chunk = VideoTensor(x.data[:, start : start + size])
            start += size
            _, state = stream_conv3d(state, chunk, spec, weight, bias)
            assert state.occupancy == max(0, cache_len(kernel_t, stride_t, t_chunk, m))

    def test_mid_stream_chunk_may_emit_nothing(self):
        spec, weight, bias = self._setup(31, kernel=(3, 1, 1), stride=(2, 1, 1))
        x = make_random(32, (2, 4, 4, 4))
        state = CacheState()
        out0, state = stream_conv3d(
            state, VideoTensor(x.data[:, :1]), spec, weight, bias
        )
        assert out0 is not None and out0.time == 1
        out1, state = stream_conv3d(
            state, VideoTensor(x.data[:, 1:2]), spec, weight, bias
        )
        assert out1 is None

    def test_finalized_stream_rejects_chunks(self):
        spec, weight, bias = self._setup(33)
        state = CacheState(finalized=True)
        with pytest.raises(StateError):
            stream_conv3d(state, new_tensor(2, 1, 4, 4, 0.0), spec, weight, bias)

    def test_zero_frame_chunk_unrepresentable(self):
        # The public pre-condition "chunk time > 0" is enforced structurally:
        # a zero-frame VideoTensor cannot be constructed at all.
        with pytest.raises(ShapeError):
            VideoTensor(np.zeros((2, 0, 4, 4), dtype=np.float32))

    def test_state_counts_chunks(self):
        spec, weight, bias = self._setup(34)
        state = CacheState()
        out, state = stream_conv3d(
            state, new_tensor(2, 1, 4, 4, 0.5), spec, weight, bias
        )
        assert state.frames_seen == 1 + spec.temporal_pad

    def test_caller_state_unchanged_and_feed_repeatable(self):
        """The caller's state and its cache survive a feed byte for byte, so
        feeding the same state twice gives the same output and new state."""
        spec, weight, bias = self._setup(35)
        x = make_random(36, (2, 5, 8, 8))
        _, state = stream_conv3d(
            CacheState(), VideoTensor(x.data[:, :2]), spec, weight, bias
        )
        before, cache = state.cache.tobytes(), state.cache
        chunk = VideoTensor(x.data[:, 2:])
        (out1, new1), (out2, new2) = (
            stream_conv3d(state, chunk, spec, weight, bias) for _ in range(2)
        )
        assert state.cache is cache and cache.tobytes() == before
        assert state.occupancy == 2 and not state.finalized
        assert np.array_equal(out1.data, out2.data)
        for field in ("frames_seen", "next_window_start", "finalized"):
            assert getattr(new1, field) == getattr(new2, field)
        assert np.array_equal(new1.cache, new2.cache) and new1.cache is not cache

    def test_failed_feed_cannot_lose_frames_silently(self, monkeypatch):
        """A feed that fails after it took the cache leaves a stream whose
        next feed raises StateError."""
        spec, weight, bias = self._setup(37)
        x = make_random(38, (2, 4, 8, 8)).data
        conv = causal._ConvStream(spec, weight, bias)
        conv.feed(x[:, :2])

        def fail(*_, **__):
            raise RuntimeError("gemm failed")

        with monkeypatch.context() as mp:
            mp.setattr(np, "matmul", fail)
            with pytest.raises(RuntimeError, match="gemm failed"):
                conv.feed(x[:, 2:3])
        with pytest.raises(StateError, match="cache lost frames"):
            conv.feed(x[:, 3:])

    def test_rejected_chunk_leaves_the_stream_as_it_was(self):
        """A chunk of another frame size is rejected before the feed takes
        the cache, so the stream goes on as if it had never been fed."""
        spec, weight, bias = self._setup(39)
        x = make_random(40, (2, 5, 8, 8)).data
        conv = causal._ConvStream(spec, weight, bias)
        first = conv.feed(x[:, :2])
        with pytest.raises(ShapeError, match="differ from the cached"):
            conv.feed(x[:, 2:4, :6, :6])
        rest = conv.feed(x[:, 2:], final=True)
        expected = causal_conv3d(VideoTensor(x), spec, weight, bias).data
        assert np.array_equal(np.concatenate([first, rest], axis=1), expected)


class TestFrameLayernorm:
    def test_constant_frame_returns_bias(self):
        x = new_tensor(3, 2, 4, 4, 5.0)
        gain = np.ones(3, dtype=np.float32)
        bias = np.array([0.5, -1.0, 2.0], dtype=np.float32)
        out = frame_layernorm(x, gain, bias)
        for c in range(3):
            np.testing.assert_allclose(out.data[c], bias[c], atol=1e-6)

    def test_per_frame_statistics(self):
        x = make_random(41, (4, 3, 8, 8))
        out = frame_layernorm(x, np.ones(4, np.float32), np.zeros(4, np.float32))
        for t in range(3):
            frame = out.data[:, t].astype(np.float64)
            assert abs(frame.mean()) <= 1e-5
            assert frame.var() == pytest.approx(1.0, abs=1e-3)

    def test_streamed_equals_direct(self):
        x = make_random(42, (3, 9, 8, 8))
        gain = Rng(43).normal((3,), std=0.3)
        bias = Rng(44).normal((3,), std=0.3)
        direct = frame_layernorm(x, gain, bias)
        pieces = [
            frame_layernorm(VideoTensor(x.data[:, s:e]), gain, bias).data
            for s, e in ((0, 1), (1, 5), (5, 9))
        ]
        assert np.array_equal(np.concatenate(pieces, axis=1), direct.data)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        c=st.integers(1, 8), t=st.integers(1, 12), h=st.integers(1, 9),
        w=st.integers(1, 9), seed=st.integers(0, 2**16), data=st.data(),
    )
    def test_any_chunking_equals_direct_bits(self, c, t, h, w, seed, data):
        sizes = draw_chunk_sizes(data.draw, t)
        rng = Rng(seed)
        x = VideoTensor(rng.normal((c, t, h, w), mean=0.5, std=2.0))
        gain = rng.normal((c,), std=0.3)
        bias = rng.normal((c,), std=0.3)
        direct = frame_layernorm(x, gain, bias).data
        bounds = np.cumsum([0, *sizes])
        pieces = [
            frame_layernorm(VideoTensor(x.data[:, s:e]), gain, bias).data
            for s, e in zip(bounds, bounds[1:])
        ]
        assert np.array_equal(np.concatenate(pieces, axis=1), direct)

    def test_bad_eps(self):
        x = new_tensor(1, 1, 2, 2, 0.0)
        with pytest.raises(ParameterError):
            frame_layernorm(x, [1.0], [0.0], eps=0.0)

    def test_huge_finite_frame_matches_float64(self):
        gain = np.ones(2, np.float32)
        bias = np.full(2, 0.5, np.float32)
        ordinary = make_random(45, (2, 1, 2, 2)).data
        x = np.concatenate([HUGE_FRAME, ordinary], axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = frame_layernorm(VideoTensor(x), gain, bias).data
        np.testing.assert_allclose(
            out[:, :1], norm64(HUGE_FRAME, 1, gain, bias), rtol=1e-6
        )
        # The ordinary frame keeps its float32 result, bit for bit.
        alone = frame_layernorm(VideoTensor(ordinary), gain, bias).data
        assert np.array_equal(out[:, 1:], alone)


class TestGroupnormWholeClip:
    def test_single_frame_equals_frame_layernorm(self):
        x = make_random(51, (4, 1, 8, 8))
        gain = np.ones(4, np.float32)
        bias = np.zeros(4, np.float32)
        gn = groupnorm_whole_clip(x, 1, gain, bias)
        ln = frame_layernorm(x, gain, bias)
        assert max_abs_diff(gn.data, ln.data) <= 1e-6

    def test_constant_input_returns_bias(self):
        x = new_tensor(4, 3, 4, 4, 2.5)
        bias = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32)
        out = groupnorm_whole_clip(x, 2, np.ones(4, np.float32), bias)
        for c in range(4):
            np.testing.assert_allclose(out.data[c], bias[c], atol=1e-6)

    def test_chunked_differs_from_direct(self):
        """The negative control: whole-clip statistics change with chunk
        boundaries, so streaming group norm per chunk diverges."""
        x = make_random(52, (4, 8, 8, 8))
        gain = np.ones(4, np.float32)
        bias = np.zeros(4, np.float32)
        direct = groupnorm_whole_clip(x, 2, gain, bias)
        chunked = np.concatenate(
            [
                groupnorm_whole_clip(VideoTensor(x.data[:, :4]), 2, gain, bias).data,
                groupnorm_whole_clip(VideoTensor(x.data[:, 4:]), 2, gain, bias).data,
            ],
            axis=1,
        )
        assert max_abs_diff(chunked, direct.data) > 1e-3

    def test_huge_finite_group_matches_float64(self):
        gain = np.ones(4, np.float32)
        bias = np.full(4, 0.5, np.float32)
        ordinary = np.arange(1, 9, dtype=np.float32).reshape(2, 1, 2, 2)
        x = np.concatenate([HUGE_FRAME, ordinary], axis=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = groupnorm_whole_clip(VideoTensor(x), 2, gain, bias).data
        np.testing.assert_allclose(
            out[:2], norm64(HUGE_FRAME, 1, gain[:2], bias[:2]), rtol=1e-6
        )
        # The ordinary group keeps its float32 result, bit for bit.
        alone = groupnorm_whole_clip(VideoTensor(ordinary), 1, gain[2:], bias[2:])
        assert np.array_equal(out[2:], alone.data)

    def test_indivisible_groups_rejected(self):
        with pytest.raises(ParameterError):
            groupnorm_whole_clip(
                new_tensor(3, 1, 2, 2, 0.0), 2, np.ones(3), np.zeros(3)
            )


class TestSiluAndUpsample:
    def test_silu_values(self):
        x = np.array([0.0, 1.0, -1.0], dtype=np.float32)
        out = silu(x)
        np.testing.assert_allclose(
            out, [0.0, 1 / (1 + np.exp(-1)), -1 * np.exp(-1) / (1 + np.exp(-1))],
            atol=1e-6,
        )

    def test_silu_extremes_finite(self):
        out = silu(np.array([-1e4, 1e4], dtype=np.float32))
        assert np.isfinite(out).all()
        assert out[0] == 0.0
        assert out[1] == pytest.approx(1e4)

    def test_upsample_temporal_law(self):
        """Factor-2 time upsampling emits 2t-1 frames: frame j comes from
        input frame (j+1)//2."""
        x = make_random(61, (2, 5, 4, 4))
        out = nearest_upsample(x, (2, 1, 1))
        assert out.shape == (2, 9, 4, 4)
        for j in range(9):
            assert np.array_equal(out.data[:, j], x.data[:, (j + 1) // 2])

    def test_upsample_spatial(self):
        x = make_random(62, (1, 2, 3, 3))
        out = nearest_upsample(x, (1, 2, 2))
        assert out.shape == (1, 2, 6, 6)
        assert np.array_equal(out.data[0, 0, ::2, ::2], x.data[0, 0])
        assert np.array_equal(out.data[0, 0, 1::2, 1::2], x.data[0, 0])

    def test_upsample_single_frame(self):
        x = make_random(63, (1, 1, 2, 2))
        out = nearest_upsample(x, (2, 2, 2))
        assert out.shape == (1, 1, 4, 4)

    def test_bad_factors(self):
        with pytest.raises(ParameterError):
            nearest_upsample(new_tensor(1, 1, 2, 2, 0.0), (3, 1, 1))


@st.composite
def _conv_specs(draw):
    kernel = (draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    return ConvSpec(
        draw(st.integers(1, 3)),
        draw(st.integers(1, 3)),
        kernel,
        (draw(st.integers(1, 4)), draw(st.integers(1, 2)), draw(st.integers(1, 2))),
        (draw(st.integers(0, 1)), draw(st.integers(0, 1))),
        draw(st.sampled_from(["replicate", "zeros"])),
    )


@st.composite
def _explicit_sizes(draw, max_frames=16):
    return draw_chunk_sizes(draw, draw(st.integers(1, max_frames)))


class TestStreamProperties:
    """Random geometry and random chunkings: streaming equals the whole clip."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(spec=_conv_specs(), sizes=_explicit_sizes(), seed=st.integers(0, 2**16))
    def test_stream_equals_whole_clip(self, spec, sizes, seed):
        """Bit for bit: the GEMM tiles depend on the layer geometry alone."""
        rng = Rng(seed)
        x = VideoTensor(rng.normal((spec.in_channels, sum(sizes), 4, 5)))
        weight = rng.normal(spec.weight_shape(), std=0.5)
        bias = rng.normal((spec.out_channels,), std=0.1)
        direct = causal_conv3d(x, spec, weight, bias)
        streamed, _ = stream_all(x, spec, weight, bias, sizes)
        assert np.array_equal(streamed, direct.data)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        kernel_t=st.integers(1, 6),
        stride_t=st.integers(1, 4),
        t_chunk=st.integers(1, 8),
        chunks=st.integers(1, 6),
    )
    def test_occupancy_is_cache_len_at_canonical_boundaries(
        self, kernel_t, stride_t, t_chunk, chunks
    ):
        spec = ConvSpec(1, 1, (kernel_t, 1, 1), (stride_t, 1, 1))
        weight = np.ones(spec.weight_shape(), dtype=np.float32)
        state = CacheState()
        for m in range(chunks + 1):
            chunk = new_tensor(1, 1 if m == 0 else t_chunk, 1, 1, float(m))
            _, state = stream_conv3d(state, chunk, spec, weight)
            assert state.occupancy == max(cache_len(kernel_t, stride_t, t_chunk, m), 0)


class TestFusedUpsample:
    """A conv that reads through nearest factors equals upsample-then-conv."""

    @staticmethod
    def _stream(x, spec, weight, bias, factors, sizes):
        conv = causal._ConvStream(spec, weight, bias, factors)
        pieces, start = [], 0
        for i, size in enumerate(sizes):
            out = conv.feed(x[:, start : start + size], final=i == len(sizes) - 1)
            pieces.append(out)
            start += size
        return np.concatenate(pieces, axis=1)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        factors=st.sampled_from([(1, 2, 2), (2, 2, 2)]),
        kernel_t=st.sampled_from([1, 3]),
        kernel_s=st.sampled_from([1, 3]),
        stride_t=st.integers(1, 2),
        pad=st.integers(0, 1),
        pad_mode=st.sampled_from(["replicate", "zeros"]),
        sizes=_explicit_sizes(max_frames=8),
        seed=st.integers(0, 2**16),
    )
    def test_stream_equals_upsample_then_conv(
        self, factors, kernel_t, kernel_s, stride_t, pad, pad_mode, sizes, seed
    ):
        spec = ConvSpec(
            2, 3, (kernel_t, kernel_s, kernel_s), (stride_t, 1, 1), (pad, pad), pad_mode
        )
        rng = Rng(seed)
        x = rng.normal((2, sum(sizes), 3, 4))
        weight = rng.normal(spec.weight_shape(), std=0.5)
        bias = rng.normal((spec.out_channels,), std=0.1)
        expected = causal_conv3d(
            nearest_upsample(VideoTensor(x), factors), spec, weight, bias
        )
        streamed = self._stream(x, spec, weight, bias, factors, sizes)
        assert np.array_equal(streamed, expected.data)

    # (factors, spec, source frame (c, h, w), output rows per band). Each case
    # has several bands and a short last one; the budget set from ``rows``
    # survives the kernel's band balancing unchanged.
    BAND_CASES = [
        # 10 rows in bands of 3: bands start on odd rows 3 and 9; the last is 1 row.
        ((1, 2, 2), ConvSpec(2, 3, (3, 3, 3), (1, 1, 1), (1, 1)), (2, 5, 3), 3),
        # Kernel 5, pad 2 = fh: the border is a whole source row.
        ((2, 2, 2), ConvSpec(2, 3, (3, 5, 5), (1, 1, 1), (2, 2), "zeros"), (2, 5, 3), 3),
        # Kernel 7, pad 3 > fh: bands of 4, 4 and 2 rows, each starting on an
        # odd padded source phase.
        ((1, 2, 2), ConvSpec(2, 2, (2, 7, 7), (2, 1, 1), (3, 3)), (2, 5, 3), 4),
        # Height factor 3, width factor 1: bands of 2 rows, the last is 1 row.
        ((1, 3, 1), ConvSpec(2, 2, (1, 3, 3), (1, 1, 1), (1, 1)), (2, 3, 4), 2),
    ]

    @staticmethod
    def _bands_of(monkeypatch, spec, factors, frame, rows):
        """Shrink the tile budget to ``rows`` output rows of the upsampled frame."""
        c, h, w = frame
        (ph, pw), (kh, kw) = spec.spatial_pad, spec.kernel[1:]
        ho = factors[1] * h + 2 * ph - kh + 1
        wo = factors[2] * w + 2 * pw - kw + 1
        k = c * int(np.prod(spec.kernel))
        monkeypatch.setattr(causal, "_COL_TILE_BYTES", 4 * k * wo * rows)
        assert ho > rows and ho % rows

    @pytest.mark.parametrize("factors,spec,frame,rows", BAND_CASES)
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(sizes=_explicit_sizes(max_frames=7), seed=st.integers(0, 2**16))
    def test_row_bands_equal_upsample_then_conv(
        self, factors, spec, frame, rows, sizes, seed
    ):
        rng = Rng(seed)
        x = rng.normal((frame[0], sum(sizes)) + frame[1:])
        weight = rng.normal(spec.weight_shape(), std=0.5)
        bias = rng.normal((spec.out_channels,), std=0.1)
        with pytest.MonkeyPatch.context() as mp:
            self._bands_of(mp, spec, factors, frame, rows)
            expected = causal_conv3d(
                nearest_upsample(VideoTensor(x), factors), spec, weight, bias
            )
            for plan in ([sum(sizes)], sizes):
                streamed = self._stream(x, spec, weight, bias, factors, plan)
                assert np.array_equal(streamed, expected.data)

    @pytest.mark.parametrize("stride", [(1, 2, 2), (1, 1, 2)])
    def test_spatial_factors_need_spatial_stride_1(self, stride):
        spec = ConvSpec(2, 2, (1, 3, 3), stride, (1, 1))
        rng = Rng(9)
        x = rng.normal((2, 3, 4, 4))
        weight = rng.normal(spec.weight_shape())
        with pytest.raises(ParameterError):
            self._stream(x, spec, weight, np.zeros(2, np.float32), (1, 2, 2), [3])


class TestFusedPrologueAndResidual:
    """A conv reading through silu(norm(x)) equals the layers run one after
    another, bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        groups=st.sampled_from([None, 0, 1, 2]),
        kernel_t=st.sampled_from([1, 3]),
        kernel_s=st.sampled_from([1, 3]),
        stride_t=st.integers(1, 2),
        sizes=_explicit_sizes(max_frames=8),
        seed=st.integers(0, 2**16),
    )
    def test_stream_equals_norm_act_then_conv(
        self, groups, kernel_t, kernel_s, stride_t, sizes, seed
    ):
        """``groups`` None is SiLU alone, read from a channel slice as the
        decoder's outflow branches do."""
        pad = kernel_s // 2
        spec = ConvSpec(4, 3, (kernel_t, kernel_s, kernel_s), (stride_t, 1, 1), (pad, pad))
        rng = Rng(seed)
        x = rng.normal((6, sum(sizes), 3, 4), std=2.0)[:4]
        weight = rng.normal(spec.weight_shape(), std=0.5)
        bias = rng.normal((3,), std=0.1)
        gain = 1.0 + rng.normal((4,), std=0.1)
        shift = rng.normal((4,), std=0.1)
        if groups is None:
            prologue = causal._Prologue()
        else:
            prologue = causal._Prologue(gain, shift, groups)
        conv = causal._ConvStream(spec, weight, bias, prologue=prologue)
        pieces, acts, start = [], [], 0
        for i, size in enumerate(sizes):
            chunk = VideoTensor(x[:, start : start + size])
            out = conv.feed(x[:, start : start + size], final=i == len(sizes) - 1)
            pieces.append(out)
            # Group statistics span the chunk: the negative control's rule.
            if groups is None:
                normed = chunk
            elif groups:
                normed = groupnorm_whole_clip(chunk, groups, gain, shift)
            else:
                normed = frame_layernorm(chunk, gain, shift)
            acts.append(silu(normed.data))
            start += size
        act = VideoTensor(np.concatenate(acts, axis=1))
        expected = causal_conv3d(act, spec, weight, bias)
        assert np.array_equal(np.concatenate(pieces, axis=1), expected.data)


class TestWorkers:
    """Up to W workers take each output frame's row tiles. Tiles depend on
    the geometry alone, so the bits equal one worker's at any W, under any
    chunking, with fewer tiles than workers, through the upsampling row
    bands and the norm prologue."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        spec=_conv_specs(),
        factors=st.sampled_from([(1, 1, 1), (1, 2, 2), (2, 2, 2)]),
        norm=st.booleans(),
        sizes=_explicit_sizes(max_frames=8),
        workers=st.sampled_from([2, 3, 5]),
        rows=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_bits_equal_one_worker(self, spec, factors, norm, sizes, workers, rows, seed):
        prologue = None
        rng = Rng(seed)
        c = spec.in_channels
        if factors != (1, 1, 1):  # upsampling needs spatial stride 1
            spec = ConvSpec(c, spec.out_channels, spec.kernel, (spec.stride[0], 1, 1),
                            spec.spatial_pad, spec.pad_mode)
        elif norm:  # a conv reads through a prologue or an upsample, not both
            prologue = causal._Prologue(
                1.0 + rng.normal((c,), std=0.1), rng.normal((c,), std=0.1)
            )
        x = rng.normal((c, sum(sizes), 5, 4))
        weight = rng.normal(spec.weight_shape(), std=0.5)
        bias = rng.normal((spec.out_channels,), std=0.1)
        wo = (factors[2] * 4 + 2 * spec.spatial_pad[1] - spec.kernel[2]) // spec.stride[2] + 1
        budget = 4 * c * int(np.prod(spec.kernel)) * wo * rows

        def run(n: int) -> np.ndarray:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(blas, "worker_count", lambda: n)
                mp.setattr(causal, "_COL_TILE_BYTES", budget)
                conv = causal._ConvStream(spec, weight, bias, factors, prologue)
                pieces, start = [], 0
                for i, size in enumerate(sizes):
                    pieces.append(
                        conv.feed(x[:, start : start + size], i == len(sizes) - 1)
                    )
                    start += size
            return np.concatenate(pieces, axis=1)

        assert np.array_equal(run(workers), run(1))

    def test_one_worker_without_a_blas_setter(self, monkeypatch):
        """Where no BLAS thread setter is found, the BLAS keeps its own
        threads and the conv runs its tiles on the caller alone, never on
        the pool, whatever W is."""

        def no_pool():
            raise AssertionError("tiles shared out with the BLAS unpinned")

        spec = ConvSpec(2, 2, (1, 3, 3), (1, 1, 1), (1, 1))
        rng = Rng(82)
        x = VideoTensor(rng.normal((2, 2, 9, 4)))
        monkeypatch.setattr(causal, "_COL_TILE_BYTES", 4 * 18 * 4)  # one row a tile
        monkeypatch.setattr(blas, "worker_count", lambda: 3)
        monkeypatch.setattr(blas, "_controls", lambda: None)
        monkeypatch.setattr(blas, "_shared_pool", no_pool)
        assert causal_conv3d(x, spec, rng.normal(spec.weight_shape())).shape == (2, 2, 9, 4)

    @pytest.mark.skipif(blas.blas_threads() is None, reason="no BLAS thread control found")
    def test_worker_error_reaches_the_caller(self, monkeypatch):
        """A tile that raises on a pool worker fails the conv call, after
        every worker has stopped, and the next call runs normally."""
        spec = ConvSpec(2, 2, (1, 3, 3), (1, 1, 1), (1, 1))
        rng = Rng(81)
        weight = rng.normal(spec.weight_shape())
        x = VideoTensor(rng.normal((2, 2, 9, 4)))
        monkeypatch.setattr(causal, "_COL_TILE_BYTES", 4 * 18 * 4)  # one row a tile
        monkeypatch.setattr(blas, "worker_count", lambda: 3)
        expected = causal_conv3d(x, spec, weight)
        caller = threading.get_ident()
        matmul = np.matmul
        failed = threading.Event()

        def failing(*args, **kwargs):
            if threading.get_ident() != caller:
                failed.set()
                raise FloatingPointError("tile failed")
            failed.wait(timeout=5.0)  # leave tiles for the pool workers
            return matmul(*args, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(np, "matmul", failing)
            with pytest.raises(FloatingPointError, match="tile failed"):
                causal_conv3d(x, spec, weight)
        assert np.array_equal(causal_conv3d(x, spec, weight).data, expected.data)


class TestConvMemory:
    """A conv holds one k_t-frame window, one column tile and its output,
    whatever the chunk length."""

    SPEC = ConvSpec(8, 8, (3, 3, 3), (1, 1, 1), (1, 1))

    @staticmethod
    def _transient_bytes(run, x: np.ndarray) -> int:
        """Traced peak of ``run(x)`` minus its output; x predates the trace."""
        out, peak = traced_peak(lambda: run(x))
        return peak - out.nbytes

    def _growth(self, run, shape, times) -> float:
        rng = Rng(71)
        short, long = (
            self._transient_bytes(run, rng.normal((shape[0], t, *shape[1:])))
            for t in times
        )
        return long / short

    def test_conv_transient_flat_in_time(self):
        weight = Rng(72).normal(self.SPEC.weight_shape(), std=0.1)

        def run(x):
            return causal_conv3d(VideoTensor(x), self.SPEC, weight).data

        assert self._growth(run, (8, 32, 32), (9, 65)) < 1.1

    def test_upsampling_conv_transient_flat_in_time(self):
        # (2,2,2) upsampling of 5 and 33 frames at 16x16: 9 and 65 frames at 32x32.
        weight = Rng(73).normal(self.SPEC.weight_shape(), std=0.1)
        bias = np.zeros(8, np.float32)

        def run(x):
            return causal._ConvStream(self.SPEC, weight, bias, (2, 2, 2)).feed(x, True)

        assert self._growth(run, (8, 16, 16), (5, 33)) < 1.1

    def test_prologue_norm_transient_flat_in_time(self):
        """A conv reading through a frame norm, fed a whole chunk as
        ``dec.out.conv`` is, takes the statistics a frame at a time. Its
        input is wider than its output, as there, so a chunk-sized
        temporary would outgrow the output."""
        spec = ConvSpec(32, 8, (3, 3, 3), (1, 1, 1), (1, 1))
        rng = Rng(76)
        weight = rng.normal(spec.weight_shape(), std=0.1)
        prologue = causal._Prologue(
            1.0 + rng.normal((32,), std=0.1), rng.normal((32,), std=0.1)
        )

        def run(x):
            conv = causal._ConvStream(
                spec, weight, np.zeros(8, np.float32), prologue=prologue
            )
            return conv.feed(x, True)

        assert self._growth(run, (32, 16, 16), (9, 65)) < 1.1

    @staticmethod
    def _feed_peaks(conv, chunks) -> list[tuple[int, int]]:
        """(traced peak, output bytes) of each feed. The trace runs from
        before the first feed, so the cache one feed leaves counts while the
        next runs; each output is dropped before the next feed."""
        peaks = []
        tracemalloc.start()
        try:
            for i, chunk in enumerate(chunks):
                tracemalloc.reset_peak()
                out = conv.feed(chunk, i == len(chunks) - 1)
                peaks.append((tracemalloc.get_traced_memory()[1], out.nbytes))
                del out
        finally:
            tracemalloc.stop()
        return peaks

    @pytest.mark.parametrize("factors", [(1, 1, 1), (2, 2, 2)], ids=["body", "up1"])
    def test_spent_cache_freed_before_column(self, monkeypatch, factors):
        """Fed a frame at a time against a two-frame cache, as a block-body
        conv and ``dec.up1`` are, a conv frees the cache once the window
        holds it: cache, window and column never coexist."""
        c, h, w, rows = 32, 16, 16, 4  # the cache (64 KiB) exceeds the slack
        ho, wo = factors[1] * h, factors[2] * w
        k = c * 27
        monkeypatch.setattr(causal, "_COL_TILE_BYTES", 4 * k * wo * rows)
        monkeypatch.setattr(blas, "worker_count", lambda: 1)
        spec = ConvSpec(c, 8, (3, 3, 3), (1, 1, 1), (1, 1))
        rng = Rng(77)
        weight = rng.normal(spec.weight_shape(), std=0.1)
        x = rng.normal((c, 5, h, w))
        chunks = [x[:, i : i + 1] for i in range(5)]
        conv = causal._ConvStream(spec, weight, np.zeros(8, np.float32), factors)
        col = 4 * k * rows * wo
        window = 4 * c * 3 * (h + 2) * (w + 2)
        band = 4 * c * 3 * (rows + 2) * (wo + 2) if factors[1] > 1 else 0
        cache = 4 * c * 2 * h * w
        assert cache > 32 << 10 and ho // rows > 1
        for peak, out_bytes in self._feed_peaks(conv, chunks):
            bound = out_bytes + col + window + band + (32 << 10)
            assert peak <= bound, (peak, bound)

    def test_conv_holds_output_tile_and_window(self, monkeypatch):
        """Shifting the window makes no temporary frame: the transient is
        the output, one column tile and the window."""
        c, t, h, w, rows = 16, 5, 32, 32, 8  # 4 tiles per frame
        k = c * 27
        monkeypatch.setattr(causal, "_COL_TILE_BYTES", 4 * k * w * rows)
        monkeypatch.setattr(blas, "worker_count", lambda: 1)
        spec = ConvSpec(c, 8, (3, 3, 3), (1, 1, 1), (1, 1))
        rng = Rng(75)
        weight = rng.normal(spec.weight_shape(), std=0.1)
        x = rng.normal((c, t, h, w))
        conv = causal._ConvStream(spec, weight, np.zeros(8, np.float32), (1, 1, 1))
        out, peak = traced_peak(lambda: conv.feed(x, True))
        col = 4 * k * rows * w
        window = 4 * c * 3 * (h + 2) * (w + 2)
        # One frame (64 KiB) copied through a temporary would break the bound.
        bound = out.nbytes + col + window + (32 << 10)
        assert peak <= bound, (peak, bound)

    def test_upsampling_conv_window_is_source_resolution(self, monkeypatch):
        """The window holds source frames; a tile expands only the upsampled
        rows it reads, into one reused band."""
        c, t, h, w, rows = 32, 5, 16, 16, 4  # 32x32 upsampled: 8 bands of 4 rows
        spec = ConvSpec(c, 8, (3, 3, 3), (1, 1, 1), (1, 1))
        k = c * 27
        monkeypatch.setattr(causal, "_COL_TILE_BYTES", 4 * k * 2 * w * rows)
        monkeypatch.setattr(blas, "worker_count", lambda: 1)
        rng = Rng(74)
        weight = rng.normal(spec.weight_shape(), std=0.1)
        x = rng.normal((c, t, h, w))
        conv = causal._ConvStream(spec, weight, np.zeros(8, np.float32), (1, 2, 2))
        out, peak = traced_peak(lambda: conv.feed(x, True))
        col = 4 * k * rows * 2 * w
        window = 4 * c * 3 * (h + 2) * (w + 2)
        band = 4 * c * 3 * (rows + 2) * (2 * w + 2)
        # 32 KiB for small objects.
        bound = out.nbytes + col + window + band + (32 << 10)
        # A window of upsampled frames alone would already break the bound.
        assert out.nbytes + col + 4 * c * 3 * (2 * h + 2) * (2 * w + 2) > bound
        assert peak <= bound, (peak, bound)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize(
        "factors,rows", [((1, 1, 1), 4), ((1, 1, 1), 8), ((1, 2, 2), 4)],
        ids=["body-4-tiles", "body-2-tiles", "up2-8-tiles"],
    )
    def test_each_worker_holds_one_column_and_band(
        self, monkeypatch, workers, factors, rows
    ):
        """On W workers a conv makes a column (and a row band) for each of
        min(W, tiles per frame) workers, and nothing else grows."""
        c, t, h, w = 32, 5, 16, 16
        ho, wo = factors[1] * h, factors[2] * w
        k = c * 27
        monkeypatch.setattr(causal, "_COL_TILE_BYTES", 4 * k * wo * rows)
        monkeypatch.setattr(blas, "worker_count", lambda: workers)
        spec = ConvSpec(c, 8, (3, 3, 3), (1, 1, 1), (1, 1))
        rng = Rng(79)
        weight = rng.normal(spec.weight_shape(), std=0.1)
        x = rng.normal((c, t, h, w))

        def run():
            conv = causal._ConvStream(spec, weight, np.zeros(8, np.float32), factors)
            return conv.feed(x, True)

        expected = run()  # and the pool's threads exist before the trace
        out, peak = traced_peak(run)
        assert np.array_equal(out, expected)
        sets = min(workers, ho // rows)
        col = 4 * k * rows * wo
        band = 4 * c * 3 * (rows + 2) * (wo + 2) if factors[1] > 1 else 0
        window = 4 * c * 3 * (h + 2) * (w + 2)
        bound = out.nbytes + sets * (col + band) + window + (32 << 10)
        # One more column than the frame has tiles would break the bound.
        assert col > 32 << 10
        assert peak <= bound, (peak, bound)


class TestChunkPlan:
    def test_parse_forms(self):
        assert ChunkPlan.parse("direct").mode == "direct"
        assert ChunkPlan.parse("canonical:4").chunk_size == 4
        assert ChunkPlan.parse("explicit:1,3,5").sizes == (1, 3, 5)
        with pytest.raises(ParameterError):
            ChunkPlan.parse("bogus")

    @pytest.mark.parametrize(
        "text", ["canonical:x", "canonical:", "explicit:1,a", "explicit:", "canonical"]
    )
    def test_unparsable_numbers_raise_parameter_error(self, text):
        with pytest.raises(ParameterError):
            ChunkPlan.parse(text)

    def test_invalid_plans_rejected(self):
        with pytest.raises(ParameterError):
            ChunkPlan.canonical(0)
        with pytest.raises(ParameterError):
            ChunkPlan.explicit([])
        with pytest.raises(ParameterError):
            ChunkPlan.explicit([2, 0, 1])

    def test_canonical_split_leads_with_single_frame(self):
        assert ChunkPlan.canonical(4).split(33) == [1] + [4] * 8
        assert ChunkPlan.canonical(8).split(33) == [1] + [8] * 4
        assert ChunkPlan.canonical(4).split(8) == [1, 4, 3]

    def test_explicit_split_must_sum(self):
        assert ChunkPlan.explicit([1, 3, 5]).split(9) == [1, 3, 5]
        with pytest.raises(ParameterError):
            ChunkPlan.explicit([1, 3]).split(9)

    def test_describe_roundtrip(self):
        for text in ("direct", "canonical:4", "explicit:1,3,5"):
            assert ChunkPlan.parse(text).describe() == text
