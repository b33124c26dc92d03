"""Autoencoder graph: shape laws, determinism, streamed/direct identity,
recombination linearity, and weight-store round trips."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfcodec import (
    ChunkPlan,
    FormatError,
    GaussianLatent,
    ModelConfig,
    ParameterError,
    Rng,
    ShapeError,
    VideoTensor,
    WeightError,
    WeightStore,
    decode,
    encode,
    forward,
    idwt3d,
    init_weights,
    new_tensor,
    parameter_manifest,
    preset_config,
    sample_latent,
    save_tensor,
)
from wfcodec import causal, model
from wfcodec.cli import main
from wfcodec.model import PRESET_BASE_CHANNELS
from wfcodec.wavelet import KEYS_3D, SubbandSet3D

from helpers import (
    draw_chunk_sizes, make_random, max_abs_diff, oracle_decode, oracle_encode,
    traced_peak, wfwt_bytes,
)

TINY = ModelConfig(base_channels=8, c_flow=8, latent_channels=4, blocks_per_stage=1)
TINY2 = ModelConfig(base_channels=8, c_flow=12, latent_channels=4, blocks_per_stage=2)
TINY_GN = ModelConfig(
    base_channels=8, c_flow=8, latent_channels=4, blocks_per_stage=1,
    norm="groupnorm", groupnorm_groups=4,
)


@pytest.fixture(scope="module")
def tiny_weights():
    return init_weights(TINY, Rng(42))


@pytest.fixture(scope="module")
def tiny_video():
    return make_random(1, (3, 17, 16, 16))


def assert_encodings_equal(a, b):
    assert np.array_equal(a.latent.mean.data, b.latent.mean.data)
    assert np.array_equal(a.latent.logvar.data, b.latent.logvar.data)
    assert np.array_equal(a.w2.stack(), b.w2.stack())
    assert np.array_equal(a.w3.stack(), b.w3.stack())


def assert_decodings_equal(a, b):
    assert np.array_equal(a.video.data, b.video.data)
    assert np.array_equal(a.w2_hat.stack(), b.w2_hat.stack())
    assert np.array_equal(a.w3_hat.stack(), b.w3_hat.stack())


@st.composite
def _stream_cases(draw):
    """(config, frames, seed, encode sizes, decode sizes) at 16x16."""
    config = ModelConfig(
        base_channels=draw(st.sampled_from([8, 16])),
        c_flow=draw(st.sampled_from([4, 8])),
        latent_channels=4,
        blocks_per_stage=draw(st.integers(1, 2)),
    )
    t = 4 * draw(st.integers(0, 5)) + 1
    seed = draw(st.integers(0, 2**16))
    enc_sizes = draw_chunk_sizes(draw, t)
    return config, t, seed, enc_sizes, draw_chunk_sizes(draw, config.latent_time(t))


class TestModelConfig:
    def test_stage_widths_law(self):
        assert ModelConfig(base_channels=128).stage_widths == (128, 256, 384)
        assert TINY.stage_widths == (8, 16, 24)

    def test_presets(self):
        assert PRESET_BASE_CHANNELS == {
            "wfvae-s": 128,
            "wfvae-m": 160,
            "wfvae-l": 192,
        }
        for name, bc in PRESET_BASE_CHANNELS.items():
            assert preset_config(name).base_channels == bc
        with pytest.raises(ParameterError):
            preset_config("wfvae-xl")

    def test_latent_channel_choices(self):
        for chn in (4, 8, 16, 32):
            ModelConfig(base_channels=8, c_flow=8, latent_channels=chn)
        with pytest.raises(ParameterError):
            ModelConfig(base_channels=8, c_flow=8, latent_channels=5)

    def test_c_flow_bounded_by_decoder_tap(self):
        with pytest.raises(ParameterError):
            ModelConfig(base_channels=8, c_flow=17)

    def test_groupnorm_divisibility_checked(self):
        ModelConfig(base_channels=8, c_flow=8, norm="groupnorm", groupnorm_groups=8)
        with pytest.raises(ParameterError):
            ModelConfig(
                base_channels=8, c_flow=8, norm="groupnorm", groupnorm_groups=5
            )

    @pytest.mark.parametrize("groups", [0, -8])
    def test_groupnorm_groups_must_be_positive(self, groups):
        for norm in ("groupnorm", "frame_layernorm"):
            with pytest.raises(ParameterError):
                ModelConfig(
                    base_channels=8, c_flow=8, norm=norm, groupnorm_groups=groups
                )

    @pytest.mark.parametrize(
        "field", ["base_channels", "c_flow", "latent_channels", "input_channels",
                  "blocks_per_stage", "groupnorm_groups"]
    )
    @pytest.mark.parametrize("value", ["x", 4.0, 1.5, True, None])
    def test_integer_fields_reject_other_types(self, field, value):
        with pytest.raises(ParameterError):
            ModelConfig(**{"base_channels": 8, "c_flow": 8, field: value})

    def test_preset_rejects_base_channels_override(self):
        with pytest.raises(ParameterError):
            preset_config("wfvae-s", base_channels=8)


class TestInitWeights:
    def test_same_seed_identical(self):
        a = init_weights(TINY, Rng(7))
        b = init_weights(TINY, Rng(7))
        assert a.digest() == b.digest()

    def test_different_seed_differs(self):
        assert init_weights(TINY, Rng(7)).digest() != init_weights(
            TINY, Rng(8)
        ).digest()

    def test_conv_weight_shape_law(self):
        """The encoder stem of a 128-wide config consumes the 24-channel
        level-1 stack with a 3x3x3 kernel: weight shape (128, 24, 3, 3, 3)."""
        manifest = dict(parameter_manifest(preset_config("wfvae-s")))
        assert manifest["enc.stem.weight"] == (128, 24, 3, 3, 3)
        assert manifest["enc.stem.bias"] == (128,)

    def test_biases_zero_gains_one(self, tiny_weights):
        for name in tiny_weights.names():
            arr = tiny_weights.get(name)
            if name.endswith(".bias"):
                assert np.all(arr == 0.0)
            elif name.endswith(".gain"):
                assert np.all(arr == 1.0)

    def test_weight_std_scales_with_fan_in(self, tiny_weights):
        manifest = dict(parameter_manifest(TINY))
        for name, shape in manifest.items():
            if name.endswith(".weight"):
                fan_in = int(np.prod(shape[1:]))
                std = float(tiny_weights.get(name).std())
                assert std == pytest.approx(1.0 / np.sqrt(fan_in), rel=0.35)


@pytest.fixture(scope="module")
def weight_file(tmp_path_factory):
    """A small valid .wfwt: its path (rewritten by tests) and its bytes."""
    store = WeightStore(
        {
            "a": np.arange(6, dtype=np.float32).reshape(2, 3),
            "bias.odd": np.ones(3, dtype=np.float32),
            "w5": np.full((1, 2, 1, 1, 2), 0.5, dtype=np.float32),
        }
    )
    path = tmp_path_factory.mktemp("wfwt") / "w.wfwt"
    store.save(path)
    return path, path.read_bytes()


class TestWeightStore:
    def test_save_load_bit_exact(self, tmp_path, tiny_weights):
        path = tmp_path / "w.wfwt"
        tiny_weights.save(path)
        loaded = WeightStore.load(path)
        assert loaded.digest() == tiny_weights.digest()
        for name, arr in tiny_weights.items():
            assert np.array_equal(loaded.get(name), arr)

    def test_forward_identical_after_roundtrip(self, tmp_path, tiny_weights, tiny_video):
        path = tmp_path / "w.wfwt"
        tiny_weights.save(path)
        loaded = WeightStore.load(path)
        a = forward(tiny_video, TINY, tiny_weights, Rng(5))
        b = forward(tiny_video, TINY, loaded, Rng(5))
        assert np.array_equal(a.reconstruction.data, b.reconstruction.data)

    def test_corrupt_magic(self, tmp_path, tiny_weights):
        path = tmp_path / "w.wfwt"
        tiny_weights.save(path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"ZZZZ"
        path.write_bytes(bytes(raw))
        from wfcodec import FormatError

        with pytest.raises(FormatError):
            WeightStore.load(path)

    def test_truncated_file(self, tmp_path, tiny_weights):
        path = tmp_path / "w.wfwt"
        tiny_weights.save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        from wfcodec import FormatError

        with pytest.raises(FormatError):
            WeightStore.load(path)

    def test_bad_rank_rejected(self, tmp_path):
        import struct

        path = tmp_path / "bad.wfwt"
        name = b"x"
        entry = struct.pack("<H", 1) + name + struct.pack("<I", 7)
        path.write_bytes(b"WFWT" + struct.pack("<II", 1, 1) + entry)
        from wfcodec import FormatError

        with pytest.raises(FormatError, match="rank"):
            WeightStore.load(path)

    def test_non_utf8_name_rejected(self, tmp_path):
        import struct

        from wfcodec import FormatError

        path = tmp_path / "bad.wfwt"
        name = b"\xff\xfe"
        entry = struct.pack("<H", len(name)) + name + struct.pack("<II", 1, 1)
        path.write_bytes(
            b"WFWT" + struct.pack("<II", 1, 1) + entry + struct.pack("<f", 0.0)
        )
        with pytest.raises(FormatError, match="UTF-8"):
            WeightStore.load(path)

    @pytest.mark.parametrize(
        "names", [("z", "z"), ("b", "a")], ids=["duplicate", "swapped"]
    )
    def test_unsorted_entries_rejected(self, tmp_path, names):
        """Entries must be in strictly increasing name order: a duplicate
        would silently overwrite its twin, and any other order would make
        ``digest()`` differ from the file hash."""
        path = tmp_path / "unsorted.wfwt"
        path.write_bytes(wfwt_bytes([(n, [float(i)]) for i, n in enumerate(names)]))
        with pytest.raises(FormatError, match="sort"):
            WeightStore.load(path)

    def test_digest_is_file_hash(self, tmp_path, tiny_weights):
        import hashlib

        path = tmp_path / "w.wfwt"
        tiny_weights.save(path)
        expected = hashlib.sha256(path.read_bytes()).hexdigest()
        assert tiny_weights.digest() == expected
        assert WeightStore.load(path).digest() == expected

    def test_loaded_tensors_are_aligned(self, tmp_path, tiny_weights):
        # Names of uneven length put many payloads at odd file offsets; an
        # unaligned operand makes numpy copy it on every matmul.
        path = tmp_path / "w.wfwt"
        tiny_weights.save(path)
        for name, arr in WeightStore.load(path).items():
            assert arr.flags.aligned, name

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_prefix_or_byte_flip_is_format_error(self, weight_file, data):
        path, raw = weight_file
        cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
        path.write_bytes(raw[:cut])
        with pytest.raises(FormatError):
            WeightStore.load(path)
        pos = data.draw(st.integers(0, len(raw) - 1), label="pos")
        flipped = bytearray(raw)
        flipped[pos] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[pos]))
        path.write_bytes(bytes(flipped))
        try:
            WeightStore.load(path)
        except FormatError:
            pass

    def test_validate_missing_parameter(self, tiny_weights):
        partial = WeightStore(
            {n: tiny_weights.get(n) for n in tiny_weights.names()[:-1]}
        )
        with pytest.raises(WeightError, match="missing"):
            partial.validate(TINY)

    def test_validate_wrong_config(self, tiny_weights):
        # Weights initialized for TINY cannot drive a different geometry.
        with pytest.raises(WeightError):
            tiny_weights.validate(TINY2)


class TestEncodeShapes:
    def test_latent_shape_law(self, tiny_weights, tiny_video):
        result = encode(tiny_video, TINY, tiny_weights)
        assert result.latent.mean.shape == (4, 5, 2, 2)
        assert result.latent.logvar.shape == (4, 5, 2, 2)
        assert result.w2.band_shape == (3, 5, 4, 4)
        assert result.w3.band_shape == (3, 5, 2, 2)

    def test_single_frame_image_path(self, tiny_weights):
        v = make_random(9, (3, 1, 64, 64))
        result = encode(v, TINY, tiny_weights)
        assert result.latent.mean.shape == (4, 1, 8, 8)

    def test_input_validation(self, tiny_weights):
        with pytest.raises(ShapeError):
            encode(make_random(2, (1, 17, 16, 16)), TINY, tiny_weights)
        with pytest.raises(ShapeError):
            encode(make_random(2, (3, 16, 16, 16)), TINY, tiny_weights)
        with pytest.raises(ShapeError):
            encode(make_random(2, (3, 17, 12, 16)), TINY, tiny_weights)

    def test_plan_not_summing_rejected(self, tiny_weights, tiny_video):
        with pytest.raises(ParameterError):
            encode(
                tiny_video, TINY, tiny_weights, mode=ChunkPlan.explicit([4, 4])
            )


def _random_affine(config, weights, seed):
    """Random gains and biases, so a swapped parameter shows."""
    rng = Rng(seed)
    for name, shape in parameter_manifest(config):
        if name.endswith(".gain"):
            weights.put(name, 1.0 + rng.normal(shape, std=0.1))
        elif name.endswith(".bias"):
            weights.put(name, rng.normal(shape, std=0.1))
    return weights


class TestWholeClipOracle:
    def _check(self, video, config, weights):
        """Direct encode/decode equal the hand-wired whole-clip oracle within
        1e-6, and in fact bit for bit."""
        enc = encode(video, config, weights)
        expected = oracle_encode(video, config, weights)
        for got, want in zip(
            (enc.latent.mean.data, enc.latent.logvar.data, enc.w2.stack(), enc.w3.stack()),
            expected,
        ):
            assert max_abs_diff(got, want) <= 1e-6
            assert np.array_equal(got, want)
        assert enc.latent_chunks == (config.latent_time(video.time),)
        dec = decode(enc.latent.mean, config, weights, original_t=video.time)
        expected = oracle_decode(enc.latent.mean, config, weights, video.time)
        for got, want in zip(
            (dec.video.data, dec.w2_hat.stack(), dec.w3_hat.stack()), expected
        ):
            assert max_abs_diff(got, want) <= 1e-6
            assert np.array_equal(got, want)

    def test_direct_matches_independent_wiring(self, tiny_video):
        weights = _random_affine(TINY, init_weights(TINY, Rng(92)), 91)
        self._check(tiny_video, TINY, weights)

    def test_groupnorm_direct_matches_independent_wiring(self, tiny_video):
        """Direct mode is one chunk, so the group norm's statistics span the clip."""
        weights = _random_affine(TINY_GN, init_weights(TINY_GN, Rng(92)), 91)
        self._check(tiny_video, TINY_GN, weights)

    @pytest.mark.parametrize("config", [TINY, TINY_GN], ids=["layernorm", "groupnorm"])
    def test_huge_activations_take_the_float64_norm(self, tiny_video, config, monkeypatch):
        """Stage-1 activations above 1.8e19 overflow float32 squares, so their
        norms fall back to float64 statistics, in the encoder and the decoder."""
        weights = _random_affine(config, init_weights(config, Rng(93)), 94)
        for name in ("enc.stem.weight", "dec.up1.weight"):
            weights.put(name, weights.get(name) * np.float32(1e20))
        wide = []

        class Spy(causal._ChunkNorm):
            def __init__(self, frames, *params):
                super().__init__(frames, *params)
                wide.append(bool(self.wide.any()))

        monkeypatch.setattr(causal, "_ChunkNorm", Spy)
        enc = encode(tiny_video, config, weights)
        assert any(wide) and np.isfinite(enc.latent.mean.data).all()
        wide.clear()
        dec = decode(enc.latent.mean, config, weights, original_t=tiny_video.time)
        assert any(wide) and np.isfinite(dec.video.data).all()
        self._check(tiny_video, config, weights)

    def test_streamed_encode_reports_latent_chunks(self, tiny_weights, tiny_video):
        enc = encode(tiny_video, TINY, tiny_weights, mode=ChunkPlan.canonical(4))
        assert enc.latent_chunks == (1,) * 5
        plan = ChunkPlan.explicit([1, 2, 14])
        enc = encode(tiny_video, TINY, tiny_weights, mode=plan)
        assert enc.latent_chunks == (1, 0, 4)


class TestExecutorMemory:
    """A residual block holds one activation: it feeds its body one frame at a
    time, each conv applies the norm and SiLU as frames enter its window, and
    the block adds the body's output frame into the skip. The direct peaks
    then sit where the level-1 band stack meets stage 1: enc.stem reads the
    stack and writes the stage-1 activation, dec.out.conv reads that
    activation and writes the stack, each with one column tile."""

    CONFIG = ModelConfig(base_channels=32, c_flow=8, latent_channels=4, blocks_per_stage=1)

    def test_direct_peak_is_one_activation_plus_stack_and_tile(self):
        config, t = self.CONFIG, 97
        weights = init_weights(config, Rng(61))
        video = make_random(62, (3, t, 64, 64))
        # Stage 1 of both the encoder and the decoder: (c, t1, h1, w1).
        c, t1, h1, w1 = config.base_channels, (t - 1) // 2 + 1, 32, 32
        act = 4 * c * t1 * h1 * w1
        stack = 4 * 8 * config.input_channels * t1 * h1 * w1

        def tile(k):  # the column tile of a 3x3x3 conv with cin = k / 27
            return 4 * k * causal._tile_rows(k, h1, w1) * w1

        # The level-2/3 subbands, the conv's window and small buffers: well
        # under the second stage-1 activation a block used to hold.
        slack = act // 4
        bound = act + stack + tile(27 * 8 * config.input_channels) + slack
        enc, peak = traced_peak(lambda: encode(video, config, weights))
        assert peak <= bound, f"encode peak {peak / 2**20:.2f} MiB > {bound / 2**20:.2f}"
        bound = act + stack + tile(27 * c) + slack
        _, peak = traced_peak(lambda: decode(enc.latent.mean, config, weights, t))
        assert peak <= bound, f"decode peak {peak / 2**20:.2f} MiB > {bound / 2**20:.2f}"

    def test_block_transient_flat_in_time(self):
        """A block's own buffers do not grow with the frames it is fed."""
        config = self.CONFIG
        weights = init_weights(config, Rng(63))
        node = next(n for n in model._graph(config)[0] if n.kind == "block")
        assert (node.body[0].spec.in_channels, node.skip) == (32, None)
        peaks = []
        for t in (9, 65):
            x = Rng(64).normal((32, t, 32, 32))
            block = model._stream(node, config, weights)
            out, peak = traced_peak(lambda: block.feed(x, final=True))
            assert out is x  # the sum lands in the input: no output buffer
            peaks.append(peak)
        assert peaks[1] / peaks[0] < 1.1, [p / 2**20 for p in peaks]

    def test_upsampling_convs_cache_source_frames(self, tiny_weights, tiny_video):
        """dec.up2 and dec.up1 cache their input before it is upsampled."""
        z = encode(tiny_video, TINY, tiny_weights).latent.mean.data
        stream = model._DecoderStream(TINY, tiny_weights)
        stream.feed(z[:, :2], final=False)
        convs = dict(zip((n.name for n in model._graph(TINY)[1]), stream.chain))
        _, w1, w2 = TINY.stage_widths
        h, w = z.shape[2:]
        for name, frame in (("dec.up2", (w2, h, w)), ("dec.up1", (w1, 2 * h, 2 * w))):
            cache = convs[name].state.cache
            assert cache.ndim == 4 and cache.shape[1] > 0, name
            assert (cache.shape[0], *cache.shape[2:]) == frame, name


class TestStreamingIdentity:
    """Every chunk plan reproduces direct encode and decode bit for bit."""

    def test_encode_streamed_matches_direct(self, tiny_weights, tiny_video):
        direct = encode(tiny_video, TINY, tiny_weights)
        for plan in (
            ChunkPlan.canonical(4),
            ChunkPlan.canonical(8),
            ChunkPlan.explicit([1, 3, 5, 7, 1]),
            ChunkPlan.explicit([1] * 17),
        ):
            streamed = encode(tiny_video, TINY, tiny_weights, mode=plan)
            assert_encodings_equal(streamed, direct)

    def test_decode_streamed_matches_direct(self, tiny_weights, tiny_video):
        z = encode(tiny_video, TINY, tiny_weights).latent.mean
        direct = decode(z, TINY, tiny_weights, original_t=17)
        for plan in (
            ChunkPlan.canonical(2),
            ChunkPlan.canonical(4),
            ChunkPlan.explicit([1, 1, 3]),
            ChunkPlan.explicit([1] * 5),
        ):
            streamed = decode(z, TINY, tiny_weights, original_t=17, mode=plan)
            assert_decodings_equal(streamed, direct)

    def test_deeper_config_streams_lossless(self):
        config = TINY2
        weights = init_weights(config, Rng(77))
        v = make_random(78, (3, 9, 16, 16))
        direct = encode(v, config, weights)
        streamed = encode(v, config, weights, mode=ChunkPlan.explicit([1, 4, 4]))
        assert np.array_equal(streamed.latent.mean.data, direct.latent.mean.data)
        z = direct.latent.mean
        d_direct = decode(z, config, weights, original_t=9)
        d_streamed = decode(
            z, config, weights, original_t=9, mode=ChunkPlan.explicit([1, 2])
        )
        assert np.array_equal(d_streamed.video.data, d_direct.video.data)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=_stream_cases())
    def test_random_mixed_plans_property(self, case):
        """Random tiny configs and random encode and decode plans."""
        config, t, seed, enc_sizes, dec_sizes = case
        weights = init_weights(config, Rng(seed))
        video = make_random(seed + 1, (3, t, 16, 16))
        direct = encode(video, config, weights)
        streamed = encode(video, config, weights, mode=ChunkPlan.explicit(enc_sizes))
        assert_encodings_equal(streamed, direct)
        z = direct.latent.mean
        direct_dec = decode(z, config, weights, original_t=t)
        streamed_dec = decode(
            z, config, weights, original_t=t, mode=ChunkPlan.explicit(dec_sizes)
        )
        assert_decodings_equal(streamed_dec, direct_dec)

    def test_groupnorm_breaks_streaming(self):
        """Whole-clip group normalization is the documented negative control:
        chunked inference must diverge from direct inference."""
        config = ModelConfig(
            base_channels=8,
            c_flow=8,
            latent_channels=4,
            blocks_per_stage=1,
            norm="groupnorm",
            groupnorm_groups=8,
        )
        weights = init_weights(config, Rng(55))
        v = make_random(56, (3, 9, 16, 16))
        direct = encode(v, config, weights)
        streamed = encode(v, config, weights, mode=ChunkPlan.explicit([5, 4]))
        assert max_abs_diff(streamed.latent.mean, direct.latent.mean) > 1e-3


class TestSampleLatent:
    def test_near_zero_variance_returns_mean(self):
        mean = make_random(60, (2, 3, 4, 4))
        logvar = new_tensor(2, 3, 4, 4, -60.0)
        latent = GaussianLatent(mean, logvar)
        z = sample_latent(latent, Rng(61))
        assert max_abs_diff(z, mean) <= 1e-7

    def test_fixed_seed_reproducible(self):
        latent = GaussianLatent(
            make_random(62, (1, 2, 3, 3)), make_random(63, (1, 2, 3, 3))
        )
        a = sample_latent(latent, Rng(64))
        b = sample_latent(latent, Rng(64))
        assert np.array_equal(a.data, b.data)

    def test_sample_variance_matches_logvar(self):
        """Statistical oracle: variance over 10k draws of one element is
        exp(logvar) within 5%."""
        logvar_value = -0.8
        latent = GaussianLatent(
            new_tensor(1, 1, 1, 1, 2.0), new_tensor(1, 1, 1, 1, logvar_value)
        )
        rng = Rng(65)
        draws = np.array(
            [sample_latent(latent, rng.split(i)).data[0, 0, 0, 0] for i in range(10000)]
        )
        assert draws.var() == pytest.approx(np.exp(logvar_value), rel=0.05)

    def test_mean_logvar_shape_mismatch(self):
        with pytest.raises(ShapeError):
            GaussianLatent(new_tensor(1, 1, 2, 2, 0.0), new_tensor(1, 1, 2, 4, 0.0))


class TestDecode:
    def test_shape_inversion(self, tiny_weights, tiny_video):
        z = encode(tiny_video, TINY, tiny_weights).latent.mean
        result = decode(z, TINY, tiny_weights, original_t=17)
        assert result.video.shape == tiny_video.shape
        assert result.w2_hat.band_shape == (3, 5, 4, 4)
        assert result.w3_hat.band_shape == (3, 5, 2, 2)

    def test_zero_weights_give_zero_video(self):
        zeros = WeightStore(
            {name: np.zeros(shape, np.float32) for name, shape in parameter_manifest(TINY)}
        )
        z = make_random(70, (4, 5, 2, 2))
        result = decode(z, TINY, zeros, original_t=17)
        assert np.all(result.video.data == 0.0)
        assert np.all(result.w2_hat.stack() == 0.0)
        assert np.all(result.w3_hat.stack() == 0.0)

    def test_latent_validation(self, tiny_weights):
        with pytest.raises(ShapeError):
            decode(make_random(3, (3, 5, 2, 2)), TINY, tiny_weights, original_t=17)
        with pytest.raises(ShapeError):
            decode(make_random(3, (4, 4, 2, 2)), TINY, tiny_weights, original_t=17)
        with pytest.raises(ShapeError):
            decode(make_random(3, (4, 5, 2, 2)), TINY, tiny_weights, original_t=18)

    def test_recombination_additivity(self, tiny_weights, tiny_video):
        """Zeroing the outflow blocks removes exactly the additive wavelet
        contribution: decode(z) = backbone-only video + idwt of the predicted
        level-2 set injected into the hhh slot."""
        z = encode(tiny_video, TINY, tiny_weights).latent.mean
        full = decode(z, TINY, tiny_weights, original_t=17)
        zeroed = WeightStore({name: arr for name, arr in tiny_weights.items()})
        for name in list(zeroed.names()):
            if name.startswith(("dec.outflow2", "dec.outflow3")):
                zeroed.put(name, np.zeros_like(zeroed.get(name)))
        base = decode(z, TINY, zeroed, original_t=17)
        assert np.all(base.w2_hat.stack() == 0.0)
        t1 = 9  # (17+1)/2 temporal coefficients at level 1
        contrib = idwt3d(full.w2_hat, original_t=t1)
        zero_band = np.zeros_like(contrib.data)
        delta = SubbandSet3D(
            {
                key: VideoTensor(contrib.data if key == "hhh" else zero_band)
                for key in KEYS_3D
            }
        )
        expected = base.video.data + idwt3d(delta, original_t=17).data
        assert max_abs_diff(full.video.data, expected) <= 1e-5


def _strided(stride):
    return lambda node: replace(node, spec=replace(node.spec, stride=stride))


class TestExecutorGuards:
    """A graph whose nodes disagree on frame rates is caught by the
    executor's own checks. Each case edits one node without changing its
    weight shapes, so the weights still validate."""

    # (node, edit, direction, error message) on the 17-frame tiny video,
    # whose latent has 5 frames.
    CASES = [
        ("enc.down2", _strided((2, 2, 2)), "encode",
         "backbone/wavelet rate mismatch at enc.inflow3: 3 vs 5 frames"),
        ("dec.up1", lambda node: replace(node, factors=(1, 2, 2)), "decode",
         "backbone/wavelet rate mismatch at level 1: 5 vs 9 frames"),
        ("enc.head.conv", _strided((2, 1, 1)), "encode",
         "latent has 3 frames, expected 5"),
        ("dec.stem", _strided((2, 1, 1)), "decode",
         "decode produced 9 frames, expected 17"),
    ]

    @staticmethod
    def _misalign(monkeypatch, name, edit):
        graph = model._graph

        def edited(config):
            return tuple(
                [edit(node) if node.name == name else node for node in nodes]
                for nodes in graph(config)
            )

        monkeypatch.setattr(model, "_graph", edited)

    @pytest.mark.parametrize(
        "name, edit, direction, message", CASES, ids=[case[0] for case in CASES]
    )
    def test_guard_names_the_misalignment(
        self, monkeypatch, tiny_weights, tiny_video, name, edit, direction, message
    ):
        z = make_random(90, (4, 5, 2, 2))
        self._misalign(monkeypatch, name, edit)
        with pytest.raises(ShapeError) as info:
            if direction == "encode":
                encode(tiny_video, TINY, tiny_weights)
            else:
                decode(z, TINY, tiny_weights, original_t=17)
        assert str(info.value) == message

    def test_cli_exits_2(self, monkeypatch, capsys, tmp_path, tiny_video):
        path = tmp_path / "video.wfvt"
        save_tensor(tiny_video, path)
        self._misalign(monkeypatch, *self.CASES[0][:2])
        code = main(
            ["encode", "--input", str(path), "--output", str(tmp_path / "latent"),
             "--base-channels", "8", "--c-flow", "8", "--blocks", "1"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "Traceback" not in captured.err
        error = json.loads(captured.err)
        assert error == {"error": "ShapeError", "message": self.CASES[0][3]}


class TestForward:
    def test_reconstruction_shape_matches_input(self, tiny_weights, tiny_video):
        result = forward(tiny_video, TINY, tiny_weights, Rng(80))
        assert result.reconstruction.shape == tiny_video.shape

    def test_deterministic_given_seeds(self, tiny_weights, tiny_video):
        a = forward(tiny_video, TINY, tiny_weights, Rng(81))
        b = forward(tiny_video, TINY, tiny_weights, Rng(81))
        assert np.array_equal(a.reconstruction.data, b.reconstruction.data)

    def test_streamed_forward_matches_direct(self, tiny_weights, tiny_video):
        direct = forward(tiny_video, TINY, tiny_weights, Rng(82))
        streamed = forward(
            tiny_video, TINY, tiny_weights, Rng(82), mode=ChunkPlan.canonical(4)
        )
        # The per-stage guarantee is <= 1e-6 for encode and decode each; the
        # chained forward decodes a latent that itself carries the encode
        # deviation, amplified by the decoder's gain.
        assert max_abs_diff(streamed.latent.mean, direct.latent.mean) <= 1e-6
        assert max_abs_diff(streamed.reconstruction, direct.reconstruction) <= 5e-6

    def test_first_frame_causality(self, tiny_weights, tiny_video):
        """With a fixed noise draw, frame 0 of the latent and of the
        reconstruction are bit-invariant to perturbing input frames >= 1."""
        perturbed = tiny_video.data.copy()
        perturbed[:, 1:] += Rng(83).normal(perturbed[:, 1:].shape)
        a = forward(tiny_video, TINY, tiny_weights, Rng(84))
        b = forward(VideoTensor(perturbed), TINY, tiny_weights, Rng(84))
        assert np.array_equal(a.latent.mean.data[:, 0], b.latent.mean.data[:, 0])
        assert np.array_equal(a.latent.logvar.data[:, 0], b.latent.logvar.data[:, 0])
        assert np.array_equal(
            a.reconstruction.data[:, 0], b.reconstruction.data[:, 0]
        )
