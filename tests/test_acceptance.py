"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one line:

    [acceptance] criterion N (<slug>): PASS|FAIL

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Criterion 2 exercises the full 128-wide model and dominates the runtime
(about half a minute on two cores).
"""

import sys
import time

import numpy as np
import pytest

from wfcodec import (
    ChunkPlan,
    GaussianLatent,
    LossComponents,
    LossWeights,
    ModelConfig,
    Rng,
    VideoTensor,
    adaptive_adv_weight,
    build_pyramid,
    cache_len,
    cache_len_by_simulation,
    causal_conv3d,
    ConvSpec,
    decode,
    dwt2d,
    dwt3d,
    encode,
    forward,
    frame_layernorm,
    init_weights,
    kl_divergence,
    l1_recon,
    preset_config,
    reconstruct_pyramid,
    silu,
    subband_energy,
    total_loss,
    wl_loss,
)
from wfcodec.wavelet import KEYS_2D, KEYS_3D

from helpers import (
    conv3d_loop_oracle,
    make_random,
    max_abs_diff,
    noise_video,
    smooth_video,
    squared_l2,
)
from test_losses import kl_loop, mean_abs_loop


class _Criterion:
    def __init__(self, number: int, slug: str):
        self.number = number
        self.slug = slug

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"[acceptance] criterion {self.number} ({self.slug}): {status}",
            file=sys.stdout,
            flush=True,
        )
        return False


@pytest.fixture(scope="module")
def wfvae_s_weights():
    config = preset_config("wfvae-s", latent_channels=4)
    return config, init_weights(config, Rng(42))


def test_criterion_1_cache_formula_fidelity():
    """Closed form reproduces the three stated cases and the window
    simulation over the whole grid, in under a second."""
    with _Criterion(1, "cache-formula-fidelity"):
        start = time.perf_counter()
        for m in range(21):
            assert cache_len(3, 1, 4, m) == 2
            assert cache_len(3, 2, 4, m) == 1
            assert cache_len(4, 3, 4, m) == (m % 3) + 1
        for k_t in range(1, 7):
            for s_t in range(1, 5):
                for t_chunk in range(1, 9):
                    for m in range(21):
                        assert cache_len(k_t, s_t, t_chunk, m) == (
                            cache_len_by_simulation(k_t, s_t, t_chunk, m)
                        )
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"grid check took {elapsed:.2f}s"


def test_criterion_2_lossless_chunked_inference(wfvae_s_weights):
    """Seed-initialized 128-wide model on (3,33,64,64): streamed encode and
    decode match direct evaluation within 1e-6 across irregular plans."""
    with _Criterion(2, "lossless-chunked-inference"):
        start = time.perf_counter()
        config, weights = wfvae_s_weights
        video = make_random(1, (3, 33, 64, 64))
        direct_enc = encode(video, config, weights)
        z = direct_enc.latent.mean
        direct_dec = decode(z, config, weights, original_t=33)
        encode_plans = [
            ChunkPlan.canonical(4),
            ChunkPlan.canonical(8),
            ChunkPlan.explicit([1, 3, 5, 7, 9, 8]),
        ]
        for plan in encode_plans:
            streamed = encode(video, config, weights, mode=plan)
            dev = max(
                max_abs_diff(streamed.latent.mean, direct_enc.latent.mean),
                max_abs_diff(streamed.latent.logvar, direct_enc.latent.logvar),
            )
            assert dev <= 1e-6, f"encode {plan.describe()}: dev {dev:.3g}"
        decode_plans = [
            ChunkPlan.canonical(2),
            ChunkPlan.canonical(4),
            ChunkPlan.explicit([1, 3, 2, 2, 1]),
        ]
        for plan in decode_plans:
            streamed = decode(z, config, weights, original_t=33, mode=plan)
            dev = max_abs_diff(streamed.video, direct_dec.video)
            assert dev <= 1e-6, f"decode {plan.describe()}: dev {dev:.3g}"
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget is 2 minutes"


def test_criterion_3_groupnorm_negative_control():
    """The identical streamed-vs-direct harness with whole-clip group
    normalization diverges past 1e-3 on a 2-chunk random input."""
    with _Criterion(3, "groupnorm-negative-control"):
        config = preset_config(
            "wfvae-s", latent_channels=4, norm="groupnorm", groupnorm_groups=8
        )
        weights = init_weights(config, Rng(42))
        video = make_random(2, (3, 9, 16, 16))
        direct = encode(video, config, weights)
        streamed = encode(video, config, weights, mode=ChunkPlan.explicit([5, 4]))
        dev = max_abs_diff(streamed.latent.mean, direct.latent.mean)
        assert dev > 1e-3, f"groupnorm streamed encode deviated only {dev:.3g}"


def test_criterion_4_wavelet_perfect_reconstruction():
    """100 random tensors (times include 1, 5, 33) reconstruct within 1e-5;
    single-level transforms conserve energy within 1e-4 relative."""
    with _Criterion(4, "wavelet-perfect-reconstruction"):
        rng = Rng(404)
        times = [1, 5, 33] + [int(rng.integers(1, 34)) for _ in range(97)]
        for index, t in enumerate(times):
            c = int(rng.integers(1, 4))
            h = 8 * int(rng.integers(1, 4))
            w = 8 * int(rng.integers(1, 4))
            video = VideoTensor(rng.normal((c, t, h, w)))
            back = reconstruct_pyramid(build_pyramid(video), t)
            err = max_abs_diff(back, video)
            assert err <= 1e-5, f"case {index} shape {(c, t, h, w)}: err {err:.3g}"
        for seed in range(5):
            video = make_random(500 + seed, (2, 6, 16, 16))
            bands = dwt3d(video)
            total = sum(squared_l2(bands[k].data) for k in KEYS_3D)
            assert total == pytest.approx(squared_l2(video.data), rel=1e-4)
            bands2d = dwt2d(video)
            total2d = sum(squared_l2(bands2d[k].data) for k in KEYS_2D)
            assert total2d == pytest.approx(squared_l2(video.data), rel=1e-4)


def test_criterion_5_energy_concentration():
    """Smooth fixture: level-1 hhh fraction > 0.90. Seeded white noise:
    hhh fraction within 1/8 +- 0.02 (control)."""
    with _Criterion(5, "energy-concentration"):
        smooth_stats = {
            s.key: s for s in subband_energy(dwt3d(smooth_video(3, 33, 64, 64)))
        }
        assert smooth_stats["hhh"].energy_fraction > 0.90
        noise_stats = {
            s.key: s for s in subband_energy(dwt3d(noise_video(7, 3, 32, 64, 64)))
        }
        assert abs(noise_stats["hhh"].energy_fraction - 0.125) <= 0.02


def test_criterion_6_shape_laws():
    """encode (3,33,256,256) with Chn in {4,16} gives (Chn,9,32,32); decode
    inverts the shape exactly. Width-independent, so a narrow config runs it."""
    with _Criterion(6, "shape-laws"):
        video = make_random(6, (3, 33, 256, 256))
        for chn in (4, 16):
            config = ModelConfig(
                base_channels=8, c_flow=8, latent_channels=chn, blocks_per_stage=1
            )
            weights = init_weights(config, Rng(60 + chn))
            result = encode(video, config, weights)
            assert result.latent.mean.shape == (chn, 9, 32, 32)
            assert result.latent.logvar.shape == (chn, 9, 32, 32)
            decoded = decode(
                result.latent.mean, config, weights, original_t=33
            )
            assert decoded.video.shape == (3, 33, 256, 256)


def test_criterion_7_causality():
    """Frame-0 outputs of the wavelet pipeline, a stream-safe stack, and the
    full encoder are bit-invariant to perturbing frames >= 1."""
    with _Criterion(7, "frame0-causality"):
        base = make_random(70, (3, 9, 16, 16))
        noise = Rng(71).normal((3, 8, 16, 16), std=2.0)
        perturbed_arr = base.data.copy()
        perturbed_arr[:, 1:] += noise
        perturbed = VideoTensor(perturbed_arr)

        p0, p1 = build_pyramid(base), build_pyramid(perturbed)
        for key in KEYS_3D:
            assert np.array_equal(p0.level1[key].data[:, 0], p1.level1[key].data[:, 0])
            assert np.array_equal(p0.level2[key].data[:, 0], p1.level2[key].data[:, 0])
        for key in KEYS_2D:
            assert np.array_equal(p0.level3[key].data[:, 0], p1.level3[key].data[:, 0])

        rng = Rng(72)
        spec1 = ConvSpec(3, 4, (3, 3, 3), (1, 1, 1), (1, 1))
        spec2 = ConvSpec(4, 4, (3, 3, 3), (2, 2, 2), (1, 1))
        w1 = rng.normal(spec1.weight_shape(), std=0.3)
        w2 = rng.normal(spec2.weight_shape(), std=0.3)
        ones, zeros = np.ones(4, np.float32), np.zeros(4, np.float32)

        def stack(x):
            h = VideoTensor(silu(causal_conv3d(x, spec1, w1).data))
            return causal_conv3d(frame_layernorm(h, ones, zeros), spec2, w2)

        s0, s1 = stack(base), stack(perturbed)
        assert np.array_equal(s0.data[:, 0], s1.data[:, 0])

        config = ModelConfig(
            base_channels=8, c_flow=8, latent_channels=4, blocks_per_stage=1
        )
        weights = init_weights(config, Rng(73))
        f0 = forward(base, config, weights, Rng(74))
        f1 = forward(perturbed, config, weights, Rng(74))
        assert np.array_equal(f0.latent.mean.data[:, 0], f1.latent.mean.data[:, 0])
        assert np.array_equal(
            f0.latent.logvar.data[:, 0], f1.latent.logvar.data[:, 0]
        )
        assert np.array_equal(
            f0.reconstruction.data[:, 0], f1.reconstruction.data[:, 0]
        )


def test_criterion_8_loss_formulas():
    """Pure loss functions match independent summation oracles to 1e-7;
    the adaptive weight at equal norms is 1/2 within 1e-5."""
    with _Criterion(8, "loss-formulas"):
        x = make_random(80, (2, 5, 8, 8))
        y = make_random(81, (2, 5, 8, 8))
        assert abs(l1_recon(x, y) - mean_abs_loop(x.data, y.data)) <= 1e-7

        w2a = dwt3d(make_random(82, (2, 4, 8, 8)))
        w2b = dwt3d(make_random(83, (2, 4, 8, 8)))
        w3a = dwt2d(make_random(84, (2, 2, 8, 8)))
        w3b = dwt2d(make_random(85, (2, 2, 8, 8)))
        expected_wl = mean_abs_loop(w2a.stack(), w2b.stack()) + mean_abs_loop(
            w3a.stack(), w3b.stack()
        )
        assert abs(wl_loss(w2a, w2b, w3a, w3b) - expected_wl) <= 1e-7

        rng = Rng(86)
        mean = rng.normal((2, 3, 4, 4))
        logvar = rng.normal((2, 3, 4, 4), std=0.5)
        latent = GaussianLatent(VideoTensor(mean), VideoTensor(logvar))
        assert abs(kl_divergence(latent) - kl_loop(mean, logvar)) <= 1e-7

        assert abs(adaptive_adv_weight(1.0, 1.0, 1e-6) - 0.5) <= 1e-5
        assert adaptive_adv_weight(0.0, 5.0, 1e-6) == 0.0

        value = total_loss(
            LossComponents(recon=1.0, adv=2.0, kl=3.0, wl=4.0),
            LossWeights(adv=0.5, kl=1e-6, wl=0.1),
        )
        assert abs(value - 2.400003) <= 1e-9


def test_criterion_9_convolution_correctness():
    """causal_conv3d matches the nested-loop reference on 50 random
    (spec, input) pairs within 1e-5."""
    with _Criterion(9, "convolution-correctness"):
        rng = Rng(909)
        for trial in range(50):
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 4))
            kernel = tuple(int(rng.integers(1, 4)) for _ in range(3))
            stride = tuple(int(rng.integers(1, 3)) for _ in range(3))
            pad = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            pad_mode = "replicate" if trial % 2 else "zeros"
            t = int(rng.integers(1, 6))
            h = kernel[1] + int(rng.integers(0, 6))
            w = kernel[2] + int(rng.integers(0, 6))
            spec = ConvSpec(cin, cout, kernel, stride, pad, pad_mode)
            x = VideoTensor(rng.normal((cin, t, h, w)))
            weight = rng.normal(spec.weight_shape(), std=0.5)
            bias = rng.normal((cout,), std=0.2)
            got = causal_conv3d(x, spec, weight, bias)
            expected = conv3d_loop_oracle(
                x.data, weight, bias, stride, pad, pad_mode
            )
            assert got.shape == expected.shape, f"trial {trial}"
            dev = max_abs_diff(got.data, expected)
            assert dev <= 1e-5, f"trial {trial}: dev {dev:.3g}"
