"""Loss formulas against independent summation oracles and exact arithmetic."""

import math

import numpy as np
import pytest

from wfcodec import (
    GaussianLatent,
    LossComponents,
    LossWeights,
    ParameterError,
    Rng,
    ShapeError,
    VideoTensor,
    adaptive_adv_weight,
    dwt2d,
    dwt3d,
    kl_divergence,
    l1_recon,
    new_tensor,
    total_loss,
    wl_loss,
)

from helpers import make_random


def mean_abs_loop(a, b) -> float:
    """Element-loop L1 oracle in plain Python floats."""
    fa = [float(v) for v in np.asarray(a).ravel()]
    fb = [float(v) for v in np.asarray(b).ravel()]
    assert len(fa) == len(fb)
    return sum(abs(x - y) for x, y in zip(fa, fb)) / len(fa)


def kl_loop(mean, logvar) -> float:
    """Element-loop KL oracle: 0.5 * mean(mu^2 + e^lv - 1 - lv)."""
    ms = [float(v) for v in np.asarray(mean).ravel()]
    lvs = [float(v) for v in np.asarray(logvar).ravel()]
    total = sum(m * m + math.exp(lv) - 1.0 - lv for m, lv in zip(ms, lvs))
    return 0.5 * total / len(ms)


class TestL1Recon:
    def test_identical_inputs(self):
        x = make_random(1, (2, 3, 4, 4))
        assert l1_recon(x, x) == 0.0

    def test_constant_offset(self):
        x = new_tensor(2, 3, 4, 4, 1.0)
        y = new_tensor(2, 3, 4, 4, 1.5)
        assert l1_recon(x, y) == pytest.approx(0.5, abs=1e-7)

    def test_matches_loop_oracle(self):
        x = make_random(2, (2, 3, 4, 4))
        y = make_random(3, (2, 3, 4, 4))
        assert l1_recon(x, y) == pytest.approx(
            mean_abs_loop(x.data, y.data), abs=1e-7
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            l1_recon(new_tensor(1, 1, 2, 2, 0.0), new_tensor(1, 1, 2, 4, 0.0))


class TestWlLoss:
    def _pairs(self, seed):
        w2 = dwt3d(make_random(seed, (2, 4, 8, 8)))
        w3 = dwt2d(make_random(seed + 1, (2, 2, 8, 8)))
        return w2, w3

    def test_identical_pairs_zero(self):
        w2, w3 = self._pairs(10)
        assert wl_loss(w2, w2, w3, w3) == 0.0

    def test_offset_in_one_term(self):
        w2, w3 = self._pairs(11)
        w2_off = type(w2)(
            {key: VideoTensor(band.data + 1.0) for key, band in w2.items()}
        )
        assert wl_loss(w2_off, w2, w3, w3) == pytest.approx(1.0, abs=1e-6)

    def test_matches_loop_oracle(self):
        w2a, w3a = self._pairs(12)
        w2b, w3b = self._pairs(14)
        expected = mean_abs_loop(w2a.stack(), w2b.stack()) + mean_abs_loop(
            w3a.stack(), w3b.stack()
        )
        assert wl_loss(w2a, w2b, w3a, w3b) == pytest.approx(expected, abs=1e-7)

    def test_symmetric_in_pair_swap(self):
        w2a, w3a = self._pairs(16)
        w2b, w3b = self._pairs(18)
        assert wl_loss(w2a, w2b, w3a, w3b) == pytest.approx(
            wl_loss(w2b, w2a, w3b, w3a), abs=1e-12
        )

    def test_shape_mismatch(self):
        w2, w3 = self._pairs(20)
        w2_small = dwt3d(make_random(21, (2, 2, 8, 8)))
        with pytest.raises(ShapeError):
            wl_loss(w2_small, w2, w3, w3)

    def test_invariant_under_joint_key_permutation(self):
        """Relabeling subbands the same way in both arguments cannot change
        a mean over all elements."""
        w2a, w3a = self._pairs(22)
        w2b, w3b = self._pairs(24)
        keys = list(w2a.keys())
        rotate = {keys[i]: keys[(i + 5) % len(keys)] for i in range(len(keys))}
        w2a_rot = type(w2a)({rotate[k]: band for k, band in w2a.items()})
        w2b_rot = type(w2b)({rotate[k]: band for k, band in w2b.items()})
        assert wl_loss(w2a_rot, w2b_rot, w3a, w3b) == pytest.approx(
            wl_loss(w2a, w2b, w3a, w3b), abs=1e-12
        )


class TestKlDivergence:
    def _latent(self, mean_arr, logvar_arr):
        return GaussianLatent(VideoTensor(mean_arr), VideoTensor(logvar_arr))

    def test_posterior_equals_prior(self):
        shape = (2, 3, 2, 2)
        latent = self._latent(np.zeros(shape, np.float32), np.zeros(shape, np.float32))
        assert kl_divergence(latent) == 0.0

    def test_unit_mean_closed_form(self):
        shape = (1, 2, 2, 2)
        latent = self._latent(np.ones(shape, np.float32), np.zeros(shape, np.float32))
        assert kl_divergence(latent) == pytest.approx(0.5, abs=1e-9)

    def test_matches_loop_oracle(self):
        rng = Rng(30)
        mean = rng.normal((2, 3, 4, 4))
        logvar = rng.normal((2, 3, 4, 4), std=0.5)
        latent = self._latent(mean, logvar)
        assert kl_divergence(latent) == pytest.approx(
            kl_loop(mean, logvar), abs=1e-7
        )

    def test_nonnegative(self):
        rng = Rng(31)
        for seed in range(5):
            latent = self._latent(
                rng.normal((1, 2, 3, 3)), rng.normal((1, 2, 3, 3))
            )
            assert kl_divergence(latent) >= 0.0


class TestAdaptiveAdvWeight:
    def test_equal_norms_half(self):
        assert adaptive_adv_weight(1.0, 1.0, 1e-6) == pytest.approx(
            0.4999995, abs=1e-7
        )

    def test_zero_numerator(self):
        assert adaptive_adv_weight(0.0, 123.0, 1e-6) == 0.0

    def test_direct_formula(self):
        assert adaptive_adv_weight(2.0, 0.5, 1e-6) == pytest.approx(
            0.5 * 2.0 / (0.5 + 1e-6), abs=1e-12
        )
        assert adaptive_adv_weight(2.0, 0.5, 1e-6) == pytest.approx(1.999996, abs=1e-6)

    def test_scale_invariance_up_to_delta(self):
        base = adaptive_adv_weight(3.0, 2.0, 1e-6)
        scaled = adaptive_adv_weight(300.0, 200.0, 1e-6)
        assert scaled == pytest.approx(base, rel=1e-5)

    def test_negative_norms_rejected(self):
        with pytest.raises(ParameterError):
            adaptive_adv_weight(-1.0, 1.0)
        with pytest.raises(ParameterError):
            adaptive_adv_weight(1.0, -1.0)
        with pytest.raises(ParameterError):
            adaptive_adv_weight(1.0, 1.0, 0.0)


class TestTotalLoss:
    def test_all_zero(self):
        assert total_loss(LossComponents(), LossWeights()) == 0.0

    def test_unweighted_recon(self):
        assert total_loss(LossComponents(recon=1.0), LossWeights()) == 1.0

    def test_reference_arithmetic(self):
        weights = LossWeights(adv=0.5, kl=1e-6, wl=0.1)
        components = LossComponents(recon=1.0, adv=2.0, kl=3.0, wl=4.0)
        assert total_loss(components, weights) == pytest.approx(2.400003, abs=1e-9)

    def test_linear_in_each_component(self):
        weights = LossWeights(adv=0.7, kl=0.3, wl=0.2)
        base = total_loss(LossComponents(recon=1.0, adv=1.0, kl=1.0, wl=1.0), weights)
        bumped = total_loss(
            LossComponents(recon=1.0, adv=2.0, kl=1.0, wl=1.0), weights
        )
        assert bumped - base == pytest.approx(0.7, abs=1e-12)

    def test_perceptual_enters_unweighted(self):
        value = total_loss(
            LossComponents(recon=1.0, perceptual=0.25), LossWeights()
        )
        assert value == pytest.approx(1.25, abs=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ParameterError):
            total_loss(LossComponents(recon=float("nan")), LossWeights())
        with pytest.raises(ParameterError):
            total_loss(LossComponents(adv=float("inf")), LossWeights())

    def test_invalid_weights(self):
        with pytest.raises(ParameterError):
            LossWeights(kl=-1.0)
