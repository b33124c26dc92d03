"""Energy/entropy statistics: exact fractions, degenerate handling, and the
energy-concentration behavior that motivates the low-frequency pathway."""

import math

import numpy as np
import pytest

from wfcodec import (
    ParameterError,
    Rng,
    VideoTensor,
    analyze_level,
    build_pyramid,
    dwt3d,
    new_tensor,
    subband_energy,
    subband_entropy,
)
from wfcodec.analysis import analyze_pyramid
from wfcodec.wavelet import KEYS_3D, SubbandSet2D

from helpers import make_random, noise_video, smooth_video, squared_l2


def entropy_loop_oracle(values, bins):
    """Independent histogram entropy: explicit binning loop in Python."""
    values = [float(v) for v in np.asarray(values).ravel()]
    lo, hi = min(values), max(values)
    if lo == hi:
        return 0.0
    counts = [0] * bins
    width = (hi - lo) / bins
    for v in values:
        idx = min(int((v - lo) / width), bins - 1)
        counts[idx] += 1
    total = len(values)
    return -sum(
        (c / total) * math.log2(c / total) for c in counts if c
    )


class TestSubbandEnergy:
    def test_constant_video_concentrates_in_hhh(self):
        stats = subband_energy(dwt3d(new_tensor(2, 4, 8, 8, 2.0)))
        by_key = {s.key: s for s in stats}
        assert by_key["hhh"].energy_fraction == pytest.approx(1.0, abs=1e-9)
        for key in KEYS_3D[1:]:
            assert by_key[key].energy_fraction == pytest.approx(0.0, abs=1e-9)
        assert not by_key["hhh"].degenerate

    def test_zero_video_degenerate(self):
        stats = subband_energy(dwt3d(new_tensor(1, 2, 4, 4, 0.0)))
        assert all(s.degenerate for s in stats)
        assert all(s.energy_fraction == 0.0 for s in stats)

    def test_fractions_sum_to_one(self):
        stats = subband_energy(dwt3d(make_random(3, (2, 6, 8, 8))))
        assert sum(s.energy_fraction for s in stats) == pytest.approx(1.0, abs=1e-6)

    def test_smooth_fixture_energy_concentration(self):
        stats = subband_energy(dwt3d(smooth_video(3, 33, 64, 64)))
        by_key = {s.key: s for s in stats}
        assert by_key["hhh"].energy_fraction > 0.90

    def test_white_noise_spreads_evenly(self):
        """Control: an orthonormal transform of white noise puts roughly 1/8
        of the energy in each 3D subband."""
        stats = subband_energy(dwt3d(noise_video(7, 3, 32, 64, 64)))
        for s in stats:
            assert abs(s.energy_fraction - 1.0 / 8.0) <= 0.02

    def test_energy_invariant_under_sign_flip_and_permutation(self):
        bands = dwt3d(make_random(5, (1, 4, 8, 8)))
        flipped = type(bands)(
            {key: VideoTensor(-band.data) for key, band in bands.items()}
        )
        original = {s.key: s.energy for s in subband_energy(bands)}
        negated = {s.key: s.energy for s in subband_energy(flipped)}
        assert original == negated
        keys = list(bands.keys())
        rotated = type(bands)(
            {keys[i]: bands[keys[(i + 3) % len(keys)]] for i in range(len(keys))}
        )
        assert sorted(s.energy for s in subband_energy(rotated)) == pytest.approx(
            sorted(original.values())
        )

    def test_level_energy_matches_padded_input(self):
        v = make_random(6, (2, 5, 8, 8))
        padded = np.concatenate([v.data[:, :1], v.data], axis=1)
        total = sum(s.energy for s in subband_energy(dwt3d(v)))
        assert total == pytest.approx(squared_l2(padded), rel=1e-4)


def _uniform_set(seed, shape=(1, 4, 16, 16)):
    rng = Rng(seed)
    return SubbandSet2D(
        {key: VideoTensor(rng.uniform(shape)) for key in SubbandSet2D.KEYS}
    )


class TestSubbandEntropy:
    def test_constant_band_zero_bits(self):
        bands = SubbandSet2D(
            {key: new_tensor(1, 2, 2, 2, 4.0) for key in SubbandSet2D.KEYS}
        )
        assert all(s.entropy_bits == 0.0 for s in subband_entropy(bands, 16))

    def test_two_valued_equal_counts_one_bit(self):
        arr = np.zeros((1, 2, 2, 2), dtype=np.float32)
        arr[:, 1] = 1.0
        bands = SubbandSet2D({key: VideoTensor(arr) for key in SubbandSet2D.KEYS})
        stats = subband_entropy(bands, bins=2)
        assert all(s.entropy_bits == pytest.approx(1.0, abs=1e-9) for s in stats)

    def test_uniform_random_near_eight_bits(self):
        stats = subband_entropy(_uniform_set(91), bins=256)
        for s in stats:
            assert 7.5 <= s.entropy_bits <= 8.0

    def test_matches_loop_oracle(self):
        bands = _uniform_set(17, shape=(1, 2, 8, 8))
        stats = subband_entropy(bands, bins=32)
        for s in stats:
            expected = entropy_loop_oracle(bands[s.key].data, 32)
            assert s.entropy_bits == pytest.approx(expected, abs=1e-9)

    def test_affine_rescale_invariance(self):
        bands = _uniform_set(23)
        scaled = SubbandSet2D(
            {key: VideoTensor(band.data * 7.0 - 3.0) for key, band in bands.items()}
        )
        before = [s.entropy_bits for s in subband_entropy(bands, 64)]
        after = [s.entropy_bits for s in subband_entropy(scaled, 64)]
        assert before == pytest.approx(after, abs=1e-6)

    def test_entropy_bounded_by_log_bins(self):
        for bins in (2, 16, 256):
            stats = subband_entropy(_uniform_set(29), bins=bins)
            assert all(s.entropy_bits <= math.log2(bins) + 1e-9 for s in stats)

    def test_too_few_bins_rejected(self):
        with pytest.raises(ParameterError):
            subband_entropy(_uniform_set(5), bins=1)
        with pytest.raises(ParameterError):
            analyze_level(_uniform_set(5), bins=0)


class TestAnalyzePyramid:
    def test_record_layout(self):
        records = analyze_pyramid(build_pyramid(smooth_video(2, 9, 16, 16)), bins=64)
        assert len(records) == 8 + 8 + 4
        levels = sorted({r["level"] for r in records})
        assert levels == [1, 2, 3]
        for r in records:
            assert set(r) == {
                "level",
                "key",
                "energy",
                "energy_fraction",
                "entropy_bits",
                "degenerate",
            }
        level1 = {r["key"]: r for r in records if r["level"] == 1}
        assert level1["hhh"]["energy_fraction"] > 0.9
