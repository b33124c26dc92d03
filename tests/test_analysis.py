"""Energy/entropy statistics: exact fractions, degenerate handling, and the
energy-concentration behavior that motivates the low-frequency pathway."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wfcodec import analysis, blas
from wfcodec import (
    ParameterError,
    Rng,
    VideoTensor,
    build_pyramid,
    dwt3d,
    new_tensor,
    subband_energy,
    subband_entropy,
)
from wfcodec.analysis import analyze_pyramid
from wfcodec.wavelet import KEYS_3D, SubbandSet2D

from helpers import make_random, noise_video, smooth_video, squared_l2, traced_peak


def histogram_loop_oracle(values, bins, lo, hi):
    """Bin counts by an explicit Python loop over the float64 bin rule."""
    counts = [0] * bins
    width = (hi - lo) / bins
    for v in values:
        idx = min(int((v - lo) / width), bins - 1)
        counts[idx] += 1
    return counts


def entropy_loop_oracle(values, bins):
    """Independent histogram entropy: explicit binning loop in Python."""
    values = [float(v) for v in np.asarray(values).ravel()]
    lo, hi = min(values), max(values)
    if lo == hi:
        return 0.0
    counts = histogram_loop_oracle(values, bins, lo, hi)
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
            analyze_pyramid(build_pyramid(new_tensor(1, 5, 8, 8, 1.0)), bins=0)


_F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
_F32_MAX = float(np.finfo(np.float32).max)


def _edge_values(lo, hi, bins, edges):
    """lo, hi, and each bin edge lo + j*width with its float32 neighbours."""
    width = (hi - lo) / bins
    values = [lo, hi]
    for j in edges:
        edge = np.float32(min(max(lo + j * width, lo), hi))
        for v in (edge, np.nextafter(edge, np.float32(-np.inf)),
                  np.nextafter(edge, np.float32(np.inf))):
            values.append(min(max(float(v), lo), hi))
    return np.array(values, dtype=np.float32)


@st.composite
def histogram_cases(draw):
    """(float32 values with min < max, bins, block size) for _histogram."""
    bins = draw(st.one_of(st.integers(2, 64), st.integers(2, analysis.MAX_BINS)))
    kind = draw(st.sampled_from(["edges", "two-valued", "few-ulps", "huge", "any"]))
    if kind == "edges":
        # Small integer ends make many edges exact, where rounding decides.
        ends = st.one_of(st.integers(-64, 64).map(float), _F32)
        lo, hi = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
        if bins <= 64:
            edges = range(bins + 1)
        else:
            edges = draw(st.lists(st.integers(0, bins), min_size=1, max_size=20))
        values = _edge_values(lo, hi, bins, edges)
    elif kind == "two-valued":
        a, b = sorted(draw(st.lists(_F32, min_size=2, max_size=2, unique=True)))
        values = [a, b] + draw(st.lists(st.sampled_from([a, b]), max_size=60))
    elif kind == "few-ulps":
        base = draw(st.sampled_from([1000.0, -1000.0]))
        steps = [0, draw(st.integers(1, 4))]
        steps += draw(st.lists(st.integers(0, 4), max_size=60))
        bits = np.float32(base).view(np.int32)
        values = list(np.array([bits + k for k in steps], np.int32).view(np.float32))
    elif kind == "huge":
        near = st.floats(float(np.float32(3e38)), _F32_MAX, width=32)
        signed = st.one_of(near, near.map(lambda v: -v))
        values = [-draw(near), draw(near)] + draw(st.lists(signed, max_size=60))
    else:
        values = draw(st.lists(_F32, min_size=2, max_size=60))
    arr = np.array(values, dtype=np.float32)
    arr = arr[draw(st.permutations(range(arr.size)))]
    block = draw(st.integers(1, 16))
    return arr, bins, block


class TestHistogram:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=histogram_cases())
    # Edges where (v - lo) / width and (v - lo) * (1 / width) truncate apart.
    @example(case=(_edge_values(-20.0, -15.0, 26, range(27)), 26, 5))
    @example(case=(_edge_values(-20.0, -13.0, 24, range(25)), 24, 7))
    def test_counts_match_loop_oracle(self, case):
        values, bins, block = case
        lo, hi = float(values.min()), float(values.max())
        assume(lo < hi)
        # A small block makes the array span several blocks, the last short.
        with mock.patch.object(analysis, "_BLOCK", block):
            counts = analysis._histogram(values, bins, lo, hi)
        assert counts.tolist() == histogram_loop_oracle(
            [float(v) for v in values], bins, lo, hi
        )
        assert counts.sum() == values.size


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

    def test_records_join_energy_and_entropy(self):
        p = build_pyramid(smooth_video(2, 9, 16, 16))
        records = analyze_pyramid(p, bins=64)
        expected = [
            (level, e.key, e.energy, e.energy_fraction, h.entropy_bits, e.degenerate)
            for level, bands in ((1, p.level1), (2, p.level2), (3, p.level3))
            for e, h in zip(subband_energy(bands), subband_entropy(bands, 64))
        ]
        assert [tuple(r.values()) for r in records] == expected


class TestEnergyRuns:
    """Energies are float64 sums over fixed runs of each band, combined
    exactly: on bands of several runs and a short last one, split into
    blocks that cut runs or hold several, at any worker count."""

    @staticmethod
    def _energies(p, block, workers):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blas, "worker_count", lambda: workers)
            mp.setattr(analysis, "_BLOCK", block)
            return [s.energy for level in (p.level1, p.level2, p.level3)
                    for s in subband_energy(level)]

    def test_energy_is_the_float64_sum_of_squares(self):
        p = build_pyramid(make_random(79, (3, 17, 40, 24)))
        bands = [band for level in (p.level1, p.level2, p.level3)
                 for _, band in level.items()]
        assert bands[0].data.size > 6 * analysis._RUN
        assert bands[0].data.size % analysis._RUN
        expected = [np.sum(b.data.astype(np.float64) ** 2) for b in bands]
        for block in (97, 1000, 3 * analysis._RUN, analysis._BLOCK):
            for workers in (1, 3):
                energies = self._energies(p, block, workers)
                assert energies == pytest.approx(expected, rel=1e-12, abs=0)
                assert energies == self._energies(p, analysis._BLOCK, 1), (block, workers)


class TestWorkerCount:
    """Bands are spread over worker threads; records do not depend on how many."""

    @staticmethod
    def _at_workers(workers, fn):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blas, "worker_count", lambda: workers)
            return fn()

    @pytest.mark.parametrize("block", [97, analysis._BLOCK])
    def test_stats_equal_across_worker_counts(self, block):
        """A 97-value block makes every band span several histogram blocks."""
        p = build_pyramid(make_random(77, (2, 17, 24, 16)))

        def stats():
            with mock.patch.object(analysis, "_BLOCK", block):
                return (
                    [subband_energy(s) for s in (p.level1, p.level2, p.level3)],
                    [subband_entropy(s, 64) for s in (p.level1, p.level2, p.level3)],
                    analyze_pyramid(p, bins=64),
                )

        serial = self._at_workers(1, stats)
        for workers in (2, 3, 5):
            assert self._at_workers(workers, stats) == serial, workers

    def test_concurrent_histograms_add_no_scratch(self):
        """At 4 workers analyze_pyramid's traced peak stays within 128 KiB of
        one worker's: concurrent histograms and ufunc buffers divide one
        call's scratch among them."""
        p = build_pyramid(make_random(78, (3, 17, 128, 128)))
        one = self._at_workers(1, lambda: traced_peak(lambda: analyze_pyramid(p))[1])
        four = self._at_workers(4, lambda: traced_peak(lambda: analyze_pyramid(p))[1])
        assert four - one <= 128 << 10, (one, four)
