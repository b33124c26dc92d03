"""Per-subband energy and entropy statistics.

Energy is the sum of squared coefficients, taken in float64 over fixed runs
of each band and combined exactly (``math.fsum``); fractions are taken within
one transform level. Entropy is the Shannon entropy (base 2) of an equal-width
histogram over each subband's own [min, max] range, which makes it invariant
under affine rescaling of the coefficients. The range is the one the band's
:class:`~wfcodec.tensor.VideoTensor` carries (``value_range``), taken when the
band was written, so the statistics do not scan a band for it. The histogram
bin count is a convention (default 256), not a property of the transform.

The bin rule is computed in float64: with ``width = (hi - lo) / bins``, a
value ``v`` goes to bin ``min(int((v - lo) / width), bins - 1)``, so the
maximum lands in the last bin. Every finite band is accepted, including one
whose range spans a few float32 ULPs and one whose range exceeds the float32
maximum.

Both statistics come from one pass over each band: every block of values is
widened to float64 once, and that copy gives the block's energy runs and then
its histogram counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import blas
from .errors import ParameterError
from .tensor import VideoTensor

DEFAULT_BINS = 256
# Each histogram block allocates ``bins + 1`` counts, 8 bytes each; the cap
# keeps that near 512 KiB, far above any useful entropy resolution.
MAX_BINS = 1 << 16
# Values widened per pass, divided among the worker threads that take band
# statistics at once, so their float64 and index scratch together stay near
# 512 KiB each.
_BLOCK = 1 << 16
# Values per energy run. A band's energy is the ``math.fsum`` of the float64
# sums of squares of its runs, which start at fixed offsets in the flat band,
# so it depends on neither ``W`` nor ``_BLOCK``.
_RUN = 1 << 10


@dataclass(frozen=True)
class SubbandStats:
    key: str
    energy: float = 0.0
    energy_fraction: float = 0.0
    entropy_bits: float = 0.0
    degenerate: bool = False


def _square_sums(rows: np.ndarray) -> list[float]:
    """The float64 sum of squares of each row of the float64 ``rows``."""
    return np.einsum("ij,ij->i", rows, rows).tolist()


def _add_runs(runs: list, values: np.ndarray, start: int, f: np.ndarray) -> None:
    """Append to ``runs`` the sum of squares of every energy run of the 1-D
    ``values`` that ends in the block ``values[start:start + f.size]``, whose
    float64 copy is ``f``. A run that began in an earlier block is widened
    again whole, so every run is summed in one piece."""
    end, n = start + f.size, values.size
    head = start - start % _RUN
    if head < start:
        stop = min(head + _RUN, n)
        if stop > end:
            return
        runs += _square_sums(values[head:stop].astype(np.float64)[None])
        head = stop
    whole = (end - head) // _RUN
    tail = head + whole * _RUN
    runs += _square_sums(f[head - start : tail - start].reshape(whole, _RUN))
    if tail < end == n:  # the band's last, short run
        runs += _square_sums(f[tail - start :][None])


def _histogram(
    values: np.ndarray,
    bins: int | None,
    lo: float,
    hi: float,
    workers: int = 1,
    runs: list | None = None,
) -> np.ndarray | None:
    """Counts of the 1-D ``values`` in ``bins`` equal-width bins over [lo, hi].

    ``lo < hi`` must bound ``values``. Each value goes to bin
    ``min(int((v - lo) / width), bins - 1)`` with ``width = (hi - lo) / bins``,
    all in float64. Float64 rounding is monotone, so an index never exceeds
    that of ``hi``, which is at most ``bins``; slot ``bins`` is folded into
    the last bin.

    Values are widened to float64 ``_BLOCK // workers`` at a time (whole
    energy runs when that is more than one), where ``workers`` is the number
    of passes that may run at once. The same copy gives the list ``runs``,
    when one is passed, each energy run's sum of squares (:func:`_add_runs`).
    ``bins`` None bins nothing and returns None: the pass then only sums.
    """
    block = max(1, _BLOCK // workers)
    if block > _RUN:
        block -= block % _RUN
    n = min(values.size, block)
    scaled = np.empty(n, dtype=np.float64)
    if bins is not None:
        width = (hi - lo) / bins
        counts = np.zeros(bins + 1, dtype=np.intp)
        index = np.empty(n, dtype=np.intp)
    for start in range(0, values.size, block):
        part = values[start:start + block]
        f = scaled[:part.size]
        np.copyto(f, part)
        if runs is not None:
            _add_runs(runs, values, start, f)
        if bins is not None:
            idx = index[:part.size]
            f -= lo
            f /= width
            np.copyto(idx, f, casting="unsafe")  # truncates; every value is >= 0
            counts += np.bincount(idx, minlength=bins + 1)
    if bins is None:
        return None
    counts[bins - 1] += counts[bins]
    return counts[:bins]


def _band_stats(band: VideoTensor, bins: int | None, workers: int) -> tuple[float, float]:
    """(energy, entropy in bits) of one band, from one pass over its values.
    ``bins`` None skips the histogram; it and a single-valued band give 0 bits."""
    values = band.data.ravel()
    lo, hi = band.value_range
    runs: list[float] = []
    counts = _histogram(values, bins if lo < hi else None, lo, hi, workers, runs)
    if counts is None:
        return math.fsum(runs), 0.0
    probs = counts[counts > 0] / values.size
    return math.fsum(runs), float(-np.sum(probs * np.log2(probs)))


def _stats(bands: list, bins: int | None) -> list[tuple[float, float]]:
    """:func:`_band_stats` of every band, shared out to
    :func:`blas.worker_count` workers; each band is taken by one."""
    workers = blas.worker_count()
    return blas.share_out(
        len(bands), workers, lambda _, i: _band_stats(bands[i], bins, workers)
    )


def _energy_stats(keys, energies) -> list[SubbandStats]:
    """The :func:`subband_energy` records of one level's ``energies``."""
    total = sum(energies)
    degenerate = total == 0.0
    return [
        SubbandStats(
            key=key,
            energy=e,
            energy_fraction=0.0 if degenerate else e / total,
            degenerate=degenerate,
        )
        for key, e in zip(keys, energies)
    ]


def subband_energy(subbands) -> list[SubbandStats]:
    """Energy and within-level energy fraction for every subband.

    An all-zero level has no defined fractions; every stat is then flagged
    ``degenerate`` with fractions set to 0. Bands are shared out to
    :func:`blas.worker_count` workers; each band is summed by one.
    """
    stats = _stats([band for _, band in subbands.items()], None)
    return _energy_stats(subbands.keys(), [e for e, _ in stats])


def _check_bins(bins: int) -> None:
    """Reject a histogram bin count outside [2, MAX_BINS]."""
    if not 2 <= bins <= MAX_BINS:
        raise ParameterError(f"bins must be in [2, {MAX_BINS}], got {bins}")


def subband_entropy(subbands, bins: int = DEFAULT_BINS) -> list[SubbandStats]:
    """Histogram entropy in bits for every subband; single-valued bands give 0.

    Bands are shared out to :func:`blas.worker_count` workers; each band is
    binned by one.
    """
    _check_bins(bins)
    stats = _stats([band for _, band in subbands.items()], bins)
    return [
        SubbandStats(key=key, entropy_bits=bits)
        for key, (_, bits) in zip(subbands.keys(), stats)
    ]


def analyze_pyramid(pyramid, bins: int = DEFAULT_BINS) -> list[dict]:
    """Flat JSON-ready records for all three pyramid levels, from one pass
    over each band: the 20 bands are shared out to the workers at once."""
    _check_bins(bins)
    levels = ((1, pyramid.level1), (2, pyramid.level2), (3, pyramid.level3))
    stats = iter(_stats([band for _, s in levels for _, band in s.items()], bins))
    records = []
    for level, subbands in levels:
        level_stats = [next(stats) for _ in subbands.keys()]
        energies = _energy_stats(subbands.keys(), [e for e, _ in level_stats])
        for energy, (_, bits) in zip(energies, level_stats):
            records.append(
                {
                    "level": level,
                    "key": energy.key,
                    "energy": energy.energy,
                    "energy_fraction": energy.energy_fraction,
                    "entropy_bits": bits,
                    "degenerate": energy.degenerate,
                }
            )
    return records
