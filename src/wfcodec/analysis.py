"""Per-subband energy and entropy statistics.

Energy is the sum of squared coefficients; fractions are taken within one
transform level. Entropy is the Shannon entropy (base 2) of an equal-width
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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blas
from .errors import ParameterError
from .tensor import VideoTensor

DEFAULT_BINS = 256
# Each histogram block allocates ``bins + 1`` counts, 8 bytes each; the cap
# keeps that near 512 KiB, far above any useful entropy resolution.
MAX_BINS = 1 << 16
# Values binned per pass, divided among the worker threads that bin bands at
# once, so their float64 and index scratch together stay near 512 KiB each.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class SubbandStats:
    key: str
    energy: float = 0.0
    energy_fraction: float = 0.0
    entropy_bits: float = 0.0
    degenerate: bool = False


def _band_energy(arr: np.ndarray) -> float:
    # Accumulates in float64 without a float64 copy of the band.
    flat = arr.ravel()
    return float(np.einsum("i,i->", flat, flat, dtype=np.float64))


def subband_energy(subbands) -> list[SubbandStats]:
    """Energy and within-level energy fraction for every subband.

    An all-zero level has no defined fractions; every stat is then flagged
    ``degenerate`` with fractions set to 0. Bands are shared out to
    :func:`blas.worker_count` workers; each band is summed by one.
    """
    arrays = [band.data for _, band in subbands.items()]
    values = blas.map_on_workers(_band_energy, arrays, blas.worker_count())
    energies = list(zip(subbands.keys(), values))
    total = sum(e for _, e in energies)
    degenerate = total == 0.0
    return [
        SubbandStats(
            key=key,
            energy=e,
            energy_fraction=0.0 if degenerate else e / total,
            degenerate=degenerate,
        )
        for key, e in energies
    ]


def _histogram(
    values: np.ndarray, bins: int, lo: float, hi: float, workers: int = 1
) -> np.ndarray:
    """Counts of the 1-D ``values`` in ``bins`` equal-width bins over [lo, hi].

    ``lo < hi`` must bound ``values``. Each value goes to bin
    ``min(int((v - lo) / width), bins - 1)`` with ``width = (hi - lo) / bins``,
    all in float64. Float64 rounding is monotone, so an index never exceeds
    that of ``hi``, which is at most ``bins``; slot ``bins`` is folded into
    the last bin. Values are binned ``_BLOCK // workers`` at a time, where
    ``workers`` is the number of histograms that may run at once.
    """
    block = max(1, _BLOCK // workers)
    width = (hi - lo) / bins
    counts = np.zeros(bins + 1, dtype=np.intp)
    n = min(values.size, block)
    scaled = np.empty(n, dtype=np.float64)
    index = np.empty(n, dtype=np.intp)
    for start in range(0, values.size, block):
        part = values[start:start + block]
        f, idx = scaled[:part.size], index[:part.size]
        np.subtract(part, lo, out=f, dtype=np.float64)
        f /= width
        np.copyto(idx, f, casting="unsafe")  # truncates; every value is >= 0
        counts += np.bincount(idx, minlength=bins + 1)
    counts[bins - 1] += counts[bins]
    return counts[:bins]


def _band_entropy(band: VideoTensor, bins: int, workers: int) -> float:
    values = band.data.ravel()
    lo, hi = band.value_range
    if lo == hi:
        return 0.0
    counts = _histogram(values, bins, lo, hi, workers)
    probs = counts[counts > 0] / values.size
    return float(-np.sum(probs * np.log2(probs)))


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
    workers = blas.worker_count()
    bands = [band for _, band in subbands.items()]
    entropies = blas.map_on_workers(
        lambda band: _band_entropy(band, bins, workers), bands, workers
    )
    return [
        SubbandStats(key=key, entropy_bits=bits)
        for key, bits in zip(subbands.keys(), entropies)
    ]


def analyze_pyramid(pyramid, bins: int = DEFAULT_BINS) -> list[dict]:
    """Flat JSON-ready records for all three pyramid levels."""
    records = []
    for level, subbands in (
        (1, pyramid.level1),
        (2, pyramid.level2),
        (3, pyramid.level3),
    ):
        for energy, entropy in zip(
            subband_energy(subbands), subband_entropy(subbands, bins)
        ):
            records.append(
                {
                    "level": level,
                    "key": energy.key,
                    "energy": energy.energy,
                    "energy_fraction": energy.energy_fraction,
                    "entropy_bits": entropy.entropy_bits,
                    "degenerate": energy.degenerate,
                }
            )
    return records
