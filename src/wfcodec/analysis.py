"""Per-subband energy and entropy statistics.

Energy is the sum of squared coefficients; fractions are taken within one
transform level. Entropy is the Shannon entropy (base 2) of an equal-width
histogram over each subband's own [min, max] range, which makes it invariant
under affine rescaling of the coefficients. The histogram bin count is a
convention (default 256), not a property of the transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

DEFAULT_BINS = 256
# np.histogram allocates ``bins`` counts and ``bins + 1`` edges, 8 bytes each;
# the cap keeps that near 1 MiB, far above any useful entropy resolution.
MAX_BINS = 1 << 16


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
    ``degenerate`` with fractions set to 0.
    """
    energies = [(key, _band_energy(band.data)) for key, band in subbands.items()]
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


def _band_entropy(arr: np.ndarray, bins: int) -> float:
    values = arr.ravel()
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        return 0.0
    counts, _ = np.histogram(values, bins=bins, range=(lo, hi))
    probs = counts[counts > 0] / values.size
    return float(-np.sum(probs * np.log2(probs)))


def _check_bins(bins: int) -> None:
    """Reject a histogram bin count outside [2, MAX_BINS]."""
    if not 2 <= bins <= MAX_BINS:
        raise ParameterError(f"bins must be in [2, {MAX_BINS}], got {bins}")


def subband_entropy(subbands, bins: int = DEFAULT_BINS) -> list[SubbandStats]:
    """Histogram entropy in bits for every subband; single-valued bands give 0."""
    _check_bins(bins)
    return [
        SubbandStats(key=key, entropy_bits=_band_entropy(band.data, bins))
        for key, band in subbands.items()
    ]


def analyze_level(subbands, bins: int = DEFAULT_BINS) -> list[SubbandStats]:
    """Joint energy + entropy stats, one record per subband in canonical order."""
    _check_bins(bins)
    merged = []
    for energy_stat, entropy_stat in zip(
        subband_energy(subbands), subband_entropy(subbands, bins)
    ):
        merged.append(
            SubbandStats(
                key=energy_stat.key,
                energy=energy_stat.energy,
                energy_fraction=energy_stat.energy_fraction,
                entropy_bits=entropy_stat.entropy_bits,
                degenerate=energy_stat.degenerate,
            )
        )
    return merged


def analyze_pyramid(pyramid, bins: int = DEFAULT_BINS) -> list[dict]:
    """Flat JSON-ready records for all three pyramid levels."""
    records = []
    for level, subbands in (
        (1, pyramid.level1),
        (2, pyramid.level2),
        (3, pyramid.level3),
    ):
        for stat in analyze_level(subbands, bins):
            records.append(
                {
                    "level": level,
                    "key": stat.key,
                    "energy": stat.energy,
                    "energy_fraction": stat.energy_fraction,
                    "entropy_bits": stat.entropy_bits,
                    "degenerate": stat.degenerate,
                }
            )
    return records
