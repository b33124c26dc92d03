"""Training-objective components as pure functions.

All absolute-deviation terms are means over elements, so magnitudes are
independent of resolution; the oracles in the test suite use the same
convention. Nothing here differentiates anything: gradient norms for the
adaptive adversarial weight are supplied by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .tensor import VideoTensor


@dataclass(frozen=True)
class LossWeights:
    adv: float = 1.0
    kl: float = 1e-6
    wl: float = 0.1

    def __post_init__(self):
        for name in ("adv", "kl", "wl"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ParameterError(f"weight {name} must be finite and >= 0")


@dataclass(frozen=True)
class LossComponents:
    """Scalar loss terms; adversarial and perceptual values come from outside."""

    recon: float = 0.0
    adv: float = 0.0
    kl: float = 0.0
    wl: float = 0.0
    perceptual: float = 0.0


def _mean_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.mean(np.abs(a.astype(np.float64) - b.astype(np.float64))))


def l1_recon(x: VideoTensor, x_hat: VideoTensor) -> float:
    """Mean absolute difference over all elements."""
    return _mean_abs_diff(x.data, x_hat.data)


def wl_loss(w2_hat, w2, w3_hat, w3) -> float:
    """Energy-flow consistency penalty.

    Sum of the mean absolute deviations between predicted and reference
    subband sets at levels 2 and 3 (L1, matching the ablation finding that L1
    beats L2 here).
    """
    return _mean_abs_diff(w2_hat.stack(), w2.stack()) + _mean_abs_diff(
        w3_hat.stack(), w3.stack()
    )


def kl_divergence(latent) -> float:
    """Closed-form KL against a unit Gaussian, averaged over elements:

    0.5 * mean(mu^2 + exp(logvar) - 1 - logvar)
    """
    mu = latent.mean.data.astype(np.float64)
    logvar = latent.logvar.data.astype(np.float64)
    with np.errstate(over="ignore"):  # an overflow is reported just below
        value = 0.5 * float(np.mean(np.square(mu) + np.exp(logvar) - 1.0 - logvar))
    if not math.isfinite(value):
        raise ParameterError("KL divergence is not finite")
    return value


def adaptive_adv_weight(
    grad_norm_recon: float, grad_norm_adv: float, delta: float = 1e-6
) -> float:
    """Half the ratio of reconstruction to adversarial gradient norms.

    lambda_adv = 0.5 * grad_norm_recon / (grad_norm_adv + delta). The caller
    measures both norms at the decoder's last layer.
    """
    if grad_norm_recon < 0 or grad_norm_adv < 0:
        raise ParameterError("gradient norms must be >= 0")
    if not delta > 0:
        raise ParameterError(f"delta must be > 0, got {delta}")
    return 0.5 * grad_norm_recon / (grad_norm_adv + delta)


def total_loss(components: LossComponents, weights: LossWeights) -> float:
    """Weighted sum: (recon + perceptual) + adv*w + kl*w + wl*w.

    The perceptual term is accepted pre-weighted (it is computed externally;
    no pretrained feature network lives in this package).
    """
    values = (
        components.recon,
        components.adv,
        components.kl,
        components.wl,
        components.perceptual,
    )
    if not all(math.isfinite(v) for v in values):
        raise ParameterError(f"loss components must be finite, got {components}")
    return (
        components.recon
        + components.perceptual
        + weights.adv * components.adv
        + weights.kl * components.kl
        + weights.wl * components.wl
    )
