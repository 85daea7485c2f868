"""Contrast-scaling value transforms (Section 3.2).

The paper names three typical approaches for scaling point values "in
order to fully utilize the complete range of values in V": linear contrast
stretch, histogram equalization, and Gaussian stretch (citing Mather's
*Computer Processing of Remotely-Sensed Images*). These are the array-level
implementations; :mod:`repro.operators.value_transform` wraps them as
frame-buffered stream operators.

Everything is numpy-only; the inverse error function needed by the
Gaussian stretch is implemented here (Winitzki's approximation refined by
Newton steps on a vectorized erf).
"""

from __future__ import annotations

import numpy as np

from ..errors import OperatorError

__all__ = [
    "linear_stretch",
    "histogram_equalize",
    "gaussian_stretch",
    "erf",
    "erfinv",
]


def linear_stretch(
    values: np.ndarray,
    in_lo: float,
    in_hi: float,
    out_lo: float = 0.0,
    out_hi: float = 255.0,
) -> np.ndarray:
    """Affine map of [in_lo, in_hi] onto [out_lo, out_hi], clipping outside."""
    values = np.asarray(values, dtype=float)
    if in_hi <= in_lo:
        # A constant frame stretches to the middle of the output range.
        return np.full(values.shape, (out_lo + out_hi) / 2.0)
    scaled = (values - in_lo) / (in_hi - in_lo)
    return out_lo + np.clip(scaled, 0.0, 1.0) * (out_hi - out_lo)


def histogram_equalize(
    values: np.ndarray,
    bins: int = 256,
    out_lo: float = 0.0,
    out_hi: float = 255.0,
) -> np.ndarray:
    """Map values through their empirical CDF so the output is ~uniform."""
    values = np.asarray(values, dtype=float)
    finite_mask = np.isfinite(values)
    finite = values[finite_mask]
    if finite.size == 0:
        raise OperatorError("cannot equalize an all-NaN array")
    lo, hi = float(np.min(finite)), float(np.max(finite))
    if hi <= lo:
        return np.full(values.shape, (out_lo + out_hi) / 2.0)
    counts, edges = np.histogram(finite, bins=bins, range=(lo, hi))
    cdf = np.cumsum(counts).astype(float)
    cdf /= cdf[-1]
    safe = np.where(finite_mask, values, lo)
    idx = np.clip(((safe - lo) / (hi - lo) * bins).astype(np.int64), 0, bins - 1)
    out = out_lo + cdf[idx] * (out_hi - out_lo)
    out[~finite_mask] = np.nan
    return out


def erf(x: np.ndarray | float) -> np.ndarray:
    """Vectorized error function (Abramowitz & Stegun 7.1.26, |err| < 1.5e-7)."""
    x = np.asarray(x, dtype=float)
    sign = np.sign(x)
    ax = np.abs(x)
    t = 1.0 / (1.0 + 0.3275911 * ax)
    poly = t * (
        0.254829592
        + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429)))
    )
    return sign * (1.0 - poly * np.exp(-ax * ax))


def erfinv(y: np.ndarray | float) -> np.ndarray:
    """Vectorized inverse error function on (-1, 1).

    Winitzki's initial approximation refined with two Newton iterations
    against :func:`erf`; accurate to ~1e-7 over (-0.9999, 0.9999).
    """
    y = np.asarray(y, dtype=float)
    if np.any(np.abs(y[np.isfinite(y)]) >= 1.0):
        raise OperatorError("erfinv domain is the open interval (-1, 1)")
    a = 0.147
    ln1my2 = np.log(np.maximum(1.0 - y * y, 1e-300))
    term = 2.0 / (np.pi * a) + ln1my2 / 2.0
    x = np.sign(y) * np.sqrt(np.maximum(np.sqrt(term * term - ln1my2 / a) - term, 0.0))
    # Newton refinement: f(x) = erf(x) - y, f'(x) = 2/sqrt(pi) * exp(-x^2).
    two_over_sqrt_pi = 2.0 / np.sqrt(np.pi)
    for _ in range(2):
        err = erf(x) - y
        x = x - err / (two_over_sqrt_pi * np.exp(-x * x))
    return x


def gaussian_stretch(
    values: np.ndarray,
    out_lo: float = 0.0,
    out_hi: float = 255.0,
    clip_sigma: float = 3.0,
) -> np.ndarray:
    """Rank-map values so the output histogram is approximately Gaussian.

    Each value's empirical quantile q is sent to the normal quantile
    ``sqrt(2) * erfinv(2q - 1)``, then the +/- ``clip_sigma`` range is
    scaled onto [out_lo, out_hi].
    """
    values = np.asarray(values, dtype=float)
    finite_mask = np.isfinite(values)
    finite = values[finite_mask]
    if finite.size == 0:
        raise OperatorError("cannot stretch an all-NaN array")
    order = np.argsort(finite, kind="stable")
    ranks = np.empty(finite.size, dtype=float)
    ranks[order] = np.arange(1, finite.size + 1)
    q = ranks / (finite.size + 1.0)  # strictly inside (0, 1)
    z = np.sqrt(2.0) * erfinv(2.0 * q - 1.0)
    z = np.clip(z, -clip_sigma, clip_sigma)
    scaled = out_lo + (z + clip_sigma) / (2.0 * clip_sigma) * (out_hi - out_lo)
    out = np.full(values.shape, np.nan)
    out[finite_mask] = scaled
    return out
