"""Singular-value analysis of I - P and the closed-form continuity radii.

The smallest nonzero singular value sigma of I - P lower-bounds how slowly
the chain can mix, and controls how far the stationary distribution of the
interpolated family can move for small interpolation parameters. The bound
and the radii take sigma and m as numbers; spectral_summary computes sigma.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chains import StochasticMatrix
from .errors import EpsTooLargeError, OutOfRangeError, RankDefectError, _check_eps, _check_horizon

ZERO_THRESHOLD_FACTOR = 1e-12


@dataclass(frozen=True)
class SpectralSummary:
    """Singular values of I - P, largest first.

    For an ergodic kernel exactly one singular value is numerically zero,
    and ``sigma`` is the smallest nonzero one, i.e. the (n-1)-th largest.
    """

    sigma: float
    singular_values: tuple[float, ...]


def spectral_summary(P: StochasticMatrix) -> SpectralSummary:
    """Dense SVD of I - P with a relative zero cutoff.

    A singular value counts as zero iff it is at most
    ``ZERO_THRESHOLD_FACTOR * n * max_singular_value``. Raises
    :class:`RankDefectError` when the zero count differs from one, which
    signals a non-ergodic kernel or numerical breakdown.
    """
    n = P.n
    svals = np.linalg.svd(np.eye(n) - P.entries, compute_uv=False)
    cutoff = ZERO_THRESHOLD_FACTOR * n * svals[0]
    zeros = int(np.sum(svals <= cutoff))
    if zeros != 1:
        raise RankDefectError(
            f"I - P has {zeros} singular values at or below {cutoff!r}, expected 1"
        )
    return SpectralSummary(
        sigma=float(svals[n - 2]), singular_values=tuple(float(s) for s in svals)
    )


def _check_formula(n: int, eps: float, sigma: float) -> None:
    """The rules for a formula's inputs: n an integer >= 2, eps and sigma finite and > 0."""
    _check_horizon(n, "n", 2)
    _check_eps(eps)
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise OutOfRangeError(f"sigma must be finite and > 0, got {sigma!r}")


def _n_three_halves(n: int) -> float:
    """n^{3/2}, or inf where that float overflows, so that a radius over it is 0.0."""
    try:
        return n**1.5
    except OverflowError:
        return math.inf


def mixing_lower_bound(n: int, eps: float, sigma: float) -> float:
    """Lower bound (1 - 2 sqrt(n) eps) / sigma on the mixing time at eps of an n-state kernel.

    ``sigma`` is the kernel's :func:`spectral_summary` sigma. May be
    nonpositive (vacuous) for large eps; it is informative only when
    eps < 1 / (2 sqrt(n)).
    """
    _check_formula(n, eps, sigma)
    return (1.0 - 2.0 * math.sqrt(n) * eps) / sigma


def continuity_delta(n: int, eps: float, sigma: float) -> float:
    """Radius delta = eps * sigma / (2 n^{3/2}), clamped to [0, 1], with sigma that of P0.

    Guarantee: for every s <= delta the stationary distribution of the
    interpolant P_s stays within eps of that of P0 in total variation.
    """
    _check_formula(n, eps, sigma)
    return min(eps * sigma / (2.0 * _n_three_halves(n)), 1.0)


def cor1_delta(n: int, eps: float, tmix_half_eps: int) -> float:
    """Radius eps (1 - sqrt(n) eps) / (4 n^{3/2} tmix_half_eps), clamped to [0, 1].

    ``tmix_half_eps`` is the sup mixing time of the family at eps / 2.
    Guarantee: for every s <= delta the stationary distribution of P_s stays
    within eps / 2 of that of P0. Requires eps < 1 / sqrt(n).
    """
    _check_horizon(n, "n", 2)
    _check_eps(eps)
    if eps >= 1.0 / math.sqrt(n):
        raise EpsTooLargeError(f"eps = {eps!r} is >= 1/sqrt({n})")
    tmix_half_eps = _check_horizon(tmix_half_eps, "tmix_half_eps")
    delta = eps * (1.0 - math.sqrt(n) * eps) / (4.0 * _n_three_halves(n) * tmix_half_eps)
    return min(delta, 1.0)
