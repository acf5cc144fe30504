"""Singular-value analysis of I - P and the closed-form continuity radii.

The smallest nonzero singular value sigma of I - P lower-bounds how slowly
the chain can mix, and controls how far the stationary distribution of the
interpolated family can move for small interpolation parameters.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chains import StochasticMatrix
from .errors import EpsTooLargeError, RankDefectError, _check_eps

ZERO_THRESHOLD_FACTOR = 1e-12


@dataclass(frozen=True)
class SpectralSummary:
    """Singular values of I - P, largest first.

    For an ergodic kernel exactly one singular value is numerically zero
    (``rank_defect == 1``) and ``sigma`` is the smallest nonzero one, i.e.
    the (n-1)-th largest.
    """

    sigma: float
    singular_values: tuple[float, ...]
    rank_defect: int


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
        sigma=float(svals[n - 2]),
        singular_values=tuple(float(s) for s in svals),
        rank_defect=1,
    )


def mixing_lower_bound(P: StochasticMatrix, eps: float) -> float:
    """Lower bound (1 - 2 sqrt(n) eps) / sigma on the mixing time at eps.

    May be nonpositive (vacuous) for large eps; it is informative only when
    eps < 1 / (2 sqrt(n)).
    """
    _check_eps(eps)
    sigma = spectral_summary(P).sigma
    return (1.0 - 2.0 * math.sqrt(P.n) * eps) / sigma


def continuity_delta(P0: StochasticMatrix, eps: float) -> float:
    """Radius delta = eps * sigma / (2 n^{3/2}), clamped to [0, 1].

    Guarantee: for every s <= delta the stationary distribution of the
    interpolant P_s stays within eps of that of P0 in total variation.
    """
    _check_eps(eps)
    sigma = spectral_summary(P0).sigma
    delta = eps * sigma / (2.0 * P0.n ** 1.5)
    return min(delta, 1.0)


def cor1_delta(n: int, eps: float, tmix_half_eps: int) -> float:
    """Radius eps (1 - sqrt(n) eps) / (4 n^{3/2} tmix_half_eps), clamped to [0, 1].

    ``tmix_half_eps`` is the sup mixing time of the family at eps / 2.
    Guarantee: for every s <= delta the stationary distribution of P_s stays
    within eps / 2 of that of P0. Requires eps < 1 / sqrt(n).
    """
    _check_eps(eps)
    if eps >= 1.0 / math.sqrt(n):
        raise EpsTooLargeError(f"eps = {eps!r} is >= 1/sqrt({n})")
    if tmix_half_eps < 1:
        raise ValueError(f"tmix_half_eps must be >= 1, got {tmix_half_eps!r}")
    delta = eps * (1.0 - math.sqrt(n) * eps) / (4.0 * n ** 1.5 * tmix_half_eps)
    return min(delta, 1.0)
