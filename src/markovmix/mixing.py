"""Exact mixing times and the sup over the interpolated family.

The mixing time at eps is the least T >= 1 such that every starting
distribution lands within eps of stationarity in total variation after T
steps. The maximum over all starting distributions is attained at a point
mass (the map nu -> tv(nu P^T, pi) is convex on the simplex), so only the
n Dirac starts need checking.
"""

from dataclasses import dataclass

import numpy as np

from .chains import ChainPair, StochasticMatrix, _interp_stack, _stationary_stack, stationary
from .errors import (
    IterationCapError,
    NumericalBreakdownError,
    OutOfRangeError,
    _check_eps,
)

PASS_SLACK = 1e-12
DEFAULT_MIXING_CAP = 10**6


@dataclass(frozen=True)
class MixingResult:
    """Mixing time of one kernel.

    ``worst_state`` is the Dirac start attaining the max gap at ``tmix``;
    ``final_gap`` is that gap (at most eps, while at tmix - 1 the max gap
    still exceeded eps).
    """

    tmix: int
    eps: float
    worst_state: int
    final_gap: float


@dataclass(frozen=True)
class SupMixingResult:
    """Grid estimate of sup over s in [0, 1] of the mixing time of P_s.

    ``sup_tmix`` is a certified lower estimate of the true sup; the finest
    spacing examined is recorded in ``grid_resolution``. ``per_s_samples``
    lists every (s, tmix) evaluated, sorted by s.
    """

    sup_tmix: int
    argmax_s: float
    eps: float
    grid_resolution: float
    per_s_samples: tuple[tuple[float, int], ...]


def _mixing_scan(P: np.ndarray, pi: np.ndarray, eps: float, cap: int) -> MixingResult:
    """Least T in 1..cap with max Dirac-start TV gap to ``pi`` at most eps.

    Powers the kernel by repeated multiplication, checking every T; the
    max gap is nonincreasing in T (contraction toward stationarity), which
    is asserted along the way, so the first passing T is the infimum.
    """
    M = np.array(P)
    prev = np.inf
    for T in range(1, cap + 1):
        gaps = 0.5 * np.abs(M - pi).sum(axis=1)
        worst = int(np.argmax(gaps))
        gap = float(gaps[worst])
        if gap > prev + PASS_SLACK:
            raise NumericalBreakdownError(
                f"max TV gap increased from {prev!r} to {gap!r} at T={T}; "
                "numerical breakdown"
            )
        if gap <= eps + PASS_SLACK:
            return MixingResult(tmix=T, eps=eps, worst_state=worst, final_gap=gap)
        prev = gap
        M = M @ P
    raise IterationCapError(f"no T <= {cap} reached eps = {eps!r}")


def mixing_time(P: StochasticMatrix, eps: float, cap: int = DEFAULT_MIXING_CAP) -> MixingResult:
    """Least T >= 1 with max Dirac-start TV gap at most eps, by a scan up to cap."""
    _check_eps(eps)
    pi = stationary(P).mass  # raises NotErgodicError for a non-ergodic kernel
    return _mixing_scan(P.entries, pi, eps, cap)


def sup_mixing_time(
    pair: ChainPair, eps: float, grid_points: int = 101, refine_depth: int = 4
) -> SupMixingResult:
    """Max mixing time over a uniform s-grid, refined around every jump.

    Adjacent grid points with different mixing times are bisected until the
    interval width drops below 10^-refine_depth. Ties for the max prefer the
    endpoints s = 0 then s = 1, then the smallest sampled s.
    """
    if grid_points < 2:
        raise OutOfRangeError(f"grid_points must be >= 2, got {grid_points}")
    if refine_depth < 0:
        raise OutOfRangeError(f"refine_depth must be >= 0, got {refine_depth}")
    _check_eps(eps)

    def eval_at(s: float) -> int:
        # the interpolants of an ergodic pair are ergodic (see ChainPair)
        Ps = _interp_stack(pair, np.array([s]))
        return _mixing_scan(Ps[0], _stationary_stack(Ps)[0], eps, DEFAULT_MIXING_CAP).tmix

    base = np.linspace(0.0, 1.0, grid_points)
    samples: dict[float, int] = {float(s): eval_at(float(s)) for s in base}

    resolution = 10.0 ** (-refine_depth)
    stack = [
        (float(base[i]), float(base[i + 1]))
        for i in range(grid_points - 1)
        if samples[float(base[i])] != samples[float(base[i + 1])]
    ]
    refined = bool(stack)
    while stack:
        lo, hi = stack.pop()
        if hi - lo <= resolution:
            continue
        mid = 0.5 * (lo + hi)
        tmid = samples.get(mid)
        if tmid is None:
            tmid = eval_at(mid)
            samples[mid] = tmid
        if tmid != samples[lo]:
            stack.append((lo, mid))
        if tmid != samples[hi]:
            stack.append((mid, hi))

    sup = max(samples.values())
    if samples[0.0] == sup:
        argmax = 0.0
    elif samples[1.0] == sup:
        argmax = 1.0
    else:
        argmax = min(s for s, t in samples.items() if t == sup)

    ordered = tuple(sorted(samples.items()))
    return SupMixingResult(
        sup_tmix=sup,
        argmax_s=argmax,
        eps=eps,
        grid_resolution=resolution if refined else float(base[1] - base[0]),
        per_s_samples=ordered,
    )
