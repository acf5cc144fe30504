"""Exact mixing times and the sup over the interpolated family.

The mixing time at eps is the least T >= 1 such that every starting
distribution lands within eps of stationarity in total variation after T
steps. The maximum over all starting distributions is attained at a point
mass (the map nu -> tv(nu P^T, pi) is convex on the simplex), so only the
n Dirac starts need checking.
"""

from dataclasses import dataclass

import numpy as np

from .chains import ChainPair, StochasticMatrix, _family, stationary
from .errors import IterationCapError, NumericalBreakdownError, _check_eps, _check_horizon

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

    ``sup_tmix`` is a certified lower estimate of the true sup; every jump
    lies in an interval at most ``grid_resolution`` wide. ``per_s_samples``
    lists every (s, tmix) evaluated, sorted by s.
    """

    sup_tmix: int
    argmax_s: float
    eps: float
    grid_resolution: float
    per_s_samples: tuple[tuple[float, int], ...]


def _mixing_scans(
    Ps: np.ndarray, pis: np.ndarray, eps: float, cap: int, labels=None
) -> list[MixingResult]:
    """Mixing time of each kernel of a (k, n, n) stack against its target in ``pis``.

    Every kernel is powered by repeated multiplication and checked at every
    T in 1..cap, all in lockstep; each keeps its own product sequence, so
    its result is bit-identical to a scan of it alone. A kernel retires at
    its first T with max Dirac-start TV gap within eps. The max gap is
    nonincreasing in T (contraction toward stationarity); a rise beyond
    ``PASS_SLACK`` raises NumericalBreakdownError naming the kernel by its
    entry in ``labels`` (default: its stack position). Callers take their
    stacks in chunks of ``_chunk(4 * n * n)``: four n x n arrays a kernel.
    """
    labels = range(len(Ps)) if labels is None else labels
    results: list = [None] * len(Ps)
    live = np.arange(len(Ps))
    P, pi, M = Ps, pis[:, None, :], Ps.copy()
    # written in place at every step, rather than by chains._row_tv: a fresh
    # n x n array per step would cost more than the arithmetic at large n
    diff, spare = np.empty_like(M), np.empty_like(M)
    prev = np.inf
    for T in range(1, cap + 1):
        gaps = 0.5 * np.abs(np.subtract(M, pi, out=diff), out=diff).sum(axis=2)
        worst = gaps.max(axis=1)
        if (worst > prev + PASS_SLACK).any():
            i = np.flatnonzero(worst > prev + PASS_SLACK)[0]
            raise NumericalBreakdownError(
                f"kernel {labels[live[i]]}: max TV gap increased from "
                f"{float(prev[i])!r} to {float(worst[i])!r} at T={T}; numerical breakdown"
            )
        done = worst <= eps + PASS_SLACK
        if done.any():
            for i in np.flatnonzero(done):
                worst_state = int(np.argmax(gaps[i]))
                results[live[i]] = MixingResult(T, eps, worst_state, float(worst[i]))
            if done.all():
                return results
            keep = ~done
            live, P, pi, M, worst = live[keep], P[keep], pi[keep], M[keep], worst[keep]
            diff, spare = diff[: len(live)], spare[: len(live)]
        prev = worst
        M, spare = np.matmul(M, P, out=spare), M
    raise IterationCapError(f"no T <= {cap} reached eps = {eps!r}")


def mixing_time(P: StochasticMatrix, eps: float, cap: int = DEFAULT_MIXING_CAP) -> MixingResult:
    """Least T >= 1 with max Dirac-start TV gap at most eps, by a scan up to cap."""
    _check_eps(eps)
    cap = _check_horizon(cap, "cap")
    pi = stationary(P).mass  # raises NotErgodicError for a non-ergodic kernel
    return _mixing_scans(P.entries[None], pi[None], eps, cap)[0]


def sup_mixing_time(
    pair: ChainPair, eps: float, grid_points: int = 101, refine_depth: int = 4
) -> SupMixingResult:
    """Max mixing time over a uniform s-grid, refined around every jump.

    Adjacent grid points with different mixing times are bisected until the
    interval width drops below 10^-refine_depth or its midpoint rounds onto
    an end (one ulp wide, from depth 16 on). Ties for the max prefer the
    endpoints s = 0 then s = 1, then the smallest sampled s.
    """
    grid_points = _check_horizon(grid_points, "grid_points", 2)
    refine_depth = _check_horizon(refine_depth, "refine_depth", 0)
    _check_eps(eps)

    samples: dict[float, int] = {}

    def scan(ss: list[float]) -> None:
        for lo, Ps, pis in _family(pair, np.array(ss), 4 * pair.n * pair.n):
            part = ss[lo : lo + len(Ps)]
            found = _mixing_scans(Ps, pis, eps, DEFAULT_MIXING_CAP, [f"s={s!r}" for s in part])
            samples.update(zip(part, (r.tmix for r in found)))

    base = np.linspace(0.0, 1.0, grid_points).tolist()
    scan(base)

    # Bisect every interval whose ends differ, one level at a time; each
    # level's new midpoints are scanned as one stack. A midpoint that rounds
    # onto an end (an interval one ulp wide) splits nothing.
    resolution = 10.0 ** (-refine_depth)
    jumps = [(lo, hi) for lo, hi in zip(base, base[1:]) if samples[lo] != samples[hi]]
    while jumps := [(lo, hi) for lo, hi in jumps if hi - lo > resolution]:
        mids = [0.5 * (lo + hi) for lo, hi in jumps]
        scan([m for m in mids if m not in samples])
        jumps = [
            half
            for (lo, hi), mid in zip(jumps, mids)
            for half in ((lo, mid), (mid, hi))
            if lo < mid < hi and samples[half[0]] != samples[half[1]]
        ]

    sup = max(samples.values())
    if samples[0.0] == sup:
        argmax = 0.0
    elif samples[1.0] == sup:
        argmax = 1.0
    else:
        argmax = min(s for s, t in samples.items() if t == sup)

    ordered = tuple(sorted(samples.items()))
    # the final jump intervals; from depth 16 on one can stop at one ulp, wider than 10^-depth
    widths = [b - a for (a, ta), (b, tb) in zip(ordered, ordered[1:]) if ta != tb]
    return SupMixingResult(
        sup_tmix=sup,
        argmax_s=argmax,
        eps=eps,
        grid_resolution=max([resolution, *widths]) if widths else base[1] - base[0],
        per_s_samples=ordered,
    )
