"""Exact mixing times and the sup over the interpolated family.

The mixing time at eps is the least T >= 1 such that every starting
distribution lands within eps of stationarity in total variation after T
steps. The maximum over all starting distributions is attained at a point
mass (the map nu -> tv(nu P^T, pi) is convex on the simplex), so only the
n Dirac starts need checking.
"""

from dataclasses import dataclass

import numpy as np

from .chains import ChainPair, StochasticMatrix, _family, _stationary_stack, stationary
from .errors import IterationCapError, NumericalBreakdownError, _check_eps, _check_horizon

PASS_SLACK = 1e-12
DEFAULT_MIXING_CAP = 10**6
DEFAULT_GRID_POINTS = 101
DEFAULT_REFINE_DEPTH = 4

# Stacks under this many floats (k n^2) evaluate every step in full: a witness row costs what the gap does
_WITNESS_FLOATS = 2**14


def _no_rise_bound(Ps: np.ndarray, pis: np.ndarray, cap: int) -> float:
    """delta with g_T <= g_(T-1) + delta for each row's computed gap in a scan of ``Ps`` to ``cap``, else inf.

    gamma = (n + 1) u / (1 - (n + 1) u); sigma, the largest row l1 norm, and r, the largest l1(pi P - pi)
    plus its product's error gamma sigma, are rounded up by (1 + gamma). A step is fl(x P) = x P + e with
    l1(e) <= gamma sigma l1(x) (Higham 3.5), l1(x P - pi) <= sigma l1(x - pi) + r, and a gap's rounding
    is relative, within gamma. So while l1(x) <= 2, as row masses stay while cap ((1 + gamma) sigma - 1)
    <= 1/2, g <= 1.5 (1 + gamma) and g_T <= (1 + gamma) sigma / (1 - gamma) g_(T-1) + (1 + gamma)(r / 2
    + gamma sigma); 2u more covers ``prev + PASS_SLACK``'s rounding: delta <= PASS_SLACK rules a rise out.
    """
    u, n = 2.0**-53, Ps.shape[-1]
    gamma = (n + 1) * u / (1 - (n + 1) * u)
    sigma = float(np.abs(Ps).sum(axis=2).max()) * (1 + gamma)
    r = (float(np.abs(np.matmul(pis[:, None], Ps)[:, 0] - pis).sum(axis=1).max()) + gamma * sigma) * (1 + gamma)
    if not cap * ((1 + gamma) * sigma - 1) <= 0.5:  # a NaN entry bounds nothing
        return np.inf
    growth = max(0.0, sigma - 1 + gamma * (sigma + 1)) / (1 - gamma)  # (1 + gamma) sigma / (1 - gamma) - 1
    return 1.5 * (1 + gamma) * growth + (1 + gamma) * (r / 2 + gamma * sigma) + 2 * u


@dataclass(frozen=True)
class MixingResult:
    """Mixing time of one kernel.

    ``worst_state`` is the Dirac start attaining the max gap at ``tmix``;
    ``final_gap`` is that gap (at most eps + ``PASS_SLACK``, the scan's
    pass bar, while at tmix - 1 the max gap still exceeded that bar).
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
    Ps: np.ndarray, pis: np.ndarray, eps_values, cap: int, label=str
) -> list[list[MixingResult]]:
    """Mixing times of each kernel of a (k, n, n) stack against its target in ``pis``, at each eps.

    Every kernel is powered by repeated multiplication for T in 1..cap, in
    lockstep; each keeps its own product sequence, so its result is
    bit-identical to a scan of it alone at one eps. The results are one
    (eps x kernel) table, ``results[e][i]`` the first T at which kernel i's
    max Dirac-start TV gap is within ``eps_values[e]``; a kernel retires once
    within the smallest eps. The max gap is nonincreasing in T (contraction
    toward stationarity); a rise beyond ``PASS_SLACK`` raises
    NumericalBreakdownError naming the kernel by ``label(i)``, i its stack
    position. Its callers: ``mixing_time`` and ``_family_tmix``.

    A step skips the n x n gap if the stack has ``_WITNESS_FLOATS`` floats or more, ``_no_rise_bound``
    rules out the rise check, and each kernel's witness row gap clears its own next bar, the largest it
    is not yet within: no kernel can then newly be within any eps, and its witness gap is its previous one.
    """
    bars = np.array(eps_values)[:, None] + PASS_SLACK  # a column: one row per eps
    margin = 1 + 2 * (Ps.shape[-1] + 1) * 2.0**-53  # two sum orders of one gap agree within gamma_(n-1)
    clear = np.full(len(Ps), bars.max() * margin)  # a witness gap above clear is a full one above its next bar
    results: list = [[None] * len(Ps) for _ in eps_values]
    live, P, pi, M = np.arange(len(Ps)), Ps, pis[:, None, :], Ps.copy()
    # written in place at every step, rather than by chains._row_tv: a fresh
    # n x n array per step would cost more than the arithmetic at large n
    diff, spare = np.empty_like(M), np.empty_like(M)
    prev, no_rise = np.full(len(Ps), np.inf), None if Ps.size >= _WITNESS_FLOATS else False
    for T in range(1, cap + 1):
        if T == 3 and no_rise is None:  # a scan that retires by T = 2 never pays for the bound
            no_rise = _no_rise_bound(Ps, pis, cap) <= PASS_SLACK
        if no_rise:  # each kernel's witness row: the argmax of its last full evaluation
            seen = 0.5 * np.abs(M[np.arange(len(M)), gaps.argmax(axis=1)] - pi[:, 0]).sum(axis=1)
            if (seen > clear).all():  # a NaN fails, and takes the full evaluation
                prev = seen
                M, spare = np.matmul(M, P, out=spare), M
                continue
        gaps = 0.5 * np.abs(np.subtract(M, pi, out=diff), out=diff).sum(axis=2)
        worst = gaps.max(axis=1)
        if not no_rise and (worst > prev + PASS_SLACK).any():
            i = np.flatnonzero(worst > prev + PASS_SLACK)[0]
            raise NumericalBreakdownError(
                f"kernel {label(int(live[i]))}: max TV gap increased from "
                f"{float(prev[i])!r} to {float(worst[i])!r} at T={T}; numerical breakdown"
            )
        within = worst <= bars  # (eps, kernel); at one eps, the only comparison of most steps
        if within.any() and (hit := within & (prev > bars)).any():  # pairs newly within eps
            es, js = np.nonzero(hit)
            states = gaps[js].argmax(axis=1).tolist()
            for e, i, state, gap in zip(es.tolist(), live[js].tolist(), states, worst[js].tolist()):
                if results[e][i] is None:  # a rise within PASS_SLACK can cross a bar twice
                    results[e][i] = MixingResult(T, eps_values[e], state, gap)
            keep = worst > bars.min()  # within the smallest eps is within every eps
            if not keep.any():
                return results
            live, P, pi, M, worst, prev, gaps = (a[keep] for a in (live, P, pi, M, worst, prev, gaps))
            if no_rise is not False:  # each kernel's next bar (bars are positive); only witness steps read it
                clear = np.where(worst > bars, bars, 0.0).max(axis=0) * margin
            diff, spare = diff[: len(live)], spare[: len(live)]
        prev = worst
        M, spare = np.matmul(M, P, out=spare), M
    raise IterationCapError(f"no T <= {cap} reached eps = {min(eps_values)!r}")


def mixing_time(P: StochasticMatrix, eps: float, cap: int = DEFAULT_MIXING_CAP) -> MixingResult:
    """Least T >= 1 with max Dirac-start TV gap at most eps, by a scan up to cap."""
    _check_eps(eps)
    cap = _check_horizon(cap, "cap")
    pi = stationary(P).mass  # raises NotErgodicError for a non-ergodic kernel
    return _mixing_scans(P.entries[None], pi[None], [eps], cap)[0][0]


def _family_tmix(pair: ChainPair, ss: list[float], eps_values) -> list[list[int]]:
    """The mixing time of P_s for every s of ``ss`` at each eps of ``eps_values``, one list per eps.

    The only code that chunks the family for mixing scans, four n x n arrays a kernel, each
    solved directly (at large n, where solves cost most, a scan has fewer kernels than an
    interpolant has nodes) and scanned up to ``DEFAULT_MIXING_CAP``; a breakdown names its
    kernel ``s=<repr of s>``, so ``ss`` holds Python floats.
    """
    found: list = [[] for _ in eps_values]
    for lo, Ps in _family(pair, np.array(ss), 4 * pair.n * pair.n):
        part = ss[lo : lo + len(Ps)]
        pis = _stationary_stack(Ps)
        scans = _mixing_scans(Ps, pis, eps_values, DEFAULT_MIXING_CAP, lambda i: f"s={part[i]!r}")
        for out, results in zip(found, scans):
            out.extend(r.tmix for r in results)
    return found


def sup_mixing_time(
    pair: ChainPair, eps: float, grid_points: int = DEFAULT_GRID_POINTS, refine_depth: int = DEFAULT_REFINE_DEPTH
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
    return _sup_mixing_times(pair, [eps], grid_points, refine_depth)[0]


def _sup_mixing_times(
    pair: ChainPair, eps_values, grid_points: int = DEFAULT_GRID_POINTS, refine_depth: int = DEFAULT_REFINE_DEPTH
) -> list[SupMixingResult]:
    """``sup_mixing_time`` at each eps of ``eps_values``, each stack scanned once for all of them.

    The base grid is one scan, and so are each level's midpoints of every eps;
    each eps keeps only the samples its own bisection visits. A midpoint that
    only a larger eps visits still runs to the smallest, so a cap or a
    breakdown there is raised for the whole call.
    """
    base = np.linspace(0.0, 1.0, grid_points).tolist()
    samples = [dict(zip(base, tmix)) for tmix in _family_tmix(pair, base, eps_values)]

    # Bisect every jump (e, lo, hi), two adjacent samples that differ at the e-th eps, one
    # level at a time, each level's midpoints (eps-major) scanned as one stack. A jump wider
    # than the resolution splits at a midpoint strictly inside, always a new sample; one
    # whose midpoint rounds onto an end (one ulp wide) does not; the first level where none splits ends it.
    resolution = 10.0 ** (-refine_depth)
    jumps = [
        (e, lo, hi) for e, sam in enumerate(samples) for lo, hi in zip(base, base[1:]) if sam[lo] != sam[hi]
    ]
    while splits := [
        (e, lo, mid, hi) for e, lo, hi in jumps if hi - lo > resolution and lo < (mid := 0.5 * (lo + hi)) < hi
    ]:
        ss = list(dict.fromkeys(mid for _, _, mid, _ in splits))
        found = [dict(zip(ss, tmix)) for tmix in _family_tmix(pair, ss, eps_values)]
        for e, _, mid, _ in splits:
            samples[e][mid] = found[e][mid]
        jumps = [
            (e, *half)
            for e, lo, mid, hi in splits
            for half in ((lo, mid), (mid, hi))
            if samples[e][half[0]] != samples[e][half[1]]
        ]

    results = []
    for sam, eps in zip(samples, eps_values):
        sup, ordered = max(sam.values()), tuple(sorted(sam.items()))
        # ties prefer s = 0, then s = 1, then the smallest s
        argmax = next(s for s in (0.0, 1.0, *(s for s, _ in ordered)) if sam[s] == sup)
        # the final jump intervals; from depth 16 on one can stop at one ulp, wider than 10^-depth
        widths = [b - a for (a, ta), (b, tb) in zip(ordered, ordered[1:]) if ta != tb]
        width = max([resolution, *widths]) if widths else base[1] - base[0]
        results.append(SupMixingResult(sup, argmax, eps, width, ordered))
    return results
