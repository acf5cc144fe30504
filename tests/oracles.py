"""Independent oracles used to freeze expected values.

Everything here recomputes quantities through a different route than the
library (closed forms, eigendecompositions, binary matrix powering) so the
tests stay meaningful.
"""

import math
from fractions import Fraction

import numpy as np


def two_state_stationary(p: float, q: float) -> np.ndarray:
    """Closed form (q, p) / (p + q) for [[1-p, p], [q, 1-q]]."""
    return np.array([q / (p + q), p / (p + q)])


def two_state_worst_gap(p: float, q: float, T: int) -> float:
    """Worst Dirac-start TV gap after T steps, max(pi) * |1 - p - q|^T."""
    lam = abs(1.0 - p - q)
    return float(two_state_stationary(p, q).max() * lam**T)


def two_state_tmix(p: float, q: float, eps: float, cap: int = 10_000) -> int:
    for T in range(1, cap + 1):
        if two_state_worst_gap(p, q, T) <= eps:
            return T
    raise AssertionError("closed-form mixing time exceeded the cap")


def stationary_eig(P: np.ndarray) -> np.ndarray:
    """Left eigenvector of eigenvalue 1, via a full eigendecomposition."""
    vals, vecs = np.linalg.eig(P.T)
    idx = int(np.argmin(np.abs(vals - 1.0)))
    pi = np.real(vecs[:, idx])
    pi = np.abs(pi)
    return pi / pi.sum()


def lu_stationary(P: np.ndarray) -> np.ndarray:
    """One kernel's bordered LU solve of pi (I - P) = 0 with sum(pi) = 1, clipped at 0 and renormalized."""
    n = P.shape[0]
    A = np.eye(n) - P.T
    A[-1] = 1.0
    pi = np.clip(np.linalg.solve(A, np.eye(n)[-1]), 0.0, None)
    return pi / pi.sum()


def tv(a: np.ndarray, b: np.ndarray) -> float:
    return float(0.5 * np.abs(np.asarray(a) - np.asarray(b)).sum())


def brute_mixing_time(P: np.ndarray, eps: float, cap: int = 10_000) -> int:
    """Mixing time via binary matrix powering, independent of the scan."""
    pi = stationary_eig(P)
    for T in range(1, cap + 1):
        M = np.linalg.matrix_power(P, T)
        if 0.5 * np.abs(M - pi).sum(axis=1).max() <= eps:
            return T
    raise AssertionError("brute-force mixing time exceeded the cap")


def corridor_oracle(P0: np.ndarray, P1: np.ndarray, T: int):
    """Recompute the corridor with eigen-based stationary solves."""
    mu = stationary_eig(P0)
    mus, targets, gaps = [], [], []
    for k in range(1, T + 1):
        t = k / T
        Pt = (1.0 - t) * P0 + t * P1
        mu = mu @ Pt
        target = stationary_eig(Pt)
        mus.append(mu.copy())
        targets.append(target)
        gaps.append(tv(mu, target))
    return np.array(mus), np.array(targets), np.array(gaps)


def adiabatic_distance_reference(pair, T: int) -> float:
    """The single-horizon adiabatic product: one loop of T + 1 two-dimensional products.

    The reference for the batched ``_adiabatic_gaps``, and so for
    ``adiabatic_distance``, which must give the same gap bit for bit: every
    factor is built from the same floats and multiplied in the same order.
    """
    p0, p1 = pair.p0.entries, pair.p1.entries
    M = np.array(p0)
    for k in range(1, T + 1):
        t = k / T
        M = M @ ((1.0 - t) * p0 + t * p1)
    return float((0.5 * np.abs(M - pair.pi1.mass).sum(axis=1)).max())


def adiabatic_distance_oracle(P0: np.ndarray, P1: np.ndarray, T: int) -> float:
    M = P0.copy()
    for k in range(1, T + 1):
        t = k / T
        M = M @ ((1.0 - t) * P0 + t * P1)
    pi1 = stationary_eig(P1)
    return float(0.5 * np.abs(M - pi1).sum(axis=1).max())


def period_oracle(adj: np.ndarray) -> int:
    """Period at state 0: the gcd of all k <= 3n with (A^k)_00 > 0.

    Boolean matrix powers, independent of any search. Lengths up to 3n
    suffice: inserting a simple cycle (length <= n) into a closed walk
    through 0 of length <= 2n - 2 gives one of length <= 3n - 2, so every
    cycle length's contribution to the gcd shows up by then.
    """
    A = np.asarray(adj, dtype=np.int64)
    g, M = 0, A
    for k in range(1, 3 * len(A) + 1):
        if M[0, 0]:
            g = int(np.gcd(g, k))
        M = ((M @ A) > 0).astype(np.int64)
    return g


def strongly_connected(adj: np.ndarray) -> bool:
    """Every state reaches every other, from the boolean power (I + A)^(n-1)."""
    n = len(adj)
    step = np.eye(n, dtype=np.int64) + np.asarray(adj, dtype=np.int64)
    R = np.eye(n, dtype=np.int64)
    for _ in range(n - 1):
        R = ((R @ step) > 0).astype(np.int64)
    return bool(R.all())


def stable_scan_reference(pair, eps: float, cap: int):
    """The per-T stable scan: one full library corridor per horizon, in order.

    The reference for the batched scan in ``stable_adiabatic_time``: it
    returns the same result and raises the same CapExceededError, whose
    trace holds each T's corridor maximum. markovmix is imported here so
    that loading this module alone does not import the library.
    """
    from markovmix import CapExceededError, StableAdiabaticResult, corridor

    trace = []
    for T in range(1, cap + 1):
        k, gap = corridor(pair, T).worst
        trace.append((T, gap))
        if gap < eps:
            return StableAdiabaticResult(t_sad=T, eps=eps, worst_k=k, worst_gap=gap)
    raise CapExceededError(
        f"no T <= {cap} kept the corridor strictly below eps = {eps!r}", trace=trace
    )


def mixing_scan_reference(P: np.ndarray, pi: np.ndarray, eps: float, cap: int):
    """The per-kernel mixing scan: one kernel powered and checked at every T.

    The reference for the batched ``_mixing_scans``, which must give the
    same MixingResult bit for bit and raise the same errors.
    """
    from markovmix import IterationCapError, MixingResult, NumericalBreakdownError
    from markovmix.mixing import PASS_SLACK

    M = np.array(P)
    prev = np.inf
    for T in range(1, cap + 1):
        gaps = 0.5 * np.abs(M - pi).sum(axis=1)
        worst = int(np.argmax(gaps))
        gap = float(gaps[worst])
        if gap > prev + PASS_SLACK:
            raise NumericalBreakdownError(
                f"max TV gap increased from {prev!r} to {gap!r} at T={T}; numerical breakdown"
            )
        if gap <= eps + PASS_SLACK:
            return MixingResult(tmix=T, eps=eps, worst_state=worst, final_gap=gap)
        prev = gap
        M = M @ P
    raise IterationCapError(f"no T <= {cap} reached eps = {eps!r}")


def sup_mixing_reference(pair, eps: float, grid_points: int = 101, refine_depth: int = 4):
    """The one-sample-at-a-time sup mixing time: a stack of one per s, refined depth first.

    The reference for ``sup_mixing_time``, which scans each refinement
    level as one stack and must sample the same s values.
    """
    from markovmix import SupMixingResult
    from markovmix.chains import _interp_stack, _stationary_stack
    from markovmix.mixing import DEFAULT_MIXING_CAP

    def eval_at(s: float) -> int:
        Ps = _interp_stack(pair, np.array([s]))
        return mixing_scan_reference(Ps[0], _stationary_stack(Ps)[0], eps, DEFAULT_MIXING_CAP).tmix

    base = np.linspace(0.0, 1.0, grid_points)
    samples = {float(s): eval_at(float(s)) for s in base}
    resolution = 10.0 ** (-refine_depth)
    stack = [
        (float(base[i]), float(base[i + 1]))
        for i in range(grid_points - 1)
        if samples[float(base[i])] != samples[float(base[i + 1])]
    ]
    refined = bool(stack)
    while stack:
        lo, hi = stack.pop()
        mid = 0.5 * (lo + hi)
        # an interval one ulp wide, whose midpoint rounds onto an end, is not split
        if hi - lo <= resolution or not lo < mid < hi:
            continue
        if mid not in samples:
            samples[mid] = eval_at(mid)
        if samples[mid] != samples[lo]:
            stack.append((lo, mid))
        if samples[mid] != samples[hi]:
            stack.append((mid, hi))

    sup = max(samples.values())
    if samples[0.0] == sup:
        argmax = 0.0
    elif samples[1.0] == sup:
        argmax = 1.0
    else:
        argmax = min(s for s, t in samples.items() if t == sup)
    ordered = tuple(sorted(samples.items()))
    # every jump lies in one of these intervals; one ulp wide ones can exceed 10^-depth
    widths = [b - a for (a, ta), (b, tb) in zip(ordered, ordered[1:]) if ta != tb]
    return SupMixingResult(
        sup_tmix=sup,
        argmax_s=argmax,
        eps=eps,
        grid_resolution=max([resolution, *widths]) if refined else float(base[1] - base[0]),
        per_s_samples=ordered,
    )


def corridor_reference(pair, T: int):
    """The per-step corridor: mu advanced by one vector-matrix product per step k.

    The reference for the blocked scan in ``corridor``, which must agree
    with it within rounding, and bit for bit where its blocks are one step
    long. The targets are the library's, solved chunk by chunk as there.
    """
    from markovmix import Corridor
    from markovmix.chains import _family, _row_tv

    n = pair.n
    mu = np.array(pair.pi0.mass)
    mus, targets = np.empty((T, n)), np.empty((T, n))
    for lo, Ps, pis in _family(pair, T, 3 * n * n + 4 * n):
        targets[lo : lo + len(Ps)] = pis
        for k, P in enumerate(Ps, lo):
            mu = mu @ P
            s = mu.sum()
            if s != 1.0:
                mu /= s
            mus[k] = mu
    return Corridor(T=T, mus=mus, targets=targets, gaps=_row_tv(mus, targets))


def _over_common_denominator(*mats):
    """The float matrices' entries as exact integers over one shared power-of-two denominator."""
    fracs = [[[Fraction(float(x)) for x in row] for row in M] for M in mats]
    D = max(f.denominator for F in fracs for row in F for f in row)
    return [[[int(f * D) for f in row] for row in F] for F in fracs], D


def exact_stationary(P) -> list:
    """pi P = pi with sum(pi) = 1 for a float kernel, by Gauss-Jordan elimination over the rationals."""
    n = len(P)
    F = [[Fraction(float(x)) for x in row] for row in P]
    # equation i < n - 1: sum_j pi_j (P_ji - [i = j]) = 0; the last: sum_j pi_j = 1
    A = [[F[j][i] - (i == j) for j in range(n)] + [Fraction(0)] for i in range(n - 1)]
    A.append([Fraction(1)] * (n + 1))
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        A[col] = [a / A[col][col] for a in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                A[r] = [a - A[r][col] * b for a, b in zip(A[r], A[col])]
    return [A[i][n] for i in range(n)]


def exact_adiabatic_gap(P0, P1, T: int, pi1=None):
    """The adiabatic gap of the float pair at horizon T in exact arithmetic, as a Fraction.

    Every factor P_{k/T} = ((T - k) P0 + k P1) / T is exact, so the product
    P_0 P_{1/T} ... P_1 is an integer matrix over (T D)^(T + 1), with D the
    entries' common denominator; pi1 is :func:`exact_stationary` of P1 unless
    given. Integers keep it fast: about 0.01 s at n = 5 and T = 60.
    """
    (A0, A1), D = _over_common_denominator(P0, P1)
    n = len(A0)
    pi1 = exact_stationary(P1) if pi1 is None else pi1
    M = [[T * x for x in row] for row in A0]
    for k in range(1, T + 1):
        K = [[(T - k) * a + k * b for a, b in zip(r0, r1)] for r0, r1 in zip(A0, A1)]
        M = [[sum(M[i][l] * K[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
    den = (T * D) ** (T + 1)
    return max(sum(abs(Fraction(x, den) - p) for x, p in zip(row, pi1)) for row in M) / 2


def suffix_gaps_reference(pair, T: int, m_max: int) -> np.ndarray:
    """g_m(T) for m = 1..m_max: worst row TV to pi1 of the last m of the T + 1 adiabatic factors.

    One loop of two-dimensional products, Q <- P_{(T-j)/T} Q from Q = P_1;
    the reference for the batched ladder in ``adiabatic._suffix_start``.
    """
    p0, p1, pi1 = pair.p0.entries, pair.p1.entries, pair.pi1.mass
    Q = np.array(p1)
    gaps = [float((0.5 * np.abs(Q - pi1).sum(axis=1)).max())]
    for j in range(1, m_max):
        t = (T - j) / T
        Q = ((1.0 - t) * p0 + t * p1) @ Q
        gaps.append(float((0.5 * np.abs(Q - pi1).sum(axis=1)).max()))
    return np.array(gaps)


def mitrophanov_tail_from(pair, eps: float, mix, horizon: int) -> int:
    """Least T_c <= horizon from which Mitrophanov's bound certifies every T up to the horizon.

    With m = t_mix(P1, eps/2) and d1(m) = ``mix.final_gap``, P1^m's worst gap, the last m of the
    T + 1 factors are within L m (m - 1) / (2 T) of P1^m in row TV (J. Appl. Probab. 42, 2005),
    L the worst row TV between P0 and P1. T_c is the least T >= m - 1, so that m <= T + 1, with
    d1(m) + L m (m - 1) / (2 T) within eps less the ladder's rounding radius. With no room it is
    the horizon.
    """
    from markovmix.adiabatic import _step_radius

    m = mix.tmix
    L = float((0.5 * np.abs(pair.p0.entries - pair.p1.entries).sum(axis=1)).max())
    room = eps - mix.final_gap - 2 * (horizon + 1) * _step_radius(pair.n)
    if room <= 0.0:
        return horizon
    # math.ceil, not a snapping ceiling: snapping down could name an uncertified T
    return min(horizon, max(1, m - 1, math.ceil(L * m * (m - 1) / 2.0 / room)))


def suffix_ladder_reference(pair, eps: float):
    """(S, rungs): the ladder of ``adiabatic._suffix_start`` one rung at a time.

    ``rungs`` lists (lo, hi, bound) from the PROP1 horizon H down to the first rung that
    fails, each lo = min(hi - 1, floor(19 hi / 20)), where bound = min over m of g_m(lo) +
    L m (m - 1) / 2 (1/lo - 1/hi) with m <= min(2 t_mix(P1, eps/2), lo) + 1. S is the hi
    of the failing rung, or 1.
    """
    from markovmix.adiabatic import _certified_horizon, _step_radius

    tmix, H = _certified_horizon(pair, eps)
    room = eps - 2 * (H + 1) * _step_radius(pair.n)
    L = float((0.5 * np.abs(pair.p0.entries - pair.p1.entries).sum(axis=1)).max())
    hi, rungs = H, []
    while hi > 1:
        lo = min(hi - 1, hi * 19 // 20)
        g = suffix_gaps_reference(pair, lo, min(2 * tmix, lo) + 1)
        ms = np.arange(1, len(g) + 1)
        bound = float((g + L * ms * (ms - 1) / 2.0 * (1.0 / lo - 1.0 / hi)).min())
        rungs.append((lo, hi, bound))
        if not bound <= room:
            return hi, rungs
        hi = lo
    return hi, rungs
