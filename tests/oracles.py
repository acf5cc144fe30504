"""Independent oracles used to freeze expected values.

Everything here recomputes quantities through a different route than the
library (closed forms, eigendecompositions, binary matrix powering) so the
tests stay meaningful.
"""

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
