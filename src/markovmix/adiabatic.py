"""Adiabatic and stable adiabatic times for the interpolated evolution.

Two schedules appear here. The adiabatic distance at horizon T applies the
T + 1 kernels P_0, P_{1/T}, ..., P_1 to an arbitrary start and measures the
worst total variation gap to the final stationary distribution. The
corridor instead starts at the initial stationary distribution, applies
P_{1/T}, ..., P_{k/T}, and tracks the gap to the instantaneous stationary
distribution at every step k; the stable adiabatic time is the first T
whose corridor stays strictly inside the eps tube.

The two schedules deliberately differ in their first factor (P_0 appears
only in the adiabatic distance); the asymmetry is part of the definitions
and is not harmonized here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chains import ChainPair, _chunk, _family, _interp_stack, _row_tv, _stationary_stack
from .errors import (
    CapExceededError,
    HorizonCapError,
    NumericalBreakdownError,
    OutOfRangeError,
    _check_eps,
    _check_horizon,
    _check_real,
)
from .mixing import DEFAULT_MIXING_CAP, PASS_SLACK, _mixing_scans

DEFAULT_STABLE_CAP = 10_000
DEFAULT_CORRIDOR_CAP = 10**5
DEFAULT_HORIZON_CAP = 10**5
# The stable scan checks a block of horizons up to H every max(1, H // _STABLE_CHECKS) steps.
_STABLE_CHECKS = 64


def _step_radius(n: int) -> float:
    """(n + 2) u, the l1 drift of one float step: gamma_n a product (Higham 3.5), 2u the rescale."""
    return (n + 2) * 2.0**-53


def ceil_int(x: float) -> int | float:
    """Ceiling, at least 1, that snaps to the nearest integer within rounding noise.

    Formulas like 2 m^2 / eps are integer-valued for many inputs but land a
    few ulp away in floats; a raw ceil would overshoot by one. A formula that
    is nearly 0 at a huge eps still names a horizon of one step, and one too
    large for a float at a tiny eps stays inf, a horizon above every cap.
    """
    if x == math.inf:
        return x
    r = round(x)
    if abs(x - r) <= 1e-12 * max(1.0, abs(x)):
        return max(1, int(r))
    return max(1, math.ceil(x))


def _horizon_text(h: int | float) -> str:
    """A horizon as printed: exact below 2**53, above that (and inf) the float it came from.

    ``ceil_int`` of a huge float is an exact int whose low digits are float
    noise; its float repr keeps only the digits that mean something.
    """
    return str(h) if h < 2**53 else repr(float(h))


@dataclass(frozen=True, eq=False)
class Corridor:
    """Trajectory of mu_k = pi_0 P_{1/T} ... P_{k/T} against its targets.

    Row k - 1 of ``mus`` holds mu_k, row k - 1 of ``targets`` holds the
    stationary distribution of P_{k/T}, and ``gaps[k - 1]`` their total
    variation distance. Arrays are used instead of per-step objects so that
    horizons in the millions stay cheap.
    """

    T: int
    mus: np.ndarray
    targets: np.ndarray
    gaps: np.ndarray

    def __post_init__(self):
        for name in ("mus", "targets", "gaps"):
            getattr(self, name).setflags(write=False)

    @property
    def max_gap(self) -> float:
        return float(self.gaps.max())

    @property
    def worst(self) -> tuple[int, float]:
        """(k, gap) at the largest gap, smallest such k first."""
        k = int(np.argmax(self.gaps))
        return k + 1, float(self.gaps[k])


def _over(num: float, den: float) -> float:
    """num / den for num > 0 and a den > 0 that may have underflowed to 0, where it is inf."""
    return num / den if den else math.inf


def _block_steps(n: int, T: int) -> int:
    """Steps per corridor block, from n and T alone so that no float depends on the chunk.

    A block product costs 2 n^3 flops a step, more than the Python step it
    saves once n^2 > 512, where K = 1; isqrt(T) keeps many blocks a chunk, and
    64 caps K near sqrt(C / 2), where a chunk's C / K carries balance its 2K steps.
    """
    return max(1, min(1024 // (n * n), 64, math.isqrt(T)))


def _corridor_stream(pair: ChainPair, T: int, first: int = 1):
    """Yield ``(k, mus, targets, gaps)`` per chunk: rows of the corridor at horizon T from step k.

    A blocked two-pass scan (Blelloch, CMU-CS-90-190) over blocks of K steps
    aligned to multiples of K. Per chunk of whole blocks it forms each block's
    product P_{bK+1} ... P_{bK+K} in K - 1 batched matmuls, carries mu across
    the block ends one block at a time, and advances the interior steps of all
    blocks in K - 1 batched steps. A block's floats come from its own rows, so
    no result depends on the chunking; with K = 1 this is the per-step loop.
    mu crosses every block end from step 1, but the stationary solves, the
    interior steps and the gaps start at step ``first`` (its block, for the
    steps), so chunks wholly before it yield nothing. Kernels and t values go
    chunk by chunk: memory is O(chunk n^2) whatever the horizon.
    """
    n = pair.n
    K = _block_steps(n, T)
    mu = np.array(pair.pi0.mass)
    # per step: the kernel and the solve's working copies, which the block
    # products reuse once the solve is done, plus mu, target and t
    for lo, Ps, pis in _family(pair, T, 3 * n * n + 4 * n, block=K, first=first - 1):
        # each full block's product, then mu carried across the block ends
        full = len(Ps) // K
        Q = Ps[: full * K : K]
        for j in range(1, K):
            Q = np.matmul(Q, Ps[j : full * K : K])
        mus, start = np.empty((len(Ps), n)), mu
        for b in range(full):
            mu = mu @ Q[b]
            mu /= mu.sum()
            mus[b * K + K - 1] = mu
        if pis is None:
            continue
        skip = len(Ps) - len(pis)
        # every block's interior steps at once, each from its block's start, from first's block on
        if K > 1:
            b0 = skip // K
            cur = np.vstack([start, mus[K - 1 : -1 : K]])[b0:]
            for j in range(1, K):
                Pj = Ps[b0 * K + j - 1 :: K]
                cur = np.matmul(cur[: len(Pj), None, :], Pj)[:, 0, :]
                cur /= cur.sum(axis=1, keepdims=True)
                mus[b0 * K + j - 1 :: K] = cur
        yield lo + skip + 1, mus[skip:], pis, _row_tv(mus[skip:], pis)


def corridor(pair: ChainPair, T: int) -> Corridor:
    """The full corridor at horizon T, collected from ``_corridor_stream``: memory O(chunk n^2 + T n)."""
    T = _check_horizon(T)
    for k, *rows in _corridor_stream(pair, T):
        if k == 1:
            # after the first solve, so that a one-chunk corridor peaks no higher
            out = [np.empty((T, pair.n)), np.empty((T, pair.n)), np.empty(T)]
        for whole, part in zip(out, rows):
            whole[k - 1 : k - 1 + len(part)] = part
    return Corridor(T, *out)


def adiabatic_distance(pair: ChainPair, T: int) -> float:
    """Worst-start TV gap of the full schedule P_0 P_{1/T} ... P_1 to pi_1.

    The maximum over starting distributions is attained at a Dirac start,
    so this is the max over rows of the (T + 1)-factor product.
    """
    return float(_adiabatic_gaps(pair, [_check_horizon(T)])[0])


def _adiabatic_gaps(pair: ChainPair, Ts) -> np.ndarray:
    """``adiabatic_distance(pair, T)`` for every T in the ascending ``Ts``.

    All horizons advance together: at step k every unfinished horizon T
    multiplies its partial product by its own P_{k/T}, and each keeps its
    own product sequence, so every gap equals a scan of its horizon alone
    bit for bit. Horizons are taken in chunks within the stack budget, so
    memory does not grow with the largest horizon.
    """
    Ts = np.asarray(Ts, dtype=np.int64)
    n = pair.n
    gaps = np.empty(len(Ts))
    # per horizon: the product, its successor and the kernel, plus the t's
    chunk = _chunk(3 * n * n + 4)
    for lo in range(0, len(Ts), chunk):
        hs, out = Ts[lo : lo + chunk], gaps[lo : lo + chunk]
        M = np.tile(pair.p0.entries, (len(hs), 1, 1))
        for k in range(1, int(hs[-1]) + 1):
            M = np.matmul(M, _interp_stack(pair, k / hs))
            # horizons are ascending, so the finished ones leave from the front
            done = int(np.searchsorted(hs, k, side="right"))
            if done:
                out[:done] = _row_tv(M[:done], pair.pi1.mass).max(axis=1)
                hs, out, M = hs[done:], out[done:], M[done:]
    return gaps


@dataclass(frozen=True)
class AdiabaticResult:
    """Least T* from which the adiabatic condition holds up to the horizon.

    ``certified_horizon`` is the PROP1 horizon ceil(2 t_mix(P1, eps/2)^2 / eps),
    and ``tmix_half`` that t_mix. Every T in [1, tail_from] was evaluated, and
    ``per_T_gaps`` holds those gaps; every T in [tail_from, certified_horizon]
    is certified by the suffix ladder (see :func:`adiabatic_time`). ``t_ad`` is
    the least T* with no failure at or beyond it.
    """

    t_ad: int
    eps: float
    tmix_half: int
    certified_horizon: int
    tail_from: int
    per_T_gaps: tuple[tuple[int, float], ...]


def _certified_horizon(pair: ChainPair, eps: float) -> tuple[int, int]:
    """(t_mix(P1, eps/2), ceil(2 t_mix^2 / eps)), the PROP1 horizon, from the pair's pi1."""
    m = _mixing_scans(pair.p1.entries[None], pair.pi1.mass[None], [eps / 2], DEFAULT_MIXING_CAP)[0][0].tmix
    return m, ceil_int(2.0 * m * m / eps)


def _suffix_start(pair: ChainPair, eps: float, m: int, horizon: int) -> int:
    """Least rung S of a ladder from the horizon H down that certifies [S, H], m = t_mix(P1, eps/2).

    Rungs fall by T -> min(T - 1, floor(19 T / 20)). Rung lo below hi advances Q <- P_{(lo-j)/lo} Q
    from P_1 for j <= min(2 m, lo), all rungs in one batched product. Over T in [lo, hi], factor i
    from the end moves by at most i L (1/lo - 1/hi) in row TV, L = max row TV(P0, P1), so a j with
    row TV(Q, pi1) + L j (j + 1) / 2 (1/lo - 1/hi) within eps less the radius certifies [lo, hi].
    """
    # Radius: against exact products of the same float kernels, the head's T + 1 and a
    # suffix's j + 1 factors drift by _step_radius(n) a factor (n u the product, 2u the
    # kernel's rounding, which also bounds its rows' stray from stochastic); T, j <= H,
    # so 2 (H + 1) _step_radius(n) covers both. L, drift and row TV roundings sit in PASS_SLACK.
    room = eps - 2 * (horizon + 1) * _step_radius(pair.n)
    L = float(_row_tv(pair.p0.entries, pair.p1.entries).max())
    ladder = [horizon]
    while ladder[-1] > 1:
        ladder.append(min(ladder[-1] - 1, ladder[-1] * 19 // 20))
    # per rung: the product, its successor and the kernel, plus the t's
    chunk = _chunk(3 * pair.n * pair.n + 4)
    for c in range(1, len(ladder), chunk):
        lo, hi = np.array(ladder[c : c + chunk]), np.array(ladder[c - 1 : c - 1 + chunk])
        Q = np.tile(pair.p1.entries, (len(lo), 1, 1))
        best = _row_tv(Q, pair.pi1.mass).max(axis=1)  # j = 0, no drift
        for j in range(1, min(2 * m, lo[0]) + 1):
            k = int(np.searchsorted(-lo, -j, side="right"))  # the rungs with lo >= j
            Q = np.matmul(_interp_stack(pair, (lo[:k] - j) / lo[:k]), Q[:k])
            drift = L * (j + 1) * j / 2.0 * (1.0 / lo[:k] - 1.0 / hi[:k])
            np.minimum(best[:k], _row_tv(Q, pair.pi1.mass).max(axis=1) + drift, out=best[:k])
        if not (best <= room).all():  # written so that a NaN bound certifies nothing
            return int(hi[np.argmin(best <= room)])
    return ladder[-1]


def adiabatic_time(
    pair: ChainPair, eps: float, horizon_cap: int = DEFAULT_HORIZON_CAP
) -> AdiabaticResult:
    """Adiabatic time of the pair at eps, certified up to the PROP1 horizon H.

    gap(T) is at most the worst row TV to pi1 of the last j + 1 of its T + 1 factors
    (Dirac-start convexity). A ladder of such suffix certificates (``_suffix_start``)
    certifies S..H in at most 2 t_mix(P1, eps/2) batched steps, and the head 1..S is
    scanned exactly. A failure at S, which the ladder covers, is a numerical breakdown.
    """
    _check_eps(eps)
    horizon_cap = _check_horizon(horizon_cap, "horizon_cap")
    m, horizon = _certified_horizon(pair, eps)
    if horizon > horizon_cap:
        raise HorizonCapError(
            f"certified horizon {_horizon_text(horizon)} exceeds cap {horizon_cap}; "
            "raise the cap or relax eps",
            horizon=horizon,
        )

    tail_from = _suffix_start(pair, eps, m, horizon)
    gaps = _adiabatic_gaps(pair, np.arange(1, tail_from + 1))
    # written as a negation so that a NaN gap counts as a failure
    fails = np.flatnonzero(~(gaps <= eps + PASS_SLACK))
    last_fail = int(fails[-1]) + 1 if fails.size else 0
    if last_fail >= tail_from:
        raise NumericalBreakdownError(
            f"condition still failing at the last scanned horizon {tail_from}, "
            "which the bounds certify; numerical breakdown"
        )
    return AdiabaticResult(
        t_ad=last_fail + 1,
        eps=eps,
        tmix_half=m,
        certified_horizon=horizon,
        tail_from=tail_from,
        per_T_gaps=tuple(zip(range(1, tail_from + 1), gaps.tolist())),
    )


@dataclass(frozen=True)
class StableAdiabaticResult:
    """First T whose corridor stays strictly below eps at every step.

    ``worst_k`` and ``worst_gap`` describe the tightest step of that
    corridor. Every T below t_sad had some gap at or above eps.
    """

    t_sad: int
    eps: float
    worst_k: int
    worst_gap: float


def stable_adiabatic_time(
    pair: ChainPair, eps: float, cap: int = DEFAULT_STABLE_CAP
) -> StableAdiabaticResult:
    """Upward scan for the stable adiabatic time.

    The definition takes a plain infimum over T (no requirement on larger
    T), and corridor feasibility is not known to be monotone in T, so every
    T is checked in order. Horizons go in blocks, about half as many as
    already scanned and at least 32, within the stack budget. Every live mu
    of a block advances one step k at a time by one product with [P0 | P1],
    as (1 - t) mu P0 + t mu P1 with t = k / T. The scan is a filter: a block
    whose largest horizon is H checks its live horizons only at the steps k
    that are multiples of max(1, H // 64), about 43 to 64 evenly spaced
    steps per horizon and every step while H is below 128. Only there are
    kernels and targets built, the floats of :func:`corridor`, and a horizon
    dropped at a gap that reaches eps by more than (k + 1) (3 (n + 2) + 4) u,
    the most that the two mu can round apart. A horizon that survives all
    its steps, including one whose failing steps all fall between the
    checks, is decided by the reference ``corridor(pair, T)``, whose worst
    step the result reports, so the strict comparison ``gap < eps`` is
    exact: adding slack would admit gaps equal to eps.

    On :class:`CapExceededError` the trace holds, for every T in ascending
    order, the gap that ruled T out: the gap at the checked step that
    dropped it, or its corridor's maximum if it survived to the reference.
    Either is at least eps.
    """
    _check_eps(eps)
    cap = _check_horizon(cap, "cap")
    n = pair.n
    # Drops are final, so a gap drops T at step k only if corridor's gap is
    # surely >= eps too. Both use the same targets; only mu rounds apart.
    # Corridor's mu passes through k + ceil(k/K) <= 2k products with its rounded
    # kernels P^_t, each adding _step_radius(n). A scan step (1 - t) mu P0 + t mu P1
    # is mu P^_t up to n u (the products), 2u (scale and add), 2u (P^_t's own
    # rounding) and 2u (rescale), _step_radius(n) + 4u: (k + 1) margin covers both.
    margin = 3 * _step_radius(n) + 4 * 2.0**-53
    W = np.hstack([pair.p0.entries, pair.p1.entries])  # mu @ W is [mu P0 | mu P1]
    trace: list[tuple[int, float]] = []
    lo = 1
    while lo <= cap:
        size = min(max(32, (lo - 1) // 2), _chunk(3 * n * n + 4 * n), cap - lo + 1)
        live = np.arange(lo, lo + size)  # the live horizons, ascending
        stride = max(1, (lo + size - 1) // _STABLE_CHECKS)
        mus = np.tile(pair.pi0.mass, (size, 1))
        for k in range(1, lo + size):
            t = (k / live)[:, None]
            Y = mus @ W
            mus = (1 - t) * Y[:, :n] + t * Y[:, n:]
            mus /= mus.sum(axis=1, keepdims=True)
            if k % stride == 0:
                gaps = _row_tv(mus, _stationary_stack(_interp_stack(pair, t[:, 0])))
                out = gaps >= eps + (k + 1) * margin
                trace.extend(zip(live[out].tolist(), gaps[out].tolist()))
                live, mus = live[~out], mus[~out]
            if live.size and live[0] == k:
                k_worst, gap = corridor(pair, k).worst
                if gap < eps:
                    return StableAdiabaticResult(t_sad=k, eps=eps, worst_k=k_worst, worst_gap=gap)
                trace.append((k, gap))
                live, mus = live[1:], mus[1:]
            if not live.size:
                break
        lo += size
    raise CapExceededError(
        f"no T <= {cap} kept the corridor strictly below eps = {eps!r}", trace=sorted(trace)
    )


def prop3_check(pair: ChainPair, T: int) -> tuple[np.ndarray, np.ndarray]:
    """The T corridor gaps and their drift bounds, as two arrays indexed by k - 1.

    The bound at step k is the distance between the instantaneous and
    initial stationary distributions plus the accumulated-drift term
    (k+1)^2 / (2T); a step passes when its gap is at most its bound plus
    ``verify.BOUND_SLACK``.
    """
    cor = corridor(pair, T)
    ks = np.arange(1, T + 1)
    return cor.gaps, _row_tv(cor.targets, pair.pi0.mass) + (ks + 1) ** 2 / (2.0 * T)


def theorem2_check(
    pair: ChainPair, eps: float, delta: float, m: int, corridor_cap: int = DEFAULT_CORRIDOR_CAP
) -> tuple[int, np.ndarray]:
    """The derived horizon T = ceil(2 m^2 / (eps delta)) and the corridor gaps on its tail.

    ``m`` is the sup mixing time at eps / 2, as ``sup_mixing_time`` estimates
    it. ``tail[i]`` is the gap at step k_min + i, with k_min = ceil_int(delta
    T), so the tail covers every k with delta <= k/T <= 1; Theorem 2 bounds
    each by eps, up to ``verify.BOUND_SLACK``. Only the tail's targets are
    solved, and only the tail is kept: memory is O(chunk n^2 + T - k_min).
    """
    _check_eps(eps)
    if not 0.0 < _check_real(delta, "delta") <= 1.0:
        raise OutOfRangeError(f"delta = {delta!r} is outside (0, 1]")
    m = _check_horizon(m, "m")
    corridor_cap = _check_horizon(corridor_cap, "corridor_cap")
    T = ceil_int(_over(2.0 * m * m, eps * delta))
    if T > corridor_cap:
        raise HorizonCapError(
            f"required horizon {_horizon_text(T)} exceeds corridor cap {corridor_cap}", horizon=T
        )
    return T, np.concatenate([gaps for *_, gaps in _corridor_stream(pair, T, ceil_int(delta * T))])


def theorem3_horizon(n: int, eps: float, sup_tmix_half_eps: int) -> int | float:
    """Horizon ceil(4 m^4 / eps^3 + 4 m^2 / eps^2 + 1 / eps) for the full corridor.

    With m the sup mixing time at eps / 2, a corridor at this horizon keeps
    every gap within eps, provided eps < 1/sqrt(n) and the derived radius
    sqrt(eps/T) - 1/T falls inside the continuity radius at eps. At a tiny
    eps or a huge m the horizon is too large for a float, and is inf (hence
    products: a float power that overflows raises).
    """
    _check_horizon(n, "n", 2)
    _check_eps(eps)
    m = float(_check_horizon(sup_tmix_half_eps, "sup_tmix_half_eps"))
    return ceil_int(_over(4.0 * (m * m) * (m * m), eps**3) + _over(4.0 * m * m, eps**2) + 1.0 / eps)
