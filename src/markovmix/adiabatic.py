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
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .chains import ChainPair, _chunk, _family, _gate, _interp_stack, _row_tv, _stationary_stack
from .errors import (
    CapExceededError,
    HorizonCapError,
    NumericalBreakdownError,
    OutOfRangeError,
    _check_eps,
    _check_horizon,
    _check_real,
)
from .mixing import PASS_SLACK, _family_tmix

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


# Each pair's pi_t interpolant, built on first use; ChainPair compares by identity.
_INTERPOLANTS: "weakref.WeakKeyDictionary[ChainPair, tuple]" = weakref.WeakKeyDictionary()


def _interpolant(pair: ChainPair) -> tuple:
    """``(nodes, weights, node pis, [P0 | P1])`` of the pair's stationary interpolant, built once per pair.

    Every entry of I - P_t is linear in t, so its diagonal cofactors c(t), which are q(t) pi_t with
    q = sum(c) = det(I - P_t + 1 pi_t) (Markov chain tree theorem; Anantharam & Tsoucas, Stat.
    Probab. Lett. 8, 1989), are polynomials of degree <= n - 1. The nodes are the n Chebyshev-Lobatto
    points of [0, 1], solved in chunks within the stack budget; a weight is the barycentric (-1)^j,
    halved at both ends (Berrut & Trefethen, SIAM Rev. 46, 2004), times q_j, scaled so that the
    largest is 2^-60: q, kept in logs by a batched slogdet, neither overflows nor underflows, and
    no weight over a nonzero t - t_j overflows. A q of sign other than +1 is a breakdown.
    """
    got = _INTERPOLANTS.get(pair)
    if got is None:
        n, j = pair.n, np.arange(pair.n)
        nodes = (1.0 - np.cos(j * np.pi / (n - 1))) / 2.0  # 0 and 1 exactly at the ends
        pis, logq = np.empty((n, n)), np.empty(n)
        # per node: the kernel, the solve's working copy and I - P + 1 pi
        for lo, Ps in _family(pair, nodes, 3 * n * n + 2 * n):
            at = slice(lo, lo + len(Ps))
            pis[at] = _stationary_stack(Ps)
            sign, logq[at] = np.linalg.slogdet(np.eye(n) - Ps + pis[at, None, :])
            if not (sign == 1.0).all():
                i = lo + int(np.argmax(sign != 1.0))
                raise NumericalBreakdownError(
                    f"stationary interpolant, node t={float(nodes[i])!r}: det(I - P + 1 pi) has sign "
                    f"{float(sign[i - lo])!r}; numerical breakdown"
                )
        w = np.where(j % 2, -1.0, 1.0)
        w[[0, -1]] /= 2.0
        W01 = np.hstack([pair.p0.entries, pair.p1.entries])
        got = _INTERPOLANTS[pair] = (nodes, w * np.exp(logq - logq.max()) * 2.0**-60, pis, W01)
    return got


def _stationary_at(pair: ChainPair, ts: np.ndarray) -> np.ndarray:
    """The stationary distributions of P_t for the t of ``ts``, one row each, from the pair's interpolant.

    A row is proportional to sum_j weight_j pi_j / (t - t_j), normalized, and a t on a node is that
    node's row, so t = 0 and t = 1 give pair.pi0 and pair.pi1 bit for bit. The sum is one stacked
    vector-matrix product a row, not one matrix product, so that a row's floats are its own t's
    whatever the other rows: a matrix product's rounding can depend on its row count. Every
    row passes the gate of ``_stationary_stack``, its image pi P_t taken as (1 - t) pi P0 + t pi P1,
    a column of one product with [P0 | P1]^T: only the gate's residuals depend on the row count.
    """
    nodes, weights, node_pis, W01 = _interpolant(pair)
    W, n = ts[:, None] - nodes, pair.n
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(weights, W, out=W)  # a weight is at most 2^-60, so only t = t_j is not finite
    on, node = np.nonzero(~np.isfinite(W))
    W[on] = 0.0
    W[on, node] = 1.0  # a row on a node takes that node's row alone
    pis = np.matmul(W[:, None, :], node_pis)[:, 0, :]
    pis /= pis.sum(axis=1, keepdims=True)
    Y = W01.T @ pis.T
    Y[:n] *= 1.0 - ts
    Y[n:] *= ts
    residual = np.abs(Y[:n] + Y[n:] - pis.T).sum(axis=0)
    pis = _gate(pis, residual, lambda i: f"stationary interpolant at t={float(ts[i])!r}")
    pis[on] = node_pis[node]
    return pis


def _grid_max_tv(pair: ChainPair, delta: float, points: int) -> float:
    """Max TV between pi_s and pi_0 over a uniform grid of ``points`` s on [0, delta]."""
    ss = np.linspace(0.0, delta, points)
    step = _chunk(10 * pair.n)  # per s: the evaluation's rows, its [P0 | P1] image and pi_s
    return max(
        float(_row_tv(_stationary_at(pair, ss[lo : lo + step]), pair.pi0.mass).max())
        for lo in range(0, len(ss), step)
    )


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
    saves once n^2 > 512, where K = 1 and the corridor builds no kernel at all
    (see ``_corridor_stream``); isqrt(T) keeps many blocks a chunk, and 64 caps
    K near sqrt(C / 2), where a chunk's C / K carries balance its 2K steps.
    """
    return max(1, min(1024 // (n * n), 64, math.isqrt(T)))


def _corridor_stream(pair: ChainPair, T: int, first: int = 1):
    """Yield ``(k, mus, targets, gaps)`` per chunk: rows of the corridor at horizon T from step k.

    At K = 1 mu takes the stable scan's step, written out in both loops (a
    shared function cost 10% of a step): one product with [P0 | P1] mixed as
    (1 - t) mu P0 + t mu P1 and rescaled, and no kernel is built. A chunk
    holds as many steps as fit about 8n floats each. At K > 1 it is a blocked
    two-pass scan (Blelloch, CMU-CS-90-190) over blocks of K steps aligned to
    multiples of K. Per chunk of whole blocks it forms each block's product
    P_{bK+1} ... P_{bK+K} in K - 1 batched matmuls, carries mu across the
    block ends one block at a time, and advances the interior steps of all
    blocks in K - 1 batched steps. A block's floats come from its own rows,
    so no result depends on the chunking. mu crosses every block end from
    step 1, but the targets (rows of ``_stationary_at``), the interior steps
    and the gaps start at step ``first`` (its block, for the steps), so
    chunks wholly before it yield nothing. Kernels and t values go chunk by
    chunk: memory is O(chunk n^2) whatever the horizon.
    """
    n = pair.n
    K = _block_steps(n, T)
    mu, W01 = np.array(pair.pi0.mass), _interpolant(pair)[3]
    # per step: at K = 1 mu, target, the target's evaluation rows and its 2n image; at K > 1
    # the kernel, two n x n of room that the block products use at most, then mu, target and
    # t, and the target's evaluation rows
    size = _chunk(8 * n) if K == 1 else max(1, _chunk(3 * n * n + 4 * n) // K) * K
    for lo in range(0, T, size):
        ks = np.arange(lo + 1, min(T, lo + size) + 1)
        mus, skip = np.empty((len(ks), n)), max(0, first - 1 - lo)
        if K == 1:
            for i, t in enumerate((ks / T).tolist()):
                Y = mu @ W01  # [mu P0 | mu P1]
                mu = (1 - t) * Y[:n] + t * Y[n:]
                mu /= mu.sum()
                mus[i] = mu
        else:
            # each full block's product, then mu carried across the block ends
            Ps = _interp_stack(pair, ks / T)
            full = len(Ps) // K
            Q = Ps[: full * K : K]
            for j in range(1, K):
                Q = np.matmul(Q, Ps[j : full * K : K])
            start = mu
            for b in range(full):
                mu = mu @ Q[b]
                mu /= mu.sum()
                mus[b * K + K - 1] = mu
        if skip >= len(ks):
            continue
        # every block's interior steps at once, each from its block's start, from first's block on
        if K > 1:
            b0 = skip // K
            cur = np.vstack([start, mus[K - 1 : -1 : K]])[b0:]
            for j in range(1, K):
                Pj = Ps[b0 * K + j - 1 :: K]
                cur = np.matmul(cur[: len(Pj), None, :], Pj)[:, 0, :]
                cur /= cur.sum(axis=1, keepdims=True)
                mus[b0 * K + j - 1 :: K] = cur
        pis = _stationary_at(pair, ks[skip:] / T)
        yield lo + skip + 1, mus[skip:], pis, _row_tv(mus[skip:], pis)


def corridor(pair: ChainPair, T: int) -> Corridor:
    """The full corridor at horizon T, collected from ``_corridor_stream``: memory O(chunk n^2 + T n)."""
    T = _check_horizon(T)
    for k, *rows in _corridor_stream(pair, T):
        if k == 1:
            # after the first chunk's targets, so that a one-chunk corridor peaks no higher
            out = [np.empty((T, pair.n)), np.empty((T, pair.n)), np.empty(T)]
        for whole, part in zip(out, rows):
            whole[k - 1 : k - 1 + len(part)] = part
    return Corridor(T, *out)


def _corridor_worst(pair: ChainPair, T: int) -> tuple[int, float]:
    """``corridor(pair, T).worst`` bit for bit, reduced chunk by chunk: memory O(chunk n^2)."""
    worst = (0, -math.inf)
    for k, *_, gaps in _corridor_stream(pair, T):
        i = int(np.argmax(gaps))  # the first NaN, or else the first max, as np.argmax over all gaps
        if not (worst[1] >= gaps[i] or math.isnan(worst[1])):
            worst = (k + i, float(gaps[i]))
    return worst


def adiabatic_distance(pair: ChainPair, T: int) -> float:
    """Worst-start TV gap of the full schedule P_0 P_{1/T} ... P_1 to pi_1.

    The maximum over starting distributions is attained at a Dirac start,
    so this is the max over rows of the (T + 1)-factor product.
    """
    return float(_adiabatic_gaps(pair, [_check_horizon(T)])[0])


def _suffix_products(pair: ChainPair, Ts: np.ndarray):
    """Yield ``(j, Q)`` for j = 0..Ts[-1]: Q_j = P_{(T-j)/T} ... P_1 for each T >= j of the ascending ``Ts``.

    PROP1's one product order: one batched Q <- P_{(T-j)/T} Q a step from a tiled P_1, over the live
    horizons, the last len(Q) of ``Ts``. At j = T a row is the whole product P_0 P_{1/T} ... P_1.
    """
    Q, Tl = np.tile(pair.p1.entries, (len(Ts), 1, 1)), Ts.tolist()
    for j in range(Tl[-1] + 1):
        live = Ts[bisect_left(Tl, j) :]  # the horizons below j leave from the front
        Q = np.matmul(_interp_stack(pair, (live - j) / live), Q[-len(live) :]) if j else Q
        yield j, Q


def _adiabatic_gaps(pair: ChainPair, Ts) -> np.ndarray:
    """``adiabatic_distance(pair, T)`` for every T in the ascending ``Ts``: the row TV to pi1 of Q_T.

    The head's reading of ``_suffix_products``. A row's floats are its horizon's alone, so every gap
    equals a scan of that horizon bit for bit; horizons go in chunks within the stack budget.
    """
    Ts, gaps = np.asarray(Ts, dtype=np.int64), np.empty(len(Ts))
    chunk = _chunk(3 * pair.n * pair.n + 4)  # per horizon: Q, its successor, the kernel and t
    for lo in range(0, len(Ts), chunk):
        Tl = Ts[lo : lo + chunk].tolist()
        for j, Q in _suffix_products(pair, Ts[lo : lo + chunk]):
            first, end = len(Tl) - len(Q), bisect_right(Tl, j)  # Q holds Tl[first:]; T = j lead
            if end > first:
                gaps[lo + first : lo + end] = _row_tv(Q[: end - first], pair.pi1.mass).max(axis=1)
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


def _suffix_start(pair: ChainPair, eps: float, m: int, horizon: int) -> int:
    """Least rung S of a ladder from the horizon H down that certifies [S, H], m = t_mix(P1, eps/2).

    Rungs fall by T -> min(T - 1, floor(19 T / 20)). A rung lo below hi reads Q_j of
    ``_suffix_products`` for j <= min(2 m, lo). Over T in [lo, hi], factor i from the end moves
    by at most i L (1/lo - 1/hi) in row TV, L = max row TV(P0, P1), so a j with row TV(Q_j, pi1)
    + L j (j + 1) / 2 (1/lo - 1/hi) within eps less the radius certifies [lo, hi].
    """
    # Radius: against exact products of the same float kernels, each factor of the one order adds
    # _step_radius(n) (n u the product, 2u the kernel's rounding, which also bounds its rows' stray
    # from stochastic), and the head's Q_T and a rung's Q_j have at most H + 1 factors.
    room = eps - 2 * (horizon + 1) * _step_radius(pair.n)  # L, drift and row TV roundings: PASS_SLACK
    L = float(_row_tv(pair.p0.entries, pair.p1.entries).max())
    ladder = [horizon]
    while ladder[-1] > 1:
        ladder.append(min(ladder[-1] - 1, ladder[-1] * 19 // 20))
    chunk = _chunk(3 * pair.n * pair.n + 4)  # per rung, as per horizon in _adiabatic_gaps
    for c in range(1, len(ladder), chunk):
        rungs = np.array(ladder[c - 1 : c + chunk][::-1])  # ascending, as the scan takes horizons
        lo, hi, best = rungs[:-1], rungs[1:], np.full(len(rungs) - 1, np.inf)
        for j, Q in _suffix_products(pair, lo):
            k = len(lo) - len(Q)  # the rungs with lo >= j are lo[k:]
            drift = L * (j + 1) * j / 2.0 * (1.0 / lo[k:] - 1.0 / hi[k:])
            np.minimum(best[k:], _row_tv(Q, pair.pi1.mass).max(axis=1) + drift, out=best[k:])
            if (best <= room).all() or j == 2 * m:  # best only falls; j stops at min(2 m, lo)
                break
        if not (best <= room).all():  # written so that a NaN bound certifies nothing
            return int(hi[np.flatnonzero(~(best <= room))[-1]])
    return ladder[-1]


def adiabatic_time(
    pair: ChainPair, eps: float, horizon_cap: int = DEFAULT_HORIZON_CAP
) -> AdiabaticResult:
    """Adiabatic time of the pair at eps, certified up to the PROP1 horizon H.

    gap(T) is at most the worst row TV to pi1 of Q_j, the last j + 1 of its T + 1 factors (Dirac-start
    convexity). Both layers read Q_j in one order, from ``_suffix_products``: a ladder of suffix
    certificates (``_suffix_start``) certifies S..H in at most 2 t_mix(P1, eps/2) batched steps, and
    the head 1..S reads each whole Q_T. A failure at S, which the ladder covers, is a breakdown.
    """
    _check_eps(eps)
    horizon_cap = _check_horizon(horizon_cap, "horizon_cap")
    m = _family_tmix(pair, [1.0], [eps / 2])[0][0]  # t_mix(P1, eps/2): P1 is the family at s = 1
    horizon = ceil_int(2.0 * m * m / eps)
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


def _check_from(T: int, k: int, back: int) -> float:
    """The next gate, (k - back) / T: T the largest drop, at k; back the stride if k was the first check."""
    return (k - back) / T


def stable_adiabatic_time(
    pair: ChainPair, eps: float, cap: int = DEFAULT_STABLE_CAP
) -> StableAdiabaticResult:
    """Upward scan for the stable adiabatic time.

    The definition takes a plain infimum over T (no requirement on larger
    T), and corridor feasibility is not known to be monotone in T, so every T
    below the answer is shown to fail. Horizons go in blocks, about half as many as
    already scanned and at least 32, within the stack budget. A block's live mu are
    the columns of an (n, L) array M, stepped k by k as Y = [P0 | P1]^T M,
    (1 - t) mu P0 + t mu P1 with t = k / T. The scan is a filter: a block of horizons
    lo..H checks them at the multiples k of max(1, H // 64) from k = s lo on. Only
    there are targets evaluated, rows of the pair's interpolant (``_stationary_at``)
    and the floats of :func:`corridor`, with no kernel built, and a horizon (a column)
    dropped at a gap that reaches eps by more than (k + 1) (3 (n + 2) + 4) u, the most
    that the two mu can round apart. The gate s (``_check_from``) is the k / T of the
    last block's largest dropped T, 0 in the first block, less one stride if T dropped
    at its block's first check: it failed wherever checking began, and s would climb a
    stride a block past the next horizons' failures. A horizon that survives its checks
    is decided by its reference corridor's worst step, reduced chunk by chunk
    (``_corridor_worst``), so the strict comparison ``gap < eps`` is exact. It runs at
    k = T, or early for the smallest live T at a check that drops nothing more than two
    strides past r T, r the block's largest k / T of a drop: a pass is returned, as
    every smaller T has failed, and a failure drops T and ends early references in the
    block. Neither rule decides a horizon, so t_sad, worst_k and worst_gap cannot move.

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
    # A scan step (1 - t) mu P0 + t mu P1 is mu P^_t, P^_t the rounded kernel, up to
    # n u (the products), 2u (scale and add), 2u (P^_t's own rounding) and 2u
    # (rescale), _step_radius(n) + 4u. At K > 1 corridor's mu passes through
    # k + ceil(k/K) <= 2k products with the kernels P^_t, each adding _step_radius(n),
    # and (k + 1) margin covers both; at K = 1 it takes the same step formula on rows, other
    # floats within the same bound, and (k + 1) (3 (n + 2) + 4) u covers their 2k ((n + 2) + 4) u.
    margin = 3 * _step_radius(n) + 4 * 2.0**-53
    Wt = _interpolant(pair)[3].T  # Wt @ M stacks the columns mu P0 over mu P1
    trace: list[tuple[int, float]] = []
    lo, drop = 1, (1, 0, 0)  # (T, k, back) of the last block's largest drop; none yet
    while lo <= cap:
        # reach: the block's largest k / T of a drop, 0 before one, inf after a failed early reference
        gate, drop, reach, first = _check_from(*drop), (1, 0, 0), 0.0, True
        size = min(max(32, (lo - 1) // 2), _chunk(3 * n * n + 4 * n), cap - lo + 1)
        live = np.arange(lo, lo + size)  # the live horizons, ascending
        stride = max(1, (lo + size - 1) // _STABLE_CHECKS)
        M = np.tile(pair.pi0.mass[:, None], size)  # column j is the mu of horizon live[j]
        for k in range(1, lo + size):
            ts = k / live
            Y = Wt @ M
            Y[:n] *= 1 - ts
            Y[n:] *= ts
            M = Y[:n] + Y[n:]
            M /= M.sum(axis=0)
            early = False
            if k % stride == 0 and k >= gate * lo:
                gaps = _row_tv(M.T, _stationary_at(pair, ts))
                out = gaps >= eps + (k + 1) * margin
                gone = live[out].tolist()
                trace.extend(zip(gone, gaps[out].tolist()))
                if gone:
                    drop = max(drop, (gone[-1], k, stride if first else 0))
                    reach = max(reach, k / gone[0])
                first, early = False, not gone and reach and k > reach * live[0] + 2 * stride
                live, M = live[~out], M[:, ~out]
            if live.size and (live[0] == k or early):
                T = int(live[0])
                k_worst, gap = _corridor_worst(pair, T)
                if gap < eps:
                    return StableAdiabaticResult(t_sad=T, eps=eps, worst_k=k_worst, worst_gap=gap)
                trace.append((T, gap))
                live, M, reach = live[1:], M[:, 1:], math.inf if T > k else reach
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
    evaluated, and only the tail is kept: memory is O(chunk n^2 + T - k_min).
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
