"""Validated stochastic matrices, distributions, and their basic operations.

Conventions used throughout the package:

* matrices are row stochastic and act on row vectors from the right,
  so one step of the chain is ``nu @ P``;
* a chain pair ``(P0, P1)`` defines the interpolated family
  ``P_t = (1 - t) P0 + t P1`` for ``t`` in ``[0, 1]``;
* total variation distance is half the l1 distance.

All types are immutable after construction and all operations are pure,
so everything here is safe to call concurrently.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadParamsError,
    DimensionMismatchError,
    NegativeEntryError,
    NonFiniteError,
    NotErgodicError,
    NotSquareError,
    NumericalBreakdownError,
    OutOfRangeError,
    RowSumError,
    _check_real,
)

ROW_SUM_TOLERANCE = 1e-9
DISTRIBUTION_TOLERANCE = 1e-12
STATIONARY_RESIDUAL_TOL = 1e-12

# Byte budget for the working stack of every batched scan, sized to a 2 MiB
# L2 cache. Each caller counts the floats one stacked item needs; a mixing
# scan's four n x n arrays per kernel make three kernels per chunk at
# n = 100 and one from n = 129 up. Chunks that fall out of cache scan slower.
_STACK_BUDGET = 2**20

# Renormalization fixpoint: sums within a few ulp of 1.0 are left untouched,
# which makes validation idempotent (bitwise round trips) even for the rare
# rows where IEEE summation cannot land on 1.0 exactly.
_SUM_FIXPOINT_TOL = 1e-15


def _exact_simplex(vec):
    """Rescale a nonnegative vector, whose sum ``_check_rows`` put near 1, in place to sum 1.0.

    After the division, rounding can leave the sum an ulp or two away from
    1; the drift is folded into the largest entry, which reaches a bit-exact
    sum in almost all cases and always lands within ``_SUM_FIXPOINT_TOL``.
    """
    s = vec.sum()
    if abs(s - 1.0) <= _SUM_FIXPOINT_TOL:
        return vec
    vec /= s
    # after the division the sum is within ~(n+1) ulp of 1; each compensation
    # step lands within ~2 ulp, i.e. inside the fixpoint ball
    for _ in range(8):
        drift = 1.0 - vec.sum()
        if drift == 0.0:
            break
        vec[int(np.argmax(vec))] += drift
    return vec


def _float_array(raw) -> np.ndarray:
    """A new float array of ``raw``; entries that are not numbers, or ragged rows, fail validation."""
    try:
        return np.array(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise BadParamsError(f"expected an array of numbers: {exc}") from None


def _entry(arr: np.ndarray, flat: int) -> str:
    """``entry (i, j) = x`` for a matrix, ``entry i = x`` for a vector, at flat index ``flat``."""
    idx = tuple(int(i) for i in np.unravel_index(flat, arr.shape))
    return f"entry {idx[0] if len(idx) == 1 else idx} = {float(arr[idx])!r}"


def _check_rows(arr: np.ndarray, low: float, tol: float) -> None:
    """The one entry rule: each entry finite and >= ``low``, each row sum within ``tol`` of 1.

    Rows run along the last axis, so a vector is one row. NaN is caught first: it passes every comparison.
    """
    finite = np.isfinite(arr)
    if not finite.all():
        raise NonFiniteError(f"{_entry(arr, int(np.argmin(finite)))} is non-finite")
    if arr.min() < low:
        raise NegativeEntryError(f"{_entry(arr, int(np.argmin(arr)))} is below {low!r}")
    sums = np.atleast_1d(arr.sum(axis=-1))
    off = np.abs(sums - 1.0)
    if off.max() > tol:
        bad = int(np.argmax(off))
        raise RowSumError(f"row {bad} sums to {float(sums[bad])!r}, outside tolerance {tol!r}")


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """A validated row-stochastic n x n matrix (one-step kernel of a chain).

    Every entry is nonnegative and every row sums to 1 within ROW_SUM_TOLERANCE.
    Ingested kernels (:func:`validate_stochastic`) are renormalized to row sums
    of 1.0, bit-exact in almost all cases and always within a couple of ulp;
    interpolants (:func:`interpolate`) are the rounded convex combination.
    """

    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.shape[0] < 2:
            raise NotSquareError(f"expected a square matrix with n >= 2, got shape {e.shape}")
        _check_rows(e, 0.0, ROW_SUM_TOLERANCE)
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability vector on n states."""

    mass: np.ndarray

    def __post_init__(self):
        m = np.array(self.mass, dtype=float)
        if m.ndim != 1 or m.shape[0] < 1:
            raise DimensionMismatchError(f"expected a 1-d vector, got shape {m.shape}")
        _check_rows(m, 0.0, DISTRIBUTION_TOLERANCE)
        m.setflags(write=False)
        object.__setattr__(self, "mass", m)

    @property
    def n(self) -> int:
        return self.mass.shape[0]


@dataclass(frozen=True)
class StructureReport:
    """Connectivity summary of a kernel's transition graph.

    ``period`` is defined only for irreducible chains and is None otherwise;
    ``aperiodic`` is equivalent to ``period == 1``.
    """

    irreducible: bool
    period: int | None
    aperiodic: bool


@dataclass(frozen=True, eq=False)
class ChainPair:
    """A validated (P0, P1) pair defining an interpolated evolution.

    Both kernels must be irreducible and aperiodic, checked once here, and of
    the same dimension; pi0 and pi1 are solved with no second check. For t in
    (0, 1) the interpolants inherit ergodicity: they hold both ends' edges.
    """

    p0: StochasticMatrix
    p1: StochasticMatrix

    def __post_init__(self):
        if self.p0.n != self.p1.n:
            raise DimensionMismatchError(
                f"P0 has {self.p0.n} states but P1 has {self.p1.n}"
            )
        for label, kernel in (("P0", self.p0), ("P1", self.p1)):
            rep = structure(kernel)
            if not (rep.irreducible and rep.aperiodic):
                raise NotErgodicError(f"{label} is not irreducible and aperiodic: {rep}")

    @property
    def n(self) -> int:
        return self.p0.n

    @cached_property
    def pi0(self) -> Distribution:
        return Distribution(_stationary_stack(self.p0.entries[None])[0])

    @cached_property
    def pi1(self) -> Distribution:
        return Distribution(_stationary_stack(self.p1.entries[None])[0])


def validate_stochastic(raw) -> StochasticMatrix:
    """Validate a raw square matrix and renormalize rows to exact sum 1.

    Entries in [-ROW_SUM_TOLERANCE, 0) are clamped to 0. Raises
    :class:`BadParamsError` for entries that are not numbers or rows of
    unequal length, and :class:`NotSquareError`, :class:`NonFiniteError`,
    :class:`NegativeEntryError` or :class:`RowSumError` when the input is
    not within tolerance of a row-stochastic matrix.
    """
    arr = _float_array(raw)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
        raise NotSquareError(f"expected a square matrix with n >= 2, got shape {arr.shape}")
    _check_rows(arr, -ROW_SUM_TOLERANCE, ROW_SUM_TOLERANCE)
    fixed = np.clip(arr, 0.0, None)
    for i in range(fixed.shape[0]):
        _exact_simplex(fixed[i])
    return StochasticMatrix(fixed)


def validate_distribution(raw) -> Distribution:
    """Validate a raw probability vector, renormalizing to exact sum 1."""
    vec = _float_array(raw)
    if vec.ndim != 1 or vec.shape[0] < 1:
        raise DimensionMismatchError(f"expected a 1-d vector, got shape {vec.shape}")
    _check_rows(vec, -DISTRIBUTION_TOLERANCE, DISTRIBUTION_TOLERANCE)
    return Distribution(_exact_simplex(np.clip(vec, 0.0, None, out=vec)))


def _bfs_levels(adj: np.ndarray, start: int) -> np.ndarray:
    """Breadth-first levels from ``start``; unreachable states get -1."""
    n = adj.shape[0]
    level = np.full(n, -1, dtype=int)
    level[start] = 0
    frontier = np.zeros(n, dtype=bool)
    frontier[start] = True
    depth = 0
    while frontier.any():
        depth += 1
        nxt = adj[frontier].any(axis=0) & (level < 0)
        level[nxt] = depth
        frontier = nxt
    return level


def structure(P: StochasticMatrix) -> StructureReport:
    """Irreducibility and period of the directed graph on edges P(i,j) > 0.

    The period is the gcd over all edges (u, v) of level(u) + 1 - level(v),
    where levels come from a breadth-first search rooted at state 0; this
    equals the usual gcd of cycle lengths for strongly connected graphs.
    """
    adj = P.entries > 0.0
    fwd = _bfs_levels(adj, 0)
    if np.any(fwd < 0):
        return StructureReport(False, None, False)
    back = _bfs_levels(adj.T, 0)
    if np.any(back < 0):
        return StructureReport(False, None, False)
    us, vs = np.nonzero(adj)
    period = int(np.gcd.reduce(fwd[us] + 1 - fwd[vs]))
    return StructureReport(True, period, period == 1)


def _chunk(floats: int) -> int:
    """How many items of ``floats`` float64 values each fit the stack budget, at least one."""
    return max(1, _STACK_BUDGET // (8 * floats))


def _interp_stack(pair: ChainPair, ts: np.ndarray) -> np.ndarray:
    """The (len(ts), n, n) stack of raw kernels (1 - t) P0 + t P1."""
    t = ts[:, None, None]
    return (1.0 - t) * pair.p0.entries + t * pair.p1.entries


def interpolate(pair: ChainPair, t: float) -> StochasticMatrix:
    """The convex combination (1 - t) P0 + t P1, built through the constructor, not renormalized.

    It is the kernel the batched scans take from :func:`_interp_stack`, bit for bit.
    """
    if not 0.0 <= _check_real(t, "t") <= 1.0:
        raise OutOfRangeError(f"t = {t!r} is outside [0, 1]")
    return StochasticMatrix(_interp_stack(pair, np.array([t]))[0])


def _stationary_stack(Ps: np.ndarray) -> np.ndarray:
    """Stationary distributions of a (T, n, n) stack of ergodic kernels.

    Solves (I - P^T) pi = 0 with the last equation replaced by sum(pi) = 1
    (the discarded equation is redundant: columns of I - P^T sum to zero),
    batched over the stack, then checks every row by ``_gate``. A singular
    solve, or a row that fails the gate, raises NumericalBreakdownError
    naming the first such stack row.
    """
    T, n, _ = Ps.shape
    # A transposed, in place: I - P (C order, so every (n + 1)-th flat entry is diagonal), last column 1
    At = np.negative(Ps, order="C")
    At.reshape(T, n * n)[:, :: n + 1] += 1.0
    At[:, :, -1] = 1.0
    A = At.transpose(0, 2, 1)
    try:
        pis = np.linalg.solve(A, np.eye(n)[:, -1:])[..., 0]  # e_n, broadcast over the stack
    except np.linalg.LinAlgError as exc:
        # slogdet runs the solve's LU; its sign is 0 where that LU meets an exactly zero pivot
        i = int(np.argmin(np.linalg.slogdet(A)[0] != 0))
        raise NumericalBreakdownError(
            f"stationary solve, stack row {i}: LU solve raised {exc!r}; numerical breakdown"
        ) from None
    residual = np.abs(np.einsum("ti,tij->tj", pis, Ps) - pis).sum(axis=1)
    return _gate(pis, residual, lambda i: f"stationary solve, stack row {i}")


def _gate(pis: np.ndarray, residual: np.ndarray, where) -> np.ndarray:
    """Check candidate stationary rows and their residuals ``l1(pi P - pi)``, then clip at 0 and renormalize.

    A non-finite entry, an entry below -1e-12 or a residual above
    ``STATIONARY_RESIDUAL_TOL`` raises NumericalBreakdownError naming the
    first such row by ``where(i)``, the failed check and its value.
    """
    # a NaN or inf in pi makes its residual NaN or inf, which fails the first test
    if not (residual.max() <= STATIONARY_RESIDUAL_TOL and pis.min() >= -1e-12):
        bad = ~np.isfinite(pis).all(axis=1) | (pis < -1e-12).any(axis=1) | ~(residual <= STATIONARY_RESIDUAL_TOL)
        i = int(np.argmax(bad))
        lowest = float(pis[i].min())
        check = (
            f"entry {lowest!r} is below -1e-12" if lowest < -1e-12 else
            f"residual l1(pi P - pi) = {float(residual[i])!r}, tolerance {STATIONARY_RESIDUAL_TOL!r}"
        )
        raise NumericalBreakdownError(f"{where(i)}: {check}; numerical breakdown")
    np.clip(pis, 0.0, None, out=pis)
    pis /= pis.sum(axis=1, keepdims=True)
    return pis


def _family(pair: ChainPair, ts: np.ndarray, floats: int):
    """Yield ``(lo, kernels)``, the P_t of ``ts[lo : lo + len(kernels)]``, per chunk of ``_chunk(floats)``."""
    size = _chunk(floats)
    for lo in range(0, len(ts), size):
        yield lo, _interp_stack(pair, ts[lo : lo + size])


def stationary(P: StochasticMatrix) -> Distribution:
    """Stationary distribution of an ergodic kernel.

    Raises :class:`NotErgodicError` for a kernel that is not irreducible
    and aperiodic, then solves it as a stack of one; a solve that fails its
    check raises :class:`NumericalBreakdownError` (see :func:`_stationary_stack`).
    """
    rep = structure(P)
    if not (rep.irreducible and rep.aperiodic):
        raise NotErgodicError(f"kernel is not ergodic: {rep}")
    return Distribution(_stationary_stack(P.entries[None])[0])


def _row_tv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Total variation distance between matching rows (the last axis) of ``a`` and ``b``."""
    return 0.5 * np.abs(a - b).sum(axis=-1)


def tv_distance(a: Distribution, b: Distribution) -> float:
    """Total variation distance, half the l1 distance; a value in [0, 1]."""
    if a.n != b.n:
        raise DimensionMismatchError(f"dimensions differ: {a.n} vs {b.n}")
    return float(_row_tv(a.mass, b.mass))

