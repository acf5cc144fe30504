"""Exception types shared across the package, and the eps and horizon rules that raise them."""

import math
import numbers


class ChainError(Exception):
    """Base class for every error this package raises on purpose."""


class NotSquareError(ChainError):
    """Raw matrix is not square or has fewer than two states."""


class NonFiniteError(ChainError):
    """An entry is NaN or infinite."""


class NegativeEntryError(ChainError):
    """An entry is more negative than the validation tolerance allows."""


class RowSumError(ChainError):
    """A row sum deviates from 1 by more than the validation tolerance."""


class DimensionMismatchError(ChainError):
    """Operands have incompatible state counts."""


class OutOfRangeError(ChainError):
    """A scalar parameter lies outside its documented domain."""


class NotErgodicError(ChainError):
    """The chain is not irreducible and aperiodic."""


class NumericalBreakdownError(ChainError):
    """Floating point results broke a property that holds in exact arithmetic."""


class RankDefectError(ChainError):
    """I - P has a number of numerically-zero singular values other than one."""


class NonPositiveEpsError(ChainError):
    """Epsilon must be strictly positive."""


def _check_eps(eps: float) -> None:
    """The one eps rule: a real number, finite and strictly positive."""
    if not math.isfinite(_check_real(eps, "eps")):
        raise NonFiniteError(f"eps must be finite, got {eps!r}")
    if eps <= 0.0:
        raise NonPositiveEpsError(f"eps must be > 0, got {eps!r}")


def _check_real(x, name: str):
    """The one real-number rule, for eps, t and delta: a ``numbers.Real``, not a bool; returns it."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise OutOfRangeError(f"{name} must be a real number, got {x!r}")
    return x


def _check_horizon(T, name: str = "T", low: int = 1) -> int:
    """The one integer rule, for horizons, caps, m and counts: an int >= low; no bool, no float."""
    if isinstance(T, bool) or not isinstance(T, numbers.Integral):
        raise OutOfRangeError(f"{name} must be an integer >= {low}, got {T!r}")
    if T < low:
        raise OutOfRangeError(f"{name} must be >= {low}, got {T}")
    return int(T)


class EpsTooLargeError(ChainError):
    """Epsilon is at or above the 1/sqrt(n) validity threshold."""


class CapExceededError(ChainError):
    """A scan or a horizon hit its cap; the base of every cap error.

    ``trace`` holds a (T, gap) pair for every horizon scanned so far, for
    diagnosis. From the stable adiabatic scan it is sorted by T, and the gap
    is the one that ruled T out, at least eps: the gap at the checked step
    where T was dropped, or the corridor's maximum for a horizon that
    survived to the reference corridor. ``horizon`` is the horizon the scan
    needed, when it was derived before the cap stopped it, and None otherwise.
    """

    def __init__(self, message, trace=None, horizon=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []
        self.horizon = horizon


class IterationCapError(CapExceededError):
    """Mixing-time search exceeded its iteration cap."""


class HorizonCapError(CapExceededError):
    """A derived or requested horizon above its cap; ``horizon`` holds it."""


class BadParamsError(ChainError):
    """Generator parameters or input files outside their allowed ranges."""
