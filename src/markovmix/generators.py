"""Chain generators for the built-in families.

Every generator returns a validated, irreducible, aperiodic kernel. The
``random_dense`` stream is part of the external contract and is pinned
exactly so regression values survive reimplementation:

* PRNG: numpy PCG64 seeded with ``seed mod 2**64``;
* draw an n x n block of uniforms U in [0, 1) row-major with
  ``Generator.random((n, n))``;
* map entrywise to standard exponentials E = -log1p(-U);
* normalize each row to sum 1 (rows are then Dirichlet(1, ..., 1) samples).
"""

import inspect
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .chains import StochasticMatrix, validate_stochastic
from .errors import BadParamsError


@dataclass(frozen=True)
class GeneratorParams:
    """Family name plus the subset of parameters that family uses."""

    family: str
    n: int | None = None
    p: float | None = None
    q: float | None = None
    alpha: float | None = None
    seed: int | None = None


def _check_prob(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 < value < 1.0:
        raise BadParamsError(f"{name} must lie strictly in (0, 1), got {value!r}")
    return float(value)


def _check_states(n) -> int:
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 2:
        raise BadParamsError(f"n must be an integer >= 2, got {n!r}")
    return int(n)


def two_state(p: float, q: float) -> StochasticMatrix:
    """[[1-p, p], [q, 1-q]]: flip to the other state with rates p and q."""
    p = _check_prob("p", p)
    q = _check_prob("q", q)
    return validate_stochastic([[1.0 - p, p], [q, 1.0 - q]])


def lazy_cycle(n: int, alpha: float) -> StochasticMatrix:
    """Hold with probability alpha, else step to either cycle neighbor."""
    n = _check_states(n)
    alpha = _check_prob("alpha", alpha)
    P = np.zeros((n, n))
    hop = (1.0 - alpha) / 2.0
    for i in range(n):
        P[i, i] += alpha
        P[i, (i + 1) % n] += hop
        P[i, (i - 1) % n] += hop
    return validate_stochastic(P)


def complete_graph(n: int, alpha: float) -> StochasticMatrix:
    """Hold with probability alpha, else jump uniformly to another state."""
    n = _check_states(n)
    alpha = _check_prob("alpha", alpha)
    off = (1.0 - alpha) / (n - 1)
    P = np.full((n, n), off)
    np.fill_diagonal(P, alpha)
    return validate_stochastic(P)


def birth_death(n: int, p: float, q: float) -> StochasticMatrix:
    """Step up with p, down with q, hold otherwise; holds reflect at the ends."""
    n = _check_states(n)
    p = _check_prob("p", p)
    q = _check_prob("q", q)
    if p + q > 1.0:
        raise BadParamsError(f"p + q must be <= 1, got {p + q!r}")
    P = np.zeros((n, n))
    P[0, 0] = 1.0 - p
    P[0, 1] = p
    P[n - 1, n - 1] = 1.0 - q
    P[n - 1, n - 2] = q
    for i in range(1, n - 1):
        P[i, i + 1] = p
        P[i, i - 1] = q
        P[i, i] = 1.0 - p - q
    return validate_stochastic(P)


def random_dense(n: int, seed: int) -> StochasticMatrix:
    """Rows drawn uniformly from the simplex via the pinned PCG64 stream."""
    n = _check_states(n)
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise BadParamsError(f"seed must be an integer, got {seed!r}")
    rng = np.random.Generator(np.random.PCG64(int(seed) % 2**64))
    u = rng.random((n, n))
    e = -np.log1p(-u)
    return validate_stochastic(e / e.sum(axis=1, keepdims=True))


# Each family is named after its generator, whose signature names the parameters it takes.
_GENERATORS = {
    make.__name__: make
    for make in (two_state, lazy_cycle, complete_graph, birth_death, random_dense)
}
FAMILIES = tuple(_GENERATORS)


def generate(params: GeneratorParams) -> StochasticMatrix:
    """Dispatch on the family; an unknown family or a key it does not take raises BadParamsError."""
    fam = params.family
    if fam not in _GENERATORS:
        raise BadParamsError(f"unknown family {fam!r}; expected one of {FAMILIES}")
    takes = inspect.signature(_GENERATORS[fam]).parameters
    for field in fields(params):
        if field.name not in (*takes, "family") and getattr(params, field.name) is not None:
            raise BadParamsError(f"{fam} takes {', '.join(takes)}, not {field.name!r}")
    return _GENERATORS[fam](**{name: getattr(params, name) for name in takes})
