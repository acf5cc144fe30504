"""One-shot verification of every tracked inequality against a chain pair.

Each bound gets one or more report entries per epsilon. Entries are either
passed, failed, or skipped with a reason (precondition unmet, epsilon out of
the formula's validity range, or a cap hit). Output ordering is fixed so
identical inputs serialize to identical bytes.
"""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .adiabatic import (
    DEFAULT_CORRIDOR_CAP,
    DEFAULT_HORIZON_CAP,
    _corridor_worst,
    _grid_max_tv,
    _horizon_text,
    adiabatic_time,
    prop3_check,
    theorem2_check,
    theorem3_horizon,
)
from .chainfile import _json_text
from .chains import ChainPair, interpolate
from .errors import (
    EpsTooLargeError, HorizonCapError, NonPositiveEpsError, _check_eps, _check_horizon
)
from .mixing import DEFAULT_GRID_POINTS, _family_tmix, _sup_mixing_times
from .spectral import cor1_delta, continuity_delta, mixing_lower_bound, spectral_summary

PROP3_HORIZONS = (10, 50, 200)
THM2_DELTAS = (0.5, 0.25)
GRID_CHECK_POINTS = 200
BOUND_SLACK = 1e-10
GRID_SLACK = 1e-12
PROP2_SLACK = 1e-9


@dataclass(frozen=True)
class BoundEntry:
    """One checked instance of one bound.

    ``passed`` is True/False for evaluated checks and None for skipped ones;
    ``empirical``/``theoretical`` are None when skipped. PROP2 is a lower
    bound on the mixing time (pass means theoretical <= empirical); all
    other bounds are upper bounds on a gap or a time.
    """

    eps: float
    bound_id: str
    empirical: float | None
    theoretical: float | None
    passed: bool | None
    detail: str


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Structured outcome of verify_all over a list of epsilons."""

    chain_name: str
    eps_list: tuple[float, ...]
    entries: tuple[BoundEntry, ...]
    grid_resolution: float
    caps_hit: tuple[str, ...]

    def failures(self) -> list[BoundEntry]:
        return [e for e in self.entries if e.passed is False]

    def all_passed(self) -> bool:
        return not self.failures()

    def to_json(self) -> str:
        entries = [
            {"pass" if k == "passed" else k: v for k, v in vars(e).items()} for e in self.entries
        ]
        return _json_text({**vars(self), "entries": entries})

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["chain", "eps", "bound_id", "empirical", "theoretical", "pass", "detail"]
        )
        for e in self.entries:
            writer.writerow(
                [
                    self.chain_name,
                    repr(e.eps),
                    e.bound_id,
                    "" if e.empirical is None else repr(e.empirical),
                    "" if e.theoretical is None else repr(e.theoretical),
                    "skipped" if e.passed is None else ("true" if e.passed else "false"),
                    e.detail,
                ]
            )
        return buf.getvalue()


class _Skip(Exception):
    """A check that was not evaluated; args are its detail and, for a cap, a caps_hit label."""


@dataclass(frozen=True)
class _Inputs:
    """What the checks read at one eps; ``cor1`` is None when eps >= 1/sqrt(n).

    ``sweep`` holds the PROP2 kernels as (label, sigma, mixing time at eps),
    P0 first; ``m`` is the sup mixing time at eps / 2.
    """

    pair: ChainPair
    eps: float
    sweep: list
    prop3: list
    m: int
    cor1: float | None
    corridor_cap: int
    horizon_cap: int


def _prop1(c: _Inputs):
    """Adiabatic time against its mixing-time bound."""
    try:
        res = adiabatic_time(c.pair, c.eps, horizon_cap=c.horizon_cap)
    except HorizonCapError as exc:
        text = _horizon_text(exc.horizon)
        raise _Skip(f"SKIPPED: horizon {text} exceeds cap {c.horizon_cap}", f"horizon={text}")
    detail = f"tmix_half={res.tmix_half} horizon={res.certified_horizon}"
    return float(res.t_ad), float(res.certified_horizon), res.t_ad <= res.certified_horizon, detail


def _prop2(c: _Inputs, label: str, sigma: float, t: int):
    """Spectral lower bound on the mixing time of one kernel of the sweep."""
    bound = mixing_lower_bound(c.pair.n, c.eps, sigma)
    if bound <= 0.0:
        return float(t), bound, True, f"kernel={label} (vacuous)"
    return float(t), bound, bound <= t + PROP2_SLACK, f"kernel={label}"


def _prop3(c: _Inputs, T: int, gaps: np.ndarray, bounds: np.ndarray):
    """Per-step corridor drift bound at a fixed horizon; the arrays do not depend on eps."""
    k = int(np.argmax(gaps - bounds))
    passed = bool(np.all(gaps <= bounds + BOUND_SLACK))
    return float(gaps[k]), float(bounds[k]), passed, f"T={T} worst_k={k + 1}"


def _prop4(c: _Inputs):
    """Stationary continuity within the sigma-based radius, from P0's sigma in the sweep."""
    delta = continuity_delta(c.pair.n, c.eps, c.sweep[0][1])
    max_tv = _grid_max_tv(c.pair, delta, GRID_CHECK_POINTS)
    return max_tv, c.eps, max_tv <= c.eps + GRID_SLACK, f"delta={delta!r} grid={GRID_CHECK_POINTS}"


def _cor1(c: _Inputs):
    """Continuity within the mixing-time-based radius, target eps/2."""
    if c.cor1 is None:
        raise _Skip(f"SKIPPED: eps >= 1/sqrt({c.pair.n})")
    max_tv = _grid_max_tv(c.pair, c.cor1, GRID_CHECK_POINTS)
    detail = f"delta={c.cor1!r} sup_tmix={c.m} grid={GRID_CHECK_POINTS}"
    return max_tv, c.eps / 2.0, max_tv <= c.eps / 2.0 + GRID_SLACK, detail


def _thm2(c: _Inputs, delta: float):
    """Tail-corridor guarantee at the derived horizon."""
    try:
        T, tail = theorem2_check(c.pair, c.eps, delta, c.m, c.corridor_cap)
    except HorizonCapError as exc:
        text = _horizon_text(exc.horizon)
        detail = f"SKIPPED: delta={delta} needs T={text}, above corridor cap {c.corridor_cap}"
        raise _Skip(detail, f"delta={delta}:T={text}")
    violations = int(np.count_nonzero(tail > c.eps + BOUND_SLACK))
    detail = f"delta={delta} T={T} violations={violations}"
    return float(tail.max()), c.eps, violations == 0, detail


def _thm3(c: _Inputs):
    """Full corridor at the quartic horizon, when caps and preconditions allow, reduced chunk by chunk."""
    horizon = theorem3_horizon(c.pair.n, c.eps, c.m)
    if horizon > c.horizon_cap:
        text = _horizon_text(horizon)
        raise _Skip(f"SKIPPED: horizon {text} exceeds cap {c.horizon_cap}", f"horizon={text}")
    if c.cor1 is None:
        raise _Skip(f"PRECONDITION_UNMET: eps >= 1/sqrt({c.pair.n})")
    derived = math.sqrt(c.eps / horizon) - 1.0 / horizon
    if derived > c.cor1:
        raise _Skip(
            f"PRECONDITION_UNMET: derived radius {derived!r} exceeds "
            f"continuity radius at T={_horizon_text(horizon)}"
        )
    max_gap = _corridor_worst(c.pair, horizon)[1]
    return max_gap, c.eps, max_gap <= c.eps + GRID_SLACK, f"T={horizon} sup_tmix={c.m}"


# Report order: (bound id, check, the argument tuples it runs on at one eps).
_CHECKS = (
    ("PROP1", _prop1, lambda c: [()]),
    ("PROP2", _prop2, lambda c: c.sweep),
    ("PROP3", _prop3, lambda c: c.prop3),
    ("PROP4", _prop4, lambda c: [()]),
    ("COR1", _cor1, lambda c: [()]),
    ("THM2", _thm2, lambda c: [(delta,) for delta in THM2_DELTAS]),
    ("THM3", _thm3, lambda c: [()]),
)
BOUND_IDS = tuple(bound_id for bound_id, _, _ in _CHECKS)


def verify_all(
    pair: ChainPair,
    eps_list,
    corridor_cap: int = DEFAULT_CORRIDOR_CAP,
    horizon_cap: int = DEFAULT_HORIZON_CAP,
    name: str = "chain",
    grid_points: int = DEFAULT_GRID_POINTS,
) -> BoundReport:
    """Run every bound check for every epsilon and assemble the report.

    A horizon cap (PROP1, THM2, THM3) becomes a skip listed in ``caps_hit``; a
    mixing scan at its cap, or a stationary solve that fails its check, aborts
    the run. Entries appear in a fixed order: PROP1, PROP2 over the kernel
    sweep, PROP3 per horizon, PROP4, COR1, THM2 per delta, THM3, repeated per
    epsilon in the order given.
    """
    eps_values = [_check_eps(e) for e in eps_list]
    if not eps_values:
        raise NonPositiveEpsError("eps_list must be nonempty")
    corridor_cap = _check_horizon(corridor_cap, "corridor_cap")
    horizon_cap = _check_horizon(horizon_cap, "horizon_cap")
    grid_points = _check_horizon(grid_points, "grid_points", 2)

    entries: list[BoundEntry] = []
    caps_hit: list[str] = []

    ss = np.linspace(0.0, 1.0, 11).tolist()
    labels = [f"s={s:.1f}" for s in ss]
    # sigma does not depend on eps: one SVD per sweep kernel, and PROP4 reads s = 0.0's
    sigmas = [spectral_summary(interpolate(pair, s)).sigma for s in ss]
    prop3 = [(T, *prop3_check(pair, T)) for T in PROP3_HORIZONS]
    # a mixing scan depends on eps only through its thresholds: each runs once for every eps
    sups = _sup_mixing_times(pair, [eps / 2.0 for eps in eps_values], grid_points)
    tmixes = _family_tmix(pair, ss, eps_values)

    for eps, sup, tmix in zip(eps_values, sups, tmixes):
        try:
            cor1 = cor1_delta(pair.n, eps, sup.sup_tmix)
        except EpsTooLargeError:
            cor1 = None
        # the grid's s = 0 and s = 1 kernels are P0 and P1 bit for bit
        ends = [("P0", sigmas[0], tmix[0]), ("P1", sigmas[-1], tmix[-1])]
        sweep = ends + list(zip(labels, sigmas, tmix))
        c = _Inputs(pair, eps, sweep, prop3, sup.sup_tmix, cor1, corridor_cap, horizon_cap)
        for bound_id, check, cases in _CHECKS:
            for args in cases(c):
                try:
                    entries.append(BoundEntry(eps, bound_id, *check(c, *args)))
                except _Skip as skip:
                    detail, *cap = skip.args
                    caps_hit += [f"{bound_id}:eps={eps!r}:{label}" for label in cap]
                    entries.append(BoundEntry(eps, bound_id, None, None, None, detail))

    return BoundReport(
        chain_name=name,
        eps_list=tuple(eps_values),
        entries=tuple(entries),
        grid_resolution=max(sup.grid_resolution for sup in sups),
        caps_hit=tuple(caps_hit),
    )
