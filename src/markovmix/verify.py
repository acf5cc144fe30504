"""One-shot verification of every tracked inequality against a chain pair.

Each bound gets one or more report entries per epsilon. Entries are either
passed, failed, or skipped with a reason (precondition unmet, epsilon out of
the formula's validity range, or a cap hit). Output ordering is fixed so
identical inputs serialize to identical bytes.
"""

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .adiabatic import (
    DEFAULT_CORRIDOR_CAP,
    DEFAULT_HORIZON_CAP,
    _certified_horizon,
    adiabatic_time,
    ceil_int,
    corridor,
    prop3_check,
    theorem2_check,
    theorem3_horizon,
)
from .chains import ChainPair, _interp_stack, _stationary_stack, interpolate
from .errors import (
    CapExceededError,
    EpsTooLargeError,
    HorizonCapError,
    NonPositiveEpsError,
)
from .mixing import mixing_time, sup_mixing_time
from .spectral import cor1_delta, continuity_delta, mixing_lower_bound

BOUND_IDS = ("PROP1", "PROP2", "PROP3", "PROP4", "COR1", "THM2", "THM3")
PROP3_HORIZONS = (10, 50, 200)
THM2_DELTAS = (0.5, 0.25)
GRID_CHECK_POINTS = 200
GRID_SLACK = 1e-12


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


def _skipped(eps: float, bound_id: str, detail: str) -> BoundEntry:
    """A skipped entry: no values and no verdict, only the reason."""
    return BoundEntry(eps, bound_id, None, None, None, detail)


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
        payload = {
            "chain_name": self.chain_name,
            "eps_list": list(self.eps_list),
            "grid_resolution": self.grid_resolution,
            "caps_hit": list(self.caps_hit),
            "entries": [
                {
                    "eps": e.eps,
                    "bound_id": e.bound_id,
                    "empirical": e.empirical,
                    "theoretical": e.theoretical,
                    "pass": e.passed,
                    "detail": e.detail,
                }
                for e in self.entries
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

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


def _stationary_grid_max_tv(pair: ChainPair, delta: float, points: int) -> float:
    """Max TV between pi_s and pi_0 over a uniform s-grid on [0, delta]."""
    ss = np.linspace(0.0, delta, points)
    pis = _stationary_stack(_interp_stack(pair, ss))
    return float((0.5 * np.abs(pis - pair.pi0.mass).sum(axis=1)).max())


def verify_all(
    pair: ChainPair,
    eps_list,
    corridor_cap: int = DEFAULT_CORRIDOR_CAP,
    horizon_cap: int = DEFAULT_HORIZON_CAP,
    name: str = "chain",
    grid_points: int = 101,
) -> BoundReport:
    """Run every bound check for every epsilon and assemble the report.

    Caps are recorded in ``caps_hit`` and turn the affected entry into a
    skip; they never abort the run. Entries appear in a fixed order:
    PROP1, PROP2 over the kernel sweep, PROP3 per horizon, PROP4, COR1,
    THM2 per delta, THM3, repeated per epsilon in the order given.
    """
    eps_values = [float(e) for e in eps_list]
    if not eps_values:
        raise NonPositiveEpsError("eps_list must be nonempty")
    if any(e <= 0.0 for e in eps_values):
        raise NonPositiveEpsError(f"every eps must be > 0, got {eps_values!r}")

    n = pair.n
    entries: list[BoundEntry] = []
    caps_hit: list[str] = []
    resolutions: list[float] = []

    kernels = [("P0", pair.p0), ("P1", pair.p1)] + [
        (f"s={s:.1f}", interpolate(pair, float(s))) for s in np.linspace(0.0, 1.0, 11)
    ]
    # PROP3 does not depend on eps: (T, worst row, all passed) per horizon.
    prop3 = []
    for T in PROP3_HORIZONS:
        rows = prop3_check(pair, T)
        worst = max(rows, key=lambda r: r.lhs - r.rhs)
        prop3.append((T, worst, all(r.passed for r in rows)))

    for eps in eps_values:
        sup = sup_mixing_time(pair, eps / 2.0, grid_points)
        resolutions.append(sup.grid_resolution)

        # PROP1: adiabatic time against its mixing-time bound.
        try:
            res = adiabatic_time(pair, eps, horizon_cap=horizon_cap)
            entries.append(
                BoundEntry(
                    eps=eps,
                    bound_id="PROP1",
                    empirical=float(res.t_ad),
                    theoretical=float(res.certified_horizon),
                    passed=res.t_ad <= res.certified_horizon,
                    detail=f"tmix_half={res.tmix_half} horizon={res.certified_horizon}",
                )
            )
        except HorizonCapError:
            _, prop1_bound = _certified_horizon(pair, eps)
            caps_hit.append(f"PROP1:eps={eps!r}:horizon={prop1_bound}")
            detail = f"SKIPPED: horizon {prop1_bound} exceeds cap {horizon_cap}"
            entries.append(_skipped(eps, "PROP1", detail))

        # PROP2: spectral lower bound on the mixing time, per kernel.
        for label, kernel in kernels:
            t = mixing_time(kernel, eps).tmix
            bound = mixing_lower_bound(kernel, eps)
            if bound <= 0.0:
                passed, note = True, " (vacuous)"
            else:
                passed, note = bound <= t + 1e-9, ""
            entries.append(
                BoundEntry(
                    eps=eps,
                    bound_id="PROP2",
                    empirical=float(t),
                    theoretical=bound,
                    passed=passed,
                    detail=f"kernel={label}{note}",
                )
            )

        # PROP3: per-step corridor drift bound at fixed horizons.
        for T, worst, passed in prop3:
            entries.append(
                BoundEntry(
                    eps=eps,
                    bound_id="PROP3",
                    empirical=worst.lhs,
                    theoretical=worst.rhs,
                    passed=passed,
                    detail=f"T={T} worst_k={worst.k}",
                )
            )

        # PROP4: stationary continuity within the sigma-based radius.
        delta4 = continuity_delta(pair.p0, eps)
        max_tv4 = _stationary_grid_max_tv(pair, delta4, GRID_CHECK_POINTS)
        entries.append(
            BoundEntry(
                eps=eps,
                bound_id="PROP4",
                empirical=max_tv4,
                theoretical=eps,
                passed=max_tv4 <= eps + GRID_SLACK,
                detail=f"delta={delta4!r} grid={GRID_CHECK_POINTS}",
            )
        )

        # COR1: continuity within the mixing-time-based radius, target eps/2.
        try:
            delta_c = cor1_delta(n, eps, sup.sup_tmix)
            max_tvc = _stationary_grid_max_tv(pair, delta_c, GRID_CHECK_POINTS)
            entries.append(
                BoundEntry(
                    eps=eps,
                    bound_id="COR1",
                    empirical=max_tvc,
                    theoretical=eps / 2.0,
                    passed=max_tvc <= eps / 2.0 + GRID_SLACK,
                    detail=f"delta={delta_c!r} sup_tmix={sup.sup_tmix} grid={GRID_CHECK_POINTS}",
                )
            )
        except EpsTooLargeError:
            entries.append(_skipped(eps, "COR1", f"SKIPPED: eps >= 1/sqrt({n})"))

        # THM2: tail-corridor guarantee at the derived horizon, per delta.
        for delta in THM2_DELTAS:
            try:
                rep = theorem2_check(
                    pair, eps, delta, corridor_cap=corridor_cap, sup_result=sup
                )
                entries.append(
                    BoundEntry(
                        eps=eps,
                        bound_id="THM2",
                        empirical=rep.max_gap,
                        theoretical=eps,
                        passed=rep.passed,
                        detail=f"delta={delta} T={rep.T} violations={len(rep.violations)}",
                    )
                )
            except CapExceededError:
                T_needed = ceil_int(2.0 * sup.sup_tmix**2 / (eps * delta))
                caps_hit.append(f"THM2:eps={eps!r}:delta={delta}:T={T_needed}")
                entries.append(
                    _skipped(
                        eps,
                        "THM2",
                        f"SKIPPED: delta={delta} needs T={T_needed}, "
                        f"above corridor cap {corridor_cap}",
                    )
                )

        # THM3: full corridor at the quartic horizon, when caps and
        # preconditions allow.
        horizon = theorem3_horizon(n, eps, sup.sup_tmix)
        if horizon > horizon_cap:
            caps_hit.append(f"THM3:eps={eps!r}:horizon={horizon}")
            detail = f"SKIPPED: horizon {horizon} exceeds cap {horizon_cap}"
            entries.append(_skipped(eps, "THM3", detail))
        else:
            derived = math.sqrt(eps / horizon) - 1.0 / horizon
            if eps >= 1.0 / math.sqrt(n):
                detail = f"PRECONDITION_UNMET: eps >= 1/sqrt({n})"
                entries.append(_skipped(eps, "THM3", detail))
            elif derived > cor1_delta(n, eps, sup.sup_tmix):
                entries.append(
                    _skipped(
                        eps,
                        "THM3",
                        f"PRECONDITION_UNMET: derived radius {derived!r} exceeds "
                        f"continuity radius at T={horizon}",
                    )
                )
            else:
                cor = corridor(pair, horizon)
                entries.append(
                    BoundEntry(
                        eps=eps,
                        bound_id="THM3",
                        empirical=cor.max_gap,
                        theoretical=eps,
                        passed=cor.max_gap <= eps + GRID_SLACK,
                        detail=f"T={horizon} sup_tmix={sup.sup_tmix}",
                    )
                )

    return BoundReport(
        chain_name=name,
        eps_list=tuple(eps_values),
        entries=tuple(entries),
        grid_resolution=max(resolutions),
        caps_hit=tuple(caps_hit),
    )
