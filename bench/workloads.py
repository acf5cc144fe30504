"""The benchmark's workloads: their inputs, queries and answer checks.

Each workload is one client in a closed loop: the queries of a round run one
after another, each starting when the previous one has returned. A workload
names one headline query, the heaviest, which is what a faster scan would
target; the other queries are the rest, which such a change should leave
alone.

Every answer is checked twice. It is compared with the answer recorded in
``expected.json`` (by ``record.py``) when one exists for the seed, and it is
checked against an independent recomputation through ``tests/oracles.py``
(matrix powers, eigen solves), which works for every seed.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import math
import sys
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

# tests/conftest.py imports pytest; importing it here keeps that one-time
# cost, which belongs to the test harness, out of setup_s.
import pytest  # noqa: F401

from boot import TESTS

# Floats in an answer must match the record within this share of
# max(1, |recorded|); integers, decisions and strings must match exactly.
FLOAT_TOLERANCE = 1e-9

# Slack of the independent checks, which reach the same numbers by another
# order of operations.
CHECK_TOLERANCE = 1e-9


class Mismatch(Exception):
    """An answer that disagrees with its record or with an independent check."""


@dataclass(frozen=True)
class Query:
    """One call into markovmix, with how to digest and check its answer.

    ``digest`` turns the answer into JSON-able data compared with the
    record; ``check`` recomputes it independently and raises
    :class:`Mismatch`. Neither calls markovmix, so a traced pass sees only
    the query's own calls. ``seeded`` marks answers that depend on the seed.
    """

    name: str
    run: Callable[[], Any]
    digest: Callable[[Any], Any]
    check: Callable[[Any], None]
    seeded: bool = False


@dataclass(frozen=True)
class Workload:
    headline: Query
    rest: tuple[Query, ...]
    warmup: Query

    @property
    def queries(self) -> tuple[Query, ...]:
        return (self.headline, *self.rest)


def record_key(query: Query, seed: int) -> str:
    return f"{query.name}@seed={seed}" if query.seeded else query.name


def forget_markovmix() -> None:
    """Drop markovmix from the module cache so the next import runs again."""
    for name in [m for m in sys.modules if m == "markovmix" or m.startswith("markovmix.")]:
        del sys.modules[name]


def _load_test_module(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", TESTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@cache
def oracles():
    return _load_test_module("oracles")


# ---------------------------------------------------------------- comparison


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(expected, actual, where: str = "answer") -> list[str]:
    """Differences between a recorded answer and a new one, as messages."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or expected.keys() != actual.keys():
            return [f"{where}: keys differ"]
        return [d for k in expected for d in compare(expected[k], actual[k], f"{where}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{where}: lengths differ"]
        return [
            d
            for i, (e, a) in enumerate(zip(expected, actual))
            for d in compare(e, a, f"{where}[{i}]")
        ]
    if _is_number(expected) and _is_number(actual) and (
        isinstance(expected, float) or isinstance(actual, float)
    ):
        if math.isnan(expected) and math.isnan(actual):
            return []
        if abs(actual - expected) <= FLOAT_TOLERANCE * max(1.0, abs(expected)):
            return []
    elif type(expected) is type(actual) and expected == actual:
        return []
    return [f"{where}: recorded {expected!r}, got {actual!r}"]


def _number(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _detail_tokens(detail: str) -> list:
    """Split a report detail so the floats in it compare within tolerance."""
    tokens = []
    for word in detail.split():
        key, sep, value = word.partition("=")
        tokens.append([key, _number(value)] if sep else _number(word))
    return tokens


# ------------------------------------------------- digests and independent checks


def _worst_gap(M: np.ndarray, pi: np.ndarray) -> float:
    return float((0.5 * np.abs(M - pi).sum(axis=1)).max())


def _check_tmix(P: np.ndarray, eps: float, tmix: int, label: str) -> None:
    """tmix is the first T whose worst Dirac-start gap is within eps."""
    pi = oracles().stationary_eig(P)
    if _worst_gap(np.linalg.matrix_power(P, tmix), pi) > eps + CHECK_TOLERANCE:
        raise Mismatch(f"{label}: worst gap at t_mix = {tmix} exceeds eps = {eps}")
    if tmix > 1 and _worst_gap(np.linalg.matrix_power(P, tmix - 1), pi) <= eps - CHECK_TOLERANCE:
        raise Mismatch(f"{label}: already within eps = {eps} at T = {tmix - 1}")


def _mixing_digest(res) -> dict:
    return {"tmix": res.tmix, "worst_state": res.worst_state, "final_gap": res.final_gap}


def _sup_digest(res) -> dict:
    return {
        "sup_tmix": res.sup_tmix,
        "argmax_s": res.argmax_s,
        "grid_resolution": res.grid_resolution,
        "samples": [[s, t] for s, t in res.per_s_samples],
    }


def _check_sup(pair, eps: float, res) -> None:
    s_values = [s for s, _ in res.per_s_samples]
    if s_values != sorted(s_values) or s_values[0] != 0.0 or s_values[-1] != 1.0:
        raise Mismatch("samples are not sorted over [0, 1]")
    samples = dict(res.per_s_samples)
    if res.sup_tmix != max(samples.values()):
        raise Mismatch("sup_tmix is not the largest sample")
    P0, P1 = pair.p0.entries, pair.p1.entries
    for s in sorted({0.0, 1.0, res.argmax_s}):
        _check_tmix((1.0 - s) * P0 + s * P1, eps, samples[s], f"s = {s}")


def _corridor_digest(cor) -> dict:
    worst_k, max_gap = cor.worst
    return {
        "T": cor.T,
        "worst_k": worst_k,
        "max_gap": max_gap,
        "final_gap": float(cor.gaps[-1]),
        "gap_sum": math.fsum(cor.gaps.tolist()),
        "final_mu": cor.mus[-1].tolist(),
    }


def _check_corridor(pair, T: int, cor) -> None:
    """Gaps, the one-step recurrence and the targets, at the first, middle and last step."""
    n = pair.n
    if cor.T != T or cor.mus.shape != (T, n) or cor.targets.shape != (T, n):
        raise Mismatch(f"corridor has the wrong shape for T = {T}, n = {n}")
    gaps = 0.5 * np.abs(cor.mus - cor.targets).sum(axis=1)
    if np.abs(gaps - cor.gaps).max() > CHECK_TOLERANCE:
        raise Mismatch("gaps are not the TV distance between mus and targets")
    orc = oracles()
    P0, P1 = pair.p0.entries, pair.p1.entries
    for k in sorted({1, (T + 1) // 2, T}):
        t = k / T
        Pt = (1.0 - t) * P0 + t * P1
        before = orc.stationary_eig(P0) if k == 1 else cor.mus[k - 2]
        if orc.tv(before @ Pt, cor.mus[k - 1]) > CHECK_TOLERANCE:
            raise Mismatch(f"mu at step {k} is not one step of the chain")
        if orc.tv(orc.stationary_eig(Pt), cor.targets[k - 1]) > CHECK_TOLERANCE:
            raise Mismatch(f"target at step {k} is not stationary")


def _stable_digest(res) -> dict:
    return {"t_sad": res.t_sad, "worst_k": res.worst_k, "worst_gap": res.worst_gap}


def _check_stable(pair, eps: float, res) -> None:
    """The oracle corridor stays inside eps at t_sad and leaves it at t_sad - 1."""
    corridor_oracle = oracles().corridor_oracle
    P0, P1 = pair.p0.entries, pair.p1.entries
    gaps = corridor_oracle(P0, P1, res.t_sad)[2]
    if not gaps.max() < eps or abs(gaps.max() - res.worst_gap) > CHECK_TOLERANCE:
        raise Mismatch(f"oracle corridor at t_sad = {res.t_sad} has max gap {gaps.max()!r}")
    if res.t_sad > 1 and corridor_oracle(P0, P1, res.t_sad - 1)[2].max() < eps - CHECK_TOLERANCE:
        raise Mismatch(f"oracle corridor already stays inside eps at T = {res.t_sad - 1}")


def _run_cli(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _verify_digest(answer) -> dict:
    code, text = answer
    report = json.loads(text)
    for entry in report["entries"]:
        entry["detail"] = _detail_tokens(entry["detail"])
    return {"exit_code": code, "report": report}


def _check_verify(answer) -> None:
    code, text = answer
    if code != 0:
        raise Mismatch(f"verify exited with {code}")
    if not json.loads(text)["entries"]:
        raise Mismatch("verify reported no entries")


# ---------------------------------------------------------------- workloads

VERIFY_EPS = ("0.3", "0.25")


def verify_suite(seed: int, workdir: Path) -> Workload:
    """``markovmix verify`` on the ten suite pairs, in-process, from pair files.

    Why: this is the paper's own end-to-end check. The exact PROP1 adiabatic
    scan of complete5-to-bd5 takes most of the time; the nine small pairs
    make thousands of tiny calls into every module. The suite is fixed, so
    the seed does not change the inputs and every answer is recorded.
    """
    mx = importlib.import_module("markovmix")
    cli = importlib.import_module("markovmix.cli")
    pairs = _load_test_module("conftest").build_suite_pairs()
    eps_args = [arg for eps in VERIFY_EPS for arg in ("--epsilon", eps)]
    queries = {}
    for name, pair in pairs.items():
        path = workdir / f"{name}.json"
        mx.save_pair(path, name, pair)
        loaded_name, loaded = mx.load_pair(path)
        if loaded_name != name or not (
            np.array_equal(loaded.p0.entries, pair.p0.entries)
            and np.array_equal(loaded.p1.entries, pair.p1.entries)
        ):
            raise Mismatch(f"pair file for {name} does not round-trip")
        argv = ["verify", "--chain", str(path), *eps_args]
        queries[name] = Query(name, partial(_run_cli, cli, argv), _verify_digest, _check_verify)
    headline = queries.pop("complete5-to-bd5")
    rest = tuple(queries.values())
    return Workload(headline=headline, rest=rest, warmup=rest[0])


def mixing_large_n(seed: int, workdir: Path) -> Workload:
    """Mixing times at n = 100 and 200.

    Why: the only large-n workload, and it runs no adiabatic code. The
    headline is the linear mixing-time scan, 7502 dense 200 x 200 products;
    the rest are sup mixing times over seeded random dense pairs, whose
    time goes to many short scans and to ergodicity checks.
    """
    mx = importlib.import_module("markovmix")
    cycle = mx.lazy_cycle(200, 0.5)
    dense = {
        n: mx.ChainPair(mx.random_dense(n, seed=4 * seed + k), mx.random_dense(n, seed=4 * seed + k + 1))
        for n, k in ((100, 0), (200, 2))
    }
    headline = Query(
        "tmix-cycle200",
        lambda: mx.mixing_time(cycle, 0.1),
        _mixing_digest,
        lambda res: _check_tmix(cycle.entries, 0.1, res.tmix, "lazy_cycle(200)"),
    )
    rest = tuple(
        Query(
            f"sup-dense{n}",
            partial(lambda pair: mx.sup_mixing_time(pair, 0.1), pair),
            _sup_digest,
            partial(lambda pair, res: _check_sup(pair, 0.1, res), pair),
            seeded=True,
        )
        for n, pair in dense.items()
    )
    return Workload(headline=headline, rest=rest, warmup=rest[0])


def stable_corridor(seed: int, workdir: Path) -> Workload:
    """The corridor layer used three ways.

    Why: the headline is the stable adiabatic scan (688 corridors on a
    birth-death pair). The rest are one corridor wide in n (seeded
    random_dense(40), T = 4000, about 100 MB of stacks), which carries the
    memory metric, and one long corridor at n = 2 (T = 100,000), which is a
    Python step loop.
    """
    mx = importlib.import_module("markovmix")
    bd = mx.ChainPair(mx.birth_death(10, 0.3, 0.4), mx.birth_death(10, 0.4, 0.3))
    dense = mx.ChainPair(mx.random_dense(40, seed=2 * seed), mx.random_dense(40, seed=2 * seed + 1))
    lazy_asym = _load_test_module("conftest").build_suite_pairs()["lazy-to-asym"]

    def corridor_query(name, pair, T, seeded):
        return Query(
            name,
            lambda: mx.corridor(pair, T),
            _corridor_digest,
            lambda cor: _check_corridor(pair, T, cor),
            seeded=seeded,
        )

    headline = Query(
        "stable-bd10",
        lambda: mx.stable_adiabatic_time(bd, 0.03),
        _stable_digest,
        lambda res: _check_stable(bd, 0.03, res),
    )
    rest = (
        corridor_query("corridor-dense40", dense, 4000, seeded=True),
        corridor_query("corridor-lazy-to-asym", lazy_asym, 100_000, seeded=False),
    )
    return Workload(headline=headline, rest=rest, warmup=rest[1])


WORKLOADS = {
    "verify-suite": verify_suite,
    "mixing-large-n": mixing_large_n,
    "stable-corridor": stable_corridor,
}
