"""End-to-end acceptance checks.

One test per criterion; each prints a PASS/FAIL line with its elapsed time
(run pytest with -s to see them) and enforces the stated runtime budget.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from markovmix import (
    ChainPair,
    adiabatic_time,
    corridor,
    mixing_lower_bound,
    mixing_time,
    prop3_check,
    random_dense,
    spectral_summary,
    stable_adiabatic_time,
    stationary,
    sup_mixing_time,
    theorem2_check,
    theorem3_horizon,
    tv_distance,
    two_state,
    validate_distribution,
    verify_all,
)
from markovmix.adiabatic import ceil_int, _interp_stack, _stationary_stack
from markovmix.spectral import cor1_delta, continuity_delta
from markovmix.verify import BOUND_SLACK

from conftest import build_suite_chains, build_suite_pairs
from oracles import two_state_tmix


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {number}: {label} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s"


@pytest.fixture(scope="module")
def chains():
    return build_suite_chains()


@pytest.fixture(scope="module")
def pairs():
    return build_suite_pairs()


def test_criterion_1_two_state_closed_form_mixing():
    with criterion(1, "two-state closed-form mixing times", 1.0):
        lazy = two_state(0.25, 0.25)
        asym = two_state(0.2, 0.4)
        for eps, expected in zip((0.2, 0.1, 0.05), (2, 3, 4)):
            assert mixing_time(lazy, eps).tmix == expected
            assert two_state_tmix(0.25, 0.25, eps) == expected
        for eps, expected in zip((0.2, 0.1, 0.05), (2, 3, 3)):
            assert mixing_time(asym, eps).tmix == expected
            assert two_state_tmix(0.2, 0.4, eps) == expected


def test_criterion_2_spectral_lower_bound(chains):
    with criterion(2, "sigma lower bound on every suite chain", 10.0):
        for name, P in chains.items():
            for eps in (0.2, 0.1, 0.05):
                bound = mixing_lower_bound(P, eps)
                tmix = mixing_time(P, eps).tmix
                assert bound <= tmix + 1e-9, (name, eps)


def test_criterion_3_corridor_drift_bound(pairs):
    with criterion(3, "corridor drift bound at T in {10, 50, 200}", 30.0):
        assert len(pairs) == 10
        for name, pair in pairs.items():
            for T in (10, 50, 200):
                gaps, bounds = prop3_check(pair, T)
                assert len(gaps) == len(bounds) == T
                for k in range(1, T + 1):
                    assert gaps[k - 1] <= bounds[k - 1] + 1e-10, (name, T, k)


def test_criterion_4_continuity_radii(pairs):
    with criterion(4, "stationary continuity inside both radii", 10.0):
        points = 200
        for name, pair in pairs.items():
            pi0 = pair.pi0.mass
            for eps in (0.2, 0.1):
                delta = continuity_delta(pair.p0, eps)
                ss = np.linspace(0.0, delta, points)
                pis = _stationary_stack(_interp_stack(pair, ss))
                worst = (0.5 * np.abs(pis - pi0).sum(axis=1)).max()
                assert worst <= eps + 1e-12, (name, eps)

                if eps < 1.0 / math.sqrt(pair.n):
                    m = sup_mixing_time(pair, eps / 2.0).sup_tmix
                    delta_c = cor1_delta(pair.n, eps, m)
                    ss = np.linspace(0.0, delta_c, points)
                    pis = _stationary_stack(_interp_stack(pair, ss))
                    worst = (0.5 * np.abs(pis - pi0).sum(axis=1)).max()
                    assert worst <= eps / 2.0 + 1e-12, (name, eps)


def test_criterion_5_adiabatic_bound(pairs):
    with criterion(5, "adiabatic time within its mixing-time bound", 60.0):
        for name in ("lazy-to-asym", "asym-to-lazy", "lazy-to-uniform2"):
            pair = pairs[name]
            for eps in (0.2, 0.1):
                res = adiabatic_time(pair, eps)
                m1 = mixing_time(pair.p1, eps / 2.0).tmix
                assert res.t_ad <= ceil_int(2.0 * m1 * m1 / eps), (name, eps)

        lazy = two_state(0.25, 0.25)
        res = adiabatic_time(ChainPair(lazy, lazy), 0.05)
        assert res.t_ad == 3
        assert res.certified_horizon == 1000


def test_criterion_6_tail_corridor_guarantee(pairs):
    with criterion(6, "tail corridor clean at every derived horizon", 60.0):
        for name, pair in pairs.items():
            for eps in (0.2, 0.1):
                sup = sup_mixing_time(pair, eps / 2.0)
                for delta in (0.5, 0.25):
                    T, tail = theorem2_check(
                        pair, eps, delta, corridor_cap=10**5, sup_result=sup
                    )
                    assert len(tail) == T - ceil_int(delta * T) + 1, (name, eps, delta)
                    assert np.count_nonzero(tail > eps + BOUND_SLACK) == 0, (name, eps, delta)


def test_criterion_7_full_corridor_at_quartic_horizon(pairs):
    with criterion(7, "full corridor at the quartic horizon, eps = 0.1", 300.0):
        for name in ("lazy-to-asym", "asym-to-lazy"):
            pair = pairs[name]
            m = sup_mixing_time(pair, 0.05).sup_tmix
            assert m == 4, name
            horizon = theorem3_horizon(2, 0.1, m)
            assert horizon == 1030410
            # precondition of the guarantee at this horizon
            assert 0.1 < 1.0 / math.sqrt(2)
            assert math.sqrt(0.1 / horizon) - 1.0 / horizon <= cor1_delta(2, 0.1, m)
            cor = corridor(pair, horizon)
            assert cor.T == horizon
            assert np.all(cor.gaps <= 0.1), name


def test_criterion_8_stable_adiabatic_regression(pairs, chains):
    with criterion(8, "stable adiabatic time regressions", 10.0):
        res = stable_adiabatic_time(pairs["lazy-to-asym"], 0.05)
        assert res.t_sad == 2
        for name in ("lazy", "complete5", "dense4_seed1"):
            P = chains[name]
            assert stable_adiabatic_time(ChainPair(P, P), 0.1).t_sad == 1, name


def test_criterion_9_numerical_identities(chains):
    with criterion(9, "norm identities, residuals, singular values", 30.0):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            a = validate_distribution(rng.dirichlet(np.ones(n)))
            b = validate_distribution(rng.dirichlet(np.ones(n)))
            d = tv_distance(a, b)
            assert abs(d - 0.5 * np.abs(a.mass - b.mass).sum()) <= 1e-15
            l2 = float(np.linalg.norm(a.mass - b.mass))
            assert 0.5 * l2 <= d + 1e-15
            assert d <= 0.5 * math.sqrt(n) * l2 + 1e-15

        for name, P in chains.items():
            pi = stationary(P)
            assert np.abs(pi.mass @ P.entries - pi.mass).sum() <= 1e-12, name

        for trial in range(20):
            n = 2 + trial % 7
            P = random_dense(n, seed=3000 + trial)
            A = np.eye(n) - P.entries
            eig = np.clip(np.linalg.eigvalsh(A @ A.T), 0.0, None)[::-1]
            sv = np.array(spectral_summary(P).singular_values)
            np.testing.assert_allclose(sv[: n - 1], np.sqrt(eig[: n - 1]), atol=1e-10)
            np.testing.assert_allclose(sv**2, eig, atol=1e-10)


def test_criterion_10_determinism(pairs):
    with criterion(10, "byte-identical reports and reproducible generators", 60.0):
        pair = pairs["lazy-to-asym"]
        first = verify_all(pair, [0.2, 0.1], name="lazy-to-asym")
        second = verify_all(pair, [0.2, 0.1], name="lazy-to-asym")
        assert first.to_json().encode() == second.to_json().encode()
        assert first.to_csv().encode() == second.to_csv().encode()

        for n in (3, 5, 8):
            for seed in (0, 42, 2**63):
                a = random_dense(n, seed=seed)
                b = random_dense(n, seed=seed)
                np.testing.assert_array_equal(a.entries, b.entries)
