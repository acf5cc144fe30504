"""Corridors, adiabatic and stable adiabatic times, and the bound checkers."""

import gc
import math
import sys
import tracemalloc
import weakref
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import markovmix.adiabatic as adiabatic
import markovmix.chains as chains
from markovmix import (
    CapExceededError,
    ChainError,
    ChainPair,
    Corridor,
    Distribution,
    HorizonCapError,
    NonFiniteError,
    NonPositiveEpsError,
    OutOfRangeError,
    adiabatic_distance,
    adiabatic_time,
    birth_death,
    corridor,
    mixing_time,
    prop3_check,
    random_dense,
    stable_adiabatic_time,
    sup_mixing_time,
    theorem2_check,
    theorem3_horizon,
    tv_distance,
    two_state,
    validate_stochastic,
)
from markovmix.adiabatic import (
    _adiabatic_gaps,
    _block_steps,
    _horizon_text,
    _interpolant,
    _stationary_at,
    _step_radius,
    ceil_int,
)
from markovmix.chains import _interp_stack, _row_tv, _stationary_stack
from markovmix.errors import NumericalBreakdownError
from markovmix.mixing import PASS_SLACK
from markovmix.verify import BOUND_SLACK

from conftest import build_suite_pairs
from oracles import (
    adiabatic_distance_oracle,
    adiabatic_distance_reference,
    corridor_block_ends_reference,
    corridor_oracle,
    corridor_reference,
    corridor_step_reference,
    exact_adiabatic_gap,
    exact_corridor_mus,
    exact_line_stationary,
    exact_stationary,
    mitrophanov_tail_from,
    stable_scan_reference,
    stationary_at_row_major,
    suffix_gaps_reference,
    suffix_ladder_reference,
    two_state_stationary,
    two_state_worst_gap,
    tv,
)


class TestCeilInt:
    def test_snaps_rounding_noise(self):
        assert ceil_int(1030409.9999999998) == 1030410
        assert ceil_int(41404.99999999999) == 41405
        assert ceil_int(180.00000000000003) == 180

    def test_plain_ceiling(self):
        assert ceil_int(179.5) == 180
        assert ceil_int(180.0) == 180
        assert ceil_int(180.2) == 181
        # a horizon is at least one step, even where the formula snaps to 0
        assert ceil_int(1e-13) == 1
        assert ceil_int(0.3) == 1

    def test_overflowed_formula_stays_inf(self):
        assert ceil_int(math.inf) == math.inf
        assert ceil_int(1e300) == int(1e300)

    def test_huge_horizons_print_as_their_float(self):
        # below 2**53 every integer is a float, so the exact digits mean something
        assert _horizon_text(3078404) == "3078404"
        assert _horizon_text(2**53 - 1) == "9007199254740991"
        assert _horizon_text(2**53) == "9007199254740992.0"
        assert _horizon_text(ceil_int(2e110)) == "2e+110"
        assert _horizon_text(math.inf) == "inf"


class TestCorridor:
    def test_constant_family_all_zero(self, suite_chains):
        for name, P in suite_chains.items():
            cor = corridor(ChainPair(P, P), 10)
            assert cor.worst[1] <= 1e-12, name

    def test_hand_values_at_T2(self, lazy_asym_pair):
        cor = corridor(lazy_asym_pair, 2)
        np.testing.assert_allclose(cor.mus[0], [0.55, 0.45], atol=1e-15)
        np.testing.assert_allclose(cor.mus[1], [0.62, 0.38], atol=1e-15)
        np.testing.assert_allclose(
            cor.targets[0], two_state_stationary(0.225, 0.325), atol=1e-12
        )
        assert cor.gaps[0] == pytest.approx(abs(0.55 - 13 / 22), abs=1e-12)
        assert cor.gaps[0] == pytest.approx(0.0409091, abs=1e-7)
        assert cor.gaps[1] == pytest.approx(abs(0.62 - 2 / 3), abs=1e-12)
        assert cor.gaps[1] == pytest.approx(0.0466667, abs=1e-7)
        assert cor.worst == (2, pytest.approx(0.0466667, abs=1e-7))

    def test_worst_prefers_the_first_largest_gap(self):
        def made(gaps):
            gaps = np.array(gaps)
            return Corridor(len(gaps), np.zeros((len(gaps), 2)), np.zeros((len(gaps), 2)), gaps)

        assert made([0.1, 0.3, 0.3]).worst == (2, 0.3)
        assert made([0.25]).worst == (1, 0.25)
        # a NaN gap is the worst, so a corridor with one never reads as within eps
        k, gap = made([0.1, math.nan, 0.3]).worst
        assert k == 2 and math.isnan(gap)

    def test_T1_collapses_to_single_step(self, lazy_asym_pair):
        cor = corridor(lazy_asym_pair, 1)
        assert cor.mus.shape == cor.targets.shape == (1, 2) and cor.gaps.shape == (1,)
        np.testing.assert_allclose(
            cor.mus[0], lazy_asym_pair.pi0.mass @ lazy_asym_pair.p1.entries, atol=1e-15
        )
        np.testing.assert_allclose(cor.targets[0], two_state_stationary(0.2, 0.4), atol=1e-12)
        mu1 = Distribution(cor.mus[0])
        assert cor.gaps[0] == pytest.approx(tv_distance(mu1, lazy_asym_pair.pi1), abs=1e-15)

    def test_matches_independent_oracle(self, suite_pairs):
        for name, pair in suite_pairs.items():
            cor = corridor(pair, 17)
            mus, targets, gaps = corridor_oracle(
                np.array(pair.p0.entries), np.array(pair.p1.entries), 17
            )
            np.testing.assert_allclose(cor.mus, mus, atol=1e-9, err_msg=name)
            np.testing.assert_allclose(cor.gaps, gaps, atol=1e-9, err_msg=name)

    def test_bad_T(self, lazy_asym_pair):
        with pytest.raises(OutOfRangeError):
            corridor(lazy_asym_pair, 0)

    def test_streamed_chunks_are_bit_identical(self, suite_pairs, monkeypatch):
        names = ("complete5-to-bd5", "dense6-to-dense6", "lazy-to-asym")
        pairs = {name: suite_pairs[name] for name in names}
        # one step per block, so no kernel is built
        pairs["dense24"] = ChainPair(random_dense(24, seed=24), random_dense(24, seed=25))
        for name, pair in pairs.items():
            n = pair.n
            step = 8 * n if _block_steps(n, 300) == 1 else 3 * n * n + 4 * n
            monkeypatch.setattr(chains, "_STACK_BUDGET", 2**40)
            whole = corridor(pair, 300)
            # one step per chunk, seven per chunk, and the default budget
            for budget in (1, 7 * 8 * step, 2**20):
                monkeypatch.setattr(chains, "_STACK_BUDGET", budget)
                part = corridor(pair, 300)
                for field in ("mus", "targets", "gaps"):
                    np.testing.assert_array_equal(
                        getattr(part, field), getattr(whole, field), err_msg=(name, budget)
                    )

    def test_memory_streams_as_T_grows(self):
        # n = 40 steps mu by [P0 | P1] and builds no kernel, n = 2 blocks of 64
        # steps; each horizon spans several full chunks, so that one runs beside
        # the results
        for n, horizons in ((40, (2000, 8000)), (2, (2 * 10**4, 2 * 10**5))):
            pair = ChainPair(random_dense(n, seed=0), random_dense(n, seed=1))
            pair.pi0  # solve the cached endpoint outside the trace
            excess = []
            for T in horizons:
                tracemalloc.start()
                try:
                    cor = corridor(pair, T)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                # beyond the (T, n) results, only a chunk's rows and kernel stacks
                excess.append(peak - (cor.mus.nbytes + cor.targets.nbytes + cor.gaps.nbytes))
            assert excess[1] - excess[0] <= 64 * 1024, (n, excess)


corridor_pairs = st.builds(
    lambda n, s0, s1: ChainPair(random_dense(n, seed=s0), random_dense(n, seed=s1)),
    st.integers(2, 8),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
)


# n = 23 to 32, where every corridor steps mu by [P0 | P1] (K = 1)
wide_pairs = st.builds(
    lambda n, s0, s1: ChainPair(random_dense(n, seed=s0), random_dense(n, seed=s1)),
    st.integers(23, 32),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
)


def _assert_bit_for_bit(cor, ref):
    for field in ("mus", "targets", "gaps"):
        np.testing.assert_array_equal(getattr(cor, field), getattr(ref, field), err_msg=field)


def _assert_near_reference(cor, ref):
    """The corridor against the per-step kernel loop: same targets, mu and gaps within 1e-12."""
    np.testing.assert_array_equal(cor.targets, ref.targets)
    assert np.abs(cor.mus - ref.mus).max() <= 1e-12
    assert np.abs(cor.gaps - ref.gaps).max() <= 1e-12
    top = np.sort(ref.gaps)[-2:]
    # the worst step is decided wherever rounding cannot swap the top two gaps
    if top.size == 1 or top[1] - top[0] > 1e-12:
        assert cor.worst[0] == ref.worst[0]


class TestBlockedCorridor:
    """The one-pass blocked scan and the kernel-free one-step scan against the per-step loops."""

    def test_block_steps(self):
        assert [_block_steps(2, T) for T in (1, 3, 4, 10, 10**5, 10**6)] == [1, 1, 2, 3, 64, 64]
        assert _block_steps(5, 5408) == 40
        # one step per block once a block product costs more than the step it saves
        assert [_block_steps(n, 10**6) for n in (22, 23, 32, 40, 200)] == [2, 1, 1, 1, 1]

    @settings(max_examples=40)
    @given(pair=corridor_pairs, T=st.integers(1, 3000))
    def test_matches_reference(self, pair, T):
        _assert_near_reference(corridor(pair, T), corridor_reference(pair, T))

    @settings(max_examples=30)
    @given(pair=corridor_pairs, T=st.integers(4, 3000))
    def test_block_ends_are_the_left_to_right_carry_bit_for_bit(self, pair, T):
        # from T = 4 up K > 1: each full block's end is mu carried by its block product
        K = _block_steps(pair.n, T)
        ends = corridor(pair, T).mus[K - 1 :: K]
        assert ends.tobytes() == corridor_block_ends_reference(pair, T, K).tobytes()

    @pytest.mark.parametrize("name", ["lazy-to-asym", "dense6-to-dense6"])
    def test_long_horizon_matches_reference(self, suite_pairs, name):
        pair = suite_pairs[name]
        _assert_near_reference(corridor(pair, 10**5), corridor_reference(pair, 10**5))

    # K = 1 from n = 23 up, and at every n for T <= 3
    one_step = pytest.mark.parametrize(
        "n, T", [(32, 1), (32, 7), (32, 300), (40, 300), (2, 1), (5, 2), (8, 3)]
    )

    @one_step
    def test_one_step_blocks_are_the_kernel_free_loop_bit_for_bit(self, n, T):
        pair = ChainPair(random_dense(n, seed=n), random_dense(n, seed=n + 1))
        assert _block_steps(n, T) == 1
        _assert_bit_for_bit(corridor(pair, T), corridor_step_reference(pair, T))

    @one_step
    def test_one_step_blocks_are_near_the_kernel_loop(self, n, T):
        pair = ChainPair(random_dense(n, seed=n), random_dense(n, seed=n + 1))
        _assert_near_reference(corridor(pair, T), corridor_reference(pair, T))

    @settings(max_examples=20, deadline=None)
    @given(pair=wide_pairs, T=st.integers(1, 400))
    def test_wide_pairs_match_both_loops(self, pair, T):
        cor = corridor(pair, T)
        _assert_bit_for_bit(cor, corridor_step_reference(pair, T))
        _assert_near_reference(cor, corridor_reference(pair, T))


class TestHorizonRule:
    """A horizon is an integer of at least 1; numpy integers count, bools and floats do not."""

    def test_fractional_horizons_raise(self, lazy_asym_pair):
        for fn in (adiabatic_distance, corridor, prop3_check):
            for T in (2.5, 2.9, 2.0, math.nan):
                with pytest.raises(OutOfRangeError):
                    fn(lazy_asym_pair, T)

    def test_horizons_below_one_raise(self, lazy_asym_pair):
        for fn in (adiabatic_distance, corridor, prop3_check):
            for T in (0, -3, np.int64(0)):
                with pytest.raises(OutOfRangeError):
                    fn(lazy_asym_pair, T)
        with pytest.raises(OutOfRangeError):
            stable_adiabatic_time(lazy_asym_pair, 0.05, cap=0)

    def test_bools_raise(self, lazy_asym_pair):
        with pytest.raises(OutOfRangeError):
            stable_adiabatic_time(lazy_asym_pair, 0.05, cap=True)
        for fn in (adiabatic_distance, corridor, prop3_check):
            with pytest.raises(OutOfRangeError):
                fn(lazy_asym_pair, True)

    def test_horizons_with_no_float_value_raise(self, lazy_asym_pair):
        for fn in (adiabatic_distance, corridor, prop3_check):
            with pytest.raises(OutOfRangeError, match="^T must have a float value"):
                fn(lazy_asym_pair, 10**400)

    def test_numpy_integers_are_horizons(self, lazy_asym_pair):
        pair = lazy_asym_pair
        assert adiabatic_distance(pair, np.int32(3)) == adiabatic_distance(pair, 3)
        cor = corridor(pair, np.int64(5))
        assert type(cor.T) is int and cor.T == 5
        np.testing.assert_array_equal(cor.gaps, corridor(pair, 5).gaps)
        np.testing.assert_array_equal(prop3_check(pair, np.int64(5))[1], prop3_check(pair, 5)[1])
        assert stable_adiabatic_time(pair, 0.05, cap=np.int64(2)).t_sad == 2


class TestAdiabaticDistance:
    def test_constant_lazy_closed_form(self, lazy):
        pair = ChainPair(lazy, lazy)
        for T in (1, 2, 3, 5):
            # the schedule applies T + 1 copies of the kernel
            assert adiabatic_distance(pair, T) == pytest.approx(
                two_state_worst_gap(0.25, 0.25, T + 1), abs=1e-12
            )
        assert adiabatic_distance(pair, 3) == pytest.approx(0.03125, abs=1e-12)

    def test_one_step_mixer_zero(self):
        P = validate_stochastic([[0.5, 0.5], [0.5, 0.5]])
        pair = ChainPair(P, P)
        for T in (1, 4, 9):
            assert adiabatic_distance(pair, T) <= 1e-15

    def test_forward_pair_T1(self, lazy_asym_pair):
        # product is P0 P1 = [[0.7, 0.3], [0.5, 0.5]] against (2/3, 1/3)
        assert adiabatic_distance(lazy_asym_pair, 1) == pytest.approx(1 / 6, abs=1e-12)

    def test_matches_oracle(self, suite_pairs):
        for name, pair in suite_pairs.items():
            for T in (1, 3, 7):
                got = adiabatic_distance(pair, T)
                want = adiabatic_distance_oracle(
                    np.array(pair.p0.entries), np.array(pair.p1.entries), T
                )
                assert got == pytest.approx(want, abs=1e-9), (name, T)

    def test_equals_the_loop_reference(self, suite_pairs):
        # bit for bit the suffix-order loop, the one product order; the left-to-right
        # loop associates the other way, within the rounding radius
        for name, pair in suite_pairs.items():
            for T in (1, 2, 7, 40):
                got = adiabatic_distance(pair, T)
                assert got.hex() == suffix_gaps_reference(pair, T, T + 1)[-1].hex(), (name, T)
                radius = 2 * (T + 1) * _step_radius(pair.n)
                assert abs(got - adiabatic_distance_reference(pair, T)) <= radius, (name, T)

    def test_dirac_starts_suffice(self, lazy_asym_pair):
        rng = np.random.default_rng(43)
        T = 4
        M = np.array(lazy_asym_pair.p0.entries)
        for k in range(1, T + 1):
            t = k / T
            M = M @ (
                (1 - t) * lazy_asym_pair.p0.entries + t * lazy_asym_pair.p1.entries
            )
        pi1 = lazy_asym_pair.pi1.mass
        dmax = adiabatic_distance(lazy_asym_pair, T)
        for _ in range(100):
            nu = rng.dirichlet(np.ones(2))
            assert tv(nu @ M, pi1) <= dmax + 1e-12


class TestAdiabaticTime:
    def test_lazy_pair_exact(self, lazy):
        pair = ChainPair(lazy, lazy)
        res = adiabatic_time(pair, 0.05)
        assert res.t_ad == 3
        assert res.certified_horizon == 1000  # ceil(2 * 5^2 / 0.05)
        gaps = _adiabatic_gaps(pair, np.arange(1, 1001))
        assert gaps[2 - 1] > 0.05
        assert all(gaps[T - 1] <= 0.05 + 1e-12 for T in range(3, 1001))
        # the scanned head is the full scan's
        assert [T for T, _ in res.per_T_gaps] == list(range(1, res.tail_from + 1))
        np.testing.assert_array_equal([g for _, g in res.per_T_gaps], gaps[: res.tail_from])

    def test_one_step_mixer(self):
        P = validate_stochastic([[0.5, 0.5], [0.5, 0.5]])
        res = adiabatic_time(ChainPair(P, P), 0.1)
        assert res.t_ad == 1

    def test_horizon_cap(self, lazy):
        with pytest.raises(HorizonCapError):
            adiabatic_time(ChainPair(lazy, lazy), 0.05, horizon_cap=999)

    def test_horizon_cap_carries_the_certified_horizon(self, lazy_asym_pair):
        horizon = adiabatic_time(lazy_asym_pair, 0.1).certified_horizon
        with pytest.raises(HorizonCapError) as excinfo:
            adiabatic_time(lazy_asym_pair, 0.1, horizon_cap=horizon - 1)
        assert excinfo.value.horizon == horizon

    def test_horizon_cap_is_an_integer_of_at_least_one(self, lazy_asym_pair):
        for cap in (0, True, 2.5, 1e5):
            with pytest.raises(OutOfRangeError):
                adiabatic_time(lazy_asym_pair, 0.1, horizon_cap=cap)

    def test_horizon_too_large_for_a_float_is_above_every_cap(self):
        P = validate_stochastic([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(HorizonCapError) as excinfo:
            adiabatic_time(ChainPair(P, P), 1e-320, horizon_cap=10**300)
        assert excinfo.value.horizon == math.inf

    def test_bad_eps(self, lazy_asym_pair):
        with pytest.raises(NonPositiveEpsError):
            adiabatic_time(lazy_asym_pair, 0.0)
        for eps in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonFiniteError):
                adiabatic_time(lazy_asym_pair, eps)

    def test_huge_eps_has_one_step_horizon(self, lazy_asym_pair):
        res = adiabatic_time(lazy_asym_pair, 1e13)
        assert (res.t_ad, res.certified_horizon) == (1, 1)
        assert res.tail_from == 1 and len(res.per_T_gaps) == 1

    def test_prop1_bound_on_two_state_pairs(self, suite_pairs):
        for name in ("lazy-to-asym", "asym-to-lazy", "lazy-to-uniform2"):
            pair = suite_pairs[name]
            for eps in (0.2, 0.1):
                res = adiabatic_time(pair, eps)
                m1 = mixing_time(pair.p1, eps / 2).tmix
                assert res.t_ad <= ceil_int(2.0 * m1 * m1 / eps), (name, eps)

    def test_tmix_half_is_the_sup_scans_s1_sample(self, suite_pairs):
        # PROP1 scans P1 through the family helper, as the sup's s = 1 sample: one number
        for name, pair in suite_pairs.items():
            for eps in (0.3, 0.25, 0.2, 0.1):
                sampled = dict(sup_mixing_time(pair, eps / 2).per_s_samples)[1.0]
                assert adiabatic_time(pair, eps).tmix_half == sampled, (name, eps)


def _suffix_loop_gaps(pair, H):
    """The gaps at T = 1..H from the suffix-order loop, the order of the library's one product scan."""
    return np.array([suffix_gaps_reference(pair, T, T + 1)[-1] for T in range(1, H + 1)])


def _assert_within_the_radius_of_the_left_loop(pair, gaps):
    """Gaps at T = 1..len(gaps) against the left-to-right loop, within 2 (T + 1) (n + 2) u."""
    Ts = np.arange(1, len(gaps) + 1)
    left = [adiabatic_distance_reference(pair, T) for T in Ts]
    assert (np.abs(gaps - left) <= 2 * (Ts + 1) * _step_radius(pair.n)).all()


dense_pairs = st.builds(
    lambda n, s0, s1: ChainPair(random_dense(n, seed=s0), random_dense(n, seed=s1)),
    st.integers(2, 6),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
)


def birth_death_and_dense_pairs(n_max: int):
    return st.one_of(
        st.builds(
            lambda n, s0, s1: ChainPair(random_dense(n, seed=s0), random_dense(n, seed=s1)),
            st.integers(2, n_max),
            st.integers(0, 2**32 - 1),
            st.integers(0, 2**32 - 1),
        ),
        st.builds(
            lambda n, pq: ChainPair(birth_death(n, *pq), birth_death(n, *pq[::-1])),
            st.integers(2, n_max),
            st.sampled_from([(0.3, 0.4), (0.2, 0.5), (0.1, 0.3)]),
        ),
    )


scan_pairs = birth_death_and_dense_pairs(8)
BD4_TO_DENSE4 = build_suite_pairs()["bd4-to-dense4"]
# n = 23, where every corridor steps mu by [P0 | P1], the stable scan's step formula: t_sad 114 at eps 0.2
BD23 = ChainPair(birth_death(23, 0.38, 0.4), birth_death(23, 0.4, 0.38))
BD5 = ChainPair(birth_death(5, 0.3, 0.4), birth_death(5, 0.4, 0.3))
exact_pairs = birth_death_and_dense_pairs(5)


def with_exact_pi1(pair):
    """(pair, pi1 of its float P1 in exact arithmetic)."""
    return pair, exact_stationary(pair.p1.entries)


def bottleneck(e: float):
    """Three states whose two ends are left with probability e only: conditioned like 1 / e."""
    return validate_stochastic([[1 - e, e, 0], [0.5, 0, 0.5], [0, e, 1 - e]])


def bottleneck_case(x: float):
    """(the bottleneck pair e -> 4 e at e = 10^-x, its float pi1 taken exactly).

    Against the float pi1 rather than the exact one, the gap's error is the product's
    rounding alone, apart from the stationary solve's error, which grows as e shrinks.
    """
    pair = ChainPair(bottleneck(10.0**-x), bottleneck(4 * 10.0**-x))
    return pair, [Fraction(float(p)) for p in pair.pi1.mass]


bottleneck_pairs = st.floats(4.0, 13.0).map(bottleneck_case)  # e from 1e-4 to 1e-13


def _exact_tv(row, exact) -> float:
    """TV between a float row, taken exactly, and an exact distribution, rounded once."""
    return float(sum(abs(Fraction(float(x)) - p) for x, p in zip(row, exact)) / 2)


def _line_case(x: float):
    """(the bottleneck pair e -> 4 e at e = 10^-x, its radius u / (2 e)).

    A half-ulp rounding of a kernel's diagonal entry 1 - e' moves e' by u / 2, so a float
    kernel's pi lies about u / (2 e) from the pi of the exact line: no solver of it does better.
    """
    e = 10.0**-x
    return ChainPair(bottleneck(e), bottleneck(4 * e)), 2.0**-53 / (2 * e)


class TestStationaryInterpolant:
    """pi_t from one cofactor interpolant per pair against the direct solve of each kernel."""

    @settings(max_examples=40, deadline=None)
    @given(
        pair=scan_pairs,
        ts=st.lists(st.floats(0.0, 1.0), max_size=20),
        T=st.integers(1, 400),
    )
    def test_within_1e_13_of_the_direct_solve(self, pair, ts, T):
        # random dense and birth-death pairs, n 2 to 8: free t values, the steps k / T and the nodes
        ts = np.concatenate([ts, np.arange(T + 1) / T, _interpolant(pair)[0]])
        got = _stationary_at(pair, ts)
        assert _row_tv(got, _stationary_stack(_interp_stack(pair, ts))).max() <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(
        case=st.one_of(
            st.floats(4.0, 13.0).map(_line_case),
            birth_death_and_dense_pairs(4).map(lambda pair: (pair, 0.0)),
        ),
        T=st.integers(1, 60),
        data=st.data(),
    )
    def test_no_further_from_the_exact_line_than_the_direct_solve(self, case, T, data):
        # Against the pi of (1 - t) P0 + t P1 in exact rationals, t = k / T. On a nearly
        # decomposable pair the direct solve's error is the lottery of its kernel's rounding,
        # 0 at some t and near u / (2 e) at others, and the interpolant's is its weights',
        # which slogdet takes from the node kernels: within the larger of the two.
        pair, radius = case
        k = data.draw(st.integers(0, T))
        exact = exact_line_stationary(pair.p0.entries, pair.p1.entries, Fraction(k, T))
        ts = np.array([k / T])
        got = _exact_tv(_stationary_at(pair, ts)[0], exact)
        direct = _exact_tv(_stationary_stack(_interp_stack(pair, ts))[0], exact)
        assert got <= max(direct, radius) + 1e-15, (got, direct, radius)

    @settings(max_examples=40, deadline=None)
    @given(
        pair=birth_death_and_dense_pairs(40),
        ts=st.lists(st.floats(0.0, 1.0), max_size=20),
        rows=st.sampled_from([1, 500]),
    )
    def test_equals_the_row_major_oracle_bit_for_bit(self, pair, ts, rows):
        # free t values, the nodes, subnormals and the steps of a 500-step corridor, in
        # chunks of 1 or 500 rows: the column-major gate moves no target float
        ts = np.concatenate([ts, _interpolant(pair)[0], [5e-324, 1e-310], np.arange(1, 501) / 500])
        for lo in range(0, len(ts), rows):
            chunk = ts[lo : lo + rows]
            assert _stationary_at(pair, chunk).tobytes() == stationary_at_row_major(pair, chunk).tobytes()

    def test_ends_and_nodes_are_their_solves_bit_for_bit(self, suite_pairs):
        for name, pair in suite_pairs.items():
            nodes, _, node_pis, _ = _interpolant(pair)
            assert (nodes[0], nodes[-1]) == (0.0, 1.0)
            ends = _stationary_at(pair, np.array([1.0, 0.5, 0.0]))
            assert ends[0].tobytes() == pair.pi1.mass.tobytes(), name
            assert ends[2].tobytes() == pair.pi0.mass.tobytes(), name
            assert _stationary_at(pair, nodes[::-1]).tobytes() == node_pis[::-1].tobytes(), name
            assert node_pis.tobytes() == _stationary_stack(_interp_stack(pair, nodes)).tobytes(), name

    def test_a_row_is_the_same_whatever_the_other_rows(self, suite_pairs):
        # so that a corridor's targets do not depend on its chunks, nor the stable
        # scan's on its live horizons
        for name, pair in suite_pairs.items():
            ts = np.concatenate([np.arange(1, 38) / 37, [0.5, 1e-300, 5e-324]])
            whole = _stationary_at(pair, ts)
            for i, t in enumerate(ts):
                assert _stationary_at(pair, np.array([t]))[0].tobytes() == whole[i].tobytes(), (name, t)

    def test_a_t_next_to_a_node_does_not_overflow(self, suite_pairs):
        pair = suite_pairs["complete5-to-bd5"]
        ts = np.array([5e-324, 1e-300, float(np.nextafter(1.0, 0.0)), float(np.nextafter(0.5, 1.0))])
        assert _row_tv(_stationary_at(pair, ts), _stationary_stack(_interp_stack(pair, ts))).max() <= 1e-15

    def test_built_once_per_pair(self, suite_pairs):
        pair = suite_pairs["bd4-to-dense4"]
        assert _interpolant(pair) is _interpolant(pair)
        fresh = ChainPair(pair.p0, pair.p1)
        assert _interpolant(fresh) is not _interpolant(pair)
        # the cache holds its pairs weakly: it keeps no dropped pair alive
        dropped = weakref.ref(fresh)
        del fresh
        gc.collect()
        assert dropped() is None

    def test_node_solves_fit_the_stack_budget(self, monkeypatch):
        # one node per chunk: the nodes are solved n stacks of one, to the same floats
        pair = ChainPair(birth_death(6, 0.3, 0.4), birth_death(6, 0.4, 0.3))
        whole = _interpolant(ChainPair(pair.p0, pair.p1))
        sizes, solve = [], adiabatic._stationary_stack
        monkeypatch.setattr(chains, "_STACK_BUDGET", 1)
        monkeypatch.setattr(adiabatic, "_stationary_stack", lambda Ps: sizes.append(len(Ps)) or solve(Ps))
        chunked = _interpolant(pair)
        assert sizes == [1] * 6
        for a, b in zip(whole, chunked):
            assert a.tobytes() == b.tobytes()

    def test_a_weight_of_the_wrong_sign_is_a_breakdown(self, monkeypatch):
        pair = ChainPair(birth_death(4, 0.3, 0.4), birth_death(4, 0.4, 0.3))
        real = np.linalg.slogdet

        def flipped(A):
            sign, logq = real(A)
            sign[2] = -1.0
            return sign, logq

        monkeypatch.setattr(np.linalg, "slogdet", flipped)
        match = r"^stationary interpolant, node t=0\.7499999999999999: .* sign -1\.0"
        with pytest.raises(NumericalBreakdownError, match=match):
            _stationary_at(pair, np.array([0.3]))

    def test_a_row_that_fails_the_gate_is_a_breakdown(self, monkeypatch):
        pair = ChainPair(birth_death(4, 0.3, 0.4), birth_death(4, 0.4, 0.3))
        nodes, weights, node_pis, W01 = _interpolant(pair)
        monkeypatch.setitem(adiabatic._INTERPOLANTS, pair, (nodes, weights, node_pis[:, ::-1].copy(), W01))
        with pytest.raises(NumericalBreakdownError, match=r"^stationary interpolant at t=0\.3: residual"):
            _stationary_at(pair, np.array([0.3, 0.0]))


class TestCorridorStream:
    """The rows the chunked stream yields from a first step against the collected corridor."""

    @settings(max_examples=60)
    @given(
        pair=scan_pairs,
        T=st.integers(1, 400),
        where=st.sampled_from([1, 2, -4, -2, -1]),
        blocks=st.sampled_from([None, 1, 2, 3]),
    )
    # K = 11 and a last block of 9 steps: first mid-block, and in the partial block
    @example(pair=BD5, T=130, where=65, blocks=None)
    @example(pair=BD5, T=130, where=65, blocks=2)
    @example(pair=BD5, T=130, where=125, blocks=None)
    @example(pair=BD5, T=130, where=125, blocks=1)
    def test_tail_is_the_corridor_suffix_bit_for_bit(self, pair, T, where, blocks):
        # first step where (at most T) for where > 0, else ceil(T / 4), ceil(T / 2) or T;
        # a chunk of 1-3 blocks, or the budget's
        first = min(T, where) if where > 0 else -(T // where)
        cor = corridor(pair, T)
        n, K = pair.n, _block_steps(pair.n, T)
        with pytest.MonkeyPatch.context() as mp:
            if blocks:
                mp.setattr(chains, "_STACK_BUDGET", blocks * K * 8 * (3 * n * n + 4 * n))
            rows = list(adiabatic._corridor_stream(pair, T, first))
        assert [k for k, *_ in rows] == list(np.cumsum([first] + [len(g) for *_, g in rows[:-1]]))
        for field, got in zip(("mus", "targets", "gaps"), zip(*(r[1:] for r in rows))):
            assert np.concatenate(got).tobytes() == getattr(cor, field)[first - 1 :].tobytes()

    @settings(max_examples=60)
    @given(pair=scan_pairs, T=st.integers(1, 400), blocks=st.sampled_from([None, 1, 2, 3]))
    @example(pair=BD23, T=114, blocks=None)
    def test_worst_reduced_chunk_by_chunk_is_the_corridors(self, pair, T, blocks):
        want = corridor(pair, T).worst
        n, K = pair.n, _block_steps(pair.n, T)
        with pytest.MonkeyPatch.context() as mp:
            if blocks:
                mp.setattr(chains, "_STACK_BUDGET", blocks * K * 8 * (3 * n * n + 4 * n))
            k, gap = adiabatic._corridor_worst(pair, T)
        assert (k, gap.hex()) == (want[0], want[1].hex())

    @given(
        chunks=st.lists(
            st.lists(st.sampled_from([0.0, 0.1, 0.3, math.nan]) | st.floats(0.0, 1.0), min_size=1, max_size=5),
            min_size=1,
            max_size=6,
        )
    )
    def test_worst_takes_the_first_nan_or_else_the_first_max(self, chunks):
        # gaps with ties and NaN, yielded in chunks as the stream yields them
        gaps = np.concatenate(chunks)
        want = Corridor(len(gaps), np.zeros((len(gaps), 2)), np.zeros((len(gaps), 2)), gaps).worst

        def stream(pair, T):
            for k, part in zip(np.cumsum([1] + [len(c) for c in chunks[:-1]]).tolist(), chunks):
                yield k, None, None, np.array(part)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(adiabatic, "_corridor_stream", stream)
            k, gap = adiabatic._corridor_worst(None, len(gaps))
        assert (k, repr(gap)) == (want[0], repr(want[1]))


class TestBatchedAdiabaticGaps:
    """The all-horizons kernel against the single-horizon loop references and the oracle."""

    @settings(max_examples=40)
    @given(pair=dense_pairs, H=st.integers(1, 60))
    def test_equals_loop_and_oracle(self, pair, H):
        gaps = _adiabatic_gaps(pair, np.arange(1, H + 1))
        np.testing.assert_array_equal(gaps, _suffix_loop_gaps(pair, H))
        _assert_within_the_radius_of_the_left_loop(pair, gaps)
        P0, P1 = np.array(pair.p0.entries), np.array(pair.p1.entries)
        oracle = [adiabatic_distance_oracle(P0, P1, T) for T in range(1, H + 1)]
        np.testing.assert_allclose(gaps, oracle, rtol=0.0, atol=1e-12)

    @settings(max_examples=15)
    @given(pair=dense_pairs, eps=st.sampled_from([0.3, 0.2, 0.1]))
    def test_exact_scan_matches_loop(self, pair, eps):
        res = adiabatic_time(pair, eps)
        H, T_c = res.certified_horizon, res.tail_from
        assert [T for T, _ in res.per_T_gaps] == list(range(1, T_c + 1))
        head = np.array([g for _, g in res.per_T_gaps])
        np.testing.assert_array_equal(head, _suffix_loop_gaps(pair, T_c))
        _assert_within_the_radius_of_the_left_loop(pair, head)
        full = _adiabatic_gaps(pair, np.arange(1, H + 1))
        fails = [T for T in range(1, H + 1) if not full[T - 1] <= eps + 1e-12]
        assert res.t_ad == (fails[-1] + 1 if fails else 1)

    def test_several_chunks_same_array(self, suite_pairs, monkeypatch):
        for name in ("complete5-to-bd5", "dense6-to-dense6", "lazy-to-asym"):
            pair = suite_pairs[name]
            Ts = np.arange(1, 81)
            whole = _adiabatic_gaps(pair, Ts)
            n = pair.n
            # one horizon per chunk, then seven per chunk
            for budget in (1, 7 * 8 * (3 * n * n + 4)):
                monkeypatch.setattr(chains, "_STACK_BUDGET", budget)
                np.testing.assert_array_equal(_adiabatic_gaps(pair, Ts), whole, err_msg=name)
            monkeypatch.undo()
            np.testing.assert_array_equal(whole, _suffix_loop_gaps(pair, 80), err_msg=name)
            _assert_within_the_radius_of_the_left_loop(pair, whole)

    def test_nan_gap_counts_as_failure(self, suite_pairs, monkeypatch):
        # a head long enough to hold T = 10: 1..34 at eps 0.2, where t_ad = 4
        pair = suite_pairs["complete5-to-bd5"]
        T_c = adiabatic_time(pair, 0.2).tail_from
        assert T_c > 10
        real = _adiabatic_gaps

        def with_nan_at(T_bad):
            def fake(pair, Ts):
                gaps = real(pair, Ts)
                gaps[T_bad - 1] = np.nan
                return gaps

            return fake

        monkeypatch.setattr(adiabatic, "_adiabatic_gaps", with_nan_at(10))
        res = adiabatic_time(pair, 0.2)
        assert res.t_ad == 11
        T, gap = res.per_T_gaps[9]
        assert T == 10 and type(T) is int and type(gap) is float and np.isnan(gap)

        monkeypatch.setattr(adiabatic, "_adiabatic_gaps", with_nan_at(T_c))
        with pytest.raises(ChainError, match="numerical breakdown"):
            adiabatic_time(pair, 0.2)

    def test_memory_bounded_as_horizon_grows(self, suite_pairs, monkeypatch):
        pair = suite_pairs["dense6-to-dense6"]
        budget = 32 * 1024
        monkeypatch.setattr(chains, "_STACK_BUDGET", budget)
        peaks = []
        for H in (100, 400):
            Ts = np.arange(1, H + 1)
            tracemalloc.start()
            try:
                _adiabatic_gaps(pair, Ts)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # beyond the chunked stacks: 8 output bytes per horizon and numpy's
        # fixed-size iteration buffers for the broadcast kernel weights
        assert max(peaks) <= budget + 64 * 1024, peaks
        assert peaks[1] - peaks[0] <= 8 * 1024, peaks


class TestTailCertificate:
    """The head scan 1..S and the suffix-certificate ladder S..H, with Mitrophanov's bound as an oracle."""

    def test_no_room_scans_every_horizon(self, lazy_asym_pair, monkeypatch):
        want = adiabatic_time(lazy_asym_pair, 0.1)
        # a rounding radius that fills eps leaves the ladder no room
        monkeypatch.setattr(adiabatic, "_step_radius", lambda n: 1.0)
        res = adiabatic_time(lazy_asym_pair, 0.1)
        H = res.certified_horizon
        assert want.tail_from < H and res.tail_from == H
        assert [T for T, _ in res.per_T_gaps] == list(range(1, H + 1))
        assert res.t_ad == want.t_ad

    def test_constant_family_needs_only_the_mixing_steps(self, lazy):
        # L = 0: a rung lo is certified once lo + 1 factors of P1 mix to eps, and
        # d1(4) = 0.5^5 <= 0.05 < d1(3) = 0.5^4; Mitrophanov's bound needs d1(5)
        pair = ChainPair(lazy, lazy)
        res = adiabatic_time(pair, 0.05)
        T_c = mitrophanov_tail_from(pair, 0.05, mixing_time(lazy, 0.025), res.certified_horizon)
        assert (res.tmix_half, res.tail_from, T_c) == (5, 3, 4)

    def test_one_step_mixer_target_certifies_every_horizon(self, lazy):
        # m = 1: the last factor is P1 itself, whose rows are all pi1
        P1 = validate_stochastic([[0.5, 0.5], [0.5, 0.5]])
        pair = ChainPair(lazy, P1)
        res = adiabatic_time(pair, 0.1)
        assert (res.tmix_half, res.tail_from, res.t_ad) == (1, 1, 1)
        assert res.certified_horizon == 20
        assert (_adiabatic_gaps(pair, np.arange(1, 21)) <= 1e-15).all()

    def test_suite_headline_thresholds(self, suite_pairs):
        # Mitrophanov's closed-form T_c (tests/oracles.py) is 187 and 273
        pair = suite_pairs["complete5-to-bd5"]
        got = [
            (r.t_ad, r.tail_from, r.certified_horizon)
            for r in (adiabatic_time(pair, eps) for eps in (0.3, 0.25))
        ]
        assert got == [(2, 7, 960), (3, 10, 1352)]

    @settings(max_examples=15)
    @given(pair=dense_pairs, eps=st.sampled_from([0.3, 0.2, 0.1]))
    def test_tail_passes_against_the_full_scan(self, pair, eps):
        res = adiabatic_time(pair, eps)
        H, S, m = res.certified_horizon, res.tail_from, res.tmix_half
        mix = mixing_time(pair.p1, eps / 2)
        T_c = mitrophanov_tail_from(pair, eps, mix, H)
        full = _adiabatic_gaps(pair, np.arange(1, H + 1))
        assert S <= T_c
        assert (full[S - 1 :] <= eps).all()
        fails = np.flatnonzero(~(full <= eps + PASS_SLACK))
        assert res.t_ad == (int(fails[-1]) + 2 if fails.size else 1)
        # Mitrophanov's bound holds on the scan, and at T_c it is within eps
        d1 = mix.final_gap
        L = max(tv(row0, row1) for row0, row1 in zip(pair.p0.entries, pair.p1.entries))
        Ts = np.arange(max(1, m - 1), H + 1)
        bound = d1 + L * m * (m - 1) / (2.0 * Ts)
        assert (full[Ts - 1] <= bound + 1e-12).all()
        if T_c < H:
            assert T_c >= m - 1
            assert d1 + L * m * (m - 1) / (2.0 * T_c) <= eps

    def test_suite_pairs_match_the_full_scan(self, suite_pairs):
        # one scan to the largest H serves every eps: a gap does not depend on eps
        for name, pair in suite_pairs.items():
            results = {eps: adiabatic_time(pair, eps) for eps in (0.3, 0.25, 0.2, 0.1)}
            H = max(r.certified_horizon for r in results.values())
            full = _adiabatic_gaps(pair, np.arange(1, H + 1))
            for eps, res in results.items():
                head = full[: res.certified_horizon]
                fails = np.flatnonzero(~(head <= eps + PASS_SLACK))
                assert res.t_ad == (int(fails[-1]) + 2 if fails.size else 1), (name, eps)
                assert (head[res.tail_from - 1 :] <= eps).all(), (name, eps)

    def test_the_ladder_reaches_down_to_near_t_ad(self):
        # t_ad as the scan from Mitrophanov's T_c alone found it; it took 75 s on bd20,
        # whose T_c is 9,113, and 0.2-4 s on the rest, against 0.02-0.8 s here. The
        # heads are 106, 188, 194, 341, 307 and 841 horizons; each bound is about 1.1x
        for n, eps, t_ad, most, cap in [
            (10, 0.3, 58, 120, None),
            (10, 0.2, 88, 210, None),
            (12, 0.3, 93, 215, None),
            (12, 0.2, 139, 380, None),
            (14, 0.3, 137, 340, None),
            (20, 0.3, 306, 930, 10**6),
        ]:
            pair = ChainPair(birth_death(n, 0.3, 0.4), birth_death(n, 0.4, 0.3))
            res = adiabatic_time(pair, eps, **({"horizon_cap": cap} if cap else {}))
            assert (res.t_ad, len(res.per_T_gaps)) == (t_ad, res.tail_from), (n, eps)
            assert res.tail_from <= most, (n, eps, res.tail_from)


class TestSuffixCertificate:
    """The suffix bound and the interval step against direct scans, and the ladder against its loop."""

    @settings(max_examples=30)
    @given(pair=scan_pairs, T=st.integers(1, 40))
    def test_every_suffix_bounds_the_gap(self, pair, T):
        g = suffix_gaps_reference(pair, T, T + 1)
        gap = adiabatic_distance_reference(pair, T)
        radius = 2 * (T + 1) * _step_radius(pair.n)
        assert (g >= gap - radius).all()
        # all T + 1 factors are the whole product, associated the other way
        assert abs(g[T] - gap) <= radius

    @settings(max_examples=25)
    @given(pair=scan_pairs, eps=st.sampled_from([0.3, 0.2, 0.1]), data=st.data())
    def test_certified_intervals_hold_at_sampled_horizons(self, pair, eps, data):
        res = adiabatic_time(pair, eps)
        S, rungs = suffix_ladder_reference(pair, eps)
        assert res.tail_from == S
        radius = 2 * (res.certified_horizon + 1) * _step_radius(pair.n)
        drawn = [
            (T, lo, hi, bound)
            for lo, hi, bound in rungs
            for T in data.draw(st.lists(st.integers(lo, hi), min_size=1, max_size=2))
        ]
        # the ladder starts at H, so the drawn horizons reach it: one batched scan serves them all
        Ts = sorted({T for T, *_ in drawn})
        gap = dict(zip(Ts, _adiabatic_gaps(pair, Ts)))
        for T, lo, hi, bound in drawn:
            assert gap[T] <= bound + radius, (lo, hi, T)

    def test_the_ladder_is_chunked_within_the_stack_budget(self, suite_pairs, monkeypatch):
        bd10 = ChainPair(birth_death(10, 0.3, 0.4), birth_death(10, 0.4, 0.3))
        for pair, eps in ((suite_pairs["complete5-to-bd5"], 0.1), (bd10, 0.3)):
            want = adiabatic_time(pair, eps)
            n = pair.n
            # one rung per chunk, then three per chunk
            for budget in (1, 3 * 8 * (3 * n * n + 4)):
                monkeypatch.setattr(chains, "_STACK_BUDGET", budget)
                assert adiabatic_time(pair, eps) == want, (n, budget)
            monkeypatch.undo()


class TestExactAdiabaticGap:
    """Float gaps and certificates against the adiabatic gap in exact rational arithmetic."""

    def test_two_state_closed_form(self, lazy):
        # a constant lazy pair: the product is lazy^(T + 1), whose gap is 0.5 * 0.5^(T + 1)
        for T in (1, 4, 9):
            assert exact_adiabatic_gap(lazy.entries, lazy.entries, T) == Fraction(1, 2 ** (T + 2))

    @settings(max_examples=20)
    @given(pair=exact_pairs, eps=st.sampled_from([0.3, 0.2, 0.1]))
    def test_every_certified_horizon_passes_exactly(self, pair, eps):
        res = adiabatic_time(pair, eps)
        P0, P1 = pair.p0.entries, pair.p1.entries
        pi1 = exact_stationary(P1)
        for T in range(res.tail_from, min(res.certified_horizon, 60) + 1):
            assert exact_adiabatic_gap(P0, P1, T, pi1) <= eps, T

    @settings(max_examples=30)
    @given(case=st.one_of(exact_pairs.map(with_exact_pi1), bottleneck_pairs), T=st.integers(1, 60))
    def test_float_gaps_are_within_the_radius(self, case, T):
        pair, pi1 = case
        P0, P1 = pair.p0.entries, pair.p1.entries
        gaps = _adiabatic_gaps(pair, [1, T])
        for h, gap in zip((1, T), gaps):
            exact = exact_adiabatic_gap(P0, P1, h, pi1)
            assert abs(Fraction(float(gap)) - exact) <= 2 * (h + 1) * _step_radius(pair.n), h


class TestExactCorridor:
    """Float corridor and stable-scan mu against the corridor in exact rational arithmetic."""

    @settings(max_examples=20)
    @given(pair=exact_pairs, T=st.integers(1, 60))
    def test_mus_are_within_the_drop_margin_radii(self, pair, T):
        # l1 radii: the scan's mixed step (1 - t) mu P0 + t mu P1 rescaled, _step_radius(n) + 4u
        # a step, which corridor's mu takes too at K = 1. At K > 1 corridor's mu_k is k float
        # products with the rounded kernels, the block carries' and its own prefix's, each
        # within _step_radius(n), and ceil(k/K) rescales (one per carry, and one more for a
        # row inside a block), each within 2u: (k + ceil(k/K)) _step_radius(n) bounds it.
        # Their sum is within the (k + 1) margin the stable scan drops at
        n, u = pair.n, 2.0**-53
        K = _block_steps(n, T)
        cor, exact = corridor(pair, T), exact_corridor_mus(pair, T)
        W = np.hstack([pair.p0.entries, pair.p1.entries])
        mu = pair.pi0.mass[None]
        for k in range(1, T + 1):
            t = (k / np.array([T]))[:, None]
            Y = mu @ W
            mu = (1 - t) * Y[:, :n] + t * Y[:, n:]
            mu /= mu.sum(axis=1, keepdims=True)
            mixed, blocked = (k + 1) * (_step_radius(n) + 4 * u), (k + -(-k // K)) * _step_radius(n)
            for got, radius in ((cor.mus[k - 1], mixed if K == 1 else blocked), (mu[0], mixed)):
                assert sum(abs(Fraction(float(x)) - y) for x, y in zip(got, exact[k - 1])) <= radius, k
            assert np.abs(mu[0] - cor.mus[k - 1]).sum() <= (k + 1) * (3 * _step_radius(n) + 4 * u), k


class TestStableAdiabaticTime:
    def test_bad_eps(self, lazy_asym_pair):
        with pytest.raises(NonPositiveEpsError):
            stable_adiabatic_time(lazy_asym_pair, 0.0)
        # 10**400 is an int with no float
        for eps in (math.nan, math.inf, 10**400):
            with pytest.raises(NonFiniteError):
                stable_adiabatic_time(lazy_asym_pair, eps)

    @pytest.mark.parametrize("eps", [True, np.True_, "0.1", None])
    def test_eps_must_be_a_real_number(self, lazy_asym_pair, eps):
        with pytest.raises(OutOfRangeError, match="^eps must be a real number, got "):
            stable_adiabatic_time(lazy_asym_pair, eps)

    def test_constant_family(self, suite_chains):
        for name in ("lazy", "asym", "complete3"):
            res = stable_adiabatic_time(ChainPair(suite_chains[name], suite_chains[name]), 0.1)
            assert res.t_sad == 1, name
            assert res.worst_gap <= 1e-12

    def test_forward_pair_regression(self, lazy_asym_pair):
        res = stable_adiabatic_time(lazy_asym_pair, 0.05)
        assert res.t_sad == 2
        assert res.worst_k == 2
        assert res.worst_gap == pytest.approx(0.0466667, abs=1e-7)
        # T = 1 fails: single-step gap is 1/15
        assert corridor(lazy_asym_pair, 1).worst[1] == pytest.approx(1 / 15, abs=1e-12)

    def test_tighter_eps_regression(self, lazy_asym_pair):
        # pinned from the first run of the linear scan; T = 2 and 3 both fail
        res = stable_adiabatic_time(lazy_asym_pair, 0.03)
        assert res.t_sad == 4
        for T in range(1, 4):
            assert corridor(lazy_asym_pair, T).worst[1] >= 0.03

    def test_strict_comparison(self, lazy_asym_pair):
        # eps exactly equal to the T=1 gap must NOT pass at T=1
        gap1 = corridor(lazy_asym_pair, 1).worst[1]
        res = stable_adiabatic_time(lazy_asym_pair, gap1)
        assert res.t_sad == 2

    def test_scan_invariant_below_t_sad(self, suite_pairs):
        for name, pair in suite_pairs.items():
            res = stable_adiabatic_time(pair, 0.05)
            for T in range(1, res.t_sad):
                assert corridor(pair, T).worst[1] >= 0.05, (name, T)
            assert corridor(pair, res.t_sad).worst[1] < 0.05, name

    def test_cap_exceeded_carries_trace(self, lazy_asym_pair):
        with pytest.raises(CapExceededError) as excinfo:
            stable_adiabatic_time(lazy_asym_pair, 1e-9, cap=3)
        trace = excinfo.value.trace
        assert [T for T, _ in trace] == [1, 2, 3]
        assert all(gap >= 1e-9 for _, gap in trace)
        # each gap is the one at the step that ruled T out, up to the margin
        for T, gap in trace:
            margin = 2 * (T + 1) * (lazy_asym_pair.n + 2) * 2.0**-53
            assert np.abs(corridor(lazy_asym_pair, T).gaps - gap).min() <= margin, T

    @settings(max_examples=30)
    @given(pair=dense_pairs, eps=st.sampled_from([0.1, 0.05]))
    def test_matches_oracle_scan(self, pair, eps):
        P0, P1 = np.array(pair.p0.entries), np.array(pair.p1.entries)

        def oracle_max_gap(T):
            return corridor_oracle(P0, P1, T)[2].max()

        cap = 40
        try:
            res = stable_adiabatic_time(pair, eps, cap=cap)
        except CapExceededError:
            res = None
        t_sad = cap + 1 if res is None else res.t_sad
        for T in range(1, t_sad):
            assert oracle_max_gap(T) >= eps - 1e-9, T
        if res is not None:
            assert oracle_max_gap(t_sad) < eps + 1e-9
            assert res.worst_gap == pytest.approx(oracle_max_gap(t_sad), abs=1e-9)

    def test_memory_flat_as_t_sad_grows(self, suite_pairs):
        # the scan holds one corridor at a time and its (T, gap) trace, so
        # beyond the last corridor's own peak it keeps almost nothing
        pair = suite_pairs["complete5-to-bd5"]
        pair.pi0, pair.pi1  # solve the cached endpoints outside the trace

        def peak(fn):
            tracemalloc.start()
            try:
                return fn(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        excess = []
        for eps, want in ((0.05, 50), (0.02, 191)):
            res, scan_peak = peak(lambda: stable_adiabatic_time(pair, eps))
            assert res.t_sad == want
            _, last_peak = peak(lambda: corridor(pair, res.t_sad))
            excess.append(scan_peak - last_peak)
        assert max(excess) <= 64 * 1024, excess


def _stable_or_cap(scan, pair, eps, cap):
    try:
        return scan(pair, eps, cap)
    except CapExceededError as exc:
        return exc


def _assert_same_scan(pair, eps, cap):
    """The batched scan against the per-T reference loop."""
    got = _stable_or_cap(stable_adiabatic_time, pair, eps, cap)
    want = _stable_or_cap(stable_scan_reference, pair, eps, cap)
    assert type(got) is type(want), (got, want)
    if isinstance(want, CapExceededError):
        assert str(got) == str(want)
        assert [T for T, _ in got.trace] == [T for T, _ in want.trace]
        assert all(gap >= eps for _, gap in got.trace)
        # each gap is one of T's corridor gaps, up to the scan's rounding margin
        for T, gap in got.trace:
            margin = 3 * (T + 1) * _step_radius(pair.n)
            assert np.abs(corridor(pair, T).gaps - gap).min() <= margin, T
    else:
        assert (got.t_sad, got.worst_k) == (want.t_sad, want.worst_k)
        assert got.worst_gap.hex() == want.worst_gap.hex()
    return got


@pytest.fixture
def scan_work(monkeypatch):
    """Counts the stable scan's work while a test runs.

    ``rows`` holds the size of every target evaluation the scan makes at its
    check steps, ``nodes`` of every stationary solve (the interpolant's
    nodes) and ``stacks`` of every kernel stack made outside the reference
    corridor, ``decided`` the T of every reference corridor (``_corridor_worst``),
    ``early`` the block's lo, T and worst gap of every reference taken before
    step T, and ``steps`` the number of mu steps the scan took.
    """
    work = SimpleNamespace(rows=[], nodes=[], stacks=[], decided=[], early=[], steps=0)
    real_at, real_stack, real_interp, real_worst = (
        adiabatic._stationary_at,
        adiabatic._stationary_stack,
        chains._interp_stack,
        adiabatic._corridor_worst,
    )
    inside = []

    def at(pair, ts):
        if sys._getframe(1).f_code.co_name == "stable_adiabatic_time":
            work.rows.append(len(ts))
        return real_at(pair, ts)

    def stack(Ps):
        work.nodes.append(len(Ps))
        return real_stack(Ps)

    def interp(pair, ts):
        if not inside:
            work.stacks.append(len(ts))
        return real_interp(pair, ts)

    def reference(pair, T):
        scan = sys._getframe(1).f_locals
        work.decided.append(T)
        inside.append(T)
        try:
            k_worst, gap = real_worst(pair, T)
        finally:
            inside.pop()
        if scan["k"] < T:
            work.early.append((scan["lo"], T, gap))
        return k_worst, gap

    def counted(ks):
        for k in ks:
            work.steps += 1
            yield k

    def scan_range(*bounds):
        # the scan's only range is its step loop; the corridor's loops are not counted
        ks = range(*bounds)
        return counted(ks) if sys._getframe(1).f_code.co_name == "stable_adiabatic_time" else ks

    monkeypatch.setattr(adiabatic, "_stationary_at", at)
    monkeypatch.setattr(adiabatic, "_stationary_stack", stack)
    monkeypatch.setattr(chains, "_interp_stack", interp)
    monkeypatch.setattr(adiabatic, "_corridor_worst", reference)
    monkeypatch.setattr(adiabatic, "range", scan_range, raising=False)
    return work


# random_dense pairs pass within a few steps; birth-death ones take up to 58
# steps at n = 2 to 6 and reach a cap of 60 from n = 7 up
class TestBatchedStableScan:
    """Blocks of horizons dropped at a failing checked step, against the loop."""

    @settings(max_examples=30)
    @given(
        pair=dense_pairs,
        eps=st.sampled_from([0.1, 0.05, 0.02]),
        block=st.sampled_from([None, 1, 2]),
    )
    def test_matches_reference_loop(self, pair, eps, block):
        n = pair.n
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                # blocks of one or two horizons
                mp.setattr(chains, "_STACK_BUDGET", block * 8 * (3 * n * n + 4 * n))
            _assert_same_scan(pair, eps, 60)

    @pytest.mark.parametrize("block", [None, 2])
    def test_suite_pairs_match_reference(self, suite_pairs, monkeypatch, block):
        for name, pair in suite_pairs.items():
            n = pair.n
            if block is not None:
                monkeypatch.setattr(
                    chains, "_STACK_BUDGET", block * 8 * (3 * n * n + 4 * n)
                )
            for eps in (0.05, 0.02):
                _assert_same_scan(pair, eps, 400)

    @settings(max_examples=30)
    @given(
        pair=scan_pairs,
        eps=st.sampled_from([0.1, 0.05, 0.02]),
        checks=st.sampled_from([2, 4, 8, 64]),
        gate=st.sampled_from([None, 1.0, math.inf]),
    )
    # the non-monotone pair: t_sad 7 at 0.049, 2 above 0.0491 while T = 3..6 fail
    @example(pair=BD4_TO_DENSE4, eps=0.049, checks=64, gate=None)
    @example(pair=BD4_TO_DENSE4, eps=0.049, checks=64, gate=math.inf)
    @example(pair=BD4_TO_DENSE4, eps=0.0515, checks=4, gate=1.0)
    @example(pair=BD4_TO_DENSE4, eps=0.054, checks=64, gate=math.inf)
    def test_coarse_grid_matches_reference_loop(self, pair, eps, checks, gate):
        # a few checks per horizon, so that most horizons skip most of their
        # failing steps and many reach the reference corridor; birth-death
        # horizons are dropped at coarse checks. A forced gate overrides the
        # learned one in every block: at s = 1 a block checks only from its
        # smallest horizon's last step on, and at s = inf at no step, so that
        # every horizon goes to the reference.
        decided, real = [], adiabatic._corridor_worst
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(adiabatic, "_STABLE_CHECKS", checks)
            mp.setattr(adiabatic, "_corridor_worst", lambda pair, T: decided.append(T) or real(pair, T))
            if gate is not None:
                mp.setattr(adiabatic, "_check_from", lambda T, k, back: gate)
            got = _assert_same_scan(pair, eps, 60)
        if gate == math.inf:
            # a patch that no longer reaches the scan's gate fails here
            last = 60 if isinstance(got, CapExceededError) else got.t_sad
            assert decided == list(range(1, last + 1))

    @pytest.mark.parametrize("checks", [2, 4, 8])
    def test_suite_pairs_match_reference_on_a_coarse_grid(self, suite_pairs, monkeypatch, checks):
        monkeypatch.setattr(adiabatic, "_STABLE_CHECKS", checks)
        for name, pair in suite_pairs.items():
            for eps in (0.05, 0.02, 0.01):
                _assert_same_scan(pair, eps, 300)

    @pytest.mark.parametrize("checks", [64, 4])
    def test_one_step_reference_corridors_match(self, monkeypatch, checks):
        # the reference corridors of a wide pair take the scan's step formula on rows, the
        # scan on columns; the drop margin covers their rounding as it covers the blocked
        # scan's products
        monkeypatch.setattr(adiabatic, "_STABLE_CHECKS", checks)
        assert _assert_same_scan(BD23, 0.2, 200).t_sad == 114

    def test_long_horizons_are_checked_at_about_64_steps(self, scan_work):
        pair = ChainPair(birth_death(10, 0.3, 0.4), birth_death(10, 0.4, 0.3))
        assert stable_adiabatic_time(pair, 0.03).t_sad == 688
        # a target for every live horizon at every step took 78,180 rows, and
        # a check every max(1, T // 64) steps for each horizon T took 10,162;
        # one stride per block, from its largest horizon, took 8,715, and
        # checks from where the last block's largest drop failed took 5,362;
        # an early reference of T = 688 at step 396 ends the scan at 4,270
        assert sum(scan_work.rows) <= 4_300
        assert scan_work.decided == [688]

    def test_no_kernel_is_built_at_check_steps(self, scan_work):
        pair = ChainPair(birth_death(10, 0.3, 0.4), birth_death(10, 0.4, 0.3))
        assert stable_adiabatic_time(pair, 0.03).t_sad == 688
        # mu advances through [P0 | P1], and the targets of the 51 check steps
        # past the gate are rows of the pair's interpolant: its n = 10 nodes
        # are the only kernels built and the only solves. Without the early
        # reference at step 396 the last block stepped on to k = 688, 847 in all.
        assert scan_work.steps == 555
        assert len(scan_work.rows) <= 55
        assert scan_work.stacks == scan_work.nodes == [10]

    def test_the_gate_does_not_climb_past_failures(self, scan_work, monkeypatch):
        # In blocks of 8 horizons, a block's largest drop mostly came at its
        # first check, and a gate at that k / T rose a stride a block past
        # where the next horizons fail: 13 of them passed every check and
        # went to the reference.
        n = 10
        monkeypatch.setattr(chains, "_STACK_BUDGET", 8 * 8 * (3 * n * n + 4 * n))
        pair = ChainPair(birth_death(n, 0.3, 0.4), birth_death(n, 0.4, 0.3))
        assert stable_adiabatic_time(pair, 0.03).t_sad == 688
        assert len(scan_work.decided) <= 2

    def test_an_early_reference_fails_at_most_once_a_block(self, suite_pairs, scan_work):
        # T = 273 passes every check of its block and is sent to its
        # reference at step 25, which fails; the scan goes on with the rest
        pair = suite_pairs["bd4-to-dense4"]
        got = stable_adiabatic_time(pair, 0.01)
        assert got == stable_scan_reference(pair, 0.01, got.t_sad)
        failed = [lo for lo, T, gap in scan_work.early if gap >= 0.01]
        assert failed and len(failed) == len(set(failed))

    @pytest.mark.parametrize(
        "name, eps, t_sad, rows, decided",
        # checking every horizon from s = 0 took 11,162 target rows and 14 references
        # on the first, and 3,276 and 3 on the second, whose gaps peak at s = 0
        [("complete5-to-bd5", 0.02, 191, 2_950, 14), ("bd4-to-dense4", 0.01, 275, 3_276, 3)],
    )
    def test_checks_start_where_horizons_fail(
        self, suite_pairs, scan_work, name, eps, t_sad, rows, decided
    ):
        assert stable_adiabatic_time(suite_pairs[name], eps).t_sad == t_sad
        assert sum(scan_work.rows) <= rows
        assert len(scan_work.decided) <= decided

    @settings(max_examples=30, deadline=None)
    @given(pair=scan_pairs, eps=st.sampled_from([0.1, 0.05, 0.02]))
    @example(pair=BD23, eps=0.2)
    def test_every_checked_gap_is_near_the_corridor(self, pair, eps):
        # The scan's mu at step k of horizon T differs from corridor's by at
        # most (k + 1) margin, for every gap it computes, not only the gaps
        # that drop a horizon; the scan's own k and live horizons, which a
        # check step measures all of, are read from its frame when it
        # measures the gaps.
        real = adiabatic._row_tv
        checked = []

        def recording(a, b):
            gaps = real(a, b)
            scan = sys._getframe(1)
            if scan.f_code.co_name == "stable_adiabatic_time":
                k, live = scan.f_locals["k"], scan.f_locals["live"]
                assert len(live) == len(gaps) > 0, k
                checked.append((k, live, gaps))
            return gaps

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(adiabatic, "_row_tv", recording)
            _stable_or_cap(stable_adiabatic_time, pair, eps, 60)
        assert checked
        margin = 3 * _step_radius(pair.n) + 4 * 2.0**-53
        corridors = {}
        for k, live, gaps in checked:
            for T, gap in zip(live.tolist(), gaps.tolist()):
                if T not in corridors:
                    corridors[T] = corridor(pair, T).gaps
                assert abs(gap - corridors[T][k - 1]) <= (k + 1) * margin, (T, k)

    def test_eps_at_the_gap_itself(self, suite_pairs):
        pair = suite_pairs["complete5-to-bd5"]
        t = stable_adiabatic_time(pair, 0.05).t_sad
        gap = corridor(pair, t).worst[1]
        # strict comparison: t itself must fail when eps equals its gap
        assert _assert_same_scan(pair, gap, 400).t_sad > t
        assert _assert_same_scan(pair, gap + 1e-13, 400).t_sad == t

    def test_eps_one_ulp_above_the_gap(self, suite_pairs):
        # the smallest eps that t_sad passes; a scan that drops horizons
        # without the rounding margin loses t_sad where its own mu rounds up
        for name, pair in suite_pairs.items():
            t = stable_adiabatic_time(pair, 0.02).t_sad
            eps = float(np.nextafter(corridor(pair, t).worst[1], 1.0))
            assert _assert_same_scan(pair, eps, t).t_sad == t, name

    def test_only_survivors_meet_the_reference(self, suite_pairs, scan_work):
        for name, eps, t_sad in (("complete5-to-bd5", 0.05, 50), ("bd4-to-dense4", 0.02, 85)):
            scan_work.decided.clear()
            assert stable_adiabatic_time(suite_pairs[name], eps).t_sad == t_sad
            assert scan_work.decided == [t_sad], name

    def test_rounding_inside_the_margin_drops_nothing(self, suite_pairs, monkeypatch):
        # Where the scan's mu rounds differently from corridor's, its gaps
        # move by less than the margin. Move a quarter of the k = 1 margin
        # of the scan's own targets so that the worst gap of t_sad grows,
        # with eps one ulp above that gap: the answer must still be the
        # reference's.
        pair = suite_pairs["complete5-to-bd5"]
        t = 50
        ref = corridor(pair, t)
        k, gap = ref.worst
        eps = float(np.nextafter(gap, 1.0))
        want = stable_scan_reference(pair, eps, t)
        excess = ref.mus[k - 1] - ref.targets[k - 1]
        # targets lose mass where mu is above them and gain it where below
        shift = np.zeros(pair.n)
        shift[np.argmax(excess)] -= (pair.n + 2) * 2.0**-53
        shift[np.argmin(excess)] += (pair.n + 2) * 2.0**-53
        real_at, real_worst = adiabatic._stationary_at, adiabatic._corridor_worst
        inside = []

        def unshifted_worst(pair, T):
            inside.append(T)
            try:
                return real_worst(pair, T)
            finally:
                inside.pop()

        def shifted_at(pair, ts):
            pis = real_at(pair, ts)
            return pis if inside else pis + shift

        monkeypatch.setattr(adiabatic, "_corridor_worst", unshifted_worst)
        monkeypatch.setattr(adiabatic, "_stationary_at", shifted_at)
        got = stable_adiabatic_time(pair, eps, cap=t)
        assert (got.t_sad, got.worst_k) == (want.t_sad, want.worst_k) == (t, k)
        assert got.worst_gap.hex() == want.worst_gap.hex()


class TestProp3Check:
    def test_forward_pair_T2(self, lazy_asym_pair):
        gaps, bounds = prop3_check(lazy_asym_pair, 2)
        assert gaps.shape == bounds.shape == (2,)
        assert gaps[1] == pytest.approx(0.0466667, abs=1e-7)
        assert bounds[1] == pytest.approx(1 / 6 + 9 / 4, abs=1e-12)
        assert np.all(gaps <= bounds + BOUND_SLACK)

    def test_constant_family_lhs_zero(self, lazy):
        gaps, bounds = prop3_check(ChainPair(lazy, lazy), 7)
        assert np.all(gaps <= 1e-12) and np.all(gaps <= bounds + BOUND_SLACK)

    def test_drift_term_dominates_small_k(self, lazy_asym_pair):
        # once (k+1)^2 / (2T) >= 1 the bound holds no matter the gap
        _, bounds = prop3_check(lazy_asym_pair, 2)
        assert bounds[1] >= 1.0

    def test_holds_on_suite(self, suite_pairs):
        for name, pair in suite_pairs.items():
            for T in (10, 50):
                gaps, bounds = prop3_check(pair, T)
                assert np.all(gaps <= bounds + BOUND_SLACK), (name, T)


def _sup_half(pair, eps):
    """m = sup_mixing_time(pair, eps / 2).sup_tmix, the m of theorem2_check at eps."""
    return sup_mixing_time(pair, eps / 2.0).sup_tmix


class TestTheorem2Check:
    def test_constant_lazy_values(self, lazy):
        pair = ChainPair(lazy, lazy)
        m = _sup_half(pair, 0.2)
        T, tail = theorem2_check(pair, 0.2, 0.5, m)
        # sup mixing at 0.1 is 3, so T = ceil(2 * 9 / (0.2 * 0.5)) = 180
        assert m == 3
        assert T == 180
        assert np.count_nonzero(tail > 0.2 + BOUND_SLACK) == 0
        assert tail.max() <= 1e-12

    def test_forward_pair_passes(self, lazy_asym_pair):
        _, tail = theorem2_check(lazy_asym_pair, 0.2, 0.5, _sup_half(lazy_asym_pair, 0.2))
        assert np.count_nonzero(tail > 0.2 + BOUND_SLACK) == 0
        assert tail.max() <= 0.2

    def test_tail_window_indexing(self, lazy_asym_pair):
        T, tail = theorem2_check(lazy_asym_pair, 0.2, 0.25, _sup_half(lazy_asym_pair, 0.2))
        k_min = T - len(tail) + 1
        assert k_min == ceil_int(0.25 * T)
        assert k_min / T >= 0.25 - 1e-12

    def test_tail_is_the_corridor_suffix(self, suite_pairs):
        for name, pair in suite_pairs.items():
            T, tail = theorem2_check(pair, 0.2, 0.5, _sup_half(pair, 0.2))
            want = corridor(pair, T).gaps[ceil_int(0.5 * T) - 1 :]
            assert tail.tobytes() == want.tobytes(), name

    def test_evaluates_only_the_tail_targets(self, suite_pairs, monkeypatch):
        # a fresh pair, so that its interpolant is built here: n node solves, then rows
        pair = ChainPair(suite_pairs["complete5-to-bd5"].p0, suite_pairs["complete5-to-bd5"].p1)
        pair.pi0  # the cached start, solved outside the count
        solve, evaluate, kernels, rows = adiabatic._stationary_stack, adiabatic._stationary_at, [], []
        monkeypatch.setattr(adiabatic, "_stationary_stack", lambda Ps: kernels.append(len(Ps)) or solve(Ps))
        monkeypatch.setattr(adiabatic, "_stationary_at", lambda pair, ts: rows.append(ts) or evaluate(pair, ts))
        for delta in (0.5, 0.25):
            rows.clear()
            T, tail = theorem2_check(pair, 0.2, delta, 5)
            k_min = ceil_int(delta * T)
            assert np.concatenate(rows).tobytes() == (np.arange(k_min, T + 1) / T).tobytes()
            assert len(tail) == T - k_min + 1
        assert kernels == [pair.n]

    def test_memory_keeps_only_the_tail(self, monkeypatch):
        # a corridor of T = 8,000 and 80,000 steps at n = 2, each tail many chunks of
        # 384 steps: the peak grows by the tail's gaps (kept once as chunks, once
        # joined), not by the (T, n) trajectory
        monkeypatch.setattr(chains, "_STACK_BUDGET", 2**16)
        pair = ChainPair(random_dense(2, seed=0), random_dense(2, seed=1))
        pair.pi0
        peaks, tails = [], []
        for m in (20, 63):
            tracemalloc.start()
            try:
                _, tail = theorem2_check(pair, 0.2, 0.5, m, corridor_cap=10**5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            tails.append(tail.nbytes)
        assert peaks[1] - peaks[0] <= 2 * (tails[1] - tails[0]) + 64 * 1024, (peaks, tails)

    def test_delta_domain(self, lazy_asym_pair):
        for delta in (0.0, -0.5, 1.5):
            with pytest.raises(OutOfRangeError):
                theorem2_check(lazy_asym_pair, 0.2, delta, 3)

    @pytest.mark.parametrize("delta", [True, np.True_, "0.5", None])
    def test_delta_must_be_a_real_number(self, lazy_asym_pair, delta):
        with pytest.raises(OutOfRangeError, match="^delta must be a real number, got "):
            theorem2_check(lazy_asym_pair, 0.1, delta, 4)

    def test_corridor_cap(self, lazy_asym_pair):
        with pytest.raises(CapExceededError):
            theorem2_check(lazy_asym_pair, 0.2, 0.5, 3, corridor_cap=10)

    def test_corridor_cap_carries_the_derived_horizon(self, lazy_asym_pair):
        T, _ = theorem2_check(lazy_asym_pair, 0.2, 0.5, 3)
        with pytest.raises(HorizonCapError) as excinfo:
            theorem2_check(lazy_asym_pair, 0.2, 0.5, 3, corridor_cap=T - 1)
        assert excinfo.value.horizon == T

    def test_m_and_cap_are_integers_of_at_least_one(self, lazy_asym_pair):
        for m in (0, -1, True, 2.5, 3.0):
            with pytest.raises(OutOfRangeError):
                theorem2_check(lazy_asym_pair, 0.2, 0.5, m)
        for cap in (0, True, 1e5):
            with pytest.raises(OutOfRangeError):
                theorem2_check(lazy_asym_pair, 0.2, 0.5, 3, corridor_cap=cap)
        assert theorem2_check(lazy_asym_pair, 0.2, 0.5, np.int64(3))[0] == 180

    def test_an_m_with_no_float_value_raises(self, lazy_asym_pair):
        with pytest.raises(OutOfRangeError, match="^m must have a float value"):
            theorem2_check(lazy_asym_pair, 0.1, 0.5, 10**400)

    def test_horizon_too_large_for_a_float_is_above_every_cap(self, lazy_asym_pair):
        # 2 m^2 / (eps delta) overflows at 1e-320; eps delta underflows to 0 at 5e-324
        for eps, delta in ((1e-320, 0.5), (5e-324, 0.25)):
            with pytest.raises(HorizonCapError) as excinfo:
                theorem2_check(lazy_asym_pair, eps, delta, 1, corridor_cap=10**18)
            assert excinfo.value.horizon == math.inf

    def test_bad_eps(self, lazy_asym_pair):
        with pytest.raises(NonPositiveEpsError):
            theorem2_check(lazy_asym_pair, -0.2, 0.5, 3)
        for eps in (math.nan, math.inf):
            with pytest.raises(NonFiniteError):
                theorem2_check(lazy_asym_pair, eps, 0.5, 3)


class TestTheorem3Horizon:
    def test_values(self):
        assert theorem3_horizon(2, 0.1, 4) == 1030410
        assert theorem3_horizon(2, 1.0, 1) == 9
        assert theorem3_horizon(2, 0.2, 3) == 41405

    def test_errors(self):
        with pytest.raises(NonPositiveEpsError):
            theorem3_horizon(2, 0.0, 3)
        for eps in (math.nan, math.inf):
            with pytest.raises(NonFiniteError):
                theorem3_horizon(2, eps, 3)
        with pytest.raises(OutOfRangeError):
            theorem3_horizon(2, 0.1, 0)
        for n in (1, 0, 2.5, True):
            with pytest.raises(OutOfRangeError):
                theorem3_horizon(n, 0.1, 3)
        for m in (True, 2.5, 4.0):
            with pytest.raises(OutOfRangeError):
                theorem3_horizon(2, 0.1, m)

    def test_an_m_or_n_with_no_float_value_raises(self):
        with pytest.raises(OutOfRangeError, match="^sup_tmix_half_eps must have a float value"):
            theorem3_horizon(2, 0.1, 10**400)
        with pytest.raises(OutOfRangeError, match="^n must have a float value"):
            theorem3_horizon(10**400, 0.1, 3)
        # the largest float is an integer, and still a horizon
        assert theorem3_horizon(2, 0.1, int(sys.float_info.max)) == math.inf

    def test_horizon_too_large_for_a_float_is_inf(self):
        # eps^3 underflows to 0 at 1e-110; at 1e-105 it does not, but 4 / eps^3 overflows
        assert theorem3_horizon(2, 1e-110, 1) == math.inf
        assert theorem3_horizon(2, 1e-105, 1) == math.inf
        # a finite horizon is still an int
        assert type(theorem3_horizon(2, 1e-100, 1)) is int

    def test_corridor_at_horizon_small_case(self, lazy):
        # constant family at eps = 0.5: the gap at T = 1 is exactly 0.25,
        # so m = t_mix(lazy, 0.25) = 1 and the horizon is 32 + 16 + 2
        pair = ChainPair(lazy, lazy)
        m = sup_mixing_time(pair, 0.25).sup_tmix
        assert m == 1
        horizon = theorem3_horizon(2, 0.5, m)
        assert horizon == 50
        assert corridor(pair, horizon).worst[1] <= 0.5
