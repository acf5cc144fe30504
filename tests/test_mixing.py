"""Mixing times: closed forms, brute-force cross-checks, the sup estimate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import markovmix.chains as chains
from markovmix import (
    ChainPair,
    IterationCapError,
    NonFiniteError,
    NonPositiveEpsError,
    NotErgodicError,
    NumericalBreakdownError,
    OutOfRangeError,
    interpolate,
    mixing_time,
    random_dense,
    stationary,
    sup_mixing_time,
    validate_distribution,
    validate_stochastic,
)

from markovmix.chains import _stationary_stack
from markovmix.mixing import DEFAULT_MIXING_CAP, _mixing_scans

from oracles import (
    brute_mixing_time,
    mixing_scan_reference,
    sup_mixing_reference,
    two_state_tmix,
    two_state_worst_gap,
)


class TestMixingTime:
    def test_one_step_mixer(self):
        P = validate_stochastic([[0.5, 0.5], [0.5, 0.5]])
        res = mixing_time(P, 0.1)
        assert res.tmix == 1
        assert res.final_gap <= 1e-15

    @pytest.mark.parametrize(
        "eps,expected", [(0.2, 2), (0.1, 3), (0.05, 4), (0.025, 5)]
    )
    def test_lazy_closed_form(self, lazy, eps, expected):
        res = mixing_time(lazy, eps)
        assert res.tmix == expected == two_state_tmix(0.25, 0.25, eps)
        assert res.final_gap == pytest.approx(two_state_worst_gap(0.25, 0.25, expected), abs=1e-12)
        assert res.final_gap <= eps
        assert two_state_worst_gap(0.25, 0.25, expected - 1) > eps

    @pytest.mark.parametrize("eps,expected", [(0.2, 2), (0.1, 3), (0.05, 3)])
    def test_asym_closed_form(self, asym, eps, expected):
        assert mixing_time(asym, eps).tmix == expected == two_state_tmix(0.2, 0.4, eps)

    def test_brute_force_cross_check(self, suite_chains):
        for name, P in suite_chains.items():
            for eps in (0.2, 0.05):
                assert mixing_time(P, eps).tmix == brute_mixing_time(P.entries, eps), (
                    name,
                    eps,
                )

    def test_final_gap_at_threshold(self, suite_chains):
        # value just below eps at tmix, above eps at tmix - 1
        for name, P in suite_chains.items():
            res = mixing_time(P, 0.05)
            assert res.final_gap <= 0.05 + 1e-12, name
            if res.tmix > 1:
                M = np.linalg.matrix_power(P.entries, res.tmix - 1)
                pi = stationary(P).mass
                prev_gap = 0.5 * np.abs(M - pi).sum(axis=1).max()
                assert prev_gap > 0.05, name

    def test_nonstrict_threshold_passes_at_equality(self, lazy):
        # the defining comparison is <=, so eps equal to the exact gap passes
        gap3 = two_state_worst_gap(0.25, 0.25, 3)
        assert mixing_time(lazy, gap3).tmix == 3

    def test_monotone_in_eps(self, suite_chains):
        for name, P in suite_chains.items():
            times = [mixing_time(P, eps).tmix for eps in (0.2, 0.1, 0.05)]
            assert times[0] <= times[1] <= times[2], name

    def test_dirac_starts_suffice(self, suite_chains):
        rng = np.random.default_rng(41)
        for name, P in suite_chains.items():
            res = mixing_time(P, 0.1)
            M = np.linalg.matrix_power(P.entries, res.tmix)
            pi = stationary(P).mass
            dirac_max = 0.5 * np.abs(M - pi).sum(axis=1).max()
            for _ in range(100):
                nu = validate_distribution(rng.dirichlet(np.ones(P.n)))
                gap = 0.5 * np.abs(nu.mass @ M - pi).sum()
                assert gap <= dirac_max + 1e-12, name

    def test_worst_state_attains_gap(self, asym):
        res = mixing_time(asym, 0.05)
        M = np.linalg.matrix_power(asym.entries, res.tmix)
        pi = stationary(asym).mass
        gaps = 0.5 * np.abs(M - pi).sum(axis=1)
        assert gaps[res.worst_state] == pytest.approx(res.final_gap, abs=1e-15)
        assert res.final_gap == pytest.approx(gaps.max(), abs=1e-15)

    def test_iteration_cap(self, lazy):
        with pytest.raises(IterationCapError):
            mixing_time(lazy, 1e-6, cap=3)

    def test_cap_is_an_integer_of_at_least_one(self, lazy):
        for cap in (0, True, 2.5, 3.0):
            with pytest.raises(OutOfRangeError):
                mixing_time(lazy, 0.1, cap=cap)
        assert mixing_time(lazy, 0.1, cap=np.int64(3)).tmix == 3

    def test_nonpositive_eps(self, lazy):
        with pytest.raises(NonPositiveEpsError):
            mixing_time(lazy, 0.0)
        for eps in (math.nan, math.inf):
            with pytest.raises(NonFiniteError):
                mixing_time(lazy, eps)

    def test_not_ergodic(self):
        cycle = validate_stochastic([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NotErgodicError):
            mixing_time(cycle, 0.1)


def _references(Ps, pis, eps, cap=DEFAULT_MIXING_CAP):
    return [mixing_scan_reference(P, pi, eps, cap) for P, pi in zip(Ps, pis)]


# Stacks of random dense kernels, each mixed with the identity by its own
# laziness, so that the kernels of one stack retire at different T.
dense_stacks = st.builds(
    lambda n, seeds, lazies: np.stack(
        [
            (1.0 - a) * random_dense(n, seed=seed).entries + a * np.eye(n)
            for seed, a in zip(seeds, lazies)
        ]
    ),
    n=st.integers(2, 8),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=6, max_size=6),
    lazies=st.lists(st.sampled_from([0.0, 0.5, 0.8, 0.95]), min_size=1, max_size=6),
)


class TestBatchedMixingScan:
    @settings(max_examples=60)
    @given(Ps=dense_stacks, eps=st.sampled_from([0.3, 0.1, 0.05, 0.01, 1e-4]))
    def test_equals_per_kernel_reference(self, Ps, eps):
        pis = _stationary_stack(Ps)
        assert _mixing_scans(Ps, pis, eps, DEFAULT_MIXING_CAP) == _references(Ps, pis, eps)

    def test_several_chunks_same_results(self, suite_chains, suite_pairs, monkeypatch):
        Ps = np.stack([P.entries for name, P in suite_chains.items() if P.n == 5])
        pis = _stationary_stack(Ps)
        whole = _mixing_scans(Ps, pis, 0.01, DEFAULT_MIXING_CAP)
        assert len({r.tmix for r in whole}) > 1
        pair = suite_pairs["complete5-to-bd5"]
        sup = sup_mixing_time(pair, 0.05)
        # two kernels per chunk: four 5 x 5 float arrays each
        monkeypatch.setattr(chains, "_STACK_BUDGET", 2 * 4 * 8 * 5 * 5)
        size = chains._chunk(4 * 5 * 5)
        parts = [slice(lo, lo + size) for lo in range(0, len(Ps), size)]
        assert size == 2 and len(parts) == 2
        chunked = [_mixing_scans(Ps[part], pis[part], 0.01, DEFAULT_MIXING_CAP) for part in parts]
        assert chunked[0] + chunked[1] == whole == _references(Ps, pis, 0.01)
        assert sup_mixing_time(pair, 0.05) == sup

    def test_cap_raises_for_the_stack(self, lazy):
        Ps = np.stack([lazy.entries, np.full((2, 2), 0.5)])
        pis = _stationary_stack(Ps)
        with pytest.raises(IterationCapError):
            _mixing_scans(Ps, pis, 1e-6, 3)
        with pytest.raises(IterationCapError):
            mixing_scan_reference(Ps[0], pis[0], 1e-6, 3)

    def test_rising_gap_is_a_breakdown(self, lazy):
        # The max gap of a stochastic kernel to any fixed target never rises
        # (each row of P^(T+1) is a convex mix of rows of P^T), so the broken
        # kernel here gains mass: its rows sum to 1.5. The one-step mixer
        # in front retires at T = 1, before the breakdown at T = 2.
        Ps = np.stack([np.full((2, 2), 0.5), lazy.entries, 1.5 * lazy.entries])
        pis = np.full((3, 2), 0.5)
        with pytest.raises(NumericalBreakdownError, match="^kernel 2: .* at T=2; numerical"):
            _mixing_scans(Ps, pis, 0.01, DEFAULT_MIXING_CAP)
        with pytest.raises(NumericalBreakdownError, match="^kernel grown: "):
            _mixing_scans(Ps, pis, 0.01, DEFAULT_MIXING_CAP, labels=["one", "lazy", "grown"])
        with pytest.raises(NumericalBreakdownError, match="at T=2; numerical"):
            mixing_scan_reference(Ps[2], pis[2], 0.01, DEFAULT_MIXING_CAP)

    def test_sup_breakdown_names_s(self, lazy_asym_pair, monkeypatch):
        interp, solve = chains._interp_stack, chains._stationary_stack

        def broken_at_half(pair, ss):
            Ps = interp(pair, ss)
            Ps[ss == 0.5] *= 1.5
            return Ps

        # the grown kernel's own solve would break first: solve the kernel it grew from
        monkeypatch.setattr(chains, "_interp_stack", broken_at_half)
        monkeypatch.setattr(chains, "_stationary_stack", lambda Ps: solve(Ps / Ps.sum(axis=2, keepdims=True)))
        with pytest.raises(NumericalBreakdownError, match="^kernel s=0.5: "):
            sup_mixing_time(lazy_asym_pair, 0.05)


class TestSupMixingTime:
    def test_constant_family(self, lazy):
        res = sup_mixing_time(ChainPair(lazy, lazy), 0.05)
        assert res.sup_tmix == 4
        assert all(t == 4 for _, t in res.per_s_samples)

    def test_forward_pair(self, lazy_asym_pair):
        res = sup_mixing_time(lazy_asym_pair, 0.05)
        assert res.sup_tmix == 4
        assert res.argmax_s == 0.0

    def test_backward_pair(self, lazy, asym):
        res = sup_mixing_time(ChainPair(asym, lazy), 0.05)
        assert res.sup_tmix == 4
        assert res.argmax_s == 1.0

    def test_dominates_endpoints(self, suite_pairs):
        for name, pair in suite_pairs.items():
            res = sup_mixing_time(pair, 0.1)
            t0 = mixing_time(pair.p0, 0.1).tmix
            t1 = mixing_time(pair.p1, 0.1).tmix
            assert res.sup_tmix >= max(t0, t1), name

    def test_matches_dense_grid_oracle(self, lazy_asym_pair):
        res = sup_mixing_time(lazy_asym_pair, 0.05)
        dense = max(
            mixing_time(interpolate(lazy_asym_pair, float(s)), 0.05).tmix
            for s in np.linspace(0.0, 1.0, 501)
        )
        assert res.sup_tmix == dense

    def test_samples_sorted_and_resolution(self, lazy_asym_pair):
        res = sup_mixing_time(lazy_asym_pair, 0.05, grid_points=11, refine_depth=3)
        ss = [s for s, _ in res.per_s_samples]
        assert ss == sorted(ss)
        assert res.grid_resolution == pytest.approx(1e-3)
        jump_gaps = [
            b - a
            for (a, ta), (b, tb) in zip(res.per_s_samples, res.per_s_samples[1:])
            if ta != tb
        ]
        assert jump_gaps and max(jump_gaps) <= 1e-3 + 1e-12

    def test_no_jumps_reports_base_spacing(self, lazy):
        res = sup_mixing_time(ChainPair(lazy, lazy), 0.05, grid_points=11)
        assert res.grid_resolution == pytest.approx(0.1)

    @settings(max_examples=25)
    @given(
        n=st.integers(2, 6),
        seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
        eps=st.sampled_from([0.3, 0.1, 0.05]),
    )
    def test_samples_match_checked_path(self, n, seeds, eps):
        pair = ChainPair(random_dense(n, seed=seeds[0]), random_dense(n, seed=seeds[1]))
        res = sup_mixing_time(pair, eps, grid_points=11)
        for s, t in res.per_s_samples:
            assert t == mixing_time(interpolate(pair, s), eps).tmix, s

    @pytest.mark.parametrize("eps", [0.15, 0.05, 0.025])
    def test_matches_one_sample_reference(self, suite_pairs, eps):
        refined = 0
        for name, pair in suite_pairs.items():
            res = sup_mixing_time(pair, eps)
            ref = sup_mixing_reference(pair, eps)
            assert res == ref, name  # per_s_samples, argmax_s, grid_resolution and all
            refined += len(res.per_s_samples) > 101
        assert refined

    def test_matches_one_sample_reference_at_n40(self):
        # 20 kernels per chunk, with row sums long enough for pairwise summation
        pair = ChainPair(random_dense(40, seed=7), random_dense(40, seed=8))
        assert sup_mixing_time(pair, 0.05) == sup_mixing_reference(pair, 0.05)

    @pytest.mark.parametrize("depth", [16, 30])
    def test_refinement_stops_at_one_ulp(self, lazy_asym_pair, depth, monkeypatch):
        # From depth 16 on an interval can shrink to one ulp, where its
        # midpoint rounds onto an end; such an interval is not split again.
        # Each level sizes its chunks once, even with no new midpoint, so a
        # scan that kept splitting fails at the 100th level instead of
        # running forever.
        chunk, levels = chains._chunk, []

        def counted(floats):
            levels.append(floats)
            assert len(levels) < 100, "refinement does not terminate"
            return chunk(floats)

        monkeypatch.setattr(chains, "_chunk", counted)
        res = sup_mixing_time(lazy_asym_pair, 0.05, refine_depth=depth)
        monkeypatch.undo()
        assert res == sup_mixing_reference(lazy_asym_pair, 0.05, refine_depth=depth)
        samples = res.per_s_samples
        jumps = [(a, b) for (a, ta), (b, tb) in zip(samples, samples[1:]) if ta != tb]
        # one jump, near s = 0.678, one midpoint per level: the base spacing
        # 0.01 halves to the ulp 2^-53 of s in [0.5, 1) in at most 47 levels
        assert len(jumps) == 1 and jumps[0][1] == np.nextafter(jumps[0][0], 1.0)
        # the one-ulp interval is wider than 10^-depth, and the resolution says so
        assert res.grid_resolution == jumps[0][1] - jumps[0][0] > 10.0**-depth
        assert len(samples) <= 101 + 47
        assert res.sup_tmix == sup_mixing_time(lazy_asym_pair, 0.05).sup_tmix

    def test_bad_grid(self, lazy_asym_pair):
        with pytest.raises(OutOfRangeError):
            sup_mixing_time(lazy_asym_pair, 0.05, grid_points=1)

    def test_grid_and_depth_are_integers(self, lazy_asym_pair):
        # grid_points keeps its floor of 2 and refine_depth its floor of 0
        for kwargs in (
            {"grid_points": 2.5},
            {"grid_points": True},
            {"refine_depth": 2.5},
            {"refine_depth": True},
            {"refine_depth": -1},
        ):
            with pytest.raises(OutOfRangeError):
                sup_mixing_time(lazy_asym_pair, 0.05, **kwargs)
        res = sup_mixing_time(lazy_asym_pair, 0.05, grid_points=np.int64(2), refine_depth=0)
        assert [s for s, _ in res.per_s_samples] == [0.0, 1.0]

    def test_bad_eps(self, lazy_asym_pair):
        with pytest.raises(NonPositiveEpsError):
            sup_mixing_time(lazy_asym_pair, 0.0)
        for eps in (math.nan, math.inf):
            with pytest.raises(NonFiniteError):
                sup_mixing_time(lazy_asym_pair, eps)
