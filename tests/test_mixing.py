"""Mixing times: closed forms, brute-force cross-checks, the sup estimate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import markovmix.chains as chains
import markovmix.mixing as mixing
from markovmix import (
    ChainPair,
    IterationCapError,
    NonFiniteError,
    NonPositiveEpsError,
    NotErgodicError,
    NumericalBreakdownError,
    OutOfRangeError,
    interpolate,
    lazy_cycle,
    mixing_time,
    random_dense,
    stationary,
    sup_mixing_time,
    validate_distribution,
    validate_stochastic,
)

from markovmix.chains import _stationary_stack
from markovmix.mixing import (
    DEFAULT_MIXING_CAP,
    PASS_SLACK,
    _family_tmix,
    _mixing_scans,
    _no_rise_bound,
    _sup_mixing_times,
)

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
        for eps in (math.nan, math.inf, 10**400):
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
        assert _mixing_scans(Ps, pis, [eps], DEFAULT_MIXING_CAP) == [_references(Ps, pis, eps)]

    @settings(max_examples=60)
    @given(
        Ps=dense_stacks,
        eps_values=st.lists(st.sampled_from([0.3, 0.1, 0.05, 0.01, 1e-4]), min_size=1, max_size=4),
    )
    def test_several_eps_equal_one_eps_scans(self, Ps, eps_values):
        # unsorted and repeated thresholds: each records what a scan at it alone returns
        pis = _stationary_stack(Ps)
        expected = [_mixing_scans(Ps, pis, [eps], DEFAULT_MIXING_CAP)[0] for eps in eps_values]
        assert _mixing_scans(Ps, pis, eps_values, DEFAULT_MIXING_CAP) == expected
        assert expected == [_references(Ps, pis, eps) for eps in eps_values]

    def test_several_chunks_same_results(self, suite_chains, suite_pairs, monkeypatch):
        Ps = np.stack([P.entries for name, P in suite_chains.items() if P.n == 5])
        pis = _stationary_stack(Ps)
        whole = _mixing_scans(Ps, pis, [0.01], DEFAULT_MIXING_CAP)[0]
        assert len({r.tmix for r in whole}) > 1
        pair = suite_pairs["complete5-to-bd5"]
        sup = sup_mixing_time(pair, 0.05)
        # two kernels per chunk: four 5 x 5 float arrays each
        monkeypatch.setattr(chains, "_STACK_BUDGET", 2 * 4 * 8 * 5 * 5)
        size = chains._chunk(4 * 5 * 5)
        parts = [slice(lo, lo + size) for lo in range(0, len(Ps), size)]
        assert size == 2 and len(parts) == 2
        chunked = [_mixing_scans(Ps[part], pis[part], [0.01], DEFAULT_MIXING_CAP)[0] for part in parts]
        assert chunked[0] + chunked[1] == whole == _references(Ps, pis, 0.01)
        assert sup_mixing_time(pair, 0.05) == sup

    def test_cap_raises_for_the_stack(self, lazy):
        Ps = np.stack([lazy.entries, np.full((2, 2), 0.5)])
        pis = _stationary_stack(Ps)
        # the error names the smallest eps, in whatever order and with repeats
        for eps_values in ([1e-6], [1e-6, 1e-3], [1e-3, 1e-6], [1e-3, 1e-6, 1e-6]):
            with pytest.raises(IterationCapError, match=r"reached eps = 1e-06$"):
                _mixing_scans(Ps, pis, eps_values, 3)
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
            _mixing_scans(Ps, pis, [0.01], DEFAULT_MIXING_CAP)
        with pytest.raises(NumericalBreakdownError, match="^kernel grown: "):
            _mixing_scans(Ps, pis, [0.01], DEFAULT_MIXING_CAP, ["one", "lazy", "grown"].__getitem__)
        with pytest.raises(NumericalBreakdownError, match="at T=2; numerical"):
            mixing_scan_reference(Ps[2], pis[2], 0.01, DEFAULT_MIXING_CAP)

    def test_late_rise_is_a_breakdown(self, lazy):
        # A kernel grown by 0.1%: its max gap, max(1.001^T - 1, 1.001^T 2^-T) / 2, falls until
        # T = 7 and rises from T = 8, late enough for witness steps were the rise check ruled out.
        Ps, pis = 1.001 * lazy.entries[None], np.full((1, 2), 0.5)
        with pytest.raises(NumericalBreakdownError, match="at T=8; numerical") as got:
            _mixing_scans(Ps, pis, [0.001], 1000)
        with pytest.raises(NumericalBreakdownError) as ref:
            mixing_scan_reference(Ps[0], pis[0], 0.001, 1000)
        assert str(got.value) == f"kernel 0: {ref.value}"

    def test_sup_breakdown_names_s(self, lazy_asym_pair, monkeypatch):
        interp, solve = chains._interp_stack, mixing._stationary_stack

        def broken(pair, ss):
            Ps = interp(pair, ss)
            Ps[(ss == 0.5) | (ss == 0.1 * 3)] *= 1.5
            return Ps

        # the grown kernel's own solve would break first: solve the kernel it grew from
        monkeypatch.setattr(chains, "_interp_stack", broken)
        monkeypatch.setattr(mixing, "_stationary_stack", lambda Ps: solve(Ps / Ps.sum(axis=2, keepdims=True)))
        with pytest.raises(NumericalBreakdownError, match="^kernel s=0.5: "):
            sup_mixing_time(lazy_asym_pair, 0.05)
        # the PROP2 sweep's grid, whose fourth s is not the sup grid's 0.3; a Python float's repr
        with pytest.raises(NumericalBreakdownError, match=r"^kernel s=0\.30000000000000004: "):
            _family_tmix(lazy_asym_pair, np.linspace(0.0, 1.0, 11).tolist(), [0.05])


class TestWitnessPath(TestBatchedMixingScan):
    """Every batched-scan test again, with every stack allowed witness steps.

    The full n x n gap is then evaluated only where a witness row comes near
    its kernel's next bar, or ``_no_rise_bound`` does not rule out a rise; the
    results, errors and messages must not change.
    """

    @pytest.fixture(autouse=True, scope="class")
    def every_stack_takes_witness_steps(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mixing, "_WITNESS_FLOATS", 0)
            yield

    # hypothesis runs a test function from one class only, so the two property tests are restated

    @settings(max_examples=60)
    @given(Ps=dense_stacks, eps=st.sampled_from([0.3, 0.1, 0.05, 0.01, 1e-4]))
    def test_equals_per_kernel_reference(self, Ps, eps):
        pis = _stationary_stack(Ps)
        assert _mixing_scans(Ps, pis, [eps], DEFAULT_MIXING_CAP) == [_references(Ps, pis, eps)]

    @settings(max_examples=60)
    @given(
        Ps=dense_stacks,
        eps_values=st.lists(st.sampled_from([0.3, 0.1, 0.05, 0.01, 1e-4]), min_size=1, max_size=4),
    )
    def test_several_eps_equal_one_eps_scans(self, Ps, eps_values):
        pis = _stationary_stack(Ps)
        assert _mixing_scans(Ps, pis, eps_values, DEFAULT_MIXING_CAP) == [_references(Ps, pis, e) for e in eps_values]


# Stacks of slow, lazy random dense kernels at or above the witness size rule,
# so that long scans take witness steps with the default constant
long_stacks = st.integers(40, 64).flatmap(
    lambda n: st.builds(
        lambda seeds, lazies: np.stack(
            [a * np.eye(n) + (1.0 - a) * random_dense(n, seed=seed).entries for seed, a in zip(seeds, lazies)]
        ),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=-(-mixing._WITNESS_FLOATS // (n * n)), max_size=12),
        lazies=st.lists(st.floats(0.9, 0.99), min_size=12, max_size=12),
    )
)


# One slow, lazy random dense kernel large enough to take witness steps alone:
# the case where each kernel's own next eps bar differs from the largest bar
lone_kernels = st.builds(
    lambda n, seed, a: (a * np.eye(n) + (1.0 - a) * random_dense(n, seed=seed).entries)[None],
    n=st.integers(128, 144),
    seed=st.integers(0, 2**32 - 1),
    a=st.floats(0.9, 0.99),
)


class TestWitnessLongScans:
    @staticmethod
    def _equals_the_reference(Ps, eps_values):
        # the witness path runs: the bound is taken, and it rules the rise check out
        bounds = []

        def recorded(*args):
            bounds.append(_no_rise_bound(*args))
            return bounds[-1]

        pis = _stationary_stack(Ps)
        assert Ps.size >= mixing._WITNESS_FLOATS
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mixing, "_no_rise_bound", recorded)
            got = _mixing_scans(Ps, pis, eps_values, DEFAULT_MIXING_CAP)
        assert len(bounds) == 1 and bounds[0] <= PASS_SLACK
        assert got == [_references(Ps, pis, eps) for eps in eps_values]

    @settings(max_examples=10)
    @given(
        Ps=long_stacks,
        eps_values=st.lists(st.sampled_from([0.25, 0.1, 0.03, 0.01]), min_size=1, max_size=4),
    )
    def test_long_scans_equal_the_reference(self, Ps, eps_values):
        self._equals_the_reference(Ps, eps_values)

    @settings(max_examples=10)
    @given(
        Ps=lone_kernels,
        eps_values=st.lists(st.sampled_from([0.25, 0.1, 0.03, 0.01]), min_size=2, max_size=4, unique=True),
    )
    def test_one_kernel_at_several_eps_equals_the_reference(self, Ps, eps_values):
        self._equals_the_reference(Ps, eps_values)

    def test_multi_eps_stacks_keep_their_skips(self, monkeypatch):
        # each kernel's witness is held to its own next bar, so a kernel already within 0.1 still
        # skips the full gap until it nears 0.01 or 1e-3
        P = validate_stochastic(0.95 * np.eye(200) + 0.05 * random_dense(200, seed=3).entries)
        Ps, pis = P.entries[None], stationary(P).mass[None]
        full, subtract = [], np.subtract

        def counted(*args, **kwargs):  # the full n x n gap's only subtraction
            full.append(args[0].shape)
            return subtract(*args, **kwargs)

        tmix = {0.1: 58, 0.01: 113, 1e-3: 164}
        for eps_values, most in (([0.1, 1e-3], 6), ([0.1, 0.01, 1e-3], 6), ([1e-3], 4)):
            full.clear()
            with monkeypatch.context() as mp:
                mp.setattr(np, "subtract", counted)
                got = _mixing_scans(Ps, pis, eps_values, DEFAULT_MIXING_CAP)
            assert [r.tmix for r, in got] == [tmix[eps] for eps in eps_values]
            assert full == [Ps.shape] * len(full) and len(full) <= most
        assert len(full) == 4
        assert got == [_references(Ps, pis, 1e-3)]


class TestNoRiseBound:
    @pytest.mark.parametrize(
        "P", [lazy_cycle(200, 0.5), *(random_dense(n, seed=n) for n in (100, 200, 400))], ids=lambda P: f"n{P.n}"
    )
    def test_within_slack_on_large_kernels(self, P):
        assert _no_rise_bound(P.entries[None], stationary(P).mass[None], DEFAULT_MIXING_CAP) <= PASS_SLACK

    def test_within_slack_on_every_suite_family(self, suite_pairs):
        for name, pair in suite_pairs.items():
            Ps = chains._interp_stack(pair, np.linspace(0.0, 1.0, 101))
            assert _no_rise_bound(Ps, _stationary_stack(Ps), DEFAULT_MIXING_CAP) <= PASS_SLACK, name

    def test_above_slack_on_a_grown_kernel_or_a_loose_target(self, lazy):
        # the stack of test_rising_gap_is_a_breakdown, whose third kernel's rows sum to 1.5
        grown = np.stack([np.full((2, 2), 0.5), lazy.entries, 1.5 * lazy.entries])
        assert _no_rise_bound(grown, np.full((3, 2), 0.5), DEFAULT_MIXING_CAP) > PASS_SLACK
        P = random_dense(20, seed=3).entries
        pi = stationary(validate_stochastic(P)).mass
        off = pi + 5e-12 * np.eye(20)[0] - 5e-12 * np.eye(20)[1]
        assert np.abs(off @ P - off).sum() == pytest.approx(1e-11, rel=0.5)
        assert _no_rise_bound(P[None], off[None], DEFAULT_MIXING_CAP) > PASS_SLACK
        # row masses could pass 2 before a cap this long
        assert _no_rise_bound(P[None], pi[None], 10**18) == math.inf

    @settings(max_examples=40)
    @given(
        n=st.integers(2, 60),
        seed=st.integers(0, 2**32 - 1),
        lazy=st.sampled_from([0.0, 0.5, 0.9, 0.99]),
    )
    def test_bounds_every_observed_rise(self, n, seed, lazy):
        # each row's gap, computed as the scan computes it, over 200 steps
        P = lazy * np.eye(n) + (1.0 - lazy) * random_dense(n, seed=seed).entries
        pi = _stationary_stack(P[None])[0]
        delta = _no_rise_bound(P[None], pi[None], 200)
        M, rows = P.copy(), []
        for _ in range(200):
            rows.append(0.5 * np.abs(M - pi).sum(axis=1))
            M = M @ P
        assert np.diff(rows, axis=0).max() <= delta <= PASS_SLACK


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

    @pytest.mark.parametrize("eps_values", [[0.15, 0.125], [0.025, 0.15, 0.05, 0.025]])
    def test_several_eps_in_one_scan(self, suite_pairs, eps_values, monkeypatch):
        # each s is scanned once for every eps, and each eps keeps exactly its own samples
        kernels = []

        def counted(Ps, *args):
            kernels.append(len(Ps))
            return _mixing_scans(Ps, *args)

        monkeypatch.setattr(mixing, "_mixing_scans", counted)
        for name, pair in suite_pairs.items():
            kernels.clear()
            got = _sup_mixing_times(pair, eps_values)
            visited = {s for res in got for s, _ in res.per_s_samples}
            assert sum(kernels) == len(visited), name
            assert got == [sup_mixing_time(pair, eps) for eps in eps_values], name
            assert got == [sup_mixing_reference(pair, eps) for eps in eps_values], name

    @pytest.mark.parametrize("eps_values", [[0.05, 0.15, 0.05], [0.15, 0.025]])
    def test_several_eps_at_deep_refinement(self, suite_pairs, eps_values, monkeypatch):
        # down to one ulp, every level scans only new midpoints, and the refinement
        # ends at the first level where no jump splits, with no empty scan
        stacks = []

        def recorded(pair, ss, *args):
            stacks.append(ss)
            return _family_tmix(pair, ss, *args)

        monkeypatch.setattr(mixing, "_family_tmix", recorded)
        for name, pair in suite_pairs.items():
            stacks.clear()
            got = _sup_mixing_times(pair, eps_values, refine_depth=17)
            assert got == [sup_mixing_reference(pair, eps, refine_depth=17) for eps in eps_values], name
            assert len({s for ss in stacks for s in ss}) == sum(map(len, stacks)), name
            assert all(stacks), name

    def test_matches_one_sample_reference_at_n40(self):
        # 20 kernels per chunk, with row sums long enough for pairwise summation
        pair = ChainPair(random_dense(40, seed=7), random_dense(40, seed=8))
        assert sup_mixing_time(pair, 0.05) == sup_mixing_reference(pair, 0.05)

    @pytest.mark.parametrize("depth", [16, 30])
    def test_refinement_stops_at_one_ulp(self, lazy_asym_pair, depth, monkeypatch):
        # From depth 16 on an interval can shrink to one ulp, where its
        # midpoint rounds onto an end; such an interval is not split again.
        # Each level scans one non-empty stack and sizes its chunks once, so
        # a scan that kept splitting fails at the 100th level instead of
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
