"""Core types: validation, structure, interpolation, stationarity, TV."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import markovmix.chains as chains
from markovmix import (
    BadParamsError,
    ChainPair,
    DimensionMismatchError,
    Distribution,
    NegativeEntryError,
    NoConvergenceError,
    NonFiniteError,
    NotErgodicError,
    NotSquareError,
    OutOfRangeError,
    RowSumError,
    StochasticMatrix,
    interpolate,
    stationary,
    structure,
    tv_distance,
    validate_distribution,
    validate_stochastic,
)
from markovmix.chains import _stationary_power, _stationary_stack

from oracles import (
    period_oracle,
    stationary_eig,
    strongly_connected,
    two_state_stationary,
)


@st.composite
def graphs(draw):
    """0/1 adjacency with no empty row: a pure cycle, two merged cycles, or random."""
    n = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["cycle", "merged", "random"]))
    if kind == "random":
        adj = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
        adj = adj.reshape(n, n)
    else:
        adj = np.zeros((n, n), dtype=bool)
        cycles = [draw(st.permutations(range(n)))]
        if kind == "merged":
            states = st.integers(0, n - 1)
            cycles.append(draw(st.lists(states, min_size=1, max_size=n, unique=True)))
        for cyc in cycles:
            for u, v in zip(cyc, [*cyc[1:], cyc[0]]):
                adj[u, v] = True
    for u in np.flatnonzero(~adj.any(axis=1)):
        adj[u, draw(st.integers(0, n - 1))] = True
    return adj


class TestValidateStochastic:
    def test_exact_matrix_accepted_unchanged(self):
        raw = np.array([[0.75, 0.25], [0.25, 0.75]])
        P = validate_stochastic(raw)
        np.testing.assert_array_equal(P.entries, raw)

    def test_row_sum_violation(self):
        with pytest.raises(RowSumError, match="row 0"):
            validate_stochastic([[0.5, 0.6], [0.5, 0.5]])

    def test_within_tolerance_clamped_and_renormalized(self):
        raw = [[1.0 + 5e-10, -5e-10], [0.5, 0.5]]
        P = validate_stochastic(raw)
        np.testing.assert_array_equal(P.entries[0], [1.0, 0.0])
        np.testing.assert_array_equal(P.entries[1], [0.5, 0.5])

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntryError):
            validate_stochastic([[1.001, -0.001], [0.5, 0.5]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFiniteError, match=r"entry \(0, 0\) = .* is non-finite"):
            validate_stochastic([[bad, 0.5], [0.5, 0.5]])
        with pytest.raises(NonFiniteError, match="non-finite"):
            StochasticMatrix(np.array([[0.5, 0.5], [0.5, bad]]))

    @pytest.mark.parametrize(
        "matrix, vector",
        [
            ([["a", 0.5], [0.5, 0.5]], ["a", 0.5]),
            ([[0.5, 0.5], [1.0]], [[0.5], 0.5]),
            ([[0.5, {}], [0.5, 0.5]], [0.5, {}]),
        ],
        ids=["text", "ragged", "object"],
    )
    def test_entries_that_are_not_numbers_rejected(self, matrix, vector):
        with pytest.raises(BadParamsError, match="expected an array of numbers"):
            validate_stochastic(matrix)
        with pytest.raises(BadParamsError, match="expected an array of numbers"):
            validate_distribution(vector)

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            validate_stochastic([[0.5, 0.5]])
        with pytest.raises(NotSquareError):
            validate_stochastic([[1.0]])

    def test_rows_sum_exactly_one_after_validation(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            raw = rng.random((n, n))
            raw /= raw.sum(axis=1, keepdims=True)
            raw += rng.uniform(-1e-10, 1e-10, size=(n, n))
            P = validate_stochastic(raw)
            assert np.all(np.abs(P.entries.sum(axis=1) - 1.0) <= 1e-15)
            assert np.all(P.entries >= 0.0)
            assert np.all(P.entries <= 1.0)

    def test_validation_idempotent_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            raw = rng.random((n, n))
            raw /= raw.sum(axis=1, keepdims=True)
            once = validate_stochastic(raw)
            twice = validate_stochastic(once.entries)
            np.testing.assert_array_equal(once.entries, twice.entries)

    def test_entries_are_readonly(self):
        P = validate_stochastic([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            P.entries[0, 0] = 0.9


class TestStructure:
    def test_identity_not_irreducible(self):
        P = validate_stochastic(np.eye(2))
        rep = structure(P)
        assert rep.irreducible is False
        assert rep.period is None
        assert rep.aperiodic is False

    def test_two_cycle_periodic(self):
        rep = structure(validate_stochastic([[0.0, 1.0], [1.0, 0.0]]))
        assert rep.irreducible is True
        assert rep.period == 2
        assert rep.aperiodic is False

    def test_lazy_chain_aperiodic(self, lazy):
        rep = structure(lazy)
        assert (rep.irreducible, rep.period, rep.aperiodic) == (True, 1, True)

    def test_directed_three_cycle(self):
        P = validate_stochastic([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        rep = structure(P)
        assert rep.irreducible and rep.period == 3 and not rep.aperiodic

    def test_one_way_chain_reducible(self):
        # state 1 never returns to state 0
        P = validate_stochastic([[0.5, 0.5], [0.0, 1.0]])
        assert structure(P).irreducible is False

    @settings(max_examples=200)
    @given(adj=graphs())
    def test_matches_period_oracle(self, adj):
        rep = structure(validate_stochastic(adj / adj.sum(axis=1, keepdims=True)))
        assert rep.irreducible == strongly_connected(adj)
        if rep.irreducible:
            assert rep.period == period_oracle(adj)
            assert rep.aperiodic == (rep.period == 1)
        else:
            assert rep.period is None and not rep.aperiodic

    def test_suite_chains_all_ergodic(self, suite_chains):
        for name, P in suite_chains.items():
            rep = structure(P)
            assert rep.irreducible and rep.aperiodic, name


class TestInterpolate:
    def test_endpoints(self, lazy_asym_pair, lazy, asym):
        np.testing.assert_array_equal(interpolate(lazy_asym_pair, 0.0).entries, lazy.entries)
        np.testing.assert_array_equal(interpolate(lazy_asym_pair, 1.0).entries, asym.entries)

    def test_midpoint(self, lazy_asym_pair):
        mid = interpolate(lazy_asym_pair, 0.5)
        np.testing.assert_allclose(
            mid.entries, [[0.775, 0.225], [0.325, 0.675]], rtol=0, atol=1e-15
        )

    def test_out_of_range(self, lazy_asym_pair):
        for t in (-0.1, 1.1, np.nan):
            with pytest.raises(OutOfRangeError):
                interpolate(lazy_asym_pair, t)

    def test_equals_the_raw_stack_bit_for_bit(self, suite_pairs):
        # revalidation changes no entry, so the batched scans, which use the
        # raw stack, see the same kernels as interpolate at every s checked,
        # the PROP2 sweep's 11 points included
        ss = np.concatenate((np.linspace(0.0, 1.0, 1001), np.linspace(0.0, 1.0, 11)))
        for name, pair in suite_pairs.items():
            for s in ss:
                raw = chains._interp_stack(pair, np.array([s]))[0]
                checked = interpolate(pair, float(s)).entries
                np.testing.assert_array_equal(checked, raw, err_msg=(name, s))

    def test_validates_on_dense_grid(self, suite_pairs):
        pair = suite_pairs["dense4-to-dense4"]
        for t in np.linspace(0.0, 1.0, 1001):
            P = interpolate(pair, float(t))
            assert np.all(np.abs(P.entries.sum(axis=1) - 1.0) <= 1e-15)


class TestStationary:
    def test_symmetric_two_state(self, lazy):
        np.testing.assert_allclose(stationary(lazy).mass, [0.5, 0.5], atol=1e-14)

    def test_asym_closed_form_and_residual(self, asym):
        pi = stationary(asym)
        np.testing.assert_allclose(pi.mass, two_state_stationary(0.2, 0.4), atol=1e-14)
        assert np.abs(pi.mass @ asym.entries - pi.mass).sum() <= 1e-12

    def test_midpoint_closed_form(self, lazy_asym_pair):
        pi = stationary(interpolate(lazy_asym_pair, 0.5))
        np.testing.assert_allclose(
            pi.mass, two_state_stationary(0.225, 0.325), atol=1e-14
        )

    def test_matches_eigen_oracle_on_suite(self, suite_chains):
        for name, P in suite_chains.items():
            pi = stationary(P)
            np.testing.assert_allclose(
                pi.mass, stationary_eig(P.entries), atol=1e-9, err_msg=name
            )

    def test_residual_invariance_on_suite(self, suite_chains):
        for name, P in suite_chains.items():
            pi = stationary(P)
            assert np.abs(pi.mass @ P.entries - pi.mass).sum() <= 1e-12, name
            assert tv_distance(Distribution(pi.mass @ P.entries), pi) <= 1e-12, name

    def test_not_ergodic_rejected(self):
        with pytest.raises(NotErgodicError):
            stationary(validate_stochastic([[0.0, 1.0], [1.0, 0.0]]))

    def test_power_fallback_agrees(self, asym):
        pi = _stationary_power(np.array(asym.entries))
        np.testing.assert_allclose(pi, two_state_stationary(0.2, 0.4), atol=1e-12)

    @pytest.mark.parametrize("failure", ["singular", "residual"])
    def test_falls_back_when_the_solve_fails(self, asym, monkeypatch, failure):
        real = np.linalg.solve
        calls = []

        def bad_solve(A, b):
            calls.append(len(A))
            if failure == "singular":
                raise np.linalg.LinAlgError("singular matrix")
            return real(A, b) + 1e-6

        monkeypatch.setattr(np.linalg, "solve", bad_solve)
        pi = stationary(asym)
        assert calls == [1]
        np.testing.assert_allclose(pi.mass, two_state_stationary(0.2, 0.4), atol=1e-12)

    def test_bad_row_falls_back_alone(self, suite_pairs, monkeypatch):
        pair = suite_pairs["dense6-to-dense6"]
        Ps = chains._interp_stack(pair, np.linspace(0.0, 1.0, 5))
        direct = _stationary_stack(Ps)
        real_solve, real_power = np.linalg.solve, chains._stationary_power
        powered = []

        def solve_with_bad_row(A, b):
            x = real_solve(A, b)
            x[2] = -x[2]
            return x

        def spy_power(P):
            powered.append(P)
            return real_power(P)

        monkeypatch.setattr(np.linalg, "solve", solve_with_bad_row)
        monkeypatch.setattr(chains, "_stationary_power", spy_power)
        pis = _stationary_stack(Ps)
        assert len(powered) == 1 and np.array_equal(powered[0], Ps[2])
        keep = [0, 1, 3, 4]
        np.testing.assert_array_equal(pis[keep], direct[keep])
        np.testing.assert_allclose(pis[2], direct[2], rtol=0.0, atol=1e-12)

    def test_power_fallback_cap(self, asym):
        # uniform start is one step away from (2/3, 1/3), so cap 1 cannot land
        with pytest.raises(NoConvergenceError):
            _stationary_power(np.array(asym.entries), tol=1e-14, cap=1)


class TestTvDistance:
    def test_disjoint_support(self):
        a = Distribution([1.0, 0.0])
        b = Distribution([0.0, 1.0])
        assert tv_distance(a, b) == 1.0

    def test_identical(self):
        a = Distribution([0.5, 0.5])
        assert tv_distance(a, a) == 0.0

    def test_simple_value(self):
        assert tv_distance(Distribution([0.7, 0.3]), Distribution([0.5, 0.5])) == pytest.approx(0.2, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            tv_distance(Distribution([1.0]), Distribution([0.5, 0.5]))

    def test_half_l1_and_l2_sandwich(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            a = validate_distribution(rng.dirichlet(np.ones(n)))
            b = validate_distribution(rng.dirichlet(np.ones(n)))
            d = tv_distance(a, b)
            assert d == 0.5 * np.abs(a.mass - b.mass).sum()
            l2 = np.linalg.norm(a.mass - b.mass)
            assert 0.5 * l2 <= d + 1e-15
            assert d <= 0.5 * np.sqrt(n) * l2 + 1e-15
            assert 0.0 <= d <= 1.0

    def test_metric_properties(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            a, b, c = (validate_distribution(rng.dirichlet(np.ones(n))) for _ in range(3))
            assert tv_distance(a, b) == tv_distance(b, a)
            assert tv_distance(a, a) == 0.0
            assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12


class TestEvolveAndContraction:
    def test_evolution_stays_valid(self, suite_chains):
        rng = np.random.default_rng(31)
        for P in suite_chains.values():
            for _ in range(20):
                nu = validate_distribution(rng.dirichlet(np.ones(P.n)))
                out = Distribution(nu.mass @ P.entries)
                assert np.all(out.mass >= 0.0)
                assert abs(out.mass.sum() - 1.0) <= 1e-12

    def test_contraction(self, suite_chains):
        rng = np.random.default_rng(37)
        for P in suite_chains.values():
            for _ in range(20):
                mu = validate_distribution(rng.dirichlet(np.ones(P.n)))
                nu = validate_distribution(rng.dirichlet(np.ones(P.n)))
                mu_P, nu_P = Distribution(mu.mass @ P.entries), Distribution(nu.mass @ P.entries)
                assert tv_distance(mu_P, nu_P) <= tv_distance(mu, nu) + 1e-12


class TestDistributionValidation:
    def test_negative_rejected(self):
        with pytest.raises(NegativeEntryError):
            validate_distribution([0.6, 0.5, -0.1])

    def test_sum_off_rejected(self):
        with pytest.raises(RowSumError):
            validate_distribution([0.6, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFiniteError, match="entry 0 = .* is non-finite"):
            validate_distribution([bad, 1.0])
        with pytest.raises(NonFiniteError, match="non-finite"):
            Distribution([1.0, bad])

    def test_tiny_negative_clamped(self):
        d = validate_distribution([1.0 + 5e-13, -5e-13])
        np.testing.assert_array_equal(d.mass, [1.0, 0.0])

    def test_mass_readonly(self):
        d = Distribution([0.5, 0.5])
        with pytest.raises(ValueError):
            d.mass[0] = 0.7


class TestChainPair:
    def test_dimension_mismatch(self, lazy):
        from markovmix import complete_graph

        with pytest.raises(DimensionMismatchError):
            ChainPair(lazy, complete_graph(3, 0.5))

    def test_not_ergodic_rejected(self, lazy):
        cycle = validate_stochastic([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NotErgodicError):
            ChainPair(lazy, cycle)
        with pytest.raises(NotErgodicError):
            ChainPair(cycle, lazy)

    def test_cached_stationaries(self, lazy_asym_pair):
        np.testing.assert_allclose(lazy_asym_pair.pi0.mass, [0.5, 0.5], atol=1e-14)
        np.testing.assert_allclose(
            lazy_asym_pair.pi1.mass, two_state_stationary(0.2, 0.4), atol=1e-14
        )

    def test_ergodicity_checked_once(self, suite_chains, monkeypatch):
        # building the pair checks both kernels; solving pi0 and pi1 checks nothing again
        P0, P1 = suite_chains["complete5"], suite_chains["lazy_cycle5"]
        want = stationary(P0).mass, stationary(P1).mass
        calls = []
        real = chains.structure
        monkeypatch.setattr(chains, "structure", lambda P: calls.append(P) or real(P))
        pair = ChainPair(P0, P1)
        got = pair.pi0.mass, pair.pi1.mass
        assert calls == [P0, P1]
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


class TestStackBudget:
    """Every batched scan takes its chunks from the one budget in chains."""

    def test_mixing_scan_chunk_sizes(self):
        # four n x n arrays per mixing-scan kernel: three kernels per chunk
        # at n = 100 and one from n = 129 up, as the README states
        assert chains._STACK_BUDGET == 2**20
        assert [chains._chunk(4 * n * n) for n in (100, 128, 129, 200)] == [3, 2, 1, 1]

    def test_one_item_per_chunk_same_results(self, suite_pairs, monkeypatch):
        from markovmix import corridor, stable_adiabatic_time, sup_mixing_time, verify_all
        from markovmix.adiabatic import _adiabatic_gaps

        pair = suite_pairs["complete5-to-bd5"]

        def scans():
            cor = corridor(pair, 120)
            return {
                "sweep": verify_all(pair, [0.3], name="budget").to_json(),
                "sup": sup_mixing_time(pair, 0.05),
                "gaps": _adiabatic_gaps(pair, np.arange(1, 61)).tolist(),
                "corridor": [cor.mus.tolist(), cor.targets.tolist(), cor.gaps.tolist()],
                "stable": stable_adiabatic_time(pair, 0.05),
            }

        whole = scans()
        # the default budget holds each of these stacks in one chunk at n = 5
        assert chains._chunk(3 * 5 * 5 + 4 * 5) >= 120
        monkeypatch.setattr(chains, "_STACK_BUDGET", 1)
        assert chains._chunk(4 * 5 * 5) == chains._chunk(3 * 5 * 5 + 4) == 1
        chunked = scans()
        for key in whole:
            assert chunked[key] == whole[key], key
