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
    NonFiniteError,
    NotErgodicError,
    NotSquareError,
    NumericalBreakdownError,
    OutOfRangeError,
    RowSumError,
    StochasticMatrix,
    complete_graph,
    interpolate,
    random_dense,
    stationary,
    structure,
    tv_distance,
    validate_distribution,
    validate_stochastic,
)
from markovmix.chains import (
    DISTRIBUTION_TOLERANCE,
    ROW_SUM_TOLERANCE,
    _stationary_stack,
)

from oracles import (
    lu_stationary,
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

    @pytest.mark.parametrize("t", [True, False, np.True_, "0.5", None, [0.5]])
    def test_t_must_be_a_real_number(self, lazy_asym_pair, t):
        with pytest.raises(OutOfRangeError, match="^t must be a real number, got "):
            interpolate(lazy_asym_pair, t)

    def test_any_real_number_type_is_a_t(self, lazy_asym_pair, asym):
        np.testing.assert_array_equal(interpolate(lazy_asym_pair, 1).entries, asym.entries)
        for t in (np.float64(0.5), np.float32(0.5)):
            np.testing.assert_array_equal(
                interpolate(lazy_asym_pair, t).entries, interpolate(lazy_asym_pair, 0.5).entries
            )

    def test_equals_the_raw_stack_bit_for_bit(self, suite_pairs):
        # interpolate builds the raw stack's kernel through the constructor,
        # so the batched scans see the same kernels as interpolate at every s
        # checked, the PROP2 sweep's 11 points included, on the suite pairs
        # and on random_dense pairs up to n = 200
        ss = np.concatenate((np.linspace(0.0, 1.0, 1001), np.linspace(0.0, 1.0, 11)))
        dense = {
            f"dense{n}": ChainPair(random_dense(n, seed=n), random_dense(n, seed=n + 1))
            for n in (6, 20, 50, 100, 200)
        }
        for name, pair in [*suite_pairs.items(), *dense.items()]:
            for s in ss if name in suite_pairs else np.linspace(0.0, 1.0, 101):
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

    @pytest.mark.parametrize("failure", ["singular", "residual"])
    def test_a_failed_solve_is_a_breakdown(self, asym, monkeypatch, failure):
        real = np.linalg.solve

        def bad_solve(A, b):
            if failure == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return real(A, b) + 1e-6

        monkeypatch.setattr(np.linalg, "solve", bad_solve)
        check = "LU solve raised" if failure == "singular" else "residual"
        with pytest.raises(NumericalBreakdownError, match=f"stack row 0: {check}"):
            stationary(asym)

    def test_a_singular_row_is_named(self, asym):
        # I - P^T is singular for the identity kernel, which is not ergodic
        Ps = np.stack([asym.entries] * 2 + [np.eye(2)] + [asym.entries] * 2)
        with pytest.raises(NumericalBreakdownError, match="stack row 2: LU solve raised"):
            _stationary_stack(Ps)

    def test_one_bad_row_breaks_the_stack(self, suite_pairs, monkeypatch):
        pair = suite_pairs["dense6-to-dense6"]
        Ps = chains._interp_stack(pair, np.linspace(0.0, 1.0, 5))
        real_solve = np.linalg.solve

        def solve_with_bad_row(A, b):
            x = real_solve(A, b)
            x[2] = -x[2]
            return x

        monkeypatch.setattr(np.linalg, "solve", solve_with_bad_row)
        with pytest.raises(NumericalBreakdownError, match=r"stack row 2: entry -0\.\d+ is below -1e-12"):
            _stationary_stack(Ps)

    def test_wide_range_kernel_is_a_breakdown(self, wide_range):
        with pytest.raises(NumericalBreakdownError, match="stack row 0: entry"):
            stationary(wide_range)
        with pytest.raises(NumericalBreakdownError, match="stack row 0: entry"):
            ChainPair(wide_range, complete_graph(3, 0.5)).pi0

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_lu_answer_or_breakdown(self, data):
        n = data.draw(st.integers(2, 5))
        exps = data.draw(st.lists(st.integers(0, 40), min_size=n * n, max_size=n * n))
        P = 10.0 ** -np.array(exps, dtype=float).reshape(n, n)
        K = validate_stochastic(P / P.sum(axis=1, keepdims=True))
        try:
            pi = stationary(K).mass
        except NumericalBreakdownError:
            return
        np.testing.assert_array_equal(pi, lu_stationary(K.entries))


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


@st.composite
def near_stochastic(draw):
    """A stochastic matrix or a probability vector (n 2-6) with up to three entries nudged.

    A nudge shifts an entry up or down by 0.5, 0.99, 1.01 or 3 tolerances;
    or it sets the entry that far below 0, moving its mass onto the next
    entry of the row so the row sum stays 1; or it makes the entry NaN or
    +-inf. Returns the array, whether it is a vector, and its tolerance.
    """
    n = draw(st.integers(2, 6))
    vector = draw(st.booleans())
    tol = DISTRIBUTION_TOLERANCE if vector else ROW_SUM_TOLERANCE
    shape = (n,) if vector else (n, n)
    arr = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(shape)
    arr /= arr.sum(axis=-1, keepdims=True)
    for _ in range(draw(st.integers(0, 3))):
        idx = tuple(draw(st.integers(0, n - 1)) for _ in shape)
        kind = draw(st.sampled_from(["shift", "below zero", "non-finite"]))
        size = draw(st.sampled_from([0.5, 0.99, 1.01, 3.0])) * tol
        if kind == "shift":
            arr[idx] += draw(st.sampled_from([-size, size]))
        elif kind == "below zero":
            arr[(*idx[:-1], (idx[-1] + 1) % n)] += arr[idx] + size
            arr[idx] = -size
        else:
            arr[idx] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return arr, vector, tol


def _passes(arr, low, tol):
    """The entry rule spelled out: finite entries >= low, each row sum within tol of 1."""
    if not np.isfinite(arr).all():
        return False
    sums = arr.reshape(-1, arr.shape[-1]).sum(axis=1)
    return bool((arr >= low).all() and (np.abs(sums - 1.0) <= tol).all())


def _accepts(build, arr):
    try:
        return build(arr.copy())
    except (NonFiniteError, NegativeEntryError, RowSumError):
        return None


class TestEntryRule:
    """One rule decides every kernel and distribution: floor 0 to construct, -tol to ingest."""

    @given(near_stochastic())
    @settings(max_examples=300)
    def test_constructor_and_ingestion_accept_exactly_the_rule(self, case):
        arr, vector, tol = case
        construct, ingest = (
            (Distribution, validate_distribution) if vector else (StochasticMatrix, validate_stochastic)
        )
        assert (_accepts(construct, arr) is not None) == _passes(arr, 0.0, tol)
        ingested = _accepts(ingest, arr)
        assert (ingested is not None) == _passes(arr, -tol, tol)
        if ingested is not None:
            out = ingested.mass if vector else ingested.entries
            again = ingest(out)
            assert (again.mass if vector else again.entries).tobytes() == out.tobytes()

    @pytest.mark.parametrize(
        "build, raw, error, message",
        [
            (StochasticMatrix, [[1.0, -1e-10], [0.5, 0.5]], NegativeEntryError,
             r"^entry \(0, 1\) = -1e-10 is below 0.0$"),
            (StochasticMatrix, [[0.5, 0.5], [0.5, 0.6]], RowSumError,
             r"^row 1 sums to 1.1, outside tolerance 1e-09$"),
            (validate_stochastic, [[1.001, -0.001], [0.5, 0.5]], NegativeEntryError,
             r"^entry \(0, 1\) = -0.001 is below -1e-09$"),
            (validate_stochastic, [[0.5, 0.6], [0.5, 0.5]], RowSumError,
             r"^row 0 sums to 1.1, outside tolerance 1e-09$"),
            (Distribution, [1.0, -1e-13], NegativeEntryError,
             r"^entry 1 = -1e-13 is below 0.0$"),
            (Distribution, [0.5, 0.6], RowSumError,
             r"^row 0 sums to 1.1, outside tolerance 1e-12$"),
            (validate_distribution, [0.6, 0.5, -0.1], NegativeEntryError,
             r"^entry 2 = -0.1 is below -1e-12$"),
            (validate_distribution, [0.6, 0.5], RowSumError,
             r"^row 0 sums to 1.1, outside tolerance 1e-12$"),
        ],
        ids=[
            f"{build}-{kind}"
            for build in ("matrix", "validate_stochastic", "distribution", "validate_distribution")
            for kind in ("entry", "row")
        ],
    )
    def test_one_message_form(self, build, raw, error, message):
        with pytest.raises(error, match=message):
            build(raw)

    @pytest.mark.parametrize("raw", [[], [[0.5, 0.5]], 1.0], ids=["empty", "matrix", "scalar"])
    def test_a_vector_is_one_dimensional_and_not_empty(self, raw):
        with pytest.raises(DimensionMismatchError):
            validate_distribution(raw)
        with pytest.raises(DimensionMismatchError):
            Distribution(raw)


class TestChainPair:
    def test_dimension_mismatch(self, lazy):
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
