"""Generator families: formulas, validity, and the pinned random stream."""

from fractions import Fraction

import numpy as np
import pytest

from markovmix import (
    BadParamsError,
    GeneratorParams,
    birth_death,
    complete_graph,
    generate,
    lazy_cycle,
    random_dense,
    structure,
    two_state,
)


class TestTwoState:
    def test_symmetric(self):
        np.testing.assert_array_equal(
            two_state(0.25, 0.25).entries, [[0.75, 0.25], [0.25, 0.75]]
        )

    def test_asymmetric(self):
        np.testing.assert_array_equal(
            two_state(0.2, 0.4).entries, [[0.8, 0.2], [0.4, 0.6]]
        )

    @pytest.mark.parametrize("p,q", [(0.0, 0.5), (1.0, 0.5), (0.5, -0.1), (0.5, 1.2)])
    def test_bad_params(self, p, q):
        with pytest.raises(BadParamsError):
            two_state(p, q)


class TestLazyCycle:
    def test_rows(self):
        P = lazy_cycle(5, 0.5).entries
        assert P[0, 0] == 0.5
        assert P[0, 1] == 0.25 and P[0, 4] == 0.25
        assert P[2, 1] == 0.25 and P[2, 3] == 0.25

    def test_two_states_merges_neighbors(self):
        # both cycle directions land on the single other state
        np.testing.assert_allclose(
            lazy_cycle(2, 0.5).entries, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15
        )

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            lazy_cycle(1, 0.5)
        with pytest.raises(BadParamsError):
            lazy_cycle(4, 1.0)


class TestCompleteGraph:
    def test_rows(self):
        P = complete_graph(3, 0.5).entries
        np.testing.assert_allclose(np.diag(P), [0.5, 0.5, 0.5], atol=1e-15)
        assert P[0, 1] == pytest.approx(0.25)

    def test_uniform_stationary(self):
        from markovmix import stationary

        pi = stationary(complete_graph(5, 0.3))
        np.testing.assert_allclose(pi.mass, np.full(5, 0.2), atol=1e-12)


class TestBirthDeath:
    def test_reflecting_holds(self):
        P = birth_death(4, 0.3, 0.4).entries
        assert P[0, 0] == pytest.approx(0.7) and P[0, 1] == pytest.approx(0.3)
        assert P[3, 3] == pytest.approx(0.6) and P[3, 2] == pytest.approx(0.4)
        assert P[1, 0] == pytest.approx(0.4)
        assert P[1, 2] == pytest.approx(0.3)
        assert P[1, 1] == pytest.approx(0.3)

    def test_rates_must_fit(self):
        with pytest.raises(BadParamsError):
            birth_death(4, 0.6, 0.5)


class TestRandomDense:
    def test_deterministic(self):
        a = random_dense(3, seed=42)
        b = random_dense(3, seed=42)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_seed_changes_output(self):
        a = random_dense(3, seed=42)
        b = random_dense(3, seed=43)
        assert not np.array_equal(a.entries, b.entries)

    def test_pinned_stream(self):
        # freezes the documented PCG64 + inverse-CDF construction
        rng = np.random.Generator(np.random.PCG64(42))
        e = -np.log1p(-rng.random((3, 3)))
        expected = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(random_dense(3, seed=42).entries, expected, atol=1e-15)

    def test_negative_seed_accepted(self):
        P = random_dense(3, seed=-1)
        Q = random_dense(3, seed=2**64 - 1)
        np.testing.assert_array_equal(P.entries, Q.entries)

    def test_all_entries_positive(self):
        for i in range(5):
            P = random_dense(4 + i, seed=i)
            assert np.all(P.entries > 0.0)


class TestSuiteValidity:
    def test_every_generated_chain_is_ergodic(self, suite_chains):
        for name, P in suite_chains.items():
            rep = structure(P)
            assert rep.irreducible and rep.aperiodic, name
            assert np.all(np.abs(P.entries.sum(axis=1) - 1.0) <= 1e-15), name


class TestGenerateDispatch:
    def test_dispatch(self):
        P = generate(GeneratorParams(family="two_state", p=0.25, q=0.25))
        np.testing.assert_array_equal(P.entries, two_state(0.25, 0.25).entries)
        P = generate(GeneratorParams(family="random_dense", n=3, seed=7))
        np.testing.assert_array_equal(P.entries, random_dense(3, 7).entries)

    def test_unknown_family(self):
        with pytest.raises(BadParamsError):
            generate(GeneratorParams(family="mystery"))

    def test_missing_params(self):
        with pytest.raises(BadParamsError):
            generate(GeneratorParams(family="two_state", p=0.25))

    def test_param_the_family_does_not_take(self):
        with pytest.raises(BadParamsError, match="two_state takes p, q, not 'n'"):
            generate(GeneratorParams(family="two_state", p=0.25, q=0.25, n=7))
        with pytest.raises(BadParamsError, match="random_dense takes n, seed, not 'alpha'"):
            generate(GeneratorParams(family="random_dense", n=3, seed=7, alpha=0.5))


class TestProbabilityRule:
    """p, q and alpha are real numbers strictly inside (0, 1): no bool, no string, no complex."""

    @pytest.mark.parametrize("value", ["0.3", complex(0.2), True, None, [0.5]])
    @pytest.mark.parametrize(
        "make",
        [
            lambda v: two_state(v, 0.2),
            lambda v: lazy_cycle(3, v),
            lambda v: complete_graph(3, v),
            lambda v: birth_death(3, 0.3, v),
        ],
        ids=["two_state", "lazy_cycle", "complete_graph", "birth_death"],
    )
    def test_probability_must_be_a_real_number(self, make, value):
        with pytest.raises(BadParamsError, match="must lie strictly in"):
            make(value)

    @pytest.mark.parametrize("value", [np.float64(0.3), np.float32(0.25), Fraction(1, 4), 0.5])
    def test_real_probabilities_accepted(self, value):
        assert lazy_cycle(3, value).entries[0, 0] == float(value)


class TestIntegerRule:
    """n and seed are integers, as every horizon and cap is: no bool, no float; numpy integers count."""

    @pytest.mark.parametrize("n", [True, 4.0, np.float64(5), 2.5, "4", None])
    @pytest.mark.parametrize(
        "make",
        [
            lambda n: lazy_cycle(n, 0.5),
            lambda n: complete_graph(n, 0.5),
            lambda n: birth_death(n, 0.3, 0.4),
            lambda n: random_dense(n, seed=1),
        ],
        ids=["lazy_cycle", "complete_graph", "birth_death", "random_dense"],
    )
    def test_n_must_be_an_integer(self, make, n):
        with pytest.raises(BadParamsError, match="n must be an integer >= 2"):
            make(n)

    @pytest.mark.parametrize("seed", [True, False, 2.0, np.float64(3), "1", None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(BadParamsError, match="seed must be an integer"):
            random_dense(3, seed=seed)

    @pytest.mark.parametrize(
        "n, seed", [(np.int64(4), np.int32(-5)), (np.uint8(3), np.uint64(2**64 - 1))]
    )
    def test_numpy_integers_accepted(self, n, seed):
        np.testing.assert_array_equal(
            random_dense(n, seed=seed).entries, random_dense(int(n), seed=int(seed)).entries
        )
        np.testing.assert_array_equal(lazy_cycle(n, 0.5).entries, lazy_cycle(int(n), 0.5).entries)
