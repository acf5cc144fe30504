"""Singular-value analysis and the continuity-radius formulas."""

import math

import numpy as np
import pytest

from markovmix import (
    EpsTooLargeError,
    NonFiniteError,
    NonPositiveEpsError,
    OutOfRangeError,
    RankDefectError,
    continuity_delta,
    cor1_delta,
    interpolate,
    mixing_lower_bound,
    mixing_time,
    random_dense,
    spectral_summary,
    stationary,
    tv_distance,
    validate_stochastic,
)
from markovmix.adiabatic import _interp_stack, _stationary_stack


class TestSpectralSummary:
    def test_one_step_mixer(self):
        # I - P is symmetric rank one with eigenvalues 1 and 0
        summary = spectral_summary(validate_stochastic([[0.5, 0.5], [0.5, 0.5]]))
        assert summary.sigma == pytest.approx(1.0, abs=1e-12)
        assert sum(s <= 1e-12 for s in summary.singular_values) == 1
        np.testing.assert_allclose(summary.singular_values, [1.0, 0.0], atol=1e-12)

    def test_lazy_chain(self, lazy):
        assert spectral_summary(lazy).sigma == pytest.approx(0.5, abs=1e-12)

    def test_asym_chain(self, asym):
        # (I-P)(I-P)^T has trace 0.4 and determinant 0
        assert spectral_summary(asym).sigma == pytest.approx(math.sqrt(0.4), abs=1e-12)

    def test_values_descend_and_sigma_position(self, suite_chains):
        for name, P in suite_chains.items():
            summary = spectral_summary(P)
            sv = summary.singular_values
            assert all(sv[i] >= sv[i + 1] for i in range(len(sv) - 1)), name
            assert summary.sigma == sv[P.n - 2], name
            assert summary.sigma > 0.0, name

    def test_identity_rank_defect(self):
        with pytest.raises(RankDefectError):
            spectral_summary(validate_stochastic(np.eye(3)))

    def test_matches_eigh_oracle_on_random_chains(self):
        # the eigenvalue route only resolves the zero singular value to
        # sqrt(machine eps), so the zero is compared in the squared domain
        rng = np.random.default_rng(5)
        for trial in range(60):
            n = int(rng.integers(2, 9))
            P = random_dense(n, seed=1000 + trial)
            A = np.eye(n) - P.entries
            eigvals = np.clip(np.linalg.eigvalsh(A @ A.T), 0.0, None)[::-1]
            got = np.array(spectral_summary(P).singular_values)
            np.testing.assert_allclose(got[: n - 1], np.sqrt(eigvals[: n - 1]), atol=1e-10)
            np.testing.assert_allclose(got**2, eigvals, atol=1e-10)


def _sigma(P):
    return spectral_summary(P).sigma


class TestMixingLowerBound:
    def test_lazy_value(self, lazy):
        expected = (1.0 - 2.0 * math.sqrt(2) * 0.05) / 0.5
        got = mixing_lower_bound(2, 0.05, _sigma(lazy))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(1.717157, abs=1e-6)

    def test_vanishes_at_threshold(self, lazy):
        bound = mixing_lower_bound(2, 1.0 / (2.0 * math.sqrt(2)), _sigma(lazy))
        assert bound == pytest.approx(0.0, abs=1e-12)

    def test_one_step_mixer_bound_below_tmix(self):
        P = validate_stochastic([[0.5, 0.5], [0.5, 0.5]])
        bound = mixing_lower_bound(2, 0.1, _sigma(P))
        assert bound == pytest.approx(1.0 - 0.2 * math.sqrt(2), abs=1e-12)
        assert mixing_time(P, 0.1).tmix == 1 >= bound

    def test_nonpositive_eps(self, lazy):
        with pytest.raises(NonPositiveEpsError):
            mixing_lower_bound(2, 0.0, _sigma(lazy))
        for eps in (math.nan, math.inf):
            with pytest.raises(NonFiniteError):
                mixing_lower_bound(2, eps, _sigma(lazy))

    def test_holds_on_suite(self, suite_chains):
        for name, P in suite_chains.items():
            sigma = _sigma(P)
            for eps in (0.2, 0.1, 0.05):
                bound = mixing_lower_bound(P.n, eps, sigma)
                tmix = mixing_time(P, eps).tmix
                assert bound <= tmix + 1e-9, (name, eps)


class TestContinuityDelta:
    def test_lazy_value(self, lazy):
        got = continuity_delta(2, 0.1, _sigma(lazy))
        assert got == pytest.approx(0.1 * 0.5 / (2.0 * 2**1.5), abs=1e-15)
        assert got == pytest.approx(0.00883883, abs=1e-8)

    def test_uniform_value(self):
        P = validate_stochastic([[0.5, 0.5], [0.5, 0.5]])
        assert continuity_delta(2, 0.1, _sigma(P)) == pytest.approx(0.01767767, abs=1e-8)

    def test_linear_in_eps(self, suite_chains):
        for P in suite_chains.values():
            sigma = _sigma(P)
            assert continuity_delta(P.n, 0.2, sigma) == pytest.approx(
                2.0 * continuity_delta(P.n, 0.1, sigma), rel=1e-12
            )

    def test_clamped_to_one(self, lazy):
        assert continuity_delta(2, 1e9, _sigma(lazy)) == 1.0

    def test_an_n_whose_power_overflows_has_radius_zero(self):
        # n^{3/2} has no float at n = 10^300, so the radius over it is 0.0
        assert continuity_delta(10**300, 0.1, 0.5) == 0.0
        assert continuity_delta(10**200, 0.1, 0.5) > 0.0

    def test_nonpositive_eps(self, lazy):
        with pytest.raises(NonPositiveEpsError):
            continuity_delta(2, -0.1, _sigma(lazy))
        for eps in (math.nan, math.inf):
            with pytest.raises(NonFiniteError):
                continuity_delta(2, eps, _sigma(lazy))


def test_n_and_sigma_rules():
    # n is a state count of at least 2; sigma is finite and > 0
    for n, sigma in ((2, 0.0), (2, -0.5), (2, math.nan), (2, math.inf), (1, 0.5), (2.0, 0.5)):
        with pytest.raises(OutOfRangeError):
            mixing_lower_bound(n, 0.1, sigma)
        with pytest.raises(OutOfRangeError):
            continuity_delta(n, 0.1, sigma)


class TestCor1Delta:
    def test_value(self):
        expected = 0.1 * (1.0 - math.sqrt(2) * 0.1) / (4.0 * 2**1.5 * 4)
        assert cor1_delta(2, 0.1, 4) == pytest.approx(expected, abs=1e-15)
        assert cor1_delta(2, 0.1, 4) == pytest.approx(0.00189720, abs=1e-7)

    def test_eps_too_large(self):
        with pytest.raises(EpsTooLargeError):
            cor1_delta(2, 1.0 / math.sqrt(2), 4)

    def test_inverse_in_tmix(self):
        assert cor1_delta(2, 0.1, 1) == pytest.approx(4.0 * cor1_delta(2, 0.1, 4), rel=1e-12)
        assert cor1_delta(2, 0.1, 1) == pytest.approx(0.00758881, abs=1e-7)

    def test_nonpositive_eps(self):
        with pytest.raises(NonPositiveEpsError):
            cor1_delta(2, 0.0, 3)
        for eps in (math.nan, -math.inf):
            with pytest.raises(NonFiniteError):
                cor1_delta(2, eps, 3)

    def test_n_is_a_state_count(self):
        for n in (0, 1, 2.5, True):
            with pytest.raises(OutOfRangeError):
                cor1_delta(n, 0.1, 4)

    def test_bad_tmix(self):
        with pytest.raises(OutOfRangeError):
            cor1_delta(2, 0.1, 0)
        for m in (True, 2.5, 4.0):
            with pytest.raises(OutOfRangeError):
                cor1_delta(2, 0.1, m)

    def test_an_n_whose_power_overflows_has_radius_zero(self):
        assert cor1_delta(10**300, 1e-200, 3) == 0.0
        with pytest.raises(EpsTooLargeError):
            cor1_delta(10**300, 1e-100, 3)

    def test_an_m_or_n_with_no_float_value_raises(self):
        with pytest.raises(OutOfRangeError, match="^tmix_half_eps must have a float value"):
            cor1_delta(3, 0.1, 10**400)
        with pytest.raises(OutOfRangeError, match="^n must have a float value"):
            cor1_delta(10**400, 0.1, 3)


def _max_tv_on_grid(pair, delta, points=200):
    ss = np.linspace(0.0, delta, points)
    pis = _stationary_stack(_interp_stack(pair, ss))
    return float((0.5 * np.abs(pis - pair.pi0.mass).sum(axis=1)).max())


class TestContinuityGuarantees:
    def test_radius_guarantee_on_suite(self, suite_pairs):
        for name, pair in suite_pairs.items():
            sigma0 = _sigma(pair.p0)
            for eps in (0.2, 0.1):
                delta = continuity_delta(pair.n, eps, sigma0)
                assert _max_tv_on_grid(pair, delta) <= eps + 1e-12, (name, eps)

    def test_grid_agrees_with_pointwise_stationary(self, lazy_asym_pair):
        delta = continuity_delta(2, 0.1, _sigma(lazy_asym_pair.p0))
        for s in np.linspace(0.0, delta, 20):
            pi_s = stationary(interpolate(lazy_asym_pair, float(s)))
            assert tv_distance(pi_s, lazy_asym_pair.pi0) <= 0.1 + 1e-12
