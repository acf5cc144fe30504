"""The bound-verification engine and its report serialization."""

import json
import math
import re
import sys
import tracemalloc
import types
from dataclasses import fields

import numpy as np
import pytest

import markovmix.adiabatic as adiabatic
import markovmix.chains as chains
import markovmix.mixing as mixing
import markovmix.verify as verify
from markovmix import (
    BoundEntry,
    BoundReport,
    ChainPair,
    IterationCapError,
    NonFiniteError,
    NonPositiveEpsError,
    OutOfRangeError,
    corridor,
    random_dense,
    validate_stochastic,
    verify_all,
)
from markovmix.chains import _stationary_stack
from markovmix.mixing import _family_tmix
from markovmix.spectral import spectral_summary
from markovmix.verify import BOUND_IDS, BOUND_SLACK

from conftest import build_suite_pairs
from oracles import corridor_reference
from record_verify_golden import CAPPED, GOLDEN_DIR, GOLDEN_EPS_SETS, render


@pytest.fixture(scope="module")
def forward_report(lazy_asym_pair):
    return verify_all(lazy_asym_pair, [0.2, 0.1], name="lazy-to-asym")


class TestVerifyAll:
    def test_everything_passes(self, forward_report):
        assert forward_report.all_passed()
        assert forward_report.failures() == []

    def test_no_silently_missing_bound(self, forward_report):
        for eps in (0.2, 0.1):
            seen = {e.bound_id for e in forward_report.entries if e.eps == eps}
            assert seen == set(BOUND_IDS)

    def test_skips_carry_reasons(self, forward_report):
        skipped = [e for e in forward_report.entries if e.passed is None]
        for e in skipped:
            assert e.detail.startswith(("SKIPPED", "PRECONDITION_UNMET"))
            assert e.empirical is None and e.theoretical is None

    def test_thm3_runs_at_loose_eps_and_skips_at_tight(self, forward_report):
        thm3 = {e.eps: e for e in forward_report.entries if e.bound_id == "THM3"}
        assert thm3[0.2].passed is True
        assert "T=41405" in thm3[0.2].detail
        assert thm3[0.1].passed is None
        assert "1030410" in thm3[0.1].detail
        assert any("1030410" in hit for hit in forward_report.caps_hit)

    def test_constant_family_gaps_zero(self, lazy):
        report = verify_all(ChainPair(lazy, lazy), [0.2], name="lazy-const")
        assert report.all_passed()
        by_id = {}
        for e in report.entries:
            by_id.setdefault(e.bound_id, []).append(e)
        for bound_id in ("PROP3", "THM2", "THM3"):
            for e in by_id[bound_id]:
                assert e.empirical == pytest.approx(0.0, abs=1e-12), bound_id

    def test_huge_eps_vacuous_and_skipped(self, lazy_asym_pair):
        # at 1e13 every derived horizon rounds to one step
        report = verify_all(lazy_asym_pair, [2.0, 1e13], name="huge-eps")
        assert report.all_passed()
        prop2 = [e for e in report.entries if e.bound_id == "PROP2"]
        assert all("vacuous" in e.detail and e.passed for e in prop2)
        assert all(e.theoretical <= 0.0 for e in prop2)
        cor1 = [e for e in report.entries if e.bound_id == "COR1"]
        assert len(cor1) == 2 and all(e.passed is None for e in cor1)
        assert all("SKIPPED" in e.detail for e in cor1)
        thm3 = [e for e in report.entries if e.bound_id == "THM3"]
        assert all(e.passed is None for e in thm3)
        assert all("PRECONDITION_UNMET" in e.detail for e in thm3)
        skipped = {e.bound_id for e in report.entries if e.eps == 1e13 and e.passed is None}
        assert skipped == {"COR1", "THM3"}
        assert report.caps_hit == ()

    def test_small_caps_record_skips(self, lazy_asym_pair):
        report = verify_all(
            lazy_asym_pair, [0.1], name="capped", corridor_cap=100, horizon_cap=50
        )
        assert any(hit.startswith("PROP1") for hit in report.caps_hit)
        assert any(hit.startswith("THM2") for hit in report.caps_hit)
        assert any(hit.startswith("THM3") for hit in report.caps_hit)
        # skipped entries never count as failures
        assert report.all_passed()
        for suffix, text in render("capped", lazy_asym_pair, **CAPPED).items():
            assert text.encode() == (GOLDEN_DIR / f"capped.{suffix}").read_bytes(), suffix

    def test_solver_cap_inside_thm2_is_not_a_skip(self, lazy_asym_pair, monkeypatch):
        def iteration_cap(*args, **kwargs):
            raise IterationCapError("mixing time exceeds cap 1")

        monkeypatch.setattr(verify, "theorem2_check", iteration_cap)
        with pytest.raises(IterationCapError):
            verify_all(lazy_asym_pair, [0.2])

    def test_mixing_cap_aborts_the_run(self, lazy_asym_pair, monkeypatch):
        monkeypatch.setattr(mixing, "DEFAULT_MIXING_CAP", 1)
        with pytest.raises(IterationCapError):
            verify_all(lazy_asym_pair, [0.2])

    def test_caps_are_integers_of_at_least_one(self, lazy_asym_pair):
        for caps in ({"corridor_cap": True}, {"corridor_cap": 0}, {"horizon_cap": 2.5}):
            with pytest.raises(OutOfRangeError):
                verify_all(lazy_asym_pair, [0.2], **caps)

    def test_grid_points_are_checked_before_any_work(self, lazy_asym_pair, monkeypatch):
        calls = []
        monkeypatch.setattr(verify, "prop3_check", lambda *args: calls.append(args))
        for grid_points in (1, 0, 2.5, True):
            with pytest.raises(OutOfRangeError):
                verify_all(lazy_asym_pair, [0.2], grid_points=grid_points)
        assert calls == []

    @pytest.mark.parametrize("eps", [1e-110, 1e-320])
    def test_horizon_too_large_for_a_float_is_a_cap_skip(self, eps):
        # t_mix is 1 at any eps; 2 / eps overflows at 1e-320 and eps^3 underflows at 1e-110
        mixer = validate_stochastic([[0.5, 0.5], [0.5, 0.5]])
        report = verify_all(ChainPair(mixer, mixer), [eps], name="mixer")
        skipped = {e.bound_id for e in report.entries if e.passed is None}
        assert skipped == {"PROP1", "THM2", "THM3"}
        assert report.all_passed()
        thm3 = [e for e in report.entries if e.bound_id == "THM3"]
        assert thm3[0].detail == "SKIPPED: horizon inf exceeds cap 100000"
        assert f"THM3:eps={eps!r}:horizon=inf" in report.caps_hit
        assert len(report.caps_hit) == 4

    def test_eps_list_validation(self, lazy_asym_pair):
        with pytest.raises(NonPositiveEpsError):
            verify_all(lazy_asym_pair, [])
        with pytest.raises(NonPositiveEpsError):
            verify_all(lazy_asym_pair, [0.1, -0.2])
        for eps in (math.nan, math.inf, 10**400):
            with pytest.raises(NonFiniteError):
                verify_all(lazy_asym_pair, [0.1, eps])

    @pytest.mark.parametrize("eps", [True, np.True_, "0.2", None])
    def test_each_eps_must_be_a_real_number(self, lazy_asym_pair, eps):
        with pytest.raises(OutOfRangeError, match="^eps must be a real number, got "):
            verify_all(lazy_asym_pair, [0.1, eps])

    def test_prop3_reports_first_worst_step(self):
        # gap - bound peaks at k = 2 and k = 3 alike; the first of them is reported
        gaps, bounds = np.array([0.1, 0.2, 0.2]), np.array([0.5, 0.3, 0.3])
        assert verify._prop3(None, 3, gaps, bounds) == (0.2, 0.3, True, "T=3 worst_k=2")
        bounds[0] = 0.1 - 2 * BOUND_SLACK
        assert verify._prop3(None, 3, gaps, bounds) == (0.1, bounds[0], False, "T=3 worst_k=1")

    def test_thm2_counts_tail_steps_above_the_slack(self, monkeypatch):
        # a gap of exactly eps + BOUND_SLACK passes; only the step above it is a violation
        tail = np.array([0.1, 0.2 + BOUND_SLACK, 0.2 + 2 * BOUND_SLACK])
        monkeypatch.setattr(verify, "theorem2_check", lambda *args: (8, tail))
        c = types.SimpleNamespace(pair=None, eps=0.2, corridor_cap=10, m=None)
        got = verify._thm2(c, 0.5)
        assert got == (tail[2], 0.2, False, "delta=0.5 T=8 violations=1")
        # a numpy scalar would print as np.float64(...) in the CSV report
        assert type(got[0]) is float

    def test_prop2_sweep_covers_endpoints_and_grid(self, forward_report):
        details = [e.detail for e in forward_report.entries if e.bound_id == "PROP2" and e.eps == 0.2]
        assert details[0] == "kernel=P0"
        assert details[1] == "kernel=P1"
        assert len(details) == 13

    def test_sweep_in_chunks_same_report(self, lazy_asym_pair, forward_report, monkeypatch):
        # two sweep kernels per chunk: four 2 x 2 float arrays each
        monkeypatch.setattr(chains, "_STACK_BUDGET", 2 * 4 * 8 * 2 * 2)
        report = verify_all(lazy_asym_pair, [0.2, 0.1], name="lazy-to-asym")
        assert report.to_json() == forward_report.to_json()

    def test_stationary_solves_stay_batched(self, lazy_asym_pair, forward_report, monkeypatch):
        # 14 stacks for a fresh pair: pi0 and pi1, each sup-mixing refinement
        # level and the PROP2 sweep, PROP1's P1 once per eps, and one of the
        # interpolant's nodes, which serve every corridor and grid target; a
        # solve per sample and per sweep kernel would make 252 stacks
        pair = ChainPair(lazy_asym_pair.p0, lazy_asym_pair.p1)
        calls = []

        def counted(Ps):
            calls.append(len(Ps))
            return _stationary_stack(Ps)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "markovmix":
                for attr, value in list(vars(module).items()):
                    if value is _stationary_stack:
                        monkeypatch.setattr(module, attr, counted)
        report = verify_all(pair, [0.2, 0.1], name="lazy-to-asym")
        assert report.to_json() == forward_report.to_json()
        assert len(calls) <= 14

    def test_sweep_scans_each_grid_kernel_once_per_eps(
        self, lazy_asym_pair, forward_report, monkeypatch
    ):
        # the P0 and P1 entries read the s = 0.0 and s = 1.0 scans, and one scan
        # serves every eps: 11 kernels, not 13 per eps; the sup levels and PROP1
        # reach the helper from their own modules
        kernels = []

        def counted(pair, ss, eps_values):
            kernels.append(len(ss))
            return _family_tmix(pair, ss, eps_values)

        monkeypatch.setattr(verify, "_family_tmix", counted)
        report = verify_all(lazy_asym_pair, [0.2, 0.1], name="lazy-to-asym")
        assert report.to_json() == forward_report.to_json()
        assert sum(kernels) == 11
        for eps_list in ([0.2], [0.3, 0.25, 0.2, 0.1]):
            kernels.clear()
            verify_all(lazy_asym_pair, eps_list)
            assert sum(kernels) == 11

    def test_one_svd_per_sweep_kernel_for_any_number_of_eps(self, lazy_asym_pair, monkeypatch):
        # sigma is computed once per grid kernel, before the eps loop; PROP4
        # reads the s = 0.0 kernel's, and no other check runs an SVD
        calls = []

        def counted(P):
            calls.append(P)
            return spectral_summary(P)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "markovmix":
                for attr, value in list(vars(module).items()):
                    if value is spectral_summary:
                        monkeypatch.setattr(module, attr, counted)
        for eps_list in ([0.2], [0.2, 0.1], [0.3, 0.25, 0.2, 0.1]):
            calls.clear()
            verify_all(lazy_asym_pair, eps_list)
            assert len(calls) == 11, eps_list

    def test_sweep_sigma_at_s0_is_p0s(self, suite_pairs, monkeypatch):
        # the first sweep kernel is s = 0.0, and PROP4's radius is built from its sigma
        sigmas = []

        def spy(P):
            summary = spectral_summary(P)
            sigmas.append(summary.sigma)
            return summary

        monkeypatch.setattr(verify, "spectral_summary", spy)
        for name, pair in suite_pairs.items():
            sigmas.clear()
            report = verify_all(pair, [0.3])
            want = spectral_summary(pair.p0).sigma
            assert sigmas[0] == want, name
            prop4 = [e for e in report.entries if e.bound_id == "PROP4"]
            delta = min(0.3 * want / (2.0 * pair.n**1.5), 1.0)
            assert prop4[0].detail == f"delta={delta!r} grid=200", name

    def test_grid_check_stays_within_stack_budget(self):
        # PROP4 and COR1 evaluate 200 grid points from the pair's interpolant, whose
        # 100 node solves and grid rows fit 1 MiB at n = 100 only in chunks
        pair = ChainPair(random_dense(100, seed=0), random_dense(100, seed=1))
        pair.pi0  # solve the cached endpoint outside the trace
        tracemalloc.start()
        try:
            adiabatic._grid_max_tv(pair, 0.01, verify.GRID_CHECK_POINTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak

    def test_thm3_memory_stays_flat_in_the_horizon(self, suite_pairs, monkeypatch):
        # THM3 reduces the corridor stream chunk by chunk; a collected corridor
        # peaked at 1.9 MiB at T = 10^4 and 9.5 MiB at T = 10^5
        pair = suite_pairs["complete5-to-bd5"]
        pair.pi0  # solve the cached endpoint outside the trace
        c = verify._Inputs(pair, 0.1, [], [], 1, 1.0, 10**5, 10**6)
        peaks = []
        for T in (10**4, 10**5):
            monkeypatch.setattr(verify, "theorem3_horizon", lambda n, eps, m: T)
            tracemalloc.start()
            try:
                max_gap, _, _, detail = verify._thm3(c)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert detail == f"T={T} sup_tmix=1"
            assert max_gap == corridor(pair, T).worst[1]
        assert peaks[1] <= 1.5 * peaks[0], peaks


class TestReportSerialization:
    def test_json_deterministic(self, lazy_asym_pair, forward_report):
        again = verify_all(lazy_asym_pair, [0.2, 0.1], name="lazy-to-asym")
        assert forward_report.to_json() == again.to_json()
        assert forward_report.to_csv() == again.to_csv()

    def test_json_schema(self, forward_report):
        payload = json.loads(forward_report.to_json())
        assert set(payload) == {f.name for f in fields(BoundReport)}
        assert payload["chain_name"] == "lazy-to-asym"
        assert payload["eps_list"] == [0.2, 0.1]
        assert isinstance(payload["grid_resolution"], float)
        assert isinstance(payload["caps_hit"], list)
        for entry in payload["entries"]:
            assert set(entry) == {"eps", "bound_id", "empirical", "theoretical", "pass", "detail"}
            assert entry["bound_id"] in BOUND_IDS

    def test_csv_header_and_rows(self, forward_report):
        lines = forward_report.to_csv().splitlines()
        assert lines[0] == "chain,eps,bound_id,empirical,theoretical,pass,detail"
        assert len(lines) == 1 + len(forward_report.entries)
        assert all(line.startswith("lazy-to-asym,") for line in lines[1:])

    def test_failures_detected(self):
        report = BoundReport(
            chain_name="synthetic",
            eps_list=(0.1,),
            entries=(
                BoundEntry(0.1, "PROP2", 1.0, 2.0, False, "kernel=P0"),
                BoundEntry(0.1, "PROP4", 0.0, 0.1, True, ""),
                BoundEntry(0.1, "COR1", None, None, None, "SKIPPED: reason"),
            ),
            grid_resolution=0.01,
            caps_hit=(),
        )
        assert not report.all_passed()
        assert len(report.failures()) == 1
        assert "false" in report.to_csv()
        assert "skipped" in report.to_csv()


class TestVerifyOnSuite:
    @pytest.mark.parametrize("name", list(build_suite_pairs()))
    def test_reports_match_golden_bytes(self, name, suite_pairs):
        # after a deliberate report change: PYTHONPATH=src python tests/record_verify_golden.py
        for tag, eps_list in GOLDEN_EPS_SETS.items():
            for suffix, text in render(name, suite_pairs[name], eps_list).items():
                golden = GOLDEN_DIR / f"{name}{tag}.{suffix}"
                assert text.encode() == golden.read_bytes(), golden.name

    def test_reference_corridor_meets_the_goldens(self, suite_pairs, monkeypatch):
        # The goldens come from the blocked corridor. With the per-step
        # reference in its place, every flag, int and cap must be the same
        # and every float, in the details too, within 1e-12.
        # THM3 reads the corridor's worst step, so it reads the reference's.
        horizons = []

        def reference_worst(pair, T):
            horizons.append(T)
            return corridor_reference(pair, T).worst

        monkeypatch.setattr(adiabatic, "corridor", corridor_reference)
        monkeypatch.setattr(verify, "_corridor_worst", reference_worst)
        runs = [
            (f"{name}{tag}", name, name, {"eps_list": eps_list})
            for tag, eps_list in GOLDEN_EPS_SETS.items()
            for name in suite_pairs
        ]
        runs.append(("capped", "capped", "lazy-to-asym", CAPPED))
        for stem, label, name, kwargs in runs:
            got = json.loads(render(label, suite_pairs[name], **kwargs)["json"])
            want = json.loads((GOLDEN_DIR / f"{stem}.json").read_bytes())
            _assert_same_within(got, want, 1e-12, stem)
        assert sorted(set(horizons)) == [41405, 65610], horizons

    def test_built_pairs_are_not_checked_again(self, suite_pairs, monkeypatch):
        # each pair checked P0 and P1 when it was built, and its interpolants are
        # ergodic too, so verify_all needs no further check nor mixing_time's
        calls = []

        def counted(real):
            def spy(*args, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)

            return spy

        reals = (chains.structure, mixing.mixing_time)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "markovmix":
                for attr, value in list(vars(module).items()):
                    if any(value is real for real in reals):
                        monkeypatch.setattr(module, attr, counted(value))
        for eps_list in GOLDEN_EPS_SETS.values():
            for name, pair in suite_pairs.items():
                verify_all(pair, eps_list, name=name)
        assert calls == []
        chains.stationary(suite_pairs["lazy-to-asym"].p1)
        assert calls == ["structure"]

    def test_three_state_pair_passes(self, suite_pairs):
        report = verify_all(
            suite_pairs["cycle3-to-complete3"], [0.2], name="cycle3-to-complete3"
        )
        assert report.all_passed()
        # eps = 0.2 < 1/sqrt(3), so the tighter continuity radius applies
        assert 0.2 < 1 / math.sqrt(3)
        cor1 = [e for e in report.entries if e.bound_id == "COR1"]
        assert cor1[0].passed is True


_NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:e[-+]?\d+)?)")


def _assert_same_within(got, want, tol, where):
    """Equal JSON values, except that floats, and decimals in strings, may differ by ``tol``."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_same_within(got[key], want[key], tol, (where, key))
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_within(g, w, tol, (where, i))
    elif isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= tol, (where, got, want)
    elif isinstance(want, str):
        g, w = _NUMBER.split(got), _NUMBER.split(want)
        assert len(g) == len(w) and g[::2] == w[::2], (where, got, want)
        for a, b in zip(g[1::2], w[1::2]):
            if re.fullmatch(r"-?\d+", b):
                assert a == b, (where, got, want)
            else:
                assert abs(float(a) - float(b)) <= tol, (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)
