"""CLI subcommands, output schemas, and the exit-code contract."""

import argparse
import inspect
import json
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

import markovmix.adiabatic as adiabatic
import markovmix.cli as cli
from markovmix import (
    AdiabaticResult,
    BadParamsError,
    CapExceededError,
    ChainPair,
    HorizonCapError,
    IterationCapError,
    MixingResult,
    StableAdiabaticResult,
    SupMixingResult,
    adiabatic_time,
    complete_graph,
    load_pair,
    mixing_time,
    pair_from_dict,
    pair_to_dict,
    save_pair,
    stable_adiabatic_time,
    sup_mixing_time,
    theorem2_check,
    verify_all,
)
from markovmix.cli import (
    EXIT_BOUND_FAILED,
    EXIT_BREAKDOWN,
    EXIT_CAP,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)
from markovmix.verify import BoundEntry, BoundReport

from record_cli_golden import CASES, GOLDEN_DIR, run, write_inputs

LAZY_TO_ASYM = ["--p0", "two_state:p=0.25,q=0.25", "--p1", "two_state:p=0.2,q=0.4"]


@pytest.fixture()
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    code = main(["generate", *LAZY_TO_ASYM, "--name", "lazy-to-asym", "--out", str(path)])
    assert code == EXIT_OK
    return path


@pytest.fixture()
def mixer_file(tmp_path):
    """A pair with t_mix 1 at any eps, so its horizons are 2 / eps and beyond."""
    path = tmp_path / "mixer.json"
    mixer = [[0.5, 0.5], [0.5, 0.5]]
    path.write_text(json.dumps({"name": "mixer", "n": 2, "P0": mixer, "P1": mixer}))
    return path


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-inputs")
    write_inputs(directory)
    return directory


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestGenerate:
    def test_pair_file_round_trip(self, pair_file):
        name, pair = load_pair(pair_file)
        assert name == "lazy-to-asym"
        np.testing.assert_array_equal(pair.p0.entries, [[0.75, 0.25], [0.25, 0.75]])
        np.testing.assert_array_equal(pair.p1.entries, [[0.8, 0.2], [0.4, 0.6]])

    def test_reload_is_bitwise_stable(self, pair_file, tmp_path):
        name, pair = load_pair(pair_file)
        other = tmp_path / "copy.json"
        save_pair(other, name, pair)
        name2, pair2 = load_pair(other)
        assert name2 == name
        np.testing.assert_array_equal(pair.p0.entries, pair2.p0.entries)
        np.testing.assert_array_equal(pair.p1.entries, pair2.p1.entries)

    @pytest.mark.parametrize("name", [5, None, b"bytes"])
    def test_save_rejects_what_load_rejects(self, pair_file, tmp_path, name):
        pair = load_pair(pair_file)[1]
        path = tmp_path / "bad-name.json"
        with pytest.raises(BadParamsError, match="chain name must be a string"):
            save_pair(path, name, pair)
        assert not path.exists()
        with pytest.raises(BadParamsError, match="chain name must be a string"):
            pair_from_dict(pair_to_dict("lazy-to-asym", pair) | {"name": name})

    def test_single_kernel_output(self, capsys):
        code, payload = run_json(capsys, ["generate", "--p0", "complete_graph:n=3,alpha=0.5"])
        assert code == EXIT_OK
        assert payload["n"] == 3
        assert "P1" not in payload

    def test_seed_flag_feeds_random_dense(self, capsys):
        code1, one = run_json(
            capsys, ["generate", "--p0", "random_dense:n=3", "--seed", "9"]
        )
        code2, two = run_json(
            capsys, ["generate", "--p0", "random_dense:n=3,seed=9"]
        )
        assert code1 == code2 == EXIT_OK
        assert one["P0"] == two["P0"]

    def test_bad_family_exits_validation(self):
        assert main(["generate", "--p0", "mystery:n=3"]) == EXIT_VALIDATION


class TestSubcommands:
    def test_validate(self, capsys, pair_file):
        code, payload = run_json(capsys, ["validate", "--chain", str(pair_file)])
        assert code == EXIT_OK
        assert payload["valid"] is True
        assert payload["P0"] == {"irreducible": True, "period": 1, "aperiodic": True}

    def test_stationary(self, capsys, pair_file):
        code, payload = run_json(capsys, ["stationary", "--chain", str(pair_file)])
        assert code == EXIT_OK
        np.testing.assert_allclose(payload["pi0"], [0.5, 0.5], atol=1e-14)
        np.testing.assert_allclose(payload["pi1"], [2 / 3, 1 / 3], atol=1e-12)

    def test_stationary_at_s(self, capsys, pair_file):
        code, payload = run_json(
            capsys,
            ["stationary", "--chain", str(pair_file), "--which", "P0", "--s", "0.5"],
        )
        assert code == EXIT_OK
        np.testing.assert_allclose(payload["pi_s"], [13 / 22, 9 / 22], atol=1e-12)
        assert "pi1" not in payload

    def test_mixing(self, capsys, pair_file):
        code, payload = run_json(
            capsys,
            ["mixing", "--chain", str(pair_file), "--which", "P1", "--epsilon", "0.05"],
        )
        assert code == EXIT_OK
        assert payload["tmix"] == 3
        assert payload["kernel"] == "P1"

    def test_sup_mixing(self, capsys, pair_file):
        code, payload = run_json(
            capsys, ["sup-mixing", "--chain", str(pair_file), "--epsilon", "0.05"]
        )
        assert code == EXIT_OK
        assert payload["sup_tmix"] == 4
        assert payload["argmax_s"] == 0.0

    def test_sup_mixing_deep_refinement_returns(self, capsys, pair_file):
        argv = ["sup-mixing", "--chain", str(pair_file), "--epsilon", "0.05", "--refine", "16"]
        code, payload = run_json(capsys, argv)
        assert code == EXIT_OK
        assert payload["sup_tmix"] == 4

    def test_adiabatic(self, capsys, pair_file):
        code, payload = run_json(
            capsys, ["adiabatic", "--chain", str(pair_file), "--epsilon", "0.1"]
        )
        assert code == EXIT_OK
        assert payload["t_ad"] >= 1

    @pytest.mark.parametrize(
        "command, record, added, renamed",
        [
            ("mixing", MixingResult, {"kernel"}, {}),
            ("sup-mixing", SupMixingResult, set(), {"per_s_samples": "samples"}),
            ("adiabatic", AdiabaticResult, set(), {}),
            ("stable", StableAdiabaticResult, set(), {}),
        ],
    )
    def test_record_payload_is_its_fields(self, capsys, pair_file, command, record, added, renamed):
        # a record-printing subcommand prints its record's fields and the chain, with
        # only mixing's kernel label added and sup-mixing's samples renamed
        code, payload = run_json(capsys, [command, "--chain", str(pair_file), "--epsilon", "0.1"])
        assert code == EXIT_OK
        names = {renamed.get(f.name, f.name) for f in fields(record)}
        assert set(payload) == names | added | {"chain"}

    def test_stable(self, capsys, pair_file):
        code, payload = run_json(
            capsys, ["stable", "--chain", str(pair_file), "--epsilon", "0.05"]
        )
        assert code == EXIT_OK
        assert payload["t_sad"] == 2

    def test_corridor(self, capsys, pair_file):
        code, payload = run_json(
            capsys, ["corridor", "--chain", str(pair_file), "--steps", "2"]
        )
        assert code == EXIT_OK
        assert payload["T"] == 2
        np.testing.assert_allclose(payload["gaps"], [0.0409091, 0.0466667], atol=1e-7)

    def test_verify_json(self, capsys, pair_file):
        code, payload = run_json(
            capsys, ["verify", "--chain", str(pair_file), "--epsilon", "0.2"]
        )
        assert code == EXIT_OK
        assert {e["bound_id"] for e in payload["entries"]} == {
            "PROP1", "PROP2", "PROP3", "PROP4", "COR1", "THM2", "THM3"
        }

    def test_verify_csv_to_file(self, pair_file, tmp_path):
        out = tmp_path / "report.csv"
        code = main(
            [
                "verify", "--chain", str(pair_file),
                "--epsilon", "0.2", "--format", "csv", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "chain,eps,bound_id,empirical,theoretical,pass,detail"


# (subcommand, option, library function, the parameter whose default the option mirrors)
FED_DEFAULTS = [
    ("sup-mixing", "--grid", sup_mixing_time, "grid_points"),
    ("sup-mixing", "--refine", sup_mixing_time, "refine_depth"),
    ("mixing", "--cap", mixing_time, "cap"),
    ("adiabatic", "--cap", adiabatic_time, "horizon_cap"),
    ("stable", "--cap", stable_adiabatic_time, "cap"),
    ("corridor", "--cap", theorem2_check, "corridor_cap"),
    ("verify", "--cap", verify_all, "corridor_cap"),
    ("verify", "--horizon-cap", verify_all, "horizon_cap"),
    ("verify", "--grid", verify_all, "grid_points"),
]


@pytest.mark.parametrize("command, flag, function, param", FED_DEFAULTS)
def test_option_defaults_are_the_library_defaults(command, flag, function, param):
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    option = subparsers.choices[command]._option_string_actions[flag]
    assert option.default == inspect.signature(function).parameters[param].default


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys, pair_file):
        argv = ["verify", "--chain", str(pair_file), "--epsilon", "0.2"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_in_process_calls_share_one_parser_and_no_state(self, capsys, pair_file):
        # main keeps its parser after the first call; build_parser still makes a new one
        assert cli.build_parser() is not cli.build_parser()
        chain = ["--chain", str(pair_file)]
        code, only_p0 = run_json(capsys, ["stationary", *chain, "--which", "P0", "--s", "0.5"])
        assert code == EXIT_OK and set(only_p0) == {"chain", "n", "pi0", "s", "pi_s"}
        code, default = run_json(capsys, ["stationary", *chain])
        assert code == EXIT_OK and set(default) == {"chain", "n", "pi0", "pi1"}
        assert default["pi0"] == only_p0["pi0"]
        code, mixing = run_json(capsys, ["mixing", *chain, "--epsilon", "0.1"])
        assert code == EXIT_OK and mixing["kernel"] == "P1"
        assert cli._parser() is cli._parser()
        # a usage error after a successful call still exits 64
        with pytest.raises(SystemExit) as excinfo:
            main(["mixing", *chain])
        assert excinfo.value.code == EXIT_USAGE
        assert "--epsilon" in capsys.readouterr().err
        assert run_json(capsys, ["mixing", *chain, "--epsilon", "0.1"]) == (EXIT_OK, mixing)


class TestExitCodes:
    def test_validation_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {"name": "bad", "n": 2, "P0": [[0.5, 0.6], [0.5, 0.5]], "P1": [[0.5, 0.5], [0.5, 0.5]]}
            )
        )
        assert main(["validate", "--chain", str(bad)]) == EXIT_VALIDATION
        assert "row 0" in capsys.readouterr().err

    def test_non_finite_file_is_validation_failure(self, tmp_path, capsys):
        bad = tmp_path / "nan.json"
        # json.dumps writes the bare token NaN, which json.loads reads back
        bad.write_text(
            json.dumps(
                {"name": "nan", "n": 2, "P0": [[float("nan"), 0.5], [0.5, 0.5]], "P1": [[0.5, 0.5], [0.5, 0.5]]}
            )
        )
        assert "NaN" in bad.read_text()
        assert main(["validate", "--chain", str(bad)]) == EXIT_VALIDATION
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [2.0, True, "2", None])
    def test_declared_n_must_be_an_integer(self, tmp_path, capsys, n):
        half = [[0.5, 0.5], [0.5, 0.5]]
        payload = {"name": "n", "n": n, "P0": half, "P1": half}
        with pytest.raises(BadParamsError, match=r"^declared n must be an integer, got "):
            pair_from_dict(payload)
        bad = tmp_path / "n.json"
        bad.write_text(json.dumps(payload))
        assert main(["validate", "--chain", str(bad)]) == EXIT_VALIDATION
        assert "declared n must be an integer" in capsys.readouterr().err
        assert pair_from_dict({**payload, "n": 2})[1].n == 2

    def test_not_ergodic_is_validation_failure(self, tmp_path):
        bad = tmp_path / "cycle.json"
        bad.write_text(
            json.dumps(
                {"name": "cycle", "n": 2, "P0": [[0.0, 1.0], [1.0, 0.0]], "P1": [[0.5, 0.5], [0.5, 0.5]]}
            )
        )
        assert main(["validate", "--chain", str(bad)]) == EXIT_VALIDATION

    def test_cap_exceeded(self, pair_file, capsys):
        code = main(
            ["stable", "--chain", str(pair_file), "--epsilon", "0.0001", "--cap", "3"]
        )
        assert code == EXIT_CAP
        assert "cap" in capsys.readouterr().err

    def test_cap_errors_form_one_family(self, pair_file, capsys):
        assert issubclass(HorizonCapError, CapExceededError)
        assert issubclass(IterationCapError, CapExceededError)
        adiabatic = ["adiabatic", "--chain", str(pair_file), "--epsilon", "0.05"]
        assert main([*adiabatic, "--cap", "1"]) == EXIT_CAP
        mixing = ["mixing", "--chain", str(pair_file), "--epsilon", "0.0001"]
        assert main([*mixing, "--cap", "1"]) == EXIT_CAP
        assert capsys.readouterr().err.count("cap exceeded") == 2

    def test_cap_below_one_is_a_validation_failure(self, pair_file, capsys):
        chain = ["--chain", str(pair_file)]
        for argv in (
            ["mixing", *chain, "--epsilon", "0.1", "--cap", "0"],
            ["adiabatic", *chain, "--epsilon", "0.1", "--cap", "0"],
            ["stable", *chain, "--epsilon", "0.1", "--cap", "0"],
            ["corridor", *chain, "--steps", "5", "--cap", "0"],
            ["verify", *chain, "--epsilon", "0.1", "--cap", "0"],
            ["verify", *chain, "--epsilon", "0.1", "--horizon-cap", "0"],
        ):
            assert main(argv) == EXIT_VALIDATION, argv
            assert "must be >= 1, got 0" in capsys.readouterr().err, argv

    def test_horizon_too_large_for_a_float_exits_3_or_skips(self, mixer_file, capsys):
        # 2 / eps is a finite horizon above the cap at 1e-110 and overflows to inf at 1e-320
        cases = (("1e-110", "certified horizon 2e+110 "), ("1e-320", "certified horizon inf "))
        for eps, horizon in cases:
            assert main(["adiabatic", "--chain", str(mixer_file), "--epsilon", eps]) == EXIT_CAP
            assert horizon in capsys.readouterr().err
            argv = ["verify", "--chain", str(mixer_file), "--epsilon", eps]
            code, report = run_json(capsys, argv)
            assert code == EXIT_OK
            assert [e["bound_id"] for e in report["entries"] if e["pass"] is None] == [
                "PROP1", "THM2", "THM2", "THM3"
            ]

    def test_huge_horizons_print_as_floats(self, mixer_file, capsys):
        # ceil_int(2e110) is an exact 111-digit int; only its float's digits mean anything
        argv = ["verify", "--chain", str(mixer_file), "--epsilon", "1e-110"]
        code, report = run_json(capsys, argv)
        assert code == EXIT_OK
        assert report["caps_hit"] == [
            "PROP1:eps=1e-110:horizon=2e+110",
            "THM2:eps=1e-110:delta=0.5:T=4e+110",
            "THM2:eps=1e-110:delta=0.25:T=8e+110",
            "THM3:eps=1e-110:horizon=inf",
        ]
        assert [e["detail"] for e in report["entries"] if e["pass"] is None] == [
            "SKIPPED: horizon 2e+110 exceeds cap 100000",
            "SKIPPED: delta=0.5 needs T=4e+110, above corridor cap 100000",
            "SKIPPED: delta=0.25 needs T=8e+110, above corridor cap 100000",
            "SKIPPED: horizon inf exceeds cap 100000",
        ]

    def test_corridor_over_cap(self, pair_file):
        argv = ["corridor", "--chain", str(pair_file), "--steps", "50", "--cap", "10"]
        code = main(argv)
        assert code == EXIT_CAP
        name, pair = load_pair(pair_file)
        with pytest.raises(HorizonCapError) as excinfo:
            cli._corridor(cli.build_parser().parse_args(argv), pair, name)
        assert excinfo.value.horizon == 50

    def test_verify_exits_3_when_a_mixing_scan_hits_its_cap(self, pair_file, monkeypatch, capsys):
        # only horizon caps become skips; the sup mixing scan's cap aborts the run
        monkeypatch.setattr("markovmix.mixing.DEFAULT_MIXING_CAP", 1)
        assert main(["verify", "--chain", str(pair_file), "--epsilon", "0.2"]) == EXIT_CAP
        assert "cap exceeded" in capsys.readouterr().err

    def test_deeply_nested_file_is_validation_failure(self, tmp_path, capsys):
        # deeper than Python's recursion limit; the message's wording varies by version
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["validate", "--chain", str(deep)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("markovmix: ")

    def test_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["mixing", "--chain", "x.json", "--epsilon", "not-a-number"])
        assert excinfo.value.code == EXIT_USAGE
        with pytest.raises(SystemExit) as excinfo:
            main(["no-such-command"])
        assert excinfo.value.code == EXIT_USAGE

    def test_adiabatic_has_no_mode_flag(self, pair_file):
        for flags in (["--mode", "fast"], ["--window", "20"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["adiabatic", "--chain", str(pair_file), "--epsilon", "0.1", *flags])
            assert excinfo.value.code == EXIT_USAGE

    def test_nan_eps_exits_validation_at_once(self, pair_file, capsys):
        assert main(["adiabatic", "--chain", str(pair_file), "--epsilon", "nan"]) == EXIT_VALIDATION
        assert "finite" in capsys.readouterr().err
        # every spelling of a negative or non-finite eps is a value, not a flag
        for command in ("mixing", "verify"):
            for eps in ("-1e-3", "-inf", "-0.1", "-.5", "-2E+1", "-Infinity", "-nan", "nan"):
                assert main([command, "--chain", str(pair_file), "--epsilon", eps]) == EXIT_VALIDATION
                assert capsys.readouterr().err.startswith("markovmix: eps must be")
            assert main([command, "--chain", str(pair_file), "--epsilon=-1e-3"]) == EXIT_VALIDATION
            assert "eps must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec", ["two_state:p=abc,q=0.2", "lazy_cycle:n=2.5,alpha=0.5"]
    )
    def test_malformed_generator_number(self, spec, capsys):
        assert main(["generate", "--p0", spec]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("markovmix: bad generator parameter")

    @pytest.mark.parametrize(
        "P0", [[["a", 0.5], [0.5, 0.5]], [[0.5, 0.5], [1.0]]], ids=["letter", "ragged"]
    )
    def test_malformed_chain_file_number(self, P0, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "bad", "n": 2, "P0": P0, "P1": [[0.5, 0.5], [0.5, 0.5]]}))
        assert main(["validate", "--chain", str(bad)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("markovmix: expected an array of numbers")

    def test_bound_failure_exit(self, pair_file, monkeypatch, capsys):
        failing = BoundReport(
            chain_name="synthetic",
            eps_list=(0.1,),
            entries=(BoundEntry(0.1, "PROP2", 1.0, 2.0, False, "kernel=P0"),),
            grid_resolution=0.01,
            caps_hit=(),
        )
        monkeypatch.setattr(cli, "verify_all", lambda *a, **k: failing)
        code = main(["verify", "--chain", str(pair_file), "--epsilon", "0.1"])
        assert code == EXIT_BOUND_FAILED
        capsys.readouterr()

    def test_numerical_breakdown_exit(self, pair_file, monkeypatch, capsys):
        monkeypatch.setattr(
            adiabatic, "_adiabatic_gaps", lambda pair, Ts: np.full(len(Ts), np.nan)
        )
        code = main(["adiabatic", "--chain", str(pair_file), "--epsilon", "0.1"])
        assert code == EXIT_BREAKDOWN
        assert "numerical breakdown" in capsys.readouterr().err

    def test_mixing_breakdown_exit(self, pair_file, monkeypatch, capsys):
        # a kernel whose rows sum to 1.5 gains mass, so its scan's gap rises; its
        # own stationary solve would break first, so the scan is given P0's pi
        grown = lambda args, pair: ("P0", SimpleNamespace(entries=1.5 * pair.p0.entries))
        monkeypatch.setattr(cli, "_kernel_for", grown)
        monkeypatch.setattr("markovmix.mixing.stationary", lambda P: load_pair(pair_file)[1].pi0)
        code = main(["mixing", "--chain", str(pair_file), "--epsilon", "0.01"])
        assert code == EXIT_BREAKDOWN
        assert "kernel 0: max TV gap increased" in capsys.readouterr().err

    def test_stationary_breakdown_exit(self, tmp_path, wide_range, capsys):
        path = tmp_path / "wide.json"
        save_pair(path, "wide-range", ChainPair(wide_range, complete_graph(3, 0.5)))
        assert main(["stationary", "--chain", str(path), "--which", "P0"]) == EXIT_BREAKDOWN
        assert "stationary solve, stack row 0: entry" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["validate", "--chain", str(tmp_path / "nope.json")]) == EXIT_VALIDATION


class TestGolden:
    @pytest.mark.parametrize("case", list(CASES))
    def test_run_matches_golden_bytes(self, case, golden_inputs, monkeypatch):
        # after a deliberate output change: PYTHONPATH=src python tests/record_cli_golden.py
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(golden_inputs)
        text = json.dumps(run(CASES[case]), indent=2, sort_keys=True) + "\n"
        assert text.encode() == (GOLDEN_DIR / f"{case}.json").read_bytes()
