"""Record the golden CLI runs that ``test_cli.py`` compares.

Run from the repository root after a deliberate change to what the CLI prints:

    PYTHONPATH=src python tests/record_cli_golden.py

Every case of ``CASES`` runs ``markovmix.cli.main`` in-process, inside a
directory that holds the files of ``write_inputs``, with ``COLUMNS=80`` so
that ``--help`` wraps the same everywhere. It rewrites
``tests/data/cli/<case>.json`` with the argv, the exit code, stdout, stderr
and the text of ``out.json`` when the run wrote one.
"""

import io
import json
import os
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from markovmix import save_pair
from markovmix.cli import main

from conftest import build_suite_pairs

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "cli"
PAIRS = ("lazy-to-asym", "complete5-to-bd5")
OUT = "out.json"
SUBCOMMANDS = (
    "validate", "stationary", "mixing", "sup-mixing", "adiabatic",
    "stable", "corridor", "verify", "generate",
)
LAZY_TO_ASYM = ["--p0", "two_state:p=0.25,q=0.25", "--p1", "two_state:p=0.2,q=0.4"]
IDENTITY = [[1.0, 0.0], [0.0, 1.0]]
HALF = [[0.5, 0.5], [0.5, 0.5]]
# Chain files that fail validation; json.dumps writes NaN as a bare token that json.loads reads.
BAD_FILES = {
    "row-sum.json": {"name": "bad", "n": 2, "P0": [[0.5, 0.6], [0.5, 0.5]], "P1": HALF},
    "nan.json": {"name": "nan", "n": 2, "P0": [[float("nan"), 0.5], [0.5, 0.5]], "P1": HALF},
    "reducible.json": {"name": "reducible", "n": 2, "P0": IDENTITY, "P1": HALF},
    "missing-field.json": {"name": "short", "n": 2, "P0": HALF},
    "wrong-n.json": {"name": "wrong-n", "n": 3, "P0": HALF, "P1": HALF},
    "letter.json": {"name": "letter", "n": 2, "P0": [["a", 0.5], [0.5, 0.5]], "P1": HALF},
    "ragged.json": {"name": "ragged", "n": 2, "P0": [[0.5, 0.5], [1.0]], "P1": HALF},
}


def _pair_cases(pair: str) -> dict[str, list[str]]:
    chain = ["--chain", f"{pair}.json"]
    return {
        f"{pair}.validate": ["validate", *chain],
        f"{pair}.validate-out": ["validate", *chain, "--out", OUT],
        f"{pair}.stationary": ["stationary", *chain],
        f"{pair}.stationary-s": ["stationary", *chain, "--which", "P1", "--s", "0.5"],
        f"{pair}.mixing": ["mixing", *chain, "--epsilon", "0.2"],
        f"{pair}.mixing-s": ["mixing", *chain, "--which", "P0", "--s", "0.25", "--epsilon", "0.2"],
        f"{pair}.sup-mixing": ["sup-mixing", *chain, "--epsilon", "0.2", "--grid", "5", "--refine", "2"],
        f"{pair}.adiabatic": ["adiabatic", *chain, "--epsilon", "0.3"],
        f"{pair}.stable": ["stable", *chain, "--epsilon", "0.2"],
        f"{pair}.corridor": ["corridor", *chain, "--steps", "5"],
        f"{pair}.verify": ["verify", *chain, "--epsilon", "0.3", "--grid", "5"],
        f"{pair}.verify-csv-out": [
            "verify", *chain, "--epsilon", "0.3", "--grid", "5", "--format", "csv", "--out", OUT,
        ],
    }


def _cases() -> dict[str, list[str]]:
    cases = {}
    for pair in PAIRS:
        cases.update(_pair_cases(pair))
    lazy = ["--chain", "lazy-to-asym.json"]
    cases.update({
        "generate.pair": ["generate", *LAZY_TO_ASYM, "--name", "lazy-to-asym"],
        "generate.pair-out": ["generate", *LAZY_TO_ASYM, "--out", OUT],
        "generate.single": ["generate", "--p0", "complete_graph:n=3,alpha=0.5"],
        "generate.seed": ["generate", "--p0", "random_dense:n=3", "--seed", "9"],
        "cap.stable": ["stable", *lazy, "--epsilon", "0.0001", "--cap", "3"],
        "cap.adiabatic": ["adiabatic", *lazy, "--epsilon", "0.05", "--cap", "1"],
        "cap.mixing": ["mixing", *lazy, "--epsilon", "0.0001", "--cap", "1"],
        "cap.corridor": ["corridor", *lazy, "--steps", "50", "--cap", "10"],
        "cap.verify": ["verify", *lazy, "--epsilon", "0.1", "--cap", "100", "--horizon-cap", "50"],
        "usage.no-args": [],
        "usage.unknown-command": ["no-such-command"],
        "usage.eps-not-a-number": ["mixing", *lazy, "--epsilon", "not-a-number"],
        "usage.missing-eps": ["mixing", *lazy],
        "usage.missing-chain": ["validate"],
        "usage.bad-choice": ["mixing", *lazy, "--epsilon", "0.1", "--which", "P2"],
        "usage.mode-flag": ["adiabatic", *lazy, "--epsilon", "0.1", "--mode", "fast"],
        "usage.steps-not-an-int": ["corridor", *lazy, "--steps", "2.5"],
        "eps.mixing-minus-exponent": ["mixing", *lazy, "--epsilon", "-1e-3"],
        "eps.mixing-minus-inf": ["mixing", *lazy, "--epsilon", "-inf"],
        "eps.mixing-minus-decimal": ["mixing", *lazy, "--epsilon", "-0.1"],
        "eps.mixing-equals-minus": ["mixing", *lazy, "--epsilon=-1e-3"],
        "eps.mixing-nan": ["mixing", *lazy, "--epsilon", "nan"],
        "eps.mixing-zero": ["mixing", *lazy, "--epsilon", "0"],
        "eps.verify-minus-exponent": ["verify", *lazy, "--epsilon", "0.3", "--epsilon", "-1e-3"],
        "eps.verify-minus-inf": ["verify", *lazy, "--epsilon", "-inf"],
        "eps.adiabatic-inf": ["adiabatic", *lazy, "--epsilon", "inf"],
        "validation.missing-file": ["validate", "--chain", "nope.json"],
        "validation.not-json": ["validate", "--chain", "not-json.json"],
        "validation.not-utf8": ["validate", "--chain", "not-utf8.json"],
        "validation.generate-family": ["generate", "--p0", "mystery:n=3"],
        "validation.generate-key": ["generate", "--p0", "two_state:p=0.2,r=0.1"],
        "validation.generate-no-equals": ["generate", "--p0", "two_state:p"],
        "validation.generate-range": ["generate", "--p0", "two_state:p=1.5,q=0.2"],
        "validation.generate-float": ["generate", "--p0", "two_state:p=abc,q=0.2"],
        "validation.generate-int": ["generate", "--p0", "lazy_cycle:n=2.5,alpha=0.5"],
        "validation.generate-unused-key": ["generate", "--p0", "two_state:p=0.2,q=0.3,n=7"],
        "validation.generate-repeated-key": ["generate", "--p0", "two_state:p=0.2,q=0.3,p=0.9"],
        "validation.s-out-of-range": ["stationary", *lazy, "--s", "1.5"],
    })
    for path in BAD_FILES:
        cases[f"validation.{path.removesuffix('.json')}"] = ["validate", "--chain", path]
    cases["help.markovmix"] = ["--help"]
    for command in SUBCOMMANDS:
        cases[f"help.{command}"] = [command, "--help"]
    return cases


CASES = _cases()


def write_inputs(directory: Path) -> None:
    """The two suite pair files, the bad chain files, a file that is not JSON and one not UTF-8."""
    pairs = build_suite_pairs()
    for name in PAIRS:
        save_pair(directory / f"{name}.json", name, pairs[name])
    for path, payload in BAD_FILES.items():
        (directory / path).write_text(json.dumps(payload), encoding="utf-8")
    (directory / "not-json.json").write_text("{not json", encoding="utf-8")
    (directory / "not-utf8.json").write_bytes(b"\xff\xfe{}")


def run(argv: list[str]) -> dict:
    """One in-process run from the current directory, which must hold the inputs."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    result = {"argv": argv, "exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    out = Path(OUT)
    if out.exists():
        result["out"] = out.read_text(encoding="utf-8")
        out.unlink()
    return result


def record() -> None:
    os.environ["COLUMNS"] = "80"
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    here = Path.cwd()
    work = Path(tempfile.mkdtemp())
    try:
        write_inputs(work)
        os.chdir(work)
        for case, argv in CASES.items():
            text = json.dumps(run(argv), indent=2, sort_keys=True) + "\n"
            (GOLDEN_DIR / f"{case}.json").write_bytes(text.encode())
    finally:
        os.chdir(here)
        shutil.rmtree(work)


if __name__ == "__main__":
    record()
