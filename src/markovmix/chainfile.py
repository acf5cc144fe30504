"""Reading and writing chain-pair files.

The on-disk format is a JSON object
``{"name": str, "n": int, "P0": [[...]], "P1": [[...]]}`` with reals in
decimal; rows must be within the ingestion tolerance of sum 1. Matrices are
written post-validation, so a save/load round trip reproduces the entries
bit for bit.
"""

import json
from pathlib import Path

from .chains import ChainPair, validate_stochastic
from .errors import BadParamsError


def _json_text(payload) -> str:
    """The one JSON rendering of the package: two-space indent, sorted keys, final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def pair_to_dict(name: str, pair: ChainPair) -> dict:
    return {
        "name": name,
        "n": pair.n,
        "P0": pair.p0.entries.tolist(),
        "P1": pair.p1.entries.tolist(),
    }


def pair_from_dict(payload: dict) -> tuple[str, ChainPair]:
    for key in ("name", "n", "P0", "P1"):
        if key not in payload:
            raise BadParamsError(f"chain file is missing the {key!r} field")
    name = payload["name"]
    if not isinstance(name, str):
        raise BadParamsError(f"chain name must be a string, got {name!r}")
    n = payload["n"]
    p0 = validate_stochastic(payload["P0"])
    p1 = validate_stochastic(payload["P1"])
    if p0.n != n or p1.n != n:
        raise BadParamsError(
            f"declared n = {n!r} does not match matrix shapes {p0.n} and {p1.n}"
        )
    return name, ChainPair(p0, p1)


def save_pair(path, name: str, pair: ChainPair) -> None:
    Path(path).write_text(_json_text(pair_to_dict(name, pair)), encoding="utf-8")


def load_pair(path) -> tuple[str, ChainPair]:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise BadParamsError(f"chain file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise BadParamsError(f"chain file {path} must hold a JSON object")
    return pair_from_dict(payload)
