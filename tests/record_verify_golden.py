"""Record the golden ``verify_all`` reports that ``test_verify.py`` compares.

Run from the repository root after a deliberate report change:

    PYTHONPATH=src python tests/record_verify_golden.py

It rewrites ``tests/data/verify/<pair>.json`` and ``<pair>.csv`` for the ten
suite pairs of ``conftest.build_suite_pairs`` at ``GOLDEN_EPS``.
"""

from pathlib import Path

from markovmix import verify_all

from conftest import build_suite_pairs

GOLDEN_DIR = Path(__file__).parent / "data" / "verify"
GOLDEN_EPS = (0.3, 0.25)


def render(name: str, pair) -> dict[str, str]:
    """The report of one pair, keyed by golden file suffix."""
    report = verify_all(pair, GOLDEN_EPS, name=name)
    return {"json": report.to_json(), "csv": report.to_csv()}


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, pair in build_suite_pairs().items():
        for suffix, text in render(name, pair).items():
            (GOLDEN_DIR / f"{name}.{suffix}").write_bytes(text.encode())


if __name__ == "__main__":
    main()
