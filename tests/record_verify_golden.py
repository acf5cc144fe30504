"""Record the golden ``verify_all`` reports that ``test_verify.py`` compares.

Run from the repository root after a deliberate report change:

    PYTHONPATH=src python tests/record_verify_golden.py

It rewrites, for the ten suite pairs of ``conftest.build_suite_pairs`` and
every eps set of ``GOLDEN_EPS_SETS``, ``tests/data/verify/<pair><tag>.json``
and ``<pair><tag>.csv``; the first set has the empty tag. It also rewrites
``capped.json`` and ``capped.csv`` for lazy-to-asym under the small caps of
``CAPPED``, where PROP1, THM2 and THM3 are skipped.
"""

from pathlib import Path

from markovmix import verify_all

from conftest import build_suite_pairs

GOLDEN_DIR = Path(__file__).parent / "data" / "verify"
# file name tag -> eps list; the tight set runs the PROP1 scan to H = 7220
GOLDEN_EPS_SETS = {"": (0.3, 0.25), ".eps-0.2-0.1": (0.2, 0.1)}
CAPPED = {"eps_list": [0.1], "corridor_cap": 100, "horizon_cap": 50}


def render(name: str, pair, eps_list, **caps) -> dict[str, str]:
    """The report of one pair, keyed by golden file suffix."""
    report = verify_all(pair, eps_list, name=name, **caps)
    return {"json": report.to_json(), "csv": report.to_csv()}


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    pairs = build_suite_pairs()
    reports = {
        f"{name}{tag}": render(name, pair, eps_list)
        for tag, eps_list in GOLDEN_EPS_SETS.items()
        for name, pair in pairs.items()
    }
    reports["capped"] = render("capped", pairs["lazy-to-asym"], **CAPPED)
    for stem, texts in reports.items():
        for suffix, text in texts.items():
            (GOLDEN_DIR / f"{stem}.{suffix}").write_bytes(text.encode())


if __name__ == "__main__":
    main()
