"""Record the answers the benchmark checks against.

    python3 bench/record.py

Runs every query of every workload once, for the default seed and one
held-out seed, checks each answer independently, and writes
``bench/expected.json``. Re-record only when a change is meant to alter
answers, and say so in the change.
"""

import boot

boot.pin_threads()

import json  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

# The benchmark's default seed, and one held out while it was written.
SEEDS = (0, 1)


def main() -> None:
    boot.use_source_tree()
    answers = {}
    boot.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=boot.OUT) as workdir:
        for name, setup in workloads.WORKLOADS.items():
            answers[name] = {}
            for seed in SEEDS:
                workload = setup(seed, Path(workdir))
                for query in workload.queries:
                    key = workloads.record_key(query, seed)
                    if key not in answers[name]:
                        result = query.run()
                        query.check(result)
                        answers[name][key] = query.digest(result)
                        print(f"recorded {name} {key}", flush=True)
    payload = {
        "float_tolerance": workloads.FLOAT_TOLERANCE,
        "seeds": list(SEEDS),
        "answers": answers,
    }
    (boot.ROOT / "bench" / "expected.json").write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
