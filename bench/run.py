"""Closed-loop benchmark of markovmix: one client, one query at a time.

    python3 bench/run.py --workload verify-suite --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; markovmix is imported from ``src``. The
workloads are defined in ``workloads.py``. With ``--trace 0`` the run sets
up the inputs several times, runs one untimed warm-up query, then repeats
the workload's query list in rounds for about ``--seconds`` (at least three
rounds) and reports medians over the rounds. With ``--trace 1`` it makes
one tracemalloc round, then alternates untraced and traced rounds for the
rest of ``--seconds`` (at least one pair), and reports the per-layer
metrics of ``tracing.py``; its spans are written to ``bench/out/``.

Every time reported, set-up, queries and per-layer self times alike, is in
reference seconds: wall time scaled by the CPU speed measured while it ran
(see ``meter.py``). The raw wall times are in the details line.

Every answer is checked (see ``workloads.py``). The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics; the
line before it holds the details: samples, environment and check status.
The exit code is 1 when any answer was wrong or any query raised, and 2
when the sources the benchmark needs are missing.
"""

import boot

boot.pin_threads()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import meter  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
EXPECTED = BENCH / "expected.json"

MIN_ROUNDS = 3
# Set-up runs this many times per process and reports its median; each time
# markovmix is imported afresh. numpy is imported once, before, and is not
# part of setup_s.
SETUP_REPEATS = 40


class Gate:
    """Runs queries, times them and counts every answer that is wrong or raised."""

    def __init__(self, record: dict, seed: int, speed: meter.SpeedMeter):
        self.record = record
        self.seed = seed
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.unrecorded: set[str] = set()
        self._checked: dict[str, object] = {}

    def run(self, query: workloads.Query) -> meter.Timing:
        self.attempted += 1
        try:
            with self.speed.timing() as timing:
                result = query.run()
        except Exception as exc:  # a failed query is counted, the run goes on
            self._fail(query, f"raised {type(exc).__name__}: {exc}")
            return timing
        try:
            answer = query.digest(result)
            # The independent check is slow next to some queries; an answer
            # equal to one already checked in this run needs no second check.
            if self._checked.get(query.name) != answer:
                query.check(result)
                self._checked[query.name] = answer
        except Exception as exc:  # includes workloads.Mismatch
            self._fail(query, f"check failed: {type(exc).__name__}: {exc}")
            return timing
        recorded = self.record.get(workloads.record_key(query, self.seed))
        if recorded is None:
            if query.seeded:
                self.unrecorded.add(query.name)
            else:
                self._fail(query, "no recorded answer")
        else:
            diffs = workloads.compare(recorded, answer)
            if diffs:
                self._fail(query, f"{len(diffs)} differences from the record, first: {diffs[0]}")
        return timing

    def _fail(self, query, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{query.name}: {message}")


def run_round(workload, gate, recorder=None) -> list[meter.Timing]:
    gc.collect()
    times = []
    for query in workload.queries:
        if recorder is not None:
            recorder.query = query.name
        times.append(gate.run(query))
    return times


def rounds_within(seconds: float, run_one, min_rounds: int) -> list:
    """Call ``run_one`` while the next call is expected to end within ``seconds``.

    At least ``min_rounds`` calls are made. Stopping before a round that
    would overrun keeps the length of a run close to ``seconds``.
    """
    results, lengths = [], []
    start = perf_counter()
    while len(results) < min_rounds or (
        perf_counter() - start + statistics.median(lengths) <= seconds
    ):
        began = perf_counter()
        results.append(run_one())
        lengths.append(perf_counter() - began)
    return results


def ref_s(timings) -> float:
    return sum(t.ref_s for t in timings)


def measure(workload, gate, seconds: float) -> tuple[dict, dict]:
    rounds = rounds_within(seconds, lambda: run_round(workload, gate), MIN_ROUNDS)
    samples = {
        "wall_s": [ref_s(r) for r in rounds],
        "headline_query_s": [r[0].ref_s for r in rounds],
        "rest_queries_s": [ref_s(r[1:]) for r in rounds],
    }
    metrics = {name: (statistics.median(v), "s") for name, v in samples.items()}
    details = {
        "rounds": len(rounds),
        "samples": samples,
        "raw_wall_s": [sum(t.wall_s for t in r) for r in rounds],
        "probes": [sum(t.probes for t in r) for r in rounds],
    }
    return metrics, details


def measure_traced(workload, gate, seconds: float) -> tuple[dict, dict, dict]:
    recorder = tracing.SpanRecorder(gate.speed.clock)
    absent = []

    def untraced_then_traced():
        untraced = run_round(workload, gate)
        with tracing.patched(tracing.TIMED, recorder.wrapper) as missing:
            absent[:] = missing
            recorder.start_round()
            traced = run_round(workload, gate, recorder)
        recorder.end_round({q.name: t.factor for q, t in zip(workload.queries, traced)})
        return ref_s(untraced), ref_s(traced)

    # The tracemalloc round goes first and counts against ``seconds``: it
    # slows Python-heavy queries up to 20 times (sup_mixing_time at n = 200
    # took 2.3 s plain and 44 s traced), and the run must end in time. One
    # pair of rounds may be all that fits after it.
    started = perf_counter()
    peaks = tracing.PeakRecorder()
    with peaks.tracing() as peak_absent:
        run_round(workload, gate)
    remaining = seconds - (perf_counter() - started)
    untraced, traced = zip(*rounds_within(remaining, untraced_then_traced, 1))

    values, counts_repeat = recorder.summary(absent)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    values.update(peaks.summary(peak_absent))

    units = dict(tracing.LAYER_METRICS)
    metrics = {name: (value, units[name]) for name, value in values.items()}
    details = {
        "untraced_wall_s": list(untraced),
        "traced_wall_s": list(traced),
        "counts_repeat_across_rounds": counts_repeat,
        "absent": sorted(name for name in units if name not in values),
    }
    return metrics, details, recorder.dump()


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted(
        {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and "/" in line}
    )
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _git_commit():
    git = boot.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "thread_vars": {var: os.environ.get(var) for var in boot.THREAD_VARS},
        "blas_threads_effective": _blas_threads(),
        "git_commit": _git_commit(),
        "loadavg": os.getloadavg(),
        "speed_meter": {"interval_s": meter.INTERVAL_S, "ref_probe_s": meter.REF_PROBE_S},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = boot.missing_sources()
    if missing:
        print(f"bench: cannot run, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    boot.use_source_tree()
    record = json.loads(EXPECTED.read_text())["answers"][args.workload]
    setup = workloads.WORKLOADS[args.workload]

    speed = meter.SpeedMeter()
    boot.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=boot.OUT) as workdir:
        setup_samples = []
        for _ in range(SETUP_REPEATS):
            workloads.forget_markovmix()
            gc.collect()
            with speed.timing() as timing:
                workload = setup(args.seed, Path(workdir))
            setup_samples.append(timing)

        gate = Gate(record, args.seed, speed)
        gate.run(workload.warmup)
        if args.trace:
            metrics, details, spans = measure_traced(workload, gate, args.seconds)
        else:
            metrics, details = measure(workload, gate, args.seconds)
            metrics["setup_s"] = (statistics.median(t.ref_s for t in setup_samples), "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MiB",
            )
            metrics["correct_ratio"] = (1.0 - gate.failed / gate.attempted, "ratio")

    details.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        setup_samples_s=[t.ref_s for t in setup_samples],
        setup_raw_wall_s=[t.wall_s for t in setup_samples],
        failed_ratio=gate.failed / gate.attempted,
        record=(
            f"unchecked for {sorted(gate.unrecorded)}: no recorded answers for seed {args.seed}; "
            "the independent checks still ran"
            if gate.unrecorded
            else "checked"
        ),
        problems=gate.problems,
        env=environment(),
    )
    if args.trace:
        out = boot.OUT / f"spans-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"details": details, **spans}) + "\n")
        details["spans_file"] = str(out.relative_to(boot.ROOT))

    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
