"""Per-module spans and memory peaks, recorded around calls into markovmix.

The library is not changed. For the length of a pass, each target function
is replaced in every ``markovmix.*`` namespace that holds it, found by
identity: ``verify``, ``mixing`` and ``adiabatic`` import names from other
modules, so replacing the defining module's name alone would miss their
calls. A function that a later refactor removes is reported as absent.
"""

import functools
import importlib
import inspect
import statistics
import sys
import tracemalloc
from contextlib import contextmanager

# Functions timed in the traced pass, as "module.function".
TIMED = (
    "chains.structure",
    "chains.stationary",
    "chains.interpolate",
    "chains.validate_stochastic",
    "mixing.mixing_time",
    "mixing.sup_mixing_time",
    "spectral.spectral_summary",
    "adiabatic.adiabatic_distance",
    "adiabatic.adiabatic_time",
    "adiabatic.corridor",
    "adiabatic._stationary_stack",
    "adiabatic.stable_adiabatic_time",
    "adiabatic.prop3_check",
    "adiabatic.theorem2_check",
    "verify.verify_all",
    "chainfile.load_pair",
    "cli.main",
)

# Work counts computed from each call's arguments and result. Counting the
# kernel products inside adiabatic_distance directly would mean wrapping
# _interp_raw, which the verify suite calls millions of times.
COMPUTED = {
    "adiabatic.adiabatic_distance": ("kernel_products", lambda args, res: args["T"] + 1),
    "adiabatic.adiabatic_time": ("horizons", lambda args, res: len(res.per_T_gaps)),
    "mixing.mixing_time": ("steps", lambda args, res: res.tmix),
    "mixing.sup_mixing_time": ("samples", lambda args, res: len(res.per_s_samples)),
    "adiabatic.corridor": ("steps", lambda args, res: args["T"]),
    "adiabatic._stationary_stack": ("kernels", lambda args, res: len(args["Ps"])),
}

# Functions whose peak traced memory the separate tracemalloc pass reports.
PEAKED = (
    "adiabatic.corridor",
    "adiabatic.stable_adiabatic_time",
    "mixing.sup_mixing_time",
    "verify.verify_all",
)

_CALLS = (
    "adiabatic.adiabatic_distance",
    "adiabatic.adiabatic_time",
    "mixing.mixing_time",
    "chains.structure",
    "chains.stationary",
    "chains.interpolate",
    "chains.validate_stochastic",
    "mixing.sup_mixing_time",
    "spectral.spectral_summary",
    "verify.verify_all",
    "adiabatic.corridor",
    "adiabatic._stationary_stack",
)
_SELF = tuple(k for k in TIMED if k != "chains.validate_stochastic")

CALL_UNIT, COMPUTED_UNIT = "count", "count-computed"

# Every per-layer metric a traced run prints, with its unit.
LAYER_METRICS = (
    *((f"{k}.calls", CALL_UNIT) for k in _CALLS),
    *((f"{k}.self_s", "s") for k in _SELF),
    *((f"{k}.{label}", COMPUTED_UNIT) for k, (label, _) in COMPUTED.items()),
    *((f"{k}.peak_mb", "MiB") for k in PEAKED),
    ("trace.overhead_s", "s"),
)


@contextmanager
def patched(keys, make_wrapper):
    """Replace each function by its wrapper in every markovmix namespace.

    Yields the keys whose function does not exist; they are left alone.
    """
    replaced, absent = [], []
    try:
        homes = {}
        for key in keys:
            module_name, func_name = key.split(".")
            try:
                homes[key] = importlib.import_module(f"markovmix.{module_name}")
            except ModuleNotFoundError:
                homes[key] = None
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "markovmix" or name.startswith("markovmix."))
        ]
        for key, home in homes.items():
            original = getattr(home, key.split(".")[1], None)
            if not callable(original):
                absent.append(key)
                continue
            wrapper = make_wrapper(key, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        replaced.append((module, attr, original))
        yield absent
    finally:
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)


class SpanRecorder:
    """Keeps every span in memory: (function, parent span, query, start, end, count).

    ``parent`` is the index of the innermost enclosing span, or -1. ``count``
    is the computed work count, or None when the function has none or it
    could not be computed (then the count metric is reported absent).
    ``clock`` gives start and end; the benchmark passes one that leaves out
    the speed probes' time. Self times are scaled to reference seconds by
    the speed factor of the query each span ran in.
    """

    def __init__(self, clock):
        self.clock = clock
        self.spans: list = []
        self.round_starts: list[int] = []
        self.round_factors: list[dict[str, float]] = []
        self.query: str | None = None
        self.uncountable: set[str] = set()
        self._open: list[int] = []

    def start_round(self) -> None:
        self.round_starts.append(len(self.spans))

    def end_round(self, factors: dict[str, float]) -> None:
        """Speed factors of the round's queries, by query name."""
        self.round_factors.append(factors)

    def wrapper(self, key, original):
        compute = COMPUTED.get(key, (None, None))[1]
        signature = inspect.signature(original) if compute else None
        spans, stack, clock = self.spans, self._open, self.clock

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                spans[index] = (key, parent, self.query, start, clock(), None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            count = None
            if compute is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count = int(compute(bound.arguments, result))
                except (AttributeError, KeyError, TypeError):
                    self.uncountable.add(key)
            spans[index] = (key, parent, self.query, start, end, count)
            return result

        return traced

    def _round(self, i: int):
        lo = self.round_starts[i]
        hi = self.round_starts[i + 1] if i + 1 < len(self.round_starts) else len(self.spans)
        factors = self.round_factors[i]
        calls, self_s, counts = {}, {}, {}
        for key, parent, query, start, end, count in self.spans[lo:hi]:
            took = (end - start) * factors.get(query, 1.0)
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + took
            if parent >= 0:
                parent_key = self.spans[parent][0]
                self_s[parent_key] = self_s.get(parent_key, 0.0) - took
            if count is not None:
                counts[key] = counts.get(key, 0) + count
        return calls, self_s, counts

    def summary(self, absent) -> tuple[dict, bool]:
        """Per-layer values: counts from the first round, self times as medians over rounds.

        Also says whether every round made the same counts.
        """
        rounds = [self._round(i) for i in range(len(self.round_starts))]
        calls, _, counts = rounds[0]
        repeat = all(r[0] == calls and r[2] == counts for r in rounds)
        values = {}
        for key in _CALLS:
            if key not in absent:
                values[f"{key}.calls"] = calls.get(key, 0)
        for key in _SELF:
            if key not in absent:
                values[f"{key}.self_s"] = statistics.median(r[1].get(key, 0.0) for r in rounds)
        for key, (label, _) in COMPUTED.items():
            if key not in absent and key not in self.uncountable:
                values[f"{key}.{label}"] = counts.get(key, 0)
        return values, repeat

    def dump(self) -> dict:
        """The spans as JSON-able data, with times relative to the first span."""
        origin = self.spans[0][3] if self.spans else 0.0
        return {
            "fields": ["function", "parent", "query", "start_s", "end_s", "count"],
            "round_starts": self.round_starts,
            "round_factors": self.round_factors,
            "spans": [
                [key, parent, query, start - origin, end - origin, count]
                for key, parent, query, start, end, count in self.spans
            ],
        }


class PeakRecorder:
    """Largest rise of traced memory during any call of each function, in bytes.

    Nested calls share tracemalloc's single peak counter: entering a call
    folds the peak so far into the enclosing call before resetting it, and
    leaving folds the call's own peak back.
    """

    def __init__(self):
        self.peaks: dict[str, int] = {}
        self._open: list[list[int]] = []

    def wrapper(self, key, original):
        stack = self._open

        @functools.wraps(original)
        def measured(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1][1] = max(stack[-1][1], peak)
            tracemalloc.reset_peak()
            stack.append([current, current])
            try:
                return original(*args, **kwargs)
            finally:
                start, running = stack.pop()
                top = max(running, tracemalloc.get_traced_memory()[1])
                if stack:
                    stack[-1][1] = max(stack[-1][1], top)
                self.peaks[key] = max(self.peaks.get(key, 0), top - start)

        return measured

    @contextmanager
    def tracing(self):
        tracemalloc.start()
        try:
            with patched(PEAKED, self.wrapper) as absent:
                yield absent
        finally:
            tracemalloc.stop()

    def summary(self, absent) -> dict:
        return {
            f"{key}.peak_mb": self.peaks.get(key, 0) / 2**20 for key in PEAKED if key not in absent
        }
