"""Process set-up shared by the benchmark scripts.

Nothing here imports numpy: ``pin_threads`` has to run before the first
numpy import for the BLAS and OpenMP pools to start with one thread.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = ROOT / "bench" / "out"

# One thread everywhere: with default OpenBLAS threads on two cores the
# large-n matmul loops used about twice their wall time in CPU and their
# wall time spread by 1.4x between runs.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads() must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def missing_sources() -> list[str]:
    """Files of the repository the benchmark needs and cannot find."""
    needed = [SRC / "markovmix" / "__init__.py", TESTS / "conftest.py", TESTS / "oracles.py"]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def use_source_tree() -> None:
    """Import markovmix from ``src``, as the tier-1 tests do; it is not installed."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
