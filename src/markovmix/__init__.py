"""Mixing, adiabatic, and stable adiabatic times for interpolated Markov chains.

Given two irreducible aperiodic kernels P0 and P1, the family
P_t = (1 - t) P0 + t P1 defines a time-inhomogeneous evolution. This package
computes its exact mixing times, adiabatic and stable adiabatic times, and
verifies the closed-form bounds relating them, with a CLI frontend.
"""

from .adiabatic import (
    AdiabaticResult,
    Corridor,
    StableAdiabaticResult,
    adiabatic_distance,
    adiabatic_time,
    corridor,
    prop3_check,
    stable_adiabatic_time,
    theorem2_check,
    theorem3_horizon,
)
from .chains import (
    ChainPair,
    Distribution,
    StochasticMatrix,
    StructureReport,
    interpolate,
    stationary,
    structure,
    tv_distance,
    validate_distribution,
    validate_stochastic,
)
from .chainfile import load_pair, pair_from_dict, pair_to_dict, save_pair
from .errors import (
    BadParamsError,
    CapExceededError,
    ChainError,
    DimensionMismatchError,
    EpsTooLargeError,
    HorizonCapError,
    IterationCapError,
    NegativeEntryError,
    NonFiniteError,
    NonPositiveEpsError,
    NotErgodicError,
    NotSquareError,
    NumericalBreakdownError,
    OutOfRangeError,
    RankDefectError,
    RowSumError,
)
from .generators import (
    GeneratorParams,
    birth_death,
    complete_graph,
    generate,
    lazy_cycle,
    random_dense,
    two_state,
)
from .mixing import MixingResult, SupMixingResult, mixing_time, sup_mixing_time
from .spectral import (
    SpectralSummary,
    cor1_delta,
    continuity_delta,
    mixing_lower_bound,
    spectral_summary,
)
from .verify import BoundEntry, BoundReport, verify_all

__version__ = "0.1.0"

__all__ = [
    "AdiabaticResult",
    "BadParamsError",
    "BoundEntry",
    "BoundReport",
    "CapExceededError",
    "ChainError",
    "ChainPair",
    "Corridor",
    "DimensionMismatchError",
    "Distribution",
    "EpsTooLargeError",
    "GeneratorParams",
    "HorizonCapError",
    "IterationCapError",
    "MixingResult",
    "NegativeEntryError",
    "NonFiniteError",
    "NonPositiveEpsError",
    "NotErgodicError",
    "NotSquareError",
    "NumericalBreakdownError",
    "OutOfRangeError",
    "RankDefectError",
    "RowSumError",
    "SpectralSummary",
    "StableAdiabaticResult",
    "StochasticMatrix",
    "StructureReport",
    "SupMixingResult",
    "adiabatic_distance",
    "adiabatic_time",
    "birth_death",
    "complete_graph",
    "cor1_delta",
    "continuity_delta",
    "corridor",
    "generate",
    "interpolate",
    "lazy_cycle",
    "load_pair",
    "mixing_lower_bound",
    "mixing_time",
    "pair_from_dict",
    "pair_to_dict",
    "prop3_check",
    "random_dense",
    "save_pair",
    "spectral_summary",
    "stable_adiabatic_time",
    "stationary",
    "structure",
    "sup_mixing_time",
    "theorem2_check",
    "theorem3_horizon",
    "tv_distance",
    "two_state",
    "validate_distribution",
    "validate_stochastic",
    "verify_all",
]
