"""Command-line interface.

Exit codes: 0 success, 1 validation failure, 2 bound-check failure (so CI
can gate on `verify`), 3 cap exceeded, 4 numerical breakdown, 64 usage error.
"""

import argparse
import re
import sys
from dataclasses import asdict
from functools import cache
from pathlib import Path

from .adiabatic import (
    DEFAULT_CORRIDOR_CAP,
    DEFAULT_HORIZON_CAP,
    DEFAULT_STABLE_CAP,
    adiabatic_time,
    corridor,
    stable_adiabatic_time,
)
from .chainfile import _json_text, load_pair, pair_to_dict
from .chains import ChainPair, interpolate, stationary, structure
from .errors import (
    CapExceededError, ChainError, HorizonCapError, NumericalBreakdownError, _check_horizon
)
from .generators import FAMILIES, GeneratorParams, generate
from .mixing import DEFAULT_GRID_POINTS, DEFAULT_MIXING_CAP, DEFAULT_REFINE_DEPTH, mixing_time, sup_mixing_time
from .verify import verify_all

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BOUND_FAILED = 2
EXIT_CAP = 3
EXIT_BREAKDOWN = 4
EXIT_USAGE = 64

# Values such as -1e-3, -inf and -nan are numbers, not flags, so that every
# spelling of a bad eps meets the eps rule instead of a usage error.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)

_SPEC_TYPES = {"n": int, "seed": int, "p": float, "q": float, "alpha": float}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _parse_generator_spec(spec: str, default_seed: int | None) -> GeneratorParams:
    """Parse 'family:key=value,...' such as 'two_state:p=0.25,q=0.25'."""
    family, _, rest = spec.partition(":")
    kwargs: dict = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if sep and key not in _SPEC_TYPES:
                raise ChainError(f"unknown generator parameter {key!r} in {spec!r}")
            if key in kwargs:
                raise ChainError(f"repeated generator parameter {key!r} in {spec!r}")
            try:
                kwargs[key] = _SPEC_TYPES[key](value)
            except (KeyError, ValueError):
                raise ChainError(f"bad generator parameter {item!r} in {spec!r}") from None
    if family == "random_dense" and "seed" not in kwargs and default_seed is not None:
        kwargs["seed"] = default_seed
    return GeneratorParams(family=family, **kwargs)


def _kernel_for(args, pair: ChainPair):
    if args.s is not None:
        return f"s={args.s!r}", interpolate(pair, args.s)
    return args.which, pair.p0 if args.which == "P0" else pair.p1


# Each handler returns the JSON payload of its subcommand, without "chain";
# verify returns its own report text and exit code instead.


def _validate(args, pair, name):
    return {
        "n": pair.n,
        "P0": asdict(structure(pair.p0)),
        "P1": asdict(structure(pair.p1)),
        "valid": True,
    }


def _stationary(args, pair, name):
    payload: dict = {"n": pair.n}
    if args.which in ("P0", "both"):
        payload["pi0"] = pair.pi0.mass.tolist()
    if args.which in ("P1", "both"):
        payload["pi1"] = pair.pi1.mass.tolist()
    if args.s is not None:
        payload["s"] = args.s
        payload["pi_s"] = stationary(interpolate(pair, args.s)).mass.tolist()
    return payload


def _mixing(args, pair, name):
    label, kernel = _kernel_for(args, pair)
    return {"kernel": label, **asdict(mixing_time(kernel, args.epsilon, cap=args.cap))}


def _sup_mixing(args, pair, name):
    payload = asdict(sup_mixing_time(pair, args.epsilon, args.grid, args.refine))
    payload["samples"] = payload.pop("per_s_samples")
    return payload


def _adiabatic(args, pair, name):
    return asdict(adiabatic_time(pair, args.epsilon, horizon_cap=args.cap))


def _stable(args, pair, name):
    return asdict(stable_adiabatic_time(pair, args.epsilon, cap=args.cap))


def _corridor(args, pair, name):
    if args.steps > _check_horizon(args.cap, "cap"):
        raise HorizonCapError(f"T = {args.steps} exceeds cap {args.cap}", horizon=args.steps)
    cor = corridor(pair, args.steps)
    worst_k, worst_gap = cor.worst
    return {"T": cor.T, "max_gap": worst_gap, "worst_k": worst_k, "gaps": cor.gaps.tolist()}


def _verify(args, pair, name):
    report = verify_all(
        pair,
        args.epsilon,
        corridor_cap=args.cap,
        horizon_cap=args.horizon_cap,
        name=name,
        grid_points=args.grid,
    )
    text = report.to_json() if args.format == "json" else report.to_csv()
    return text, EXIT_OK if report.all_passed() else EXIT_BOUND_FAILED


def _generate(args):
    p0 = generate(_parse_generator_spec(args.p0, args.seed))
    if args.p1 is None:
        return {"name": args.name, "n": p0.n, "P0": p0.entries.tolist()}
    p1 = generate(_parse_generator_spec(args.p1, args.seed))
    return pair_to_dict(args.name, ChainPair(p0, p1))


_EPSILON = {"--epsilon": {"type": float, "required": True}}

# Subcommand: (handler, help, its options between --chain and --out).
_COMMANDS = {
    "validate": (_validate, "validate a chain-pair file", {}),
    "stationary": (_stationary, "stationary distributions of the pair", {
        "--which": {"choices": ["P0", "P1", "both"], "default": "both"},
        "--s": {"type": float, "default": None, "help": "also solve the interpolant at s"},
    }),
    "mixing": (_mixing, "exact mixing time of one kernel", {
        **_EPSILON,
        "--which": {"choices": ["P0", "P1"], "default": "P1"},
        "--s": {"type": float, "default": None, "help": "use the interpolant at s instead"},
        "--cap": {"type": int, "default": DEFAULT_MIXING_CAP},
    }),
    "sup-mixing": (_sup_mixing, "sup of the mixing time over the family", {
        **_EPSILON,
        "--grid": {"type": int, "default": DEFAULT_GRID_POINTS},
        "--refine": {"type": int, "default": DEFAULT_REFINE_DEPTH},
    }),
    "adiabatic": (_adiabatic, "adiabatic time with a certified horizon", {
        **_EPSILON,
        "--cap": {"type": int, "default": DEFAULT_HORIZON_CAP},
    }),
    "stable": (_stable, "stable adiabatic time (corridor scan)", {
        **_EPSILON,
        "--cap": {"type": int, "default": DEFAULT_STABLE_CAP},
    }),
    "corridor": (_corridor, "full corridor at one horizon T", {
        "--steps": {"type": int, "required": True, "metavar": "T"},
        "--cap": {"type": int, "default": DEFAULT_CORRIDOR_CAP},
    }),
    "verify": (_verify, "run every bound check and emit a report", {
        "--epsilon": {"type": float, "action": "append", "required": True, "help": "repeatable"},
        "--cap": {"type": int, "default": DEFAULT_CORRIDOR_CAP, "help": "corridor cap"},
        "--horizon-cap": {"type": int, "default": DEFAULT_HORIZON_CAP},
        "--grid": {"type": int, "default": DEFAULT_GRID_POINTS},
        "--format": {"choices": ["json", "csv"], "default": "json"},
    }),
    "generate": (_generate, "generate kernels and emit a pair file", {
        "--p0": {
            "required": True, "metavar": "SPEC",
            "help": f"generator spec family:key=value,... with family in {FAMILIES}",
        },
        "--p1": {"default": None, "metavar": "SPEC", "help": "second kernel (optional)"},
        "--name": {"default": "generated"},
        "--seed": {"type": int, "default": None, "help": "default seed for random_dense"},
    }),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="markovmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if handler is not _generate:
            p.add_argument("--chain", required=True, help="chain-pair JSON file")
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.set_defaults(handler=handler)
    return parser


def _run(args) -> int:
    """Run the subcommand's handler, write its output to stdout or --out, return the exit code."""
    if args.handler is _generate:
        text, code = _json_text(_generate(args)), EXIT_OK
    else:
        name, pair = load_pair(args.chain)
        result = args.handler(args, pair, name)
        if isinstance(result, tuple):
            text, code = result
        else:
            text, code = _json_text({"chain": name, **result}), EXIT_OK
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return code


# main's parser, built on its first call and kept: parsing leaves a parser unchanged
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except CapExceededError as exc:
        print(f"markovmix: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except NumericalBreakdownError as exc:
        print(f"markovmix: {exc}", file=sys.stderr)
        return EXIT_BREAKDOWN
    except (ChainError, OSError) as exc:
        print(f"markovmix: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
