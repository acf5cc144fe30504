"""Command-line interface.

Exit codes: 0 success, 1 validation failure, 2 bound-check failure (so CI
can gate on `verify`), 3 cap exceeded, 4 numerical breakdown, 64 usage error.
"""

import argparse
import json
import sys
from pathlib import Path

from .adiabatic import (
    DEFAULT_CORRIDOR_CAP,
    DEFAULT_HORIZON_CAP,
    DEFAULT_STABLE_CAP,
    adiabatic_time,
    corridor,
    stable_adiabatic_time,
)
from .chainfile import load_pair, pair_to_dict
from .chains import ChainPair, interpolate, stationary, structure
from .errors import CapExceededError, ChainError, NoConvergenceError, NumericalBreakdownError
from .generators import FAMILIES, GeneratorParams, generate
from .mixing import DEFAULT_MIXING_CAP, mixing_time, sup_mixing_time
from .verify import verify_all

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BOUND_FAILED = 2
EXIT_CAP = 3
EXIT_BREAKDOWN = 4
EXIT_USAGE = 64

_CAP_ERRORS = (CapExceededError, NoConvergenceError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _emit_json(payload: dict, out: str | None) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _structure_dict(P) -> dict:
    rep = structure(P)
    return {
        "irreducible": rep.irreducible,
        "period": rep.period,
        "aperiodic": rep.aperiodic,
    }


def _parse_generator_spec(spec: str, default_seed: int | None) -> GeneratorParams:
    """Parse 'family:key=value,...' such as 'two_state:p=0.25,q=0.25'."""
    family, _, rest = spec.partition(":")
    kwargs: dict = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ChainError(f"bad generator parameter {item!r} in {spec!r}")
            key = key.strip()
            if key in ("n", "seed"):
                kwargs[key] = int(value)
            elif key in ("p", "q", "alpha"):
                kwargs[key] = float(value)
            else:
                raise ChainError(f"unknown generator parameter {key!r} in {spec!r}")
    if family == "random_dense" and "seed" not in kwargs and default_seed is not None:
        kwargs["seed"] = default_seed
    return GeneratorParams(family=family, **kwargs)


def _add_chain_arg(sub) -> None:
    sub.add_argument("--chain", required=True, help="chain-pair JSON file")


def _add_out_arg(sub) -> None:
    sub.add_argument("--out", default=None, help="output file (default: stdout)")


def build_parser() -> _Parser:
    parser = _Parser(prog="markovmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a chain-pair file")
    _add_chain_arg(p)
    _add_out_arg(p)

    p = sub.add_parser("stationary", help="stationary distributions of the pair")
    _add_chain_arg(p)
    p.add_argument("--which", choices=["P0", "P1", "both"], default="both")
    p.add_argument("--s", type=float, default=None, help="also solve the interpolant at s")
    _add_out_arg(p)

    p = sub.add_parser("mixing", help="exact mixing time of one kernel")
    _add_chain_arg(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--which", choices=["P0", "P1"], default="P1")
    p.add_argument("--s", type=float, default=None, help="use the interpolant at s instead")
    p.add_argument("--cap", type=int, default=DEFAULT_MIXING_CAP)
    _add_out_arg(p)

    p = sub.add_parser("sup-mixing", help="sup of the mixing time over the family")
    _add_chain_arg(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--refine", type=int, default=4)
    _add_out_arg(p)

    p = sub.add_parser("adiabatic", help="adiabatic time with a certified horizon")
    _add_chain_arg(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_HORIZON_CAP)
    _add_out_arg(p)

    p = sub.add_parser("stable", help="stable adiabatic time (corridor scan)")
    _add_chain_arg(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_STABLE_CAP)
    _add_out_arg(p)

    p = sub.add_parser("corridor", help="full corridor at one horizon T")
    _add_chain_arg(p)
    p.add_argument("--steps", type=int, required=True, metavar="T")
    p.add_argument("--cap", type=int, default=DEFAULT_CORRIDOR_CAP)
    _add_out_arg(p)

    p = sub.add_parser("verify", help="run every bound check and emit a report")
    _add_chain_arg(p)
    p.add_argument(
        "--epsilon", type=float, action="append", required=True, help="repeatable"
    )
    p.add_argument("--cap", type=int, default=DEFAULT_CORRIDOR_CAP, help="corridor cap")
    p.add_argument("--horizon-cap", type=int, default=DEFAULT_HORIZON_CAP)
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _add_out_arg(p)

    p = sub.add_parser("generate", help="generate kernels and emit a pair file")
    p.add_argument(
        "--p0", required=True, metavar="SPEC",
        help=f"generator spec family:key=value,... with family in {FAMILIES}",
    )
    p.add_argument("--p1", default=None, metavar="SPEC", help="second kernel (optional)")
    p.add_argument("--name", default="generated")
    p.add_argument("--seed", type=int, default=None, help="default seed for random_dense")
    _add_out_arg(p)

    return parser


def _kernel_for(args, pair: ChainPair):
    if args.s is not None:
        return f"s={args.s!r}", interpolate(pair, args.s)
    return args.which, pair.p0 if args.which == "P0" else pair.p1


def _run(args) -> int:
    if args.command == "generate":
        p0 = generate(_parse_generator_spec(args.p0, args.seed))
        if args.p1 is None:
            payload = {"name": args.name, "n": p0.n, "P0": p0.entries.tolist()}
            _emit_json(payload, args.out)
            return EXIT_OK
        p1 = generate(_parse_generator_spec(args.p1, args.seed))
        pair = ChainPair(p0, p1)
        _emit_json(pair_to_dict(args.name, pair), args.out)
        return EXIT_OK

    name, pair = load_pair(args.chain)

    if args.command == "validate":
        payload = {
            "chain": name,
            "n": pair.n,
            "P0": _structure_dict(pair.p0),
            "P1": _structure_dict(pair.p1),
            "valid": True,
        }
        _emit_json(payload, args.out)
        return EXIT_OK

    if args.command == "stationary":
        payload: dict = {"chain": name, "n": pair.n}
        if args.which in ("P0", "both"):
            payload["pi0"] = stationary(pair.p0).mass.tolist()
        if args.which in ("P1", "both"):
            payload["pi1"] = stationary(pair.p1).mass.tolist()
        if args.s is not None:
            payload["s"] = args.s
            payload["pi_s"] = stationary(interpolate(pair, args.s)).mass.tolist()
        _emit_json(payload, args.out)
        return EXIT_OK

    if args.command == "mixing":
        label, kernel = _kernel_for(args, pair)
        res = mixing_time(kernel, args.epsilon, cap=args.cap)
        payload = {
            "chain": name,
            "kernel": label,
            "eps": res.eps,
            "tmix": res.tmix,
            "worst_state": res.worst_state,
            "final_gap": res.final_gap,
        }
        _emit_json(payload, args.out)
        return EXIT_OK

    if args.command == "sup-mixing":
        res = sup_mixing_time(pair, args.epsilon, args.grid, args.refine)
        payload = {
            "chain": name,
            "eps": res.eps,
            "sup_tmix": res.sup_tmix,
            "argmax_s": res.argmax_s,
            "grid_resolution": res.grid_resolution,
            "samples": [[s, t] for s, t in res.per_s_samples],
        }
        _emit_json(payload, args.out)
        return EXIT_OK

    if args.command == "adiabatic":
        res = adiabatic_time(pair, args.epsilon, horizon_cap=args.cap)
        payload = {
            "chain": name,
            "eps": res.eps,
            "t_ad": res.t_ad,
            "certified_horizon": res.certified_horizon,
            "horizons_checked": len(res.per_T_gaps),
        }
        _emit_json(payload, args.out)
        return EXIT_OK

    if args.command == "stable":
        res = stable_adiabatic_time(pair, args.epsilon, cap=args.cap)
        payload = {
            "chain": name,
            "eps": res.eps,
            "t_sad": res.t_sad,
            "worst_k": res.worst_k,
            "worst_gap": res.worst_gap,
        }
        _emit_json(payload, args.out)
        return EXIT_OK

    if args.command == "corridor":
        if args.steps > args.cap:
            raise CapExceededError(f"T = {args.steps} exceeds cap {args.cap}")
        cor = corridor(pair, args.steps)
        worst_k, worst_gap = cor.worst
        payload = {
            "chain": name,
            "T": cor.T,
            "max_gap": worst_gap,
            "worst_k": worst_k,
            "gaps": cor.gaps.tolist(),
        }
        _emit_json(payload, args.out)
        return EXIT_OK

    if args.command == "verify":
        report = verify_all(
            pair,
            args.epsilon,
            corridor_cap=args.cap,
            horizon_cap=args.horizon_cap,
            name=name,
            grid_points=args.grid,
        )
        text = report.to_json() if args.format == "json" else report.to_csv()
        _emit(text, args.out)
        return EXIT_OK if report.all_passed() else EXIT_BOUND_FAILED

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except _CAP_ERRORS as exc:
        print(f"markovmix: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except NumericalBreakdownError as exc:
        print(f"markovmix: {exc}", file=sys.stderr)
        return EXIT_BREAKDOWN
    except ChainError as exc:
        print(f"markovmix: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"markovmix: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
