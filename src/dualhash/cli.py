"""Command-line front end.

Subcommands: analyze (universality measurement), bounds (closed-form bound
evaluation), simulate (exact/Monte-Carlo channel simulation), verify (the
acceptance criteria), sweep (the bounds records over a parameter grid).
Single results are JSON, sweeps default to CSV.  Exact rationals are printed
as fractions, floats at 12 significant digits.  Identical seed and flags give
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from . import acceptance
from .bounds import (
    _check_block_length,
    _phase_sum_window_bound,
    approach_ratio,
    gallager_family_bound,
    qkd_bounds,
    reliability_e,
)
from .gf2 import BitVector, LinearCode, parse_code
from .hashfam import HashFamily, HashFamilySpec
from .simulator import (
    counterexample_leakage,
    distill_keys,
    exact_error_prob,
    family_average_error,
    parse_channel,
    wiretap_eval,
)
from .universality import (
    CodeFamily,
    counterexample_family,
    epsilon_reports,
    tight_family,
)

__all__ = ["main"]

HASH_KINDS = {"toeplitz", "modified-toeplitz", "random-linear"}
GRID_POINT_CAP = 10_000  # points in one sweep grid, range or comma list
SWEEP_TERM_CAP = 10**7  # phase_sum terms one sweep may walk, summed over its points
APPROACHES = (
    "phase_sum", "phase_iid", "phase_deterministic",
    "delta_biased_d1", "delta_biased_chi_b", "delta_biased_chi_c",
)

# The options each (verb, topic, --what or analyze --kind) cannot run
# without; main reports a missing one as a usage error before anything runs.
REQUIRED = {
    **{("analyze", kind): ("-m",) for kind in HASH_KINDS},
    ("analyze", "tight"): ("-t", "--epsilon"),
    ("bounds", "reliability"): ("-R", "-p"),
    ("bounds", "gallager"): ("-n", "-R", "-p"),
    ("bounds", "qkd"): ("-n", "--approach", "-S", "--p-ph"),
    ("bounds", "ratio"): ("-n",),
    ("simulate", "error-prob"): ("--c1", "-p"),
    ("simulate", "family-average"): ("-n", "-m", "-p", "-R", "--seed"),
    ("simulate", "wiretap"): ("--channel", "--c1", "--c2"),
    ("simulate", "counterexample"): ("-n", "-p"),
    ("simulate", "distill"): ("--c1", "--c2", "--key-a", "--key-b", "--seed"),
    ("sweep", "reliability"): ("--r-grid", "-p"),
    ("sweep", "qkd"): ("--n-grid", "-S", "--p-ph"),
    ("sweep", "ratio"): ("--n-grid",),
}


def _format_value(v):
    """Exact fractions stay exact; floats are cut to 12 significant digits."""
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, bool) or v is None:
        return v
    if isinstance(v, float):
        if math.isinf(v) or math.isnan(v):
            return str(v)
        return float(f"{v:.12g}")
    if isinstance(v, dict):
        return {k: _format_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_format_value(x) for x in v]
    if isinstance(v, (int, str)):
        return v
    return str(v)


def _emit(args, payload, records=None):
    """JSON for single payloads; CSV (or JSON, by ``sweep --format``) for
    record lists."""
    if records is not None and args.format == "csv":
        keys = []
        rows = [_format_value(r) for r in records]
        for r in rows:
            for k in r:
                if k not in keys:
                    keys.append(k)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=keys)
        writer.writeheader()
        for r in rows:
            writer.writerow(r)
        text = buf.getvalue()
    else:
        body = records if records is not None else payload
        text = json.dumps(_format_value(body), sort_keys=True, indent=2) + "\n"
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_grid(text: str) -> list[float]:
    """Either a comma list "1,2,3" or an inclusive range "a:b:step".

    A range needs finite ends a <= b and a finite step > 0.  Either form
    may hold at most GRID_POINT_CAP points, checked before any point is
    built.
    """
    if ":" in text:
        a, b, step = (float(x) for x in text.split(":"))
        if not all(map(math.isfinite, (a, b, step))) or step <= 0 or b < a:
            raise ValueError(
                f"grid {text!r} needs finite ends a <= b and a finite step > 0"
            )
        if (b - a) / step >= GRID_POINT_CAP:
            raise ValueError(
                f"grid {text!r} has more than {GRID_POINT_CAP} points"
            )
        vals = []
        i = 0
        while True:
            v = a + i * step
            if v > b + 1e-12:
                break
            vals.append(v)
            i += 1
        return vals
    points = text.split(",")
    if len(points) > GRID_POINT_CAP:
        raise ValueError(f"grid has {len(points)} points, more than {GRID_POINT_CAP} points")
    return [float(x) for x in points]


def _fraction(text: str) -> Fraction:
    """Fraction(text); a zero denominator is a ValueError like any bad input."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


def _build_family(args) -> CodeFamily | HashFamily:
    kind = args.kind
    if kind in HASH_KINDS:
        return HashFamily(HashFamilySpec(kind.replace("-", "_"), args.n, args.m))
    if kind == "counterexample":
        return counterexample_family(args.n, seed=args.seed)
    return tight_family(args.n, args.t, _fraction(args.epsilon), args.x)


def _cmd_analyze(args) -> int:
    fam = _build_family(args)
    rep, drep = epsilon_reports(fam, args.convention)
    _emit(
        args,
        {
            "kind": args.kind,
            "n": args.n,
            "members": fam.members,
            "convention": args.convention,
            "epsilon": rep.epsilon,
            "dual_epsilon": drep.epsilon,
            "report": rep.to_record(),
            "dual_report": drep.to_record(),
            "seed": args.seed,
        },
    )
    return 0


def _bound_record(args) -> dict:
    """The record of one bound topic at one point, for `bounds` and `sweep`."""
    if args.topic == "reliability":
        e_val, s_star, residual = reliability_e(args.R, args.p)
        return {"R": args.R, "p": args.p, "E": e_val, "s_star": s_star,
                "identity_residual": residual}
    if args.topic == "gallager":
        return gallager_family_bound(args.n, args.R, args.p, args.epsilon).to_record()
    if args.topic == "qkd":
        return qkd_bounds(args.n, args.approach, S=args.S, p_ph=args.p_ph,
                          epsilon=args.epsilon, l=args.l).to_record()
    return {"n": args.n, "epsilon": args.epsilon,
            "ratio": approach_ratio(args.n, args.epsilon)}


def _cmd_bounds(args) -> int:
    _emit(args, _bound_record(args))
    return 0


def _code_pair(args) -> tuple[LinearCode, LinearCode]:
    """(C1, C2) from the files of --c1 and --c2; no --c2 is C2 = {0}, a
    plain code."""
    c1 = parse_code(Path(args.c1).read_text())
    c2 = parse_code(Path(args.c2).read_text()) if args.c2 else LinearCode.zero(c1.n)
    return c1, c2


def _cmd_simulate(args) -> int:
    if args.what == "family-average":
        res = family_average_error(
            _build_family(args),
            _fraction(args.p),
            args.R,
            mode="monte_carlo" if args.mc else "exact",
            sample_count=args.samples,
            seed=args.seed,
        )
        rec = res.to_record()
        rec["seed"] = args.seed
        _emit(args, rec)
        return 0
    if args.what == "counterexample":
        p = _fraction(args.p)
        if not 0 <= p <= 1:  # before float(p), which overflows past 1.8e308
            raise ValueError("p must be in [0, 1]")
        res = counterexample_leakage(args.n, float(p), seed=args.seed)
        rec = res.to_record()
        rec["seed"] = args.seed
        _emit(args, rec)
        return 0
    c1, c2 = _code_pair(args)  # error-prob, wiretap and distill
    if args.what == "error-prob":
        value = exact_error_prob((c1, c2), _fraction(args.p))
        _emit(args, {"error_prob": value, "n": c1.n, "p": args.p})
        return 0
    if args.what == "wiretap":
        pxz = parse_channel(Path(args.channel).read_text())
        res = wiretap_eval(pxz, c1, c2, mode="phase_only" if args.phase_only else "exact")
        _emit(args, res.to_record())
        return 0
    k_a = BitVector.from_string(args.key_a)
    k_b = BitVector.from_string(args.key_b)
    s_a, s_b, agree = distill_keys(k_a, k_b, c1, c2, args.seed)
    _emit(
        args,
        {"key_a": str(s_a), "key_b": str(s_b), "agree": agree, "seed": args.seed},
    )
    return 0


def _cmd_verify(args) -> int:
    if args.criteria == ["all"]:
        numbers = sorted(acceptance.CRITERIA)
    else:
        try:
            numbers = sorted({int(c) for c in args.criteria})
        except ValueError:
            raise ValueError("criteria must be 'all' or criterion numbers")
        unknown = [n for n in numbers if n not in acceptance.CRITERIA]
        if unknown:
            raise ValueError(f"unknown criteria: {unknown}")
    results = acceptance.run_criteria(numbers, seed=args.seed)
    text = acceptance.format_results(results) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0 if all(r.passed for r in results) else 1


def _block_length(v: float) -> int:
    if not v.is_integer():
        raise ValueError(f"block length must be a whole number, got {v:g}")
    _check_block_length(v)
    return int(v)


def _cmd_sweep(args) -> int:
    """One `bounds` record per grid point, with R or n taken from the grid.
    A phase_sum sweep whose points may walk more than SWEEP_TERM_CAP terms
    in all is refused before any point is evaluated."""
    if args.topic == "reliability":
        points = [{"R": rate} for rate in _parse_grid(args.r_grid)]
    else:
        points = [{"n": _block_length(n)} for n in _parse_grid(args.n_grid)]
        if args.topic == "qkd" and args.approach == "phase_sum":
            terms = sum(_phase_sum_window_bound(point["n"], args.p_ph) for point in points)
            if terms > SWEEP_TERM_CAP:
                raise ValueError(f"phase_sum sweep may walk {terms} terms, "
                                 f"more than {SWEEP_TERM_CAP}")
    records = [
        _bound_record(argparse.Namespace(**{**vars(args), **point}))
        for point in points
    ]
    _emit(args, None, records=records)
    return 0


def _add_bound_flags(p, approach=None):
    p.add_argument("-p", type=float, help="crossover probability")
    p.add_argument("-S", type=float, help="sacrificed-bit rate")
    p.add_argument("-l", type=int, help="key length")
    p.add_argument("--p-ph", type=float, help="phase error probability")
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--approach", choices=APPROACHES, default=approach)


def _add_output_flags(p):
    p.add_argument("--out", help="write output to this path instead of stdout")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and help text is laid out when it is printed."""
    parser = argparse.ArgumentParser(
        prog="dualhash",
        description="Measure, bound, and simulate dual universal hash families.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("analyze", help="measure universality parameters exactly")
    p.add_argument(
        "--kind", required=True,
        choices=sorted(HASH_KINDS | {"counterexample", "tight"}),
    )
    p.add_argument("-n", type=int, required=True, help="input length")
    p.add_argument("-m", type=int, help="output length (hash kinds)")
    p.add_argument("-t", type=int, help="member dimension (tight)")
    p.add_argument("--epsilon", help="target epsilon as a fraction (tight)")
    p.add_argument("-x", type=int, default=1, help="equality point (tight)")
    p.add_argument("--convention", choices=("min_dim", "max_dim"), default="min_dim")
    p.add_argument("--seed", type=int, help="seed for sampled constructions")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("bounds", help="evaluate closed-form bounds")
    p.add_argument("topic", choices=("reliability", "gallager", "qkd", "ratio"))
    p.add_argument("-n", type=int, help="block length")
    p.add_argument("-R", type=float, help="rate")
    _add_bound_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("simulate", help="exact or Monte-Carlo simulation")
    p.add_argument(
        "--what", required=True,
        choices=("error-prob", "family-average", "wiretap", "counterexample",
                 "distill"),
    )
    p.add_argument("--c1", help="outer code C1 file (n k header, then basis rows)")
    p.add_argument("--c2", help="inner code C2 file, a subcode of C1; error-prob "
                   "without it decodes C1 alone (C2 = {0})")
    p.add_argument("--channel", help="per-qubit channel table file")
    p.add_argument("--kind", default="random-linear", choices=sorted(HASH_KINDS))
    p.add_argument("-n", type=int, help="input length")
    p.add_argument("-m", type=int, help="output length")
    p.add_argument("-p", help="error probability (fraction or decimal)")
    p.add_argument("-R", type=float, help="nominal rate for attached bounds")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, help="mandatory for sampled computations")
    p.add_argument("--mc", action="store_true",
                   help="Monte-Carlo per member (default: exact per member)")
    p.add_argument("--phase-only", action="store_true")
    p.add_argument("--key-a", help="Alice's raw key bits (distill)")
    p.add_argument("--key-b", help="Bob's raw key bits (distill)")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.add_argument("criteria", nargs="+", help="'all' or criterion numbers")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="also write the report to this path")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="tabulate bounds over a parameter grid")
    p.add_argument("topic", choices=("reliability", "qkd", "ratio"))
    _add_bound_flags(p, approach="phase_sum")
    p.add_argument("--r-grid", help="rate grid: comma list or a:b:step")
    p.add_argument("--n-grid", help="block length grid: comma list or a:b:step")
    p.add_argument("--format", choices=("json", "csv"), default="csv", help="output format")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    topic = vars(args).get("topic") or vars(args).get("what") or vars(args).get("kind")
    for flag in REQUIRED.get((args.verb, topic), ()):
        if getattr(args, flag.lstrip("-").replace("-", "_")) is None:
            parser.error(f"{args.verb} {topic} needs {flag}")
    if getattr(args, "mc", False) and args.seed is None:
        parser.error("--mc needs --seed")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
