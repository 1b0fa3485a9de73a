"""Command-line interface.

Subcommands: analyze | nib | gaussian | table | verify.
Exit codes: 0 ok, 2 usage error, 3 wild ramification (no NIB), 4 verification
failure (including an ArithmeticError: the numeric precision cap reached, or
a factorization that failed).  Output formats: md (default), json, csv.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .cubic_field import FieldElement, MonicCubic
from .gaussian import (
    GaussianReport,
    NumericVerification,
    numeric_verify_auto,
    period_identity,
)
from .integral_basis import build as build_integral_basis
from .invariants import WildRamificationError, conductor, is_tame
from .nib import NibGenerator, all_generators, verify_nib
from .render import (
    format_element,
    format_integer_factored,
    format_poly,
    format_rational,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_WILD = 3
EXIT_VERIFY = 4


def _poly_json(poly: MonicCubic) -> dict:
    return {
        "string": format_poly(poly),
        "coefficients": ["1"] + [format_rational(c) for c in (poly.p2, poly.p1, poly.p0)],
    }


def _element_json(elem: FieldElement) -> dict:
    return {
        "element": format_element(elem),
        "coordinates": [format_rational(c) for c in elem.coeffs],
    }


def _generator_json(g: NibGenerator) -> dict:
    return {
        "pair": [g.a0, g.a1],
        "epsilon": g.epsilon,
        "m": g.m,
        **_element_json(g.element),
        "min_poly": _poly_json(g.min_poly),
    }


def _gaussian_json(rep: GaussianReport, verify: NumericVerification | None) -> dict:
    match = None
    if verify is not None:
        match = {
            "ok": verify.ok,
            "residual": repr(verify.residual),
            "precision_bits": verify.precision_bits,
            "subgroup": verify.subgroup,
        }
    return {
        "canonical_pair": list(rep.canonical),
        "epsilon": rep.epsilon,
        "sign": rep.sign,
        **_element_json(rep.period_element),
        "min_poly": _poly_json(rep.min_poly),
        "numeric_match": match,
    }


def output_record(
    n: int,
    gens: list[NibGenerator] | None = None,
    rep: GaussianReport | None = None,
    verify: NumericVerification | None = None,
) -> dict:
    """The machine-readable record for one n, built from the data the command
    already computed (generators and gaussian are null when not given)."""
    inv = conductor(n)
    dec = inv.decomposition
    return {
        "n": n,
        "delta": {"value": dec.delta, "factored": str(dec.delta_factors)},
        "decomposition": {"b": dec.b, "c": dec.c, "d": dec.d, "e": dec.e},
        "gamma": inv.gamma,
        "conductor": {"value": inv.conductor, "factored": str(inv.conductor_factors)},
        "discriminant": inv.discriminant,
        "tame": inv.tame,
        "prime_count": inv.prime_count,
        "generators": None if gens is None else [_generator_json(g) for g in gens],
        "gaussian": None if rep is None else _gaussian_json(rep, verify),
    }


def _factored(entry: dict) -> str:
    return format_integer_factored(entry["value"], entry["factored"])


def _write_csv(header: list[str], rows: list[list]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _markdown_table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)


def cmd_analyze(args: argparse.Namespace) -> int:
    n = args.n
    if args.format == "json":
        gens = all_generators(n) if is_tame(n) else None
        record = output_record(n, gens, None if gens is None else period_identity(n, gens))
        print(json.dumps(record, ensure_ascii=False))
        return EXIT_OK
    record = output_record(n)
    dec = record["decomposition"]
    if args.format == "csv":
        _write_csv(["n", "delta", "delta_factored", "d", "e", "c", "gamma",
                    "conductor", "discriminant", "tame"],
                   [[n, record["delta"]["value"], record["delta"]["factored"], dec["d"],
                     dec["e"], dec["c"], record["gamma"], record["conductor"]["value"],
                     record["discriminant"], "true" if record["tame"] else "false"]])
    else:
        print("\n".join([
            f"n={n}",
            f"Δ={_factored(record['delta'])}",
            f"d={dec['d']} e={dec['e']} c={dec['c']}",
            f"γ={record['gamma']}",
            f"f={_factored(record['conductor'])}",
            f"D={record['discriminant']}={record['conductor']['value']}^2",
            "tame=true" if record["tame"] else "tame=false, no NIB",
        ]))
    return EXIT_OK


NIB_HEADER = ["{a0,a1}", "generator", "minimal polynomial"]


def cmd_nib(args: argparse.Namespace) -> int:
    n = args.n
    record = output_record(n, all_generators(n))  # raises WildRamificationError for wild n
    gens = record["generators"]
    if args.format == "json":
        print(json.dumps(record, ensure_ascii=False))
    elif args.format == "csv":
        _write_csv(["n", "a0", "a1", "generator", "min_poly"],
                   [[n, *g["pair"], g["element"], g["min_poly"]["string"]] for g in gens])
    else:
        print(_markdown_table(NIB_HEADER, [
            ["{%d,%d}" % tuple(g["pair"]), g["element"], g["min_poly"]["string"]] for g in gens
        ]))
    return EXIT_OK


def cmd_gaussian(args: argparse.Namespace) -> int:
    n = args.n
    gens = all_generators(n) if args.format == "json" else None
    rep = period_identity(n, gens)
    verify = numeric_verify_auto(n, args.precision, display=rep.display) if args.verify else None
    record = output_record(n, gens, rep, verify)
    period, match = record["gaussian"], record["gaussian"]["numeric_match"]
    status = "" if match is None else ("pass" if match["ok"] else "fail")
    if args.format == "json":
        print(json.dumps(record, ensure_ascii=False))
    elif args.format == "csv":
        _write_csv(["n", "conductor", "prime_count", "period", "min_poly", "verified"],
                   [[n, record["conductor"]["value"], record["prime_count"],
                     period["element"], period["min_poly"]["string"], status]])
    else:
        print(f"n={n} f={_factored(record['conductor'])} t={record['prime_count']}")
        print(f"η = {period['element']}")
        print(f"minimal polynomial: {period['min_poly']['string']}")
        if match is not None:
            print(f"verify={status} residual={float(match['residual']):.3e} "
                  f"precision={match['precision_bits']} subgroup=[{match['subgroup']}]")
    if match is not None and not match["ok"]:
        return EXIT_VERIFY
    return EXIT_OK


TABLE_HEADER = ["n", "Δ", "f", "gaussian period", "minimal polynomial"]


def _qualifies(n: int, filt: str) -> bool:
    if filt == "tame":
        return is_tame(n)
    if filt == "mod27":
        return n % 27 == 12
    if filt == "delta-ne-f":
        if not is_tame(n) or n % 3 == 0:
            return False
        inv = conductor(n)
        return inv.decomposition.delta != inv.conductor
    raise ValueError(f"unknown filter {filt}")


def _table_record(job: tuple[int, str]) -> dict:
    n, fmt = job
    try:
        gens = all_generators(n) if fmt == "json" else None
        return output_record(n, gens, period_identity(n, gens))
    except ArithmeticError as exc:
        raise ArithmeticError(f"n={n}: {exc}") from exc


def _table_cells(record: dict) -> list[str]:
    period = record["gaussian"]
    return [str(record["n"]), record["delta"]["factored"], record["conductor"]["factored"],
            period["element"], period["min_poly"]["string"]]


def cmd_table(args: argparse.Namespace) -> int:
    lo, hi = args.from_n, args.to_n
    if lo > hi:
        print(f"error: empty range {lo}..{hi}", file=sys.stderr)
        return EXIT_USAGE
    if args.jobs < 0:
        print(f"error: --jobs must be 0 or more, not {args.jobs}", file=sys.stderr)
        return EXIT_USAGE
    ns = [n for n in range(lo, hi + 1) if _qualifies(n, args.filter)]
    cpus = os.cpu_count() or 1
    jobs = max(1, min(args.jobs or cpus, cpus, len(ns)))
    work = [(n, args.format) for n in ns]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_table_record, work, chunksize=max(1, len(work) // (4 * jobs))))
    else:
        records = [_table_record(w) for w in work]
    if args.format == "json":
        print(json.dumps(records, ensure_ascii=False, indent=2))
    elif args.format == "csv":
        _write_csv(["n", "delta", "conductor", "period", "min_poly"],
                   [_table_cells(r) for r in records])
    else:
        print(_markdown_table(TABLE_HEADER, [_table_cells(r) for r in records]))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    n = args.n
    gens = all_generators(n)
    reports = [verify_nib(g) for g in gens]
    basis = build_integral_basis(n)
    numeric = numeric_verify_auto(n, args.precision, display=period_identity(n, gens).display)
    ok = all(r.all_ok for r in reports) and numeric.ok
    print(f"n={n}")
    print(f"generators: {len(gens)}, all checks "
          f"{'pass' if all(r.all_ok for r in reports) else 'FAIL'}")
    print(f"integral basis: t={basis.t} disc=conductor^2 pass")
    status = "pass" if numeric.ok else "FAIL"
    print(f"numeric gaussian oracle: {status} residual={numeric.residual:.3e} "
          f"precision={numeric.precision_bits}")
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplest-cubic",
        description="Invariants, normal integral bases and Gaussian periods "
        "of the simplest cubic fields",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("md", "json", "csv"), default="md")
    precision = argparse.ArgumentParser(add_help=False)  # gaussian and verify only
    precision.add_argument("--precision", type=int, default=256, metavar="BITS")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common], help="field invariants of L_n")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("nib", parents=[common], help="all six NIB generators")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_nib)

    p = sub.add_parser("gaussian", parents=[common, precision], help="Gaussian period identity")
    p.add_argument("n", type=int)
    p.add_argument("--verify", action="store_true",
                   help="run the numeric period oracle")
    p.set_defaults(func=cmd_gaussian)

    p = sub.add_parser("table", parents=[common], help="range tabulation")
    p.add_argument("--from", dest="from_n", type=int, required=True, metavar="A")
    p.add_argument("--to", dest="to_n", type=int, required=True, metavar="B")
    p.add_argument("--filter", choices=("tame", "mod27", "delta-ne-f"), default="tame")
    p.add_argument("--jobs", type=int, default=0, metavar="N",
                   help="worker processes, at most the CPU count "
                   "(default 0: the CPU count)")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", parents=[precision],
                       help="full verification suite for one n")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WildRamificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WILD
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
