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


def output_record(n: int, with_gaussian: bool = True) -> dict:
    """The full machine-readable record for one n (generators null when wild)."""
    inv = conductor(n)
    dec = inv.decomposition
    record = {
        "n": n,
        "delta": {"value": dec.delta, "factored": str(dec.delta_factors)},
        "decomposition": {"b": dec.b, "c": dec.c, "d": dec.d, "e": dec.e},
        "gamma": inv.gamma,
        "conductor": {"value": inv.conductor, "factored": str(inv.conductor_factors)},
        "discriminant": inv.discriminant,
        "tame": inv.tame,
        "prime_count": inv.prime_count,
        "generators": None,
        "gaussian": None,
    }
    if inv.tame:
        record["generators"] = [_generator_json(g) for g in all_generators(n)]
        if with_gaussian:
            record["gaussian"] = _gaussian_json(period_identity(n), None)
    return record


def _analyze_lines(n: int) -> list[str]:
    inv = conductor(n)
    dec = inv.decomposition
    return [
        f"n={n}",
        f"Δ={format_integer_factored(dec.delta, dec.delta_factors)}",
        f"d={dec.d} e={dec.e} c={dec.c}",
        f"γ={inv.gamma}",
        f"f={format_integer_factored(inv.conductor, inv.conductor_factors)}",
        f"D={inv.discriminant}={inv.conductor}^2",
        "tame=true" if inv.tame else "tame=false, no NIB",
    ]


def cmd_analyze(args: argparse.Namespace) -> int:
    n = args.n
    if args.format == "json":
        print(json.dumps(output_record(n, with_gaussian=is_tame(n)), ensure_ascii=False))
    elif args.format == "csv":
        inv = conductor(n)
        dec = inv.decomposition
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["n", "delta", "delta_factored", "d", "e", "c", "gamma",
                         "conductor", "discriminant", "tame"])
        writer.writerow([n, dec.delta, str(dec.delta_factors), dec.d, dec.e, dec.c,
                         inv.gamma, inv.conductor, inv.discriminant,
                         "true" if inv.tame else "false"])
    else:
        print("\n".join(_analyze_lines(n)))
    return EXIT_OK


NIB_HEADER = ["{a0,a1}", "generator", "minimal polynomial"]


def _nib_rows(n: int) -> list[list[str]]:
    return [
        [
            "{%d,%d}" % (g.a0, g.a1),
            format_element(g.element),
            format_poly(g.min_poly),
        ]
        for g in all_generators(n)
    ]


def cmd_nib(args: argparse.Namespace) -> int:
    n = args.n
    gens = all_generators(n)  # raises WildRamificationError for wild n
    if args.format == "json":
        print(json.dumps(output_record(n, with_gaussian=False), ensure_ascii=False))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["n", "a0", "a1", "generator", "min_poly"])
        for g in gens:
            writer.writerow([n, g.a0, g.a1, format_element(g.element),
                             format_poly(g.min_poly)])
    else:
        print(_markdown_table(NIB_HEADER, _nib_rows(n)))
    return EXIT_OK


def _markdown_table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)


def cmd_gaussian(args: argparse.Namespace) -> int:
    n = args.n
    rep = period_identity(n)
    verify: NumericVerification | None = None
    if args.verify:
        verify = numeric_verify_auto(n, args.precision, display=rep.display)
    if args.format == "json":
        record = output_record(n, with_gaussian=False)
        record["gaussian"] = _gaussian_json(rep, verify)
        print(json.dumps(record, ensure_ascii=False))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["n", "conductor", "prime_count", "period", "min_poly", "verified"])
        writer.writerow([
            n, conductor(n).conductor, rep.prime_count,
            format_element(rep.period_element), format_poly(rep.min_poly),
            "" if verify is None else ("pass" if verify.ok else "fail"),
        ])
    else:
        inv = conductor(n)
        print(f"n={n} f={format_integer_factored(inv.conductor, inv.conductor_factors)} t={rep.prime_count}")
        print(f"η = {format_element(rep.period_element)}")
        print(f"minimal polynomial: {format_poly(rep.min_poly)}")
        if verify is not None:
            status = "pass" if verify.ok else "fail"
            print(f"verify={status} residual={verify.residual:.3e} "
                  f"precision={verify.precision_bits} subgroup=[{verify.subgroup}]")
    if verify is not None and not verify.ok:
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


def _table_row(job: tuple[int, str]) -> tuple[int, object]:
    n, fmt = job
    if fmt == "json":
        return n, output_record(n)
    inv = conductor(n)
    dec = inv.decomposition
    rep = period_identity(n)
    cells = [
        str(n),
        str(dec.delta_factors),
        str(inv.conductor_factors),
        format_element(rep.period_element),
        format_poly(rep.min_poly),
    ]
    return n, cells


def cmd_table(args: argparse.Namespace) -> int:
    lo, hi = args.from_n, args.to_n
    if lo > hi:
        print(f"error: empty range {lo}..{hi}", file=sys.stderr)
        return EXIT_USAGE
    ns = [n for n in range(lo, hi + 1) if _qualifies(n, args.filter)]
    jobs = args.jobs if args.jobs else (os.cpu_count() or 1)
    jobs = max(1, min(jobs, len(ns) or 1))
    work = [(n, args.format) for n in ns]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_table_row, work, chunksize=max(1, len(work) // (4 * jobs))))
    else:
        results = [_table_row(w) for w in work]
    if args.format == "json":
        print(json.dumps([rec for _, rec in results], ensure_ascii=False, indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["n", "delta", "conductor", "period", "min_poly"])
        for _, cells in results:
            writer.writerow(cells)
    else:
        print(_markdown_table(TABLE_HEADER, [cells for _, cells in results]))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    n = args.n
    gens = all_generators(n)
    reports = [verify_nib(g) for g in gens]
    basis = build_integral_basis(n)
    numeric = numeric_verify_auto(n, args.precision)
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
    common.add_argument("--precision", type=int, default=256, metavar="BITS")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common], help="field invariants of L_n")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("nib", parents=[common], help="all six NIB generators")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_nib)

    p = sub.add_parser("gaussian", parents=[common], help="Gaussian period identity")
    p.add_argument("n", type=int)
    p.add_argument("--verify", action="store_true",
                   help="run the numeric period oracle")
    p.set_defaults(func=cmd_gaussian)

    p = sub.add_parser("table", parents=[common], help="range tabulation")
    p.add_argument("--from", dest="from_n", type=int, required=True, metavar="A")
    p.add_argument("--to", dest="to_n", type=int, required=True, metavar="B")
    p.add_argument("--filter", choices=("tame", "mod27", "delta-ne-f"), default="tame")
    p.add_argument("--jobs", type=int, default=0, metavar="N",
                   help="worker processes (default: available parallelism)")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", parents=[common],
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
