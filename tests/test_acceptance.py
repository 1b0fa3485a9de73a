"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  All comparisons are exact unless a numeric tolerance is part
of the criterion itself.
"""

import dataclasses
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

from golden_data import (
    CONJUGATE_CONVENTION_ROWS,
    NIB_286,
    NIB_66,
    TABLE1,
    TABLE1_MISSING,
    TABLE2,
    element_of,
    poly_of,
)
from simplest_cubic.arith import legendre3
from simplest_cubic.cubic_field import FieldElement, lemma42, trace_form_disc
from simplest_cubic.gaussian import numeric_verify, period_identity
from simplest_cubic.integral_basis import build as build_integral_basis
from simplest_cubic.invariants import conductor, decompose, is_tame
from simplest_cubic.nib import (
    all_generators,
    generator,
    min_poly_closed,
    special_forms,
    verify_nib,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "simplest_cubic", *args],
        capture_output=True,
        text=True,
    )


def report(criterion: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, criterion


def test_criterion_1_golden_nib_286():
    start = time.time()
    out = run_cli("nib", "286")
    elapsed = time.time() - start
    ok = out.returncode == 0 and out.stdout == (GOLDEN / "nib286.md").read_text()
    # cross-check the fixture against the structured golden rows
    lines = out.stdout.strip().splitlines()[2:]
    for line, (pair, period, minpoly) in zip(lines, NIB_286):
        cells = [c.strip() for c in line.strip("|").split("|")]
        ok = ok and cells[0] == "{%d,%d}" % pair
        g = generator(286, *pair)
        ok = ok and g.element == element_of(286, period)
        ok = ok and g.min_poly == poly_of(minpoly)
    ok = ok and elapsed < 1.0
    report("1 (golden NIB table, nib 286)", ok, f"{elapsed:.2f}s")


def test_criterion_2_golden_nib_66():
    start = time.time()
    out = run_cli("nib", "66")
    elapsed = time.time() - start
    ok = out.returncode == 0 and out.stdout == (GOLDEN / "nib66.md").read_text()
    lines = out.stdout.strip().splitlines()[2:]
    for line, (pair, period, minpoly) in zip(lines, NIB_66):
        cells = [c.strip() for c in line.strip("|").split("|")]
        ok = ok and cells[0] == "{%d,%d}" % pair
        g = generator(66, *pair)
        ok = ok and g.element == element_of(66, period)
        ok = ok and g.min_poly == poly_of(minpoly)
    ok = ok and elapsed < 1.0
    report("2 (golden NIB table, nib 66)", ok, f"{elapsed:.2f}s")


def test_criterion_3_golden_tables_5_5():
    start = time.time()
    out2 = run_cli("table", "--from", "1", "--to", "500", "--filter", "mod27")
    out1 = run_cli("table", "--from", "1", "--to", "500", "--filter", "delta-ne-f")
    elapsed = time.time() - start
    ok = out1.returncode == 0 and out2.returncode == 0
    ok = ok and out1.stdout == (GOLDEN / "table1_full.md").read_text()
    ok = ok and out2.stdout == (GOLDEN / "table2.md").read_text()

    def parse(md: str) -> dict[int, list[str]]:
        rows = {}
        for line in md.strip().splitlines()[2:]:
            cells = [c.strip() for c in line.strip("|").split("|")]
            rows[int(cells[0])] = cells
        return rows

    rows1, rows2 = parse(out1.stdout), parse(out2.stdout)
    # table (2) is complete: all 19 rows, strictly golden
    ok = ok and len(rows2) == 19
    for n, (delta_s, f_s, period, minpoly) in TABLE2.items():
        cells = rows2[n]
        ok = ok and cells[1] == delta_s and cells[2] == f_s
        rep = period_identity(n)
        ok = ok and rep.min_poly == poly_of(minpoly)
        reference = element_of(n, period)
        orbit = (reference, reference.sigma(), reference.sigma().sigma())
        ok = ok and rep.period_element in orbit
        if n not in CONJUGATE_CONVENTION_ROWS:
            ok = ok and rep.period_element == reference
    # table (1): the 14 reference rows must all appear with identical data;
    # the output also contains the qualifying n the reference omitted.
    for n, (delta_s, f_s, period, minpoly) in TABLE1.items():
        cells = rows1[n]
        ok = ok and cells[1] == delta_s and cells[2] == f_s
        rep = period_identity(n)
        ok = ok and rep.min_poly == poly_of(minpoly)
        reference = element_of(n, period)
        orbit = (reference, reference.sigma(), reference.sigma().sigma())
        ok = ok and rep.period_element in orbit
        if n not in CONJUGATE_CONVENTION_ROWS:
            ok = ok and rep.period_element == reference
    ok = ok and set(rows1) == set(TABLE1) | set(TABLE1_MISSING)
    # each extra row provably satisfies the stated selection criterion
    for n in TABLE1_MISSING:
        inv = conductor(n)
        ok = ok and n % 3 != 0 and inv.tame and inv.decomposition.delta != inv.conductor
    ok = ok and elapsed < 10.0
    report(
        "3 (golden period tables)",
        ok,
        f"{elapsed:.2f}s; table(1) completes {len(TABLE1_MISSING)} qualifying rows "
        f"missing from the reference tabulation; {len(CONJUGATE_CONVENTION_ROWS)} "
        "period cells use the documented conjugate convention",
    )


def test_criteria_4_and_5_disc_oracle_and_closed_forms():
    start = time.time()
    checked = 0
    for n in range(-2000, 2001):
        if not is_tame(n):
            continue
        inv = conductor(n)
        disc = inv.discriminant
        gens = all_generators(n)
        polys = set()
        for g in gens:
            assert abs(g.element.trace()) == 1
            conj = g.element.conjugates()
            assert trace_form_disc(*conj) == disc, n
            closed = min_poly_closed(n, g.a0, g.a1, g.m, g.epsilon)
            assert closed == g.min_poly, n
            polys.add((g.min_poly.p2, g.min_poly.p1, g.min_poly.p0))
        assert len(gens) == 6 and len(polys) == 2
        basis = build_integral_basis(n)
        one = FieldElement.rational(n, 1)
        assert trace_form_disc(one, basis.phi, basis.psi) == disc, n
        checked += 1
    elapsed = time.time() - start
    ok = elapsed < 60.0 and checked > 2500
    report("4 (disc oracle, |n| <= 2000)", ok, f"{checked} tame n, {elapsed:.1f}s")
    report("5 (closed-form minimal polynomials, same sweep)", ok, f"{elapsed:.1f}s")


def test_criterion_6_numeric_gaussian_oracle():
    start = time.time()
    worst = 0.0
    for n in sorted(TABLE1) + sorted(TABLE2):
        result = numeric_verify(n, 256)
        assert result.ok, n
        worst = max(worst, result.residual)
    elapsed = time.time() - start
    ok = worst < 2**-100 and elapsed < 30.0
    report(
        "6 (numeric Gaussian oracle, all 33 golden rows)",
        ok,
        f"worst residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_7_property_suites():
    start = time.time()
    ok = True
    # Lemma 4.1: p | Delta => p = 0, 1 (mod 3)
    for n in range(-2000, 2001):
        for p, _ in decompose(n).delta_factors.factors:
            ok = ok and p % 3 in (0, 1)
    # root identities (4.1)-(4.5), exact
    for n in range(-50, 51):
        rho = FieldElement.rho(n)
        p, q, r = rho.conjugates()
        ok = ok and (p * p * q + q * q * r + r * r * p).as_rational() == 3
        ok = ok and (p * p * r + q * q * p + r * r * q).as_rational() == -(n * n + 3 * n + 6)
        ok = ok and q == FieldElement(n, (-2, -(n + 1), 1))
        ok = ok and r == FieldElement(n, (n + 2, n, -1))
    # Lemma 4.2 closed forms vs conjugate computation, 1000 random triples
    rng = random.Random(20240901)
    for _ in range(1000):
        n = rng.randint(-60, 60)
        r1, r2, r3 = (
            Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(3)
        )
        rho = FieldElement.rho(n)
        eta = rho * r1 + rho.sigma() * r2 + FieldElement.rational(n, r3)
        a, b, c = eta.conjugates()
        e1 = (a + b + c).as_rational()
        e2 = (a * b + b * c + c * a).as_rational()
        e3 = (a * b * c).as_rational()
        ok = ok and (e1, e2, e3) == lemma42(r1, r2, r3, n)
    # mirror symmetry
    for n in range(-2000, 2001):
        ok = ok and conductor(n).conductor == conductor(-n - 3).conductor
    # Corollary 4.4 iff-characterization on tame 3-coprime n
    for n in range(-2000, 2001):
        if n % 3 == 0:
            continue
        dec = decompose(n)
        square_free = dec.e == 1 and dec.c == 1
        linear = [g for g in all_generators(n) if g.a1 == 0]
        if square_free:
            ok = ok and len(linear) == 2
            for g in linear:
                ok = ok and g.a0 in (1, -1)
                ok = ok and g.m == g.a0 * (legendre3(n) - n) // 3
        else:
            ok = ok and not linear
    # f/g/h forms agree with the general pipeline wherever defined
    matched = 0
    for n in range(-2000, 2001):
        sf = special_forms(n)
        if sf is None:
            continue
        g = generator(n, *sf.pair)
        ok = ok and sf.poly_plus == g.min_poly
        ok = ok and sf.poly_minus == g.min_poly.reflected()
        ok = ok and g.element == sf.element
        matched += 1
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0 and matched > 1000
    report("7 (property suites)", ok, f"{elapsed:.1f}s, {matched} special-form n")


def test_criterion_8_negative_controls():
    ok = True
    for n in ("0", "3", "9", "30"):
        out = run_cli("nib", n)
        ok = ok and out.returncode == 3
        out = run_cli("gaussian", n)
        ok = ok and out.returncode == 3
    g = generator(286, 2, 3)
    for field in ("a0", "a1", "m"):
        for delta_ in (1, -1):
            bad = dataclasses.replace(g, **{field: getattr(g, field) + delta_})
            ok = ok and not verify_nib(bad).all_ok
    for eps_delta in (2, -2):  # epsilon stays in {-1, +1}
        bad = dataclasses.replace(g, epsilon=g.epsilon + eps_delta)
        ok = ok and not verify_nib(bad).all_ok
    report("8 (negative controls)", ok)
