from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import from_coeffs, norm, rho, shanks_polynomial, trace_form_det
from simplest_cubic.cubic_field import (
    FieldElement,
    MonicCubic,
    lemma42,
    numeric_roots,
    trace_form_disc,
)
from simplest_cubic.integral_basis import build
from simplest_cubic.invariants import decompose, delta, is_tame
from simplest_cubic.nib import canonical_pair, generator

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
field_params = st.integers(min_value=-60, max_value=60)


def test_mul_examples():
    x = rho(2)
    assert x * x * x == FieldElement(2, (1, 5, 2))
    a = from_coeffs(7, Fraction(1, 3), -2, Fraction(5, 4))
    assert FieldElement.rational(7, 1) * a == a
    p, q, r = rho(11).conjugates()
    assert (p * q * r).as_rational() == 1


def test_mul_rejects_mixed_fields():
    with pytest.raises(ValueError):
        rho(1) * rho(2)


def test_sigma_examples():
    assert FieldElement.rational(9, Fraction(3, 7)).sigma() == FieldElement.rational(9, Fraction(3, 7))
    s = rho(286).sigma()
    assert s == FieldElement(286, (-2, -287, 1))
    assert s.sigma() == FieldElement(286, (288, 286, -1))


@given(field_params, rationals, rationals, rationals)
@settings(max_examples=100, deadline=None)
def test_sigma_order_three(n, r0, r1, r2):
    x = from_coeffs(n, r0, r1, r2)
    assert x.sigma().sigma().sigma() == x


def test_trace_norm_examples():
    for n in (-7, 1, 12, 286):
        r = rho(n)
        assert r.trace() == n
        assert norm(r) == 1
        mp = r.min_poly()
        assert mp == shanks_polynomial(n)
        v = from_coeffs(n, 9, 1, 0)
        assert v.trace() == 27 + n  # Tr(v + rho) = 3v + n


def test_rho_prime_identity():
    # rho' = -1/(1 + rho): (1 + rho) * rho' = -1
    for n in (-5, 1, 12, 286):
        x = rho(n)
        prod = (FieldElement.rational(n, 1) + x) * x.sigma()
        assert prod.as_rational() == -1


def rho_rho_prime(n, r1, r2, r3):
    """r1*rho + r2*rho' + r3 with rho' = sigma(rho), by field arithmetic."""
    x = rho(n)
    return x * Fraction(r1) + x.sigma() * Fraction(r2) + FieldElement.rational(n, r3)


def test_lemma42_examples():
    e1, e2, e3 = lemma42(1, 0, 0, 17)
    assert (e1, e2, e3) == (17, -20, 1)
    n = 12
    eta = rho_rho_prime(n, 1, -1, 3)
    assert eta == FieldElement(n, (5, 14, -1))  # rho - rho' + 3
    mp = eta.min_poly()
    l1, l2, l3 = lemma42(1, -1, 3, n)
    assert (mp.p2, mp.p1, mp.p0) == (-l1, l2, -l3)


@given(
    st.integers(min_value=-40, max_value=40),
    rationals,
    rationals,
    rationals,
)
@settings(max_examples=150, deadline=None)
def test_lemma42_matches_conjugates(n, r1, r2, r3):
    eta = rho_rho_prime(n, r1, r2, r3)
    a, b, c = eta.conjugates()
    e1 = (a + b + c).as_rational()
    e2 = (a * b + b * c + c * a).as_rational()
    e3 = (a * b * c).as_rational()
    assert (e1, e2, e3) == lemma42(r1, r2, r3, n)


def test_trace_form_disc_examples():
    n = 286
    one = FieldElement.rational(n, 1)
    x = rho(n)
    assert trace_form_disc(one, x, x * x) == delta(n) ** 2
    conj = x.conjugates()
    assert trace_form_disc(*conj) == n**2 * delta(n) ** 2
    assert trace_form_disc(one, one, x) == 0


# (numerators, denominator) of an element with a denominator other than 1
elements = st.tuples(
    st.tuples(*[st.integers(min_value=-10**6, max_value=10**6)] * 3),
    st.integers(min_value=2, max_value=10**4),
)


@given(field_params, elements, elements, elements)
@settings(max_examples=300, deadline=None)
def test_trace_form_disc_matches_fraction_determinant(n, x1, x2, x3):
    # Integer traces over one division against the Fraction determinant.
    triple = [FieldElement(n, num, den) for num, den in (x1, x2, x3)]
    assert trace_form_disc(*triple) == trace_form_det(*triple)


@given(field_params, elements, elements, rationals, rationals)
@settings(max_examples=200, deadline=None)
def test_trace_form_disc_dependent_triples(n, x1, x2, p, q):
    a, b = FieldElement(n, *x1), FieldElement(n, *x2)
    triple = (a, b, a * p + b * q)
    assert trace_form_disc(*triple) == 0 == trace_form_det(*triple)
    assert trace_form_disc(a, a * q, b) == 0 == trace_form_det(a, a * q, b)


def test_trace_form_disc_canonical_and_basis_triples():
    checked = 0
    for n in range(-2000, 2001):
        if not is_tame(n):
            continue
        conj = generator(n, *canonical_pair(n)).element.conjugates()
        basis = build(n)
        triple = (FieldElement.rational(n, 1), basis.phi, basis.psi)
        assert trace_form_disc(*conj) == trace_form_det(*conj), n
        assert trace_form_disc(*triple) == trace_form_det(*triple), n
        checked += 1
    assert checked == 2816


def test_root_identities_exact():
    # rho^2 rho' + rho'^2 rho'' + rho''^2 rho = 3 and its companions
    for n in (-9, -1, 1, 5, 12, 66, 286):
        p, q, r = rho(n).conjugates()
        assert (p * p * q + q * q * r + r * r * p).as_rational() == 3
        assert (p * p * r + q * q * p + r * r * q).as_rational() == -(n * n + 3 * n + 6)


def test_delta_and_cube_congruences():
    # Delta = 0 and n^3 = 27 modulo c^3 e^2
    for n in range(-300, 300):
        dec = decompose(n)
        mod = dec.c**3 * dec.e**2
        assert dec.delta % mod == 0
        assert (n**3 - 27) % mod == 0


@given(field_params, rationals, rationals, rationals)
@settings(max_examples=80, deadline=None)
def test_min_poly_annihilates(n, r0, r1, r2):
    x = from_coeffs(n, r0, r1, r2)
    mp = x.min_poly()
    value = x * x * x + x * x * mp.p2 + x * mp.p1 + FieldElement.rational(n, mp.p0)
    assert value == FieldElement.rational(n, 0)


def test_min_poly_trace_invariance():
    x = from_coeffs(23, Fraction(2, 5), -3, Fraction(7, 2))
    assert x.sigma().min_poly() == x.min_poly()
    assert x.sigma().trace() == x.trace()
    assert norm(x.sigma()) == norm(x)


def test_monic_cubic_reflection():
    f = MonicCubic.of(1, -80, 125)
    g = f.reflected()
    assert (g.p2, g.p1, g.p0) == (-1, -80, -125)


def test_numeric_roots_basic():
    with mpmath.workprec(300):
        roots = numeric_roots(-1, 256)
        # f_{-1} = X^3 + X^2 - 2X - 1, root sum = -1
        assert abs(sum(roots) + 1) < mpmath.mpf(2) ** -240
        for n in (1, 12, 286, -100):
            roots = numeric_roots(n, 256)
            prod = roots[0] * roots[1] * roots[2]
            assert abs(prod - 1) < mpmath.mpf(2) ** -230
            # sigma-cycle ordering
            for i in range(3):
                assert abs(roots[(i + 1) % 3] + 1 / (1 + roots[i])) < mpmath.mpf(2) ** -230
            assert roots[0] == max(roots)


def test_numeric_roots_certified_residual():
    with mpmath.workprec(300):
        for n in (1, 500, -2000):
            roots = numeric_roots(n, 256)
            for r in roots:
                residual = abs(((r - n) * r - (n + 3)) * r - 1)
                assert residual < mpmath.mpf(2) ** -200


def test_numeric_roots_match_polyroots():
    # polyroots (complex Durand-Kerner iteration) is the independent reference.
    samples = [(n, 128) for n in range(-300, 301)]
    samples += [(n, 256) for n in (10**11, -(10**11), 10**18 + 1)]
    found = {}
    for n, bits in samples:
        roots = numeric_roots(n, bits)
        with mpmath.workprec(bits + 32 + n.bit_length()):
            tol = mpmath.mpf(2) ** (8 - bits)
            reference = mpmath.polyroots([1, -n, -(n + 3), -1], maxsteps=100, extraprec=bits)
            reference = sorted((mpmath.re(r) for r in reference), reverse=True)
            assert max(abs(a - b) for a, b in zip(sorted(roots, reverse=True), reference)) < tol, n
            for i in range(3):  # sigma order, roots[i+1] = -1/(1 + roots[i])
                err = abs(roots[(i + 1) % 3] * (1 + roots[i]) + 1)
                assert err < (2 * abs(n) + 8) * tol, n
        found[n] = roots
    # X^3*f_n(1/X) = -f_(-n-3)(X): the mirror field has the reciprocal roots.
    with mpmath.workprec(160):
        for n in range(-297, 298):
            for r in found[n]:
                assert min(abs(r * s - 1) for s in found[-n - 3]) < mpmath.mpf(2) ** -100, n


def test_numeric_roots_rejects_low_precision():
    with pytest.raises(ValueError):
        numeric_roots(1, 32)
