import itertools
import math

import mpmath
import pytest

from golden_data import TABLE1, TABLE2, CONJUGATE_CONVENTION_ROWS, element_of, poly_of
from reference import from_coeffs, legendre3, mobius
from simplest_cubic.arith import factor
from simplest_cubic.cubic_field import FieldElement
from simplest_cubic.eisenstein import EisensteinInt, eis_gcd, from_int
from simplest_cubic.gaussian import (
    numeric_periods,
    numeric_verify,
    numeric_verify_auto,
    period_identity,
)
from simplest_cubic.invariants import WildRamificationError, conductor
from simplest_cubic.nib import all_generators, special_forms


def test_period_identity_examples():
    rep = period_identity(12)
    assert rep.period_element == element_of(12, (1, 9, 1, -14, -5))
    assert rep.min_poly == poly_of((1, -2, -1))
    rep = period_identity(286)
    assert rep.period_element == element_of(286, (-1, 49, 1, -284, -367))
    assert rep.min_poly == poly_of((1, -80, 125))
    # n = 66: same orbit as the source's printed conjugate, fixed convention
    rep = period_identity(66)
    assert rep.min_poly == poly_of((1, -4, 1))
    reference = element_of(66, (1, 117, 7, -464, -317))
    mine = rep.period_element
    assert mine in (reference, reference.sigma(), reference.sigma().sigma())
    # the six generators, when given, give the same report
    for n in (1, 39, 66, 286):
        assert period_identity(n, all_generators(n)) == period_identity(n), n


def test_period_identity_rejects_wild():
    for n in (0, 3, 9, 30):
        with pytest.raises(WildRamificationError):
            period_identity(n)


def test_period_sign_structure():
    for n in (-20, 1, 12, 66, 235, 286, 299):
        rep = period_identity(n)
        inv = conductor(n)
        mu = mobius(inv.conductor)
        assert rep.sign == (1 if rep.prime_count % 2 == 0 else -1) * rep.epsilon
        assert rep.period_element.trace() == mu
        assert rep.min_poly.p2 == -mu  # X^2 coefficient is -trace


def test_period_element_is_a_generator_conjugate():
    for n in (5, 41, 66, 100, 235, 286):
        rep = period_identity(n)
        gens = all_generators(n)
        assert any(rep.period_element == g.element for g in gens)


def test_golden_periods_up_to_conjugation():
    for table in (TABLE1, TABLE2):
        for n, (_, _, period, minpoly) in table.items():
            rep = period_identity(n)
            assert rep.min_poly == poly_of(minpoly), n
            reference = element_of(n, period)
            orbit = (reference, reference.sigma(), reference.sigma().sigma())
            assert rep.period_element in orbit, n
            if n not in CONJUGATE_CONVENTION_ROWS:
                assert rep.period_element == reference, n


def test_corollary_forms_examples():
    # 286 and 66 have no closed form; 1 (Lehmer, t odd) and 39 (h) do
    assert special_forms(286) is None and special_forms(66) is None
    assert special_forms(1).kind in ("f", "g")
    assert (legendre3(1) - 1) // 3 == 0  # v_1
    rep = period_identity(1)
    assert rep.period_element.coeffs == (0, -1, 0)  # eta = -rho
    assert rep.min_poly == poly_of((1, -4, 1))
    assert special_forms(39).kind == "h"
    assert period_identity(39).min_poly == poly_of((1, -20, -9))


def test_corollary_forms_agree_with_period_identity():
    # 3 not dividing n and Delta_n square-free (Lehmer): eta = (-1)^t*(n/3)*(v_n + rho),
    # v_n = ((n/3) - n)/3.  n = 12 (mod 27) and Delta_n/27 square-free:
    # eta = (-1)^(t+1)/9*(rho^2 - (n+2)*rho - 5).  The minimal polynomial is the
    # f/g/h polynomial of sign (-1)^t.
    for n in range(-150, 150):
        sf = special_forms(n)
        if sf is None:
            continue
        rep = period_identity(n)
        mu = 1 if rep.prime_count % 2 == 0 else -1
        if sf.kind in ("f", "g"):
            v = (legendre3(n) - n) // 3
            expected = from_coeffs(n, v, 1, 0) * (mu * legendre3(n))
        else:
            expected = FieldElement(n, (5, n + 2, -1), 9) * mu
        assert rep.period_element == expected, n
        assert rep.min_poly == (sf.poly_plus if mu == 1 else sf.poly_minus), n


def test_lehmer_special_case_eq_1_4():
    # Delta square-free: +-eta_0 = rho + ((n/3) - n)/3
    lehmer = [n for n in range(-150, 150)
              if (sf := special_forms(n)) is not None and sf.kind in ("f", "g")]
    assert {1, 2, -1, 7, 13} <= set(lehmer)
    for n in lehmer:
        v = (legendre3(n) - n) // 3
        base = from_coeffs(n, v, 1, 0)
        assert period_identity(n).period_element in (base, -base), n


def test_numeric_periods_f7_and_f13():
    subgroups = numeric_periods(7, 128)
    assert len(subgroups) == 1
    with mpmath.workprec(160):
        _, vals = subgroups[0]
        e1 = sum(vals)
        e2 = vals[0] * vals[1] + vals[1] * vals[2] + vals[2] * vals[0]
        e3 = vals[0] * vals[1] * vals[2]
        assert abs(e1 + 1) < mpmath.mpf(2) ** -100
        assert abs(e2 + 2) < mpmath.mpf(2) ** -100
        assert abs(e3 - 1) < mpmath.mpf(2) ** -100  # X^3+X^2-2X-1
        _, vals = numeric_periods(13, 128)[0]
        e1 = sum(vals)
        e2 = vals[0] * vals[1] + vals[1] * vals[2] + vals[2] * vals[0]
        e3 = vals[0] * vals[1] * vals[2]
        assert abs(e1 + 1) < mpmath.mpf(2) ** -100
        assert abs(e2 + 4) < mpmath.mpf(2) ** -100
        assert abs(e3 + 1) < mpmath.mpf(2) ** -100  # X^3+X^2-4X+1


def test_numeric_periods_subgroup_counts():
    # f = 91 = 7 * 13: quotient by cubes is C3 x C3, two full-conductor planes
    assert len(numeric_periods(91, 96)) == 2


def test_numeric_periods_rejections():
    with pytest.raises(ValueError):
        numeric_periods(9, 128)  # not square-free
    with pytest.raises(ValueError):
        numeric_periods(10, 128)  # 3 does not divide phi
    with pytest.raises(ValueError):
        numeric_periods(14, 128)  # 7 = 1 (mod 3), but 2 is not
    with pytest.raises(ValueError):
        numeric_periods(1, 128)


def test_numeric_verify_examples():
    for n in (12, 235, 498):
        result = numeric_verify(n, 256)
        assert result.ok
        assert result.residual < 2**-100
        assert result.subgroup is not None


def test_numeric_verify_convergence():
    r128 = numeric_verify(66, 128)
    r256 = numeric_verify(66, 256)
    assert r128.ok and r256.ok
    assert r256.residual < r128.residual


def test_numeric_verify_auto():
    result = numeric_verify_auto(201, 256)
    assert result.ok and result.precision_bits == 256


def test_numeric_verify_rejects_wild():
    with pytest.raises(WildRamificationError):
        numeric_verify(30, 128)


def direct_periods(f: int, precision_bits: int) -> list[tuple[str, list[mpmath.mpf]]]:
    """Reference: the O(f) sum of exp(2*pi*i*h/f) over each coset of (Z/fZ)^*,
    for f < 10^5 a product of primes = 1 (mod 3).

    A coset is read off the cubic residue class of h modulo each prime;
    the rotation z <- z*zeta over h < f drifts by at most f^2 ulps, which
    64 guard bits cover for f < 10^5.
    """
    primes = factor(f).primes()
    assert f < 10**5 and all(p % 3 == 1 for p in primes)
    classes = []
    for p in primes:
        g = next(g for g in range(2, p) if all(
            pow(g, (p - 1) // q, p) != 1 for q in factor(p - 1).primes()))
        w = pow(g, (p - 1) // 3, p)
        classes.append((p, {1: 0, w: 1, w * w % p: 2}))
    lambdas = [(1,) + rest for rest in itertools.product((1, 2), repeat=len(primes) - 1)]
    with mpmath.workprec(precision_bits + 64):
        zeta = mpmath.expjpi(mpmath.mpf(2) / f)
        sums = {lam: [mpmath.mpf(0)] * 3 for lam in lambdas}
        z = mpmath.mpc(1)
        for h in range(1, f):
            z *= zeta
            if math.gcd(h, f) != 1:
                continue
            vec = [tab[pow(h, (p - 1) // 3, p)] for p, tab in classes]
            for lam in lambdas:
                sums[lam][sum(c * v for c, v in zip(lam, vec)) % 3] += z.real
    return [
        ("chi" + "".join(f" {p}^{c}" for p, c in zip(primes, lam)), sums[lam])
        for lam in lambdas
    ]


def test_numeric_periods_match_direct_sum():
    cases = [(f, (96, 256)) for f in (7, 13, 91, 1561, 50491, 2821, 4123, 48307)]
    cases += [(241, (96, 256, 1024)), (20011, (96, 256, 1024)), (99991, (96,))]
    for f, precisions in cases:
        reference = direct_periods(f, max(precisions))
        for bits in precisions:
            got = numeric_periods(f, bits)
            assert [d for d, _ in got] == [d for d, _ in reference], (f, bits)
            with mpmath.workprec(bits + 64):
                err = max(
                    abs(a - b)
                    for (_, mine), (_, ref) in zip(got, reference)
                    for a, b in zip(mine, ref)
                )
            assert err < mpmath.mpf(2) ** -bits, (f, bits, err)


def primary_prime(p: int) -> EisensteinInt:
    """The prime pi = x + y*zeta over p = 1 (mod 3) with pi = 2 (mod 3)."""
    r = next(r for r in range(p) if (r * r + r + 1) % p == 0)
    pi = eis_gcd(from_int(p), EisensteinInt(r, -1))
    assert pi.norm() == p
    (primary,) = [u for u in pi.associates() if u.x % 3 == 2 and u.y % 3 == 0]
    return primary


def test_period_polynomials_exact():
    # y = 3*eta - mu(f) is a root of y^3 - 3f*y - 2f*Re(prod pi_i^(lam_i)),
    # from g(chi_pi)^3 = p*pi (pi primary) and |G|^2 = f.
    polys = {}
    for f in (7, 13, 91, 241, 1729, 4123):
        primes = factor(f).primes()
        pis = [primary_prime(p) for p in primes]
        exact = set()
        for lam in itertools.product((1, 2), repeat=len(primes) - 1):
            prod = pis[0]
            for c, pi in zip(lam, pis[1:]):
                prod = prod * (pi if c == 1 else pi.conj())
            exact.add((0, -3 * f, -f * (2 * prod.x - prod.y)))  # 2*Re(x + y*zeta)
            # Its discriminant 108f^3 - 27(f*(2x - y))^2 is 81*f^2*y^2 >= 81*f^2.
            assert 108 * f**3 - 27 * (f * (2 * prod.x - prod.y)) ** 2 == 81 * f**2 * prod.y**2
            assert prod.y != 0
        numeric = set()
        mu = mobius(f)
        with mpmath.workprec(160):
            for _, etas in numeric_periods(f, 128):
                # The gap the printed period's pick relies on.
                assert min(abs(a - b) for a, b in itertools.combinations(etas, 2)) >= 3 / 16
                y = [3 * eta - mu for eta in etas]
                approx = [-(y[0] + y[1] + y[2]),
                          y[0] * y[1] + y[1] * y[2] + y[2] * y[0],
                          -(y[0] * y[1] * y[2])]
                rounded = tuple(int(mpmath.nint(c)) for c in approx)
                assert max(abs(c - r) for c, r in zip(approx, rounded)) < 2**-64
                numeric.add(rounded)
        assert numeric == exact, f
        polys[f] = exact
    assert polys[7] == {(0, -21, -7)}  # y^3 - 21y - 7
    assert len(polys[1729]) == 4
