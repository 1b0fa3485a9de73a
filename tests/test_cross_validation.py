"""Cross-checks against independent implementations and wider fuzzing."""

import random

import pytest

from simplest_cubic.arith import factor
from simplest_cubic.eisenstein import (
    EisensteinInt,
    a_element,
    eis_gcd,
    find_pair,
)
from simplest_cubic.invariants import conductor, decompose, is_tame


def test_discriminant_against_maximal_order_oracle():
    """Field discriminants re-derived by an independent maximal-order routine."""
    basis_mod = pytest.importorskip("sympy.polys.numberfields.basis")
    from sympy import Poly, Symbol, ZZ

    x = Symbol("x")
    # tame, wild, gamma = 9, and rows absent from the reference tabulation
    for n in (-289, -30, -15, -6, 0, 1, 3, 5, 9, 12, 30, 41, 66, 100, 103,
              139, 152, 154, 188, 201, 235, 286, 356, 398):
        poly = Poly(x**3 - n * x**2 - (n + 3) * x - 1, x, domain=ZZ)
        _, disc = basis_mod.round_two(poly)
        assert disc == conductor(n).discriminant, n


def _valid_divisors(delta_factors):
    """Divisors s | Delta with 3-adic valuation <= 1 and split primes only."""
    divisors = [1]
    for p, e in delta_factors:
        cap = min(e, 1) if p == 3 else e
        divisors = [d * p**k for d in divisors for k in range(cap + 1)]
    return [d for d in divisors if d > 1]


def test_find_pair_on_all_valid_divisors():
    rng = random.Random(1729)
    ns = [n for n in range(-400, 400) if is_tame(n)]
    for n in rng.sample(ns, 60):
        dec = decompose(n)
        a_n = a_element(n)
        for s in _valid_divisors(dec.delta_factors.factors):
            # the canonical pair and its five unit multiples
            for u in EisensteinInt(*find_pair(n, s)).associates():
                assert u.x * u.x - u.x * u.y + u.y * u.y == s
                assert u.divides(a_n), (n, s, u.x, u.y)


def test_gcd_greatest_property():
    rng = random.Random(4242)
    for _ in range(200):
        g = EisensteinInt(rng.randint(-20, 20), rng.randint(-20, 20))
        a = EisensteinInt(rng.randint(-20, 20), rng.randint(-20, 20))
        b = EisensteinInt(rng.randint(-20, 20), rng.randint(-20, 20))
        if g.is_zero() or (a.is_zero() and b.is_zero()):
            continue
        d = eis_gcd(g * a, g * b)
        assert g.divides(d)  # every common divisor divides the gcd
        assert d.divides(g * a) and d.divides(g * b)


def test_prime_count_matches_factorization():
    for n in range(-200, 200):
        inv = conductor(n)
        assert inv.prime_count == len(factor(inv.conductor).factors)


def test_prime_power_pair_case():
    # Delta_20866 = 7^5 * 13 * 1993, so e = c = 7 and e*c = 49 forces the
    # construction through a squared prime: pi^2 must divide A_n.
    from simplest_cubic.gaussian import numeric_verify
    from simplest_cubic.nib import all_generators

    n = 20866
    dec = decompose(n)
    assert (dec.e, dec.c) == (7, 7)
    assert find_pair(n, 49) == (3, 8)
    a_n = a_element(n)
    gens = all_generators(n)  # verifies disc oracle + closed forms internally
    assert len(gens) == 6
    for a0, a1 in (g.pair for g in gens):
        assert a0 * a0 - a0 * a1 + a1 * a1 == 49
        assert EisensteinInt(a0, a1).divides(a_n)
    result = numeric_verify(n, 128)
    assert result.ok and result.residual < 2**-50
