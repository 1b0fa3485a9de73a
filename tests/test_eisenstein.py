import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplest_cubic.eisenstein import (
    EisensteinInt,
    ZETA,
    a_element,
    canonical_associate,
    eis_gcd,
    find_pair,
    from_int,
    sigma_pair,
)
from simplest_cubic.invariants import decompose, is_tame
from simplest_cubic.nib import all_generators

small_ints = st.integers(min_value=-1000, max_value=1000)


def test_ring_basics():
    one = from_int(1)
    x = EisensteinInt(5, -7)
    assert one * x == x
    assert (x + (-x)).is_zero()
    assert ZETA * ZETA * ZETA == one
    assert (ZETA * ZETA + ZETA + one).is_zero()


def test_norm_of_a_element():
    assert a_element(286).norm() == 82663
    for n in (-50, -1, 0, 1, 5, 66, 286):
        assert a_element(n).norm() == n * n + 3 * n + 9


def test_conj_example():
    # conj(1 + 3z) = 1 + 3z^2 = -2 - 3z
    assert EisensteinInt(1, 3).conj() == EisensteinInt(-2, -3)


@given(small_ints, small_ints, small_ints, small_ints)
@settings(max_examples=200, deadline=None)
def test_norm_multiplicative(x1, y1, x2, y2):
    a, b = EisensteinInt(x1, y1), EisensteinInt(x2, y2)
    assert (a * b).norm() == a.norm() * b.norm()
    assert a.conj().norm() == a.norm()


@given(small_ints, small_ints, small_ints, small_ints)
@settings(max_examples=200, deadline=None)
def test_divmod_norm_decreases(x1, y1, x2, y2):
    a, b = EisensteinInt(x1, y1), EisensteinInt(x2, y2)
    if b.is_zero():
        return
    q, r = a.divmod_nearest(b)
    assert a == q * b + r
    assert r.norm() < b.norm()


def test_gcd_examples():
    alpha = EisensteinInt(4, 7)
    assert eis_gcd(alpha, EisensteinInt(0, 0)) == alpha
    g = eis_gcd(from_int(7), a_element(286))
    assert g.norm() == 7
    # 5 is inert and coprime to A_1 (norm 13)
    assert eis_gcd(from_int(5), a_element(1)).is_unit()
    with pytest.raises(ValueError):
        eis_gcd(EisensteinInt(0, 0), EisensteinInt(0, 0))


@given(small_ints, small_ints, small_ints, small_ints)
@settings(max_examples=150, deadline=None)
def test_gcd_divides_both(x1, y1, x2, y2):
    a, b = EisensteinInt(x1, y1), EisensteinInt(x2, y2)
    if a.is_zero() and b.is_zero():
        return
    g = eis_gcd(a, b)
    assert g.divides(a) and g.divides(b)


def test_sigma_pair_is_zeta_multiplication():
    for pair in ((2, 3), (5, 7), (1, -1)):
        elem = EisensteinInt(*pair)
        assert EisensteinInt(*sigma_pair(pair)) == ZETA * elem


def test_find_pair_golden():
    # The six pairs are formed only by all_generators, from the canonical one.
    assert find_pair(286, 7) == (2, 3)
    assert {g.pair for g in all_generators(286)} == {
        (2, 3), (-2, -3), (3, 1), (-3, -1), (-1, 2), (1, -2)
    }
    assert find_pair(66, 39) == (5, 7)
    assert {g.pair for g in all_generators(66)} == {
        (5, 7), (-5, -7), (7, 2), (-7, -2), (2, -5), (-2, 5)
    }
    assert (1, 3) in [g.pair for g in all_generators(5)]


def test_find_pair_divides_a_n():
    for n in range(-120, 120):
        if not is_tame(n):
            continue
        dec = decompose(n)
        pairs = [g.pair for g in all_generators(n)]
        assert find_pair(n, dec.e * dec.c) == pairs[0]
        a_n = a_element(n)
        for p, q in pairs:
            assert p * p - p * q + q * q == dec.e * dec.c
            assert EisensteinInt(p, q).divides(a_n), (n, p, q)


def test_find_pair_mod27_three_adic_shape():
    # 3 || e*c forces 3 coprime to a0, a1 and dividing a0 + a1
    for n in range(12, 700, 27):
        for a0, a1 in (g.pair for g in all_generators(n)):
            assert a0 % 3 != 0 and a1 % 3 != 0 and (a0 + a1) % 3 == 0


def test_find_pair_rejections():
    with pytest.raises(ValueError):
        find_pair(286, 5)  # 5 does not divide Delta_286
    with pytest.raises(ValueError):
        find_pair(66, 9)  # 9 | s has no primitive pair
    with pytest.raises(ValueError):
        find_pair(12, 63)  # 63 | Delta_12 * ... but 9 | 63


def test_canonical_associate_nonnegative():
    for x, y in ((2, 3), (-3, -1), (1, -2), (-5, -6), (9, -2)):
        a0, a1 = canonical_associate(EisensteinInt(x, y))
        assert a0 >= 0 and a1 >= 0
        assert (a0, a1) in [(u.x, u.y) for u in EisensteinInt(x, y).associates()]
    assert canonical_associate(EisensteinInt(0, -1)) == (1, 0)
