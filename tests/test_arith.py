import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import legendre3, mobius
from simplest_cubic.arith import cube_free_split, factor, is_prime, square_free_split


def brute_mobius(n: int) -> int:
    for p in range(2, n + 1):
        if p * p > n:
            break
        if n % (p * p) == 0:
            return 0
    count = 0
    m = n
    for p in range(2, n + 1):
        if m == 1:
            break
        if m % p == 0:
            count += 1
            while m % p == 0:
                m //= p
    return -1 if count % 2 else 1


def test_factor_examples():
    assert factor(1).factors == ()
    assert factor(82663).factors == ((7, 3), (241, 1))
    assert factor(55939).factors == ((13, 2), (331, 1))


def test_factor_rejects_nonpositive():
    with pytest.raises(ValueError):
        factor(0)
    with pytest.raises(ValueError):
        factor(-5)


def test_factor_reassembles_and_primes():
    for n in range(1, 3000):
        fac = factor(n)
        value = 1
        for p, e in fac.factors:
            assert is_prime(p)
            value *= p**e
        assert value == n


def test_factor_deterministic():
    big = 82663 * 55939 * 1000003
    assert factor(big).factors == factor(big).factors


def test_factor_large_semiprime():
    p, q = 1000003, 1000033
    assert factor(p * q).factors == ((p, 1), (q, 1))


def test_cube_free_split_examples():
    assert cube_free_split(82663) == (241, 7)
    assert cube_free_split(189) == (7, 3)
    assert cube_free_split(1) == (1, 1)


def test_square_free_split_examples():
    with pytest.raises(ValueError):
        square_free_split(4563)  # 3^3 * 169 is not cube-free
    assert square_free_split(507) == (3, 13)
    assert square_free_split(169) == (1, 13)


def test_splits_roundtrip():
    for delta in list(range(1, 2000)) + [82663, 55939, 41013]:
        b, c = cube_free_split(delta)
        assert b * c**3 == delta
        d, e = square_free_split(b)
        assert d * e**2 * c**3 == delta
        assert brute_mobius(d) != 0 and brute_mobius(e) != 0


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(241) == -1
    assert mobius(4303) == 1
    with pytest.raises(ValueError):
        mobius(0)


def test_mobius_brute_force_agreement():
    for n in range(1, 10**4 + 1):
        assert mobius(n) == brute_mobius(n), n


def test_legendre3():
    assert legendre3(1) == 1
    assert legendre3(286) == 1
    assert legendre3(235) == 1
    assert legendre3(0) == 0
    assert legendre3(-1) == -1
    assert legendre3(5) == -1


@given(st.integers(min_value=1, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_factor_roundtrip_random(n):
    fac = factor(n)
    value = 1
    for p, e in fac.factors:
        value *= p**e
    assert value == n
