import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplest_cubic.invariants import (
    WildRamificationError,
    conductor,
    decompose,
    delta,
    is_tame,
    require_tame,
)


def test_delta_examples():
    assert delta(0) == 9
    assert delta(286) == 82663
    assert delta(66) == 4563


def test_decompose_examples():
    d = decompose(286)
    assert (d.d, d.e, d.c) == (241, 1, 7)
    d = decompose(66)
    assert (d.d, d.e, d.c) == (1, 13, 3)
    d = decompose(5)
    assert d.delta == 49 and (d.d, d.e, d.c) == (1, 7, 1)


def test_decompose_structure():
    for n in range(-300, 300):
        d = decompose(n)
        assert d.delta == n * n + 3 * n + 9 > 0
        assert d.b * d.c**3 == d.delta
        assert d.d * d.e**2 == d.b
        import math

        assert math.gcd(d.d, d.e) == 1


def test_lemma_p01_primes_of_delta():
    for n in range(-500, 500):
        for p, _ in decompose(n).delta_factors.factors:
            assert p % 3 in (0, 1), (n, p)


def test_conductor_examples():
    inv = conductor(286)
    assert inv.conductor == 241 and inv.discriminant == 241**2
    assert conductor(66).conductor == 13
    assert conductor(66).discriminant == 169
    assert conductor(235).conductor == 13 * 331


def test_discriminant_is_conductor_squared():
    for n in range(-200, 200):
        inv = conductor(n)
        assert inv.discriminant == inv.conductor**2


def test_tame_gamma_and_square_free():
    from reference import mobius

    for n in range(-200, 200):
        inv = conductor(n)
        assert inv.tame == (n % 3 != 0 or n % 27 == 12)
        assert inv.gamma == (1 if inv.tame else 9)
        # Hilbert-Speiser: tame iff conductor square-free
        assert inv.tame == (mobius(inv.conductor) != 0)


def test_is_tame_examples():
    assert is_tame(286)
    assert not is_tame(3)
    assert is_tame(12)
    assert not is_tame(0)
    assert is_tame(-15)  # -15 = 12 (mod 27)
    with pytest.raises(WildRamificationError):
        require_tame(30)


def test_mod27_case_three_valuation():
    # 3^3 || Delta and 3 || c whenever n = 12 (mod 27)
    for n in range(12, 1000, 27):
        d = decompose(n)
        assert d.delta % 27 == 0 and d.delta % 81 != 0
        assert d.c % 3 == 0 and d.c % 9 != 0


def test_prime_count():
    assert conductor(286).prime_count == 1
    assert conductor(299).prime_count == 3
    assert conductor(235).prime_count == 2


@given(st.integers(min_value=-10**6, max_value=10**6))
@settings(max_examples=300, deadline=None)
def test_mirror_symmetry(n):
    assert delta(n) == delta(-n - 3)
    assert conductor(n).conductor == conductor(-n - 3).conductor
    assert is_tame(n) == is_tame(-n - 3)
