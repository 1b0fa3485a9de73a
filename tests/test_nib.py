import dataclasses
from fractions import Fraction

import pytest

from golden_data import NIB_286, NIB_66, element_of, poly_of
from reference import legendre3
from simplest_cubic.cubic_field import trace_form_disc
from simplest_cubic.invariants import WildRamificationError, conductor, decompose, is_tame
from simplest_cubic.nib import (
    all_generators,
    epsilon,
    generator,
    m_value,
    min_poly_closed,
    special_forms,
    verify_nib,
)


def test_epsilon_examples():
    assert epsilon(286, 2, 3) == -1
    assert epsilon(66, 5, 7) == -1
    assert epsilon(12, 1, -1) == 1


def test_epsilon_rejects_invalid_pairs():
    with pytest.raises(ValueError):
        epsilon(286, 1, 1)  # norm 1 != e*c = 7
    with pytest.raises(ValueError):
        epsilon(286, 1, 3)  # norm 7 but does not divide A_286
    with pytest.raises(WildRamificationError):
        epsilon(9, 1, 0)


def test_m_value_examples():
    assert m_value(286, 2, 3, -1) == -493
    assert m_value(66, 5, 7, -1) == -303
    assert m_value(12, 1, -1, 1) == 3


def test_m_value_divisibility_error():
    with pytest.raises(ArithmeticError):
        m_value(286, 2, 3, 1)  # wrong epsilon: numerator not divisible by 3


def test_generator_golden_examples():
    g = generator(286, 2, 3)
    assert g.element.coeffs == (Fraction(-499, 49), Fraction(-859, 49), Fraction(3, 49))
    assert (g.min_poly.p2, g.min_poly.p1, g.min_poly.p0) == (1, -80, 125)
    g = generator(66, -7, -2)
    assert g.element.coeffs == (Fraction(163, 117), Fraction(127, 117), Fraction(-2, 117))
    g = generator(5, 1, 3)
    assert g.epsilon == -1 and g.m == -9
    assert g.element.coeffs == (Fraction(-15, 7), Fraction(-17, 7), Fraction(3, 7))


def test_all_generators_golden_tables():
    for n, table in ((286, NIB_286), (66, NIB_66)):
        gens = all_generators(n)
        assert len(gens) == 6
        for g, (pair, period, minpoly) in zip(gens, table):
            assert g.pair == pair
            assert g.element == element_of(n, period)
            assert g.min_poly == poly_of(minpoly)


def test_all_generators_rejects_wild():
    for n in (0, 3, 9, 30):
        with pytest.raises(WildRamificationError):
            all_generators(n)


def test_trio_structure():
    for n in (-20, 1, 5, 12, 66, 235, 286):
        gens = all_generators(n)
        traces = [g.element.trace() for g in gens]
        assert sorted(traces) == [-1, -1, -1, 1, 1, 1]
        first, second = gens[:3], gens[3:]
        assert len({(g.min_poly.p2, g.min_poly.p1, g.min_poly.p0) for g in first}) == 1
        assert second[0].min_poly == first[0].min_poly.reflected()
        # conjugate trio: same minimal polynomial, elements related by sigma
        assert first[0].element.sigma() == first[1].element
        assert first[1].element.sigma() == first[2].element
        assert second[0].element == -first[0].element


def test_min_poly_closed_examples():
    mp = min_poly_closed(286, 2, 3, -493, -1)
    assert (mp.p2, mp.p1, mp.p0) == (1, -80, 125)
    mp = min_poly_closed(12, 1, -1, 3, 1).reflected()
    assert (mp.p2, mp.p1, mp.p0) == (1, -2, -1)
    g = generator(5, 1, 3)
    assert min_poly_closed(5, 1, 3, -9, -1) == g.min_poly


def test_min_poly_closed_equals_direct_for_all_pairs():
    for n in (-35, 7, 41, 66, 100, 286):
        if not is_tame(n):
            continue
        for g in all_generators(n):
            closed = min_poly_closed(n, g.a0, g.a1, g.m, g.epsilon)
            assert closed == g.min_poly
            assert closed.reflected() == (-g.element).min_poly()


def test_disc_oracle_per_generator():
    for n in (5, 41, 66, 286):
        inv = conductor(n)
        for g in all_generators(n):
            conj = g.element.conjugates()
            assert trace_form_disc(*conj) == inv.discriminant


def test_special_forms():
    sf = special_forms(1)
    assert sf.kind == "f" and sf.pair == (1, 0)
    assert (sf.poly_minus.p2, sf.poly_minus.p1, sf.poly_minus.p0) == (1, -4, 1)
    sf = special_forms(39)
    assert sf.kind == "h"
    assert (sf.poly_minus.p2, sf.poly_minus.p1, sf.poly_minus.p0) == (1, -20, -9)
    sf = special_forms(2)
    assert sf.kind == "g"
    assert special_forms(286) is None
    assert special_forms(66) is None  # Delta/27 = 169 not square-free


def test_special_forms_match_general_pipeline():
    for n in range(-200, 200):
        sf = special_forms(n)
        if sf is None:
            continue
        a0, a1 = sf.pair
        g = generator(n, a0, a1)
        assert g.element == sf.element
        assert g.m == sf.m
        assert g.epsilon == 1  # all three corollary cases normalize to eps = +1
        assert sf.poly_plus == min_poly_closed(n, a0, a1, sf.m, 1)
        assert sf.poly_plus == g.element.min_poly()
        assert sf.poly_minus == (-g.element).min_poly()


def test_corollary44_linear_generator_iff_squarefree():
    for n in range(-300, 300):
        if n % 3 == 0:
            continue
        dec = decompose(n)
        square_free = dec.e == 1 and dec.c == 1
        linear = [g for g in all_generators(n) if g.a1 == 0]
        if square_free:
            assert len(linear) == 2
            for g in linear:
                w = g.a0
                assert w in (1, -1)
                assert g.m == w * (legendre3(n) - n) // 3
        else:
            assert not linear


def test_verify_nib_negative_controls():
    g = generator(286, 2, 3)
    assert verify_nib(g).all_ok
    for field, delta_ in (("a0", 1), ("a0", -1), ("a1", 1), ("a1", -1),
                          ("m", 1), ("m", -1), ("epsilon", 2), ("epsilon", -2)):
        bad = dataclasses.replace(g, **{field: getattr(g, field) + delta_})
        assert not verify_nib(bad).all_ok, (field, delta_)


def test_verify_nib_corrupted_m_fails_disc():
    g = generator(66, 5, 7)
    bad = dataclasses.replace(g, m=g.m + 1)
    report = verify_nib(bad)
    assert not report.disc_ok and not report.all_ok


def test_verify_nib_passes_on_golden_rows():
    for n, a0, a1 in ((286, -3, -1), (66, 2, -5)):
        report = verify_nib(generator(n, a0, a1))
        assert report.trace_ok and report.integral_ok
        assert report.disc_ok and report.closed_form_ok


def test_all_generators_rejects_a_wrong_conjugate_pair(monkeypatch):
    # The negated pair is a valid pair of the right norm, but its generator
    # is -alpha, not sigma(alpha): the pair-formula check must catch it.
    from simplest_cubic import nib

    monkeypatch.setattr(nib, "sigma_pair", lambda pair: (-pair[0], -pair[1]))
    for n in (286, 66, 12):
        with pytest.raises(ArithmeticError):
            all_generators(n)
