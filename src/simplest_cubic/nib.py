"""All normal integral basis generators of a tame simplest cubic field.

For a pair (a0, a1) with a0^2 - a0*a1 + a1^2 = e*c and (a0 + a1*zeta) | A_n,
the element

    alpha = (a0*rho + a1*rho' + m) / (e*c^2),
    m = (eps*e*c^2 - n*(a0 + a1)) / 3,

is a generator of a normal integral basis, where eps in {-1, +1} is
n*(a0+a1) mod 3 if 3 does not divide n and a0 mod 3 if n = 12 (mod 27).
The six unit-associate pairs give all six generators, +-sigma^k(alpha) for
one alpha.  ``generator`` takes the closed-form minimal polynomial and
verifies alpha against the trace-form discriminant oracle and the polynomial
of its exact conjugates (independent routes); ``all_generators`` checks the
other five against the pair formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .eisenstein import PairSet, a_element, find_pair, sigma_pair, EisensteinInt
from .cubic_field import FieldElement, MonicCubic, symmetric_functions, trace_form_disc
from .invariants import conductor, require_tame


@dataclass(frozen=True)
class NibGenerator:
    """One NIB generator with its defining data and minimal polynomial."""

    n: int
    a0: int
    a1: int
    epsilon: int
    m: int
    element: FieldElement
    min_poly: MonicCubic

    @property
    def pair(self) -> tuple[int, int]:
        return (self.a0, self.a1)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the four independent checks on a generator."""

    trace_ok: bool
    integral_ok: bool
    disc_ok: bool
    closed_form_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.trace_ok and self.integral_ok and self.disc_ok and self.closed_form_ok


def _require_valid_pair(n: int, a0: int, a1: int, e: int, c: int) -> None:
    s = a0 * a0 - a0 * a1 + a1 * a1
    if s != e * c:
        raise ValueError(f"pair ({a0},{a1}) has norm {s}, expected e*c = {e * c}")
    if not EisensteinInt(a0, a1).divides(a_element(n)):
        raise ValueError(f"{a0}{a1:+}ζ does not divide A_{n}")


def epsilon(n: int, a0: int, a1: int) -> int:
    """The trace sign of the generator for the pair (a0, a1)."""
    require_tame(n)
    inv = conductor(n)
    _require_valid_pair(n, a0, a1, inv.decomposition.e, inv.decomposition.c)
    if n % 3 != 0:
        r = n * (a0 + a1) % 3
    else:
        r = a0 % 3
    if r == 0:
        raise ArithmeticError(
            f"epsilon undefined for n={n}, pair ({a0},{a1}): residue 0 mod 3 "
            "cannot occur for a valid pair"
        )
    return 1 if r == 1 else -1


def m_value(n: int, a0: int, a1: int, eps: int) -> int:
    """m = (eps*e*c^2 - n*(a0 + a1)) / 3, asserting exact divisibility."""
    dec = conductor(n).decomposition
    numerator = eps * dec.e * dec.c**2 - n * (a0 + a1)
    if numerator % 3 != 0:
        raise ArithmeticError(
            f"3 does not divide {numerator} for n={n}, pair ({a0},{a1}): invalid input"
        )
    return numerator // 3


def _element(n: int, a0: int, a1: int, m: int, e: int, c: int) -> FieldElement:
    """(a1*rho^2 + (a0 - a1*n - a1)*rho + m - 2*a1) / (e*c^2)."""
    return FieldElement(n, (m - 2 * a1, a0 - a1 * n - a1, a1), e * c * c)


def min_poly_closed(n: int, a0: int, a1: int, m: int, eps: int) -> MonicCubic:
    """Closed-form minimal polynomial of alpha = (a0*rho + a1*rho' + m) / (e*c^2).

    Its X^2 coefficient is -eps; the other two are ``symmetric_functions``
    (Lemma 4.2) scaled by (e*c^2)^2 and (e*c^2)^3.  -alpha has the
    ``reflected()`` polynomial.
    """
    dec = conductor(n).decomposition
    d = dec.e * dec.c**2
    _, e2, e3 = symmetric_functions(n, a0, a1, m)
    return MonicCubic(Fraction(-eps), Fraction(e2, d * d), Fraction(-e3, d**3))


def verify_nib(g: NibGenerator) -> VerificationReport:
    """Re-check a generator: trace, integrality, disc oracle, closed form."""
    inv = conductor(g.n)
    dec = inv.decomposition
    elem = _element(g.n, g.a0, g.a1, g.m, dec.e, dec.c)
    conj = elem.conjugates()
    tr = elem.trace()
    trace_ok = tr == g.epsilon and abs(tr) == 1
    direct = MonicCubic(-tr, ((conj[0] * conj[1]) + (conj[0] + conj[1]) * conj[2]).as_rational(),
                        -(conj[0] * conj[1] * conj[2]).as_rational())
    integral_ok = direct.is_integral()
    disc_ok = trace_form_disc(*conj) == inv.discriminant
    try:
        closed = min_poly_closed(g.n, g.a0, g.a1, g.m, g.epsilon)
        closed_form_ok = closed == direct and g.min_poly == direct and g.element == elem
    except (ValueError, ArithmeticError):
        closed_form_ok = False
    return VerificationReport(trace_ok, integral_ok, disc_ok, closed_form_ok)


def generator(n: int, a0: int, a1: int) -> NibGenerator:
    """Build and verify the NIB generator for one pair."""
    require_tame(n)
    dec = conductor(n).decomposition
    eps = epsilon(n, a0, a1)
    m = m_value(n, a0, a1, eps)
    g = NibGenerator(
        n=n,
        a0=a0,
        a1=a1,
        epsilon=eps,
        m=m,
        element=_element(n, a0, a1, m, dec.e, dec.c),
        min_poly=min_poly_closed(n, a0, a1, m, eps),
    )
    report = verify_nib(g)
    if not report.all_ok:
        raise ArithmeticError(f"generator verification failed for n={n}, pair ({a0},{a1}): {report}")
    return g


def canonical_pair(n: int) -> PairSet:
    """The canonical pair set for s = e*c (tame n)."""
    require_tame(n)
    dec = conductor(n).decomposition
    return find_pair(n, dec.e * dec.c)


def all_generators(n: int) -> list[NibGenerator]:
    """The six generators, ordered [c, σc, σ²c, -c, -σc, -σ²c] from the canonical pair.

    Only the canonical generator g0 goes through the four checks of
    ``generator``.  The others are its conjugates sigma^k(g0) (one minimal
    polynomial) and their negatives (the reflected polynomial); each is
    accepted only if the pair formula, with eps and m of the unit-multiplied
    pair, reproduces its element and its polynomial exactly.
    """
    p0 = canonical_pair(n).canonical
    g0 = generator(n, *p0)
    dec = conductor(n).decomposition
    p1 = sigma_pair(p0)
    p2 = sigma_pair(p1)
    trio = g0.element.conjugates()
    derived = [(p1, trio[1]), (p2, trio[2])] + [(_neg(p), -x) for p, x in zip((p0, p1, p2), trio)]
    out = [g0]
    for k, (pair, elem) in enumerate(derived):
        poly = g0.min_poly if k < 2 else g0.min_poly.reflected()
        eps = epsilon(n, *pair)
        m = m_value(n, *pair, eps)
        if _element(n, *pair, m, dec.e, dec.c) != elem or min_poly_closed(n, *pair, m, eps) != poly:
            raise ArithmeticError(f"pair {pair} does not give the conjugate {elem!r} for n={n}")
        out.append(NibGenerator(n, *pair, eps, m, elem, poly))
    return out


def _neg(pair: tuple[int, int]) -> tuple[int, int]:
    return (-pair[0], -pair[1])


@dataclass(frozen=True)
class SpecialForm:
    """A square-free-case generator with its f/g/h polynomial pair."""

    kind: str  # "f", "g" or "h"
    element: FieldElement
    pair: tuple[int, int]
    m: int
    poly_plus: MonicCubic
    poly_minus: MonicCubic


def closed_form_pair(n: int) -> tuple[int, int] | None:
    """The pair of the square-free closed-form generator, when one applies.

    (1, 0) for n = 1 (mod 3) and (-1, 0) for n = 2 (mod 3) when Delta_n is
    square-free; (1, -1) for n = 12 (mod 27) when Delta_n/27 is square-free.
    Its generator has eps = +1 (see ``special_forms``).
    """
    dec = conductor(n).decomposition
    if n % 3 != 0 and dec.e == 1 and dec.c == 1:
        return (1, 0) if n % 3 == 1 else (-1, 0)
    if n % 27 == 12 and dec.e == 1 and dec.c == 3:
        return (1, -1)
    return None


def special_forms(n: int) -> SpecialForm | None:
    """The f/g/h closed forms when the square-free hypotheses hold, else None.

    f: n = 1 (mod 3), Delta_n square-free, generator (1-n)/3 + rho.
    g: n = 2 (mod 3), Delta_n square-free, generator (1+n)/3 - rho.
    h: n = 12 (mod 27), Delta_n/27 square-free, generator (rho - rho' + 3)/9.
    """
    pair = closed_form_pair(n)
    if pair is None:
        return None
    if pair == (1, 0):
        kind, plus = "f", MonicCubic.of(
            -1, Fraction(-(n**2 + 3 * n + 8), 3), Fraction(-(2 * n**3 + 6 * n**2 + 18 * n + 1), 27)
        )
    elif pair == (-1, 0):
        kind, plus = "g", MonicCubic.of(
            -1, Fraction(-(n**2 + 3 * n + 8), 3), Fraction(2 * n**3 + 12 * n**2 + 36 * n + 53, 27)
        )
    else:
        kind, plus = "h", MonicCubic.of(
            -1, Fraction(-(n**2 + 3 * n - 18), 81), Fraction(4 * n**2 + 12 * n + 9, 729)
        )
    dec = conductor(n).decomposition
    m = m_value(n, *pair, 1)
    return SpecialForm(kind, _element(n, *pair, m, dec.e, dec.c), pair, m, plus, plus.reflected())
