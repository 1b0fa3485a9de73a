"""String rendering for elements, polynomials and factorizations.

Conventions (all byte-stable):
  elements     -(1/49)(ρ^2-284ρ-367), (1/9)(ρ^2-14ρ-5), ρ-95, -ρ, 3
               over the {1, ρ, ρ^2} basis with one common denominator and
               a positive leading printed coefficient;
  polynomials  X^3+X^2-80X+125 in sparse descending order;
  factored     3^3·7·163 with ascending primes.
"""

from __future__ import annotations

from fractions import Fraction

from .cubic_field import FieldElement, MonicCubic

RHO = "ρ"


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _term(coeff: int, power: int, symbol: str) -> str:
    if power == 0:
        return str(coeff)
    mag = "" if coeff == 1 else str(coeff)
    var = symbol if power == 1 else f"{symbol}^{power}"
    return mag + var


def format_element(elem: FieldElement, symbol: str = RHO) -> str:
    """Render over {1, rho, rho^2} with common denominator, leading sign pulled out."""
    num, den = elem.num, elem.den
    if num == (0, 0, 0):
        return "0"
    if num[1] == 0 and num[2] == 0:
        return format_rational(Fraction(num[0], den))
    lead = next(c for c in (num[2], num[1], num[0]) if c != 0)
    sign = -1 if lead < 0 else 1
    body = [sign * c for c in num]
    parts: list[str] = []
    for power in (2, 1, 0):
        c = body[power]
        if c == 0:
            continue
        if not parts:
            parts.append(_term(c, power, symbol))
        elif c > 0:
            parts.append("+" + _term(c, power, symbol))
        else:
            parts.append("-" + _term(-c, power, symbol))
    inner = "".join(parts)
    prefix = "-" if sign < 0 else ""
    if den != 1:
        return f"{prefix}(1/{den})({inner})"
    if len(parts) > 1 and sign < 0:
        return f"-({inner})"
    return prefix + inner


def format_poly(poly: MonicCubic, symbol: str = "X") -> str:
    """Sparse descending rendering of a monic cubic."""
    out = f"{symbol}^3"
    for coeff, power in ((poly.p2, 2), (poly.p1, 1), (poly.p0, 0)):
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        if mag.denominator == 1:
            body = _term(int(mag), power, symbol)
        else:
            var = "" if power == 0 else (symbol if power == 1 else f"{symbol}^{power}")
            body = f"({mag.numerator}/{mag.denominator}){var}"
        out += sign + body
    return out


def format_integer_factored(value: int, shown: str) -> str:
    """"82663=7^3·241" from the factorization string shown, plain when prime or 1."""
    return str(value) if shown == str(value) else f"{value}={shown}"
