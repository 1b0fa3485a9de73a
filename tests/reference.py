"""Reference formulas the tests state results with.

The program needs none of these; they are kept here, small and direct, so
that a test reads like the statement it checks.
"""

import math
from fractions import Fraction

from simplest_cubic.arith import factor
from simplest_cubic.cubic_field import FieldElement, MonicCubic


def legendre3(n: int) -> int:
    """Legendre symbol (n/3): 0 if 3 | n, +1 if n = 1 mod 3, -1 otherwise."""
    r = n % 3
    return 0 if r == 0 else (1 if r == 1 else -1)


def mobius(n: int) -> int:
    """Möbius function: (-1)^k on square-free n with k prime factors, else 0."""
    if n < 1:
        raise ValueError(f"mobius needs n >= 1, got {n}")
    fac = factor(n)
    if any(e > 1 for _, e in fac.factors):
        return 0
    return -1 if len(fac.factors) % 2 else 1


def shanks_polynomial(n: int) -> MonicCubic:
    """The defining cubic X^3 - n*X^2 - (n+3)*X - 1."""
    return MonicCubic.of(-n, -(n + 3), -1)


def rho(n: int) -> FieldElement:
    """rho_n as an element of L_n."""
    return FieldElement(n, (0, 1, 0))


def from_coeffs(n: int, r0, r1, r2) -> FieldElement:
    """r0 + r1*rho + r2*rho^2 for rationals r_i."""
    f = [Fraction(r) for r in (r0, r1, r2)]
    den = math.lcm(*(x.denominator for x in f))
    return FieldElement(n, tuple(int(x * den) for x in f), den)


def norm(x: FieldElement) -> Fraction:
    """The product of the three conjugates."""
    a, b, c = x.conjugates()
    return (a * b * c).as_rational()


def trace_form_det(b1: FieldElement, b2: FieldElement, b3: FieldElement) -> Fraction:
    """det[Tr(b_i * b_j)] as a 3x3 determinant of Fraction traces."""
    basis = (b1, b2, b3)
    m = [[(basis[i] * basis[j]).trace() for j in range(3)] for i in range(3)]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
