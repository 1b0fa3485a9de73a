"""Exact arithmetic in the simplest cubic field L_n = Q(rho_n).

rho_n is a root of X^3 - n*X^2 - (n+3)*X - 1, which has three real roots.
Elements are stored over the basis {1, rho, rho^2} as an integer coordinate
triple with a common positive denominator, kept in lowest terms.  The
Galois action is sigma(rho) = rho^2 - (n+1)*rho - 2, with sigma^3 = id and
sigma(rho) = -1/(1 + rho) on every real root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

Rational = Fraction | int


@dataclass(frozen=True)
class MonicCubic:
    """X^3 + p2*X^2 + p1*X + p0 with exact rational coefficients."""

    p2: Fraction
    p1: Fraction
    p0: Fraction

    @staticmethod
    def of(p2: Rational, p1: Rational, p0: Rational) -> "MonicCubic":
        return MonicCubic(Fraction(p2), Fraction(p1), Fraction(p0))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in (self.p2, self.p1, self.p0))

    def reflected(self) -> "MonicCubic":
        """-F(-X): the minimal polynomial of the negated roots."""
        return MonicCubic(-self.p2, self.p1, -self.p0)

    def coefficients(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """Dense descending coefficients (1, p2, p1, p0)."""
        return (Fraction(1), self.p2, self.p1, self.p0)

    def __call__(self, x):
        return ((x + self.p2) * x + self.p1) * x + self.p0


def shanks_polynomial(n: int) -> MonicCubic:
    """The defining cubic X^3 - n*X^2 - (n+3)*X - 1."""
    return MonicCubic.of(-n, -(n + 3), -1)


class FieldElement:
    """An element of L_n with exact rational coordinates over {1, rho, rho^2}."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, num: tuple[int, int, int], den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num = (-num[0], -num[1], -num[2])
            den = -den
        g = math.gcd(math.gcd(num[0], num[1]), math.gcd(num[2], den))
        if g > 1:
            num = (num[0] // g, num[1] // g, num[2] // g)
            den //= g
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("FieldElement is immutable")

    @staticmethod
    def from_coeffs(n: int, r0: Rational, r1: Rational, r2: Rational) -> "FieldElement":
        f0, f1, f2 = Fraction(r0), Fraction(r1), Fraction(r2)
        den = math.lcm(f0.denominator, f1.denominator, f2.denominator)
        return FieldElement(
            n,
            (
                int(f0 * den),
                int(f1 * den),
                int(f2 * den),
            ),
            den,
        )

    @staticmethod
    def rational(n: int, r: Rational) -> "FieldElement":
        f = Fraction(r)
        return FieldElement(n, (f.numerator, 0, 0), f.denominator)

    @staticmethod
    def rho(n: int) -> "FieldElement":
        return FieldElement(n, (0, 1, 0))

    @property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction]:
        return (
            Fraction(self.num[0], self.den),
            Fraction(self.num[1], self.den),
            Fraction(self.num[2], self.den),
        )

    def _check(self, other: "FieldElement") -> None:
        if self.n != other.n:
            raise ValueError(f"mixed fields L_{self.n} and L_{other.n}")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        a, b = self, other
        return FieldElement(
            a.n,
            (
                a.num[0] * b.den + b.num[0] * a.den,
                a.num[1] * b.den + b.num[1] * a.den,
                a.num[2] * b.den + b.num[2] * a.den,
            ),
            a.den * b.den,
        )

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.n, (-self.num[0], -self.num[1], -self.num[2]), self.den)

    def __mul__(self, other) -> "FieldElement":
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return FieldElement(
                self.n,
                (
                    self.num[0] * f.numerator,
                    self.num[1] * f.numerator,
                    self.num[2] * f.numerator,
                ),
                self.den * f.denominator,
            )
        self._check(other)
        n = self.n
        a0, a1, a2 = self.num
        b0, b1, b2 = other.num
        c0 = a0 * b0
        c1 = a0 * b1 + a1 * b0
        c2 = a0 * b2 + a1 * b1 + a2 * b0
        c3 = a1 * b2 + a2 * b1
        c4 = a2 * b2
        # rho^3 = n*rho^2 + (n+3)*rho + 1
        # rho^4 = (n^2+n+3)*rho^2 + (n^2+3n+1)*rho + n
        c2 += c4 * (n * n + n + 3) + c3 * n
        c1 += c4 * (n * n + 3 * n + 1) + c3 * (n + 3)
        c0 += c4 * n + c3
        return FieldElement(n, (c0, c1, c2), self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.n == other.n
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.n, self.num, self.den))

    def __repr__(self) -> str:
        return f"FieldElement(n={self.n}, num={self.num}, den={self.den})"

    def is_zero(self) -> bool:
        return self.num == (0, 0, 0)

    def is_rational(self) -> bool:
        return self.num[1] == 0 and self.num[2] == 0

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def sigma(self) -> "FieldElement":
        """Apply the Galois generator rho -> rho^2 - (n+1)*rho - 2."""
        s1, s2 = _sigma_images(self.n)
        out = s1 * self.num[1] + s2 * self.num[2]
        return FieldElement(
            self.n,
            (self.num[0] * out.den + out.num[0], out.num[1], out.num[2]),
            self.den * out.den,
        )

    def conjugates(self) -> tuple["FieldElement", "FieldElement", "FieldElement"]:
        b = self.sigma()
        return (self, b, b.sigma())

    def trace(self) -> Fraction:
        # Tr(1, rho, rho^2) = (3, n, n^2 + 2n + 6)
        n = self.n
        return Fraction(
            3 * self.num[0] + n * self.num[1] + (n * n + 2 * n + 6) * self.num[2],
            self.den,
        )

    def norm(self) -> Fraction:
        a, b, c = self.conjugates()
        return (a * b * c).as_rational()

    def min_poly(self) -> MonicCubic:
        """Minimal polynomial from the exact conjugates (the oracle path)."""
        a, b, c = self.conjugates()
        e1 = self.trace()
        ab = a * b
        e2 = (ab + (b + a) * c).as_rational()
        e3 = (ab * c).as_rational()
        return MonicCubic(-e1, e2, -e3)

    def eval_at(self, x):
        """Numeric value with rho replaced by x (float/mpf/mpc)."""
        return ((self.num[2] * x + self.num[1]) * x + self.num[0]) / self.den


@lru_cache(maxsize=None)
def _sigma_images(n: int) -> tuple[FieldElement, FieldElement]:
    s1 = FieldElement(n, (-2, -(n + 1), 1))
    return s1, s1 * s1


def symmetric_functions(n: int, a0: int, a1: int, m: int) -> tuple[int, int, int]:
    """Trace, sum of pairwise products and norm of a0*rho + a1*rho' + m, integers.

    With q = a0^2 - a0*a1 + a1^2 (Lemma 4.2 of the paper).
    """
    q = a0 * a0 - a0 * a1 + a1 * a1
    e1 = n * (a0 + a1) + 3 * m
    e2 = a0 * a1 * n**2 + 2 * (a0 + a1) * m * n - q * (n + 3) + 3 * m**2
    e3 = (
        a0 * a1 * m * n**2
        - a0**2 * a1 * n * (n + 3)
        + (a0 + a1) * m**2 * n
        - q * m * (n + 3)
        + a0 * a1 * (a0 - a1) * (n**2 + 3 * n + 6)
        + a0**3
        + a1**3
        + m**3
        - 3 * a0**2 * a1
    )
    return e1, e2, e3


def lemma42(r1: Rational, r2: Rational, r3: Rational, n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Closed-form symmetric functions of eta = r1*rho + r2*rho' + r3.

    Returns (e1, e2, e3) with e1 the trace, e2 the sum of pairwise products
    and e3 the norm: ``symmetric_functions`` of d*(r1, r2, r3), d the common
    denominator, scaled back by d, d^2 and d^3.
    """
    r = (Fraction(r1), Fraction(r2), Fraction(r3))
    d = math.lcm(*(x.denominator for x in r))
    e1, e2, e3 = symmetric_functions(n, *(x.numerator * (d // x.denominator) for x in r))
    return Fraction(e1, d), Fraction(e2, d * d), Fraction(e3, d**3)


def trace_form_disc(b1: FieldElement, b2: FieldElement, b3: FieldElement) -> Fraction:
    """det[Tr(b_i * b_j)], the trace-form discriminant of the triple."""
    b1._check(b2)
    b1._check(b3)
    basis = (b1, b2, b3)
    prods = {}
    for i in range(3):
        for j in range(i, 3):
            prods[(i, j)] = (basis[i] * basis[j]).trace()
    m = [[prods[(min(i, j), max(i, j))] for j in range(3)] for i in range(3)]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _root_brackets(n: int) -> tuple[tuple[int, int], ...]:
    """Integer intervals, in descending order, on which f_n changes sign.

    For n >= 0: f_n(-2) = -2n-3, f_n(-1) = 1, f_n(0) = -1,
    f_n(n+1) = -2n-3 and f_n(n+2) = (n+1)(n+2) - 1.  For n <= -3 the roots
    are the reciprocals of those of f_(-n-3) (X^3*f_m(1/X) = -f_(-m-3)(X)),
    so one lies in each of (0, 1) and (-1, 0), and f_n(n) = -n^2-3n-1 < 0 <
    f_n(n+1) = -2n-3 places the third.  n = -1 and n = -2 mirror each
    other, so neither follows from n >= 0; their intervals come from the
    same sign checks.
    """
    if n >= 0:
        return ((n + 1, n + 2), (-1, 0), (-2, -1))
    if n == -1:
        return ((1, 2), (-1, 0), (-2, -1))
    if n == -2:
        return ((0, 1), (-1, 0), (-3, -2))
    return ((0, 1), (-1, 0), (n, n + 1))


def _fixed_point_root(n: int, lo: int, hi: int, bits: int) -> int:
    """The root of f_n in (lo, hi) times 2^bits, within a few units.

    With x = X/2^bits, F(X) = 2^(3*bits)*f_n(x) and D(X) = 2^(2*bits)*f_n'(x)
    are exact integers, so bisection on sign(F) is exact and a Newton step
    is X - F(X)//D(X).  Bisection narrows the interval to 2^-32, where the
    root is simple and |f''/2f'| is below 2 for every n, so each Newton step
    doubles the correct bits.
    """
    one = 1 << bits
    a, b, c = n * one, (n + 3) * one * one, one * one * one

    def f(x: int) -> int:
        return ((x - a) * x - b) * x - c

    lo, hi = lo * one, hi * one
    rising = f(hi) > 0
    while hi - lo > one >> 32:
        mid = (lo + hi) >> 1
        if (f(mid) > 0) == rising:
            hi = mid
        else:
            lo = mid
    x = lo
    for _ in range((bits // 32).bit_length() + 1):
        x -= f(x) // ((3 * x - 2 * a) * x - b)
    return x


def numeric_roots(n: int, precision_bits: int = 256) -> list[mpmath.mpf]:
    """The three real roots of the defining cubic, sigma-cycle ordered.

    roots[0] is the largest real root and roots[i+1] = -1/(1 + roots[i]),
    so the ordering realizes the Galois action numerically.  Each root is
    isolated on an integer interval and refined in exact integer fixed
    point, then certified to error below 2^(-precision_bits + 8).
    """
    if precision_bits < 64:
        raise ValueError("precision_bits must be at least 64")
    work = precision_bits + max(64, abs(n).bit_length() + 16)
    with mpmath.workprec(work):
        roots = [
            mpmath.ldexp(_fixed_point_root(n, lo, hi, work), -work)
            for lo, hi in _root_brackets(n)
        ]
        roots.sort(reverse=True)
        ordered = [roots[0]]
        pool = roots[1:]
        for _ in range(2):
            target = -1 / (1 + ordered[-1])
            best = min(pool, key=lambda r: abs(r - target))
            pool.remove(best)
            ordered.append(best)
        bound = mpmath.mpf(2) ** (-precision_bits + 8)
        for x in ordered:
            fx = ((x - n) * x - (n + 3)) * x - 1
            dfx = (3 * x - 2 * n) * x - (n + 3)
            if abs(fx / dfx) >= bound / 4:
                raise ArithmeticError(
                    f"root certification failed for n={n} at {precision_bits} bits"
                )
        return [mpmath.mpf(x) for x in ordered]
