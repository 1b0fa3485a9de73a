"""Exact arithmetic in Z[zeta], zeta a primitive cube root of unity.

Elements are written x + y*zeta with zeta^2 + zeta + 1 = 0.  The ring is
norm-Euclidean (norm x^2 - xy + y^2), units are {1, -1, zeta, -zeta,
zeta^2, -zeta^2}, and a rational prime p = 1 (mod 3) splits into two
conjugate primes.  The prime over p dividing A_n = (n+3) + 3*zeta is
extracted with a Euclidean gcd; that is exactly the factor needed to build
the pairs (a0, a1) with a0^2 - a0*a1 + a1^2 = s and (a0 + a1*zeta) | A_n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import factor


def _round_nearest(a: int, b: int) -> int:
    """Round a/b (b > 0) to the nearest integer, ties toward +infinity."""
    return (2 * a + b) // (2 * b)


@dataclass(frozen=True)
class EisensteinInt:
    """x + y*zeta in Z[zeta]."""

    x: int
    y: int

    def __add__(self, other: "EisensteinInt") -> "EisensteinInt":
        return EisensteinInt(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "EisensteinInt") -> "EisensteinInt":
        return EisensteinInt(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "EisensteinInt":
        return EisensteinInt(-self.x, -self.y)

    def __mul__(self, other: "EisensteinInt") -> "EisensteinInt":
        # (x1 + y1 z)(x2 + y2 z) with z^2 = -1 - z
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        return EisensteinInt(x1 * x2 - y1 * y2, x1 * y2 + y1 * x2 - y1 * y2)

    def __pow__(self, k: int) -> "EisensteinInt":
        if k < 0:
            raise ValueError("negative powers not defined in Z[zeta]")
        result = EisensteinInt(1, 0)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conj(self) -> "EisensteinInt":
        """Complex conjugate (zeta -> zeta^2): (x - y) - y*zeta."""
        return EisensteinInt(self.x - self.y, -self.y)

    def norm(self) -> int:
        return self.x * self.x - self.x * self.y + self.y * self.y

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    def associates(self) -> list["EisensteinInt"]:
        """All six unit multiples of self."""
        out = []
        u = self
        for _ in range(3):
            out.append(u)
            out.append(-u)
            u = u * ZETA
        return out

    def divmod_nearest(self, other: "EisensteinInt") -> tuple["EisensteinInt", "EisensteinInt"]:
        """q, r with self = q*other + r and norm(r) < norm(other)."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Z[zeta]")
        nb = other.norm()
        num = self * other.conj()
        q = EisensteinInt(_round_nearest(num.x, nb), _round_nearest(num.y, nb))
        r = self - q * other
        return q, r

    def divides(self, other: "EisensteinInt") -> bool:
        """True iff self | other in Z[zeta]."""
        if self.is_zero():
            return other.is_zero()
        _, r = other.divmod_nearest(self)
        return r.is_zero()

    def __str__(self) -> str:
        return f"{self.x}{self.y:+}ζ"


ONE = EisensteinInt(1, 0)
ZETA = EisensteinInt(0, 1)
LAMBDA = EisensteinInt(1, -1)  # 1 - zeta, the ramified prime over 3


def from_int(k: int) -> EisensteinInt:
    return EisensteinInt(k, 0)


def a_element(n: int) -> EisensteinInt:
    """A_n = n + 3(1 + zeta) = (n+3) + 3*zeta, of norm Delta_n."""
    return EisensteinInt(n + 3, 3)


def eis_gcd(a: EisensteinInt, b: EisensteinInt) -> EisensteinInt:
    """Euclidean gcd in Z[zeta], unique up to units; rejects gcd(0, 0)."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero():
        _, r = a.divmod_nearest(b)
        a, b = b, r
    return a


def sigma_pair(pair: tuple[int, int]) -> tuple[int, int]:
    """Multiplication by zeta: the pair of sigma(alpha) for a generator alpha."""
    a0, a1 = pair
    return (-a1, a0 - a1)


def canonical_associate(elem: EisensteinInt) -> tuple[int, int]:
    """Deterministic associate choice: lex-least with both coordinates >= 0.

    A closed 120-degree cone always contains at least two of the six
    associates, so the choice is total.  Unit elements normalize to (1, 0)
    so that rational generators print in the v + w*rho shape.
    """
    if elem.is_unit():
        return (1, 0)
    candidates = [(u.x, u.y) for u in elem.associates() if u.x >= 0 and u.y >= 0]
    return min(candidates)


def find_pair(n: int, s: int) -> tuple[int, int]:
    """The canonical pair (a0, a1) with a0^2 - a0*a1 + a1^2 = s and (a0 + a1*zeta) | A_n.

    The construction multiplies (1 - zeta)^j (j the 3-adic valuation of s,
    at most 1) by gcd(p, A_n)^v for each p^v || s with p = 1 (mod 3).
    """
    a_n = a_element(n)
    delta = a_n.norm()
    if s <= 0 or delta % s != 0:
        raise ValueError(f"s = {s} does not divide Delta_{n} = {delta}")
    elem = ONE
    for p, v in factor(s).factors:
        if p == 3:
            if v > 1:
                raise ValueError(f"9 | s = {s}: no primitive pair exists")
            elem = elem * LAMBDA
            continue
        if p % 3 != 1:
            raise ValueError(f"prime {p} | s is inert in Z[zeta]; no pair exists")
        pi = eis_gcd(from_int(p), a_n)
        if pi.norm() != p:
            raise ValueError(f"prime {p} does not split along A_{n}")
        elem = elem * pi**v
    if not elem.divides(a_n):
        # Cannot happen when s | Delta_n: A_n and its conjugate share no
        # split prime, so the full prime power divides A_n.  Kept as a guard.
        raise ArithmeticError(f"constructed element for s = {s} does not divide A_{n}")
    canon = canonical_associate(elem)
    if EisensteinInt(*canon).norm() != s:
        raise ArithmeticError("canonical pair norm mismatch; arithmetic bug")
    return canon
