"""Field invariants of the simplest cubic field L_n.

For an integer n put Delta_n = n^2 + 3n + 9.  Delta_n factors canonically as
d * e^2 * c^3 (b = d*e^2 cube-free, d and e square-free and coprime), the
conductor is gamma * prod(p | b, p != 3) with gamma in {1, 9}, and the field
discriminant is the square of the conductor.  L_n/Q is tamely ramified (and
has a normal integral basis) exactly when 3 does not divide n or
n = 12 (mod 27).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arith import Factorization, cube_free_split, factor, square_free_split


class WildRamificationError(ValueError):
    """Raised when an operation requiring a tame L_n is given a wild n."""


@dataclass(frozen=True)
class DeltaDecomposition:
    """Delta_n = n^2 + 3n + 9 = b*c^3 = d*e^2*c^3 with its factorization."""

    n: int
    delta: int
    b: int
    c: int
    d: int
    e: int
    delta_factors: Factorization

    def __post_init__(self) -> None:
        if self.delta != self.n**2 + 3 * self.n + 9:
            raise ValueError("delta does not match n")
        if self.b * self.c**3 != self.delta or self.d * self.e**2 != self.b:
            raise ValueError("decomposition does not multiply back")
        for p, _ in self.delta_factors.factors:
            if p % 3 == 2:
                raise ArithmeticError(
                    f"prime {p} = 2 (mod 3) divides Delta_{self.n}; arithmetic bug"
                )


@dataclass(frozen=True)
class FieldInvariants:
    decomposition: DeltaDecomposition
    gamma: int
    conductor: int
    discriminant: int
    tame: bool
    prime_count: int
    conductor_factors: Factorization

    @property
    def n(self) -> int:
        return self.decomposition.n


def delta(n: int) -> int:
    """Delta_n = n^2 + 3n + 9 (always positive)."""
    return n**2 + 3 * n + 9


def is_tame(n: int) -> bool:
    """True iff L_n/Q is tamely ramified: 3 does not divide n, or n = 12 (mod 27)."""
    return n % 3 != 0 or n % 27 == 12


@lru_cache(maxsize=1 << 16)
def decompose(n: int) -> DeltaDecomposition:
    """Canonical decomposition Delta_n = d * e^2 * c^3."""
    dl = delta(n)
    fac = factor(dl)
    b, c = cube_free_split(dl)
    d, e = square_free_split(b)
    return DeltaDecomposition(n=n, delta=dl, b=b, c=c, d=d, e=e, delta_factors=fac)


@lru_cache(maxsize=1 << 16)
def conductor(n: int) -> FieldInvariants:
    """Conductor, discriminant, tameness and conductor prime count of L_n."""
    dec = decompose(n)
    tame = is_tame(n)
    gamma = 1 if tame else 9
    f = gamma
    for p, _ in factor(dec.b).factors:
        if p != 3:
            f *= p
    cf = factor(f)
    return FieldInvariants(
        decomposition=dec,
        gamma=gamma,
        conductor=f,
        discriminant=f * f,
        tame=tame,
        prime_count=len(cf.factors),
        conductor_factors=cf,
    )


def require_tame(n: int) -> None:
    if not is_tame(n):
        raise WildRamificationError(
            f"L_{n} is wildly ramified (3 | n and n != 12 mod 27): no NIB exists"
        )
