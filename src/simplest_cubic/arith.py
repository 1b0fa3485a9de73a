"""Exact integer arithmetic: factorization and cube/square-free splits.

Everything here works on arbitrary-precision Python ints and is fully
deterministic, so factorizations can be used in golden tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Deterministic Miller-Rabin witness bound for the 12-prime base set.
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981

_TRIAL_LIMIT = 10**6


def is_prime(n: int) -> bool:
    """Primality test, deterministic for n < 3.3e24 (12-witness Miller-Rabin).

    Beyond that bound a strong Lucas test is added (Baillie-PSW); no
    composite passing the combination is known.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n < _MR_DETERMINISTIC_BOUND:
        return True
    return _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    # Selfridge parameter choice; n is odd, not a perfect square here.
    r = math.isqrt(n)
    if r * r == n:
        return False
    D = 5
    while _jacobi(D, n) != -1:
        D = -(D + 2) if D > 0 else -(D - 2)
    Q = (1 - D) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    U, V, Qk = 0, 2, 1
    for bit in bin(d)[2:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = (U + V) % n * pow(2, -1, n) % n, (D * U + V) % n * pow(2, -1, n) % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if V == 0:
            return True
    return False


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of composite n, deterministic (fixed seeds)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"pollard rho failed on {n}")


@dataclass(frozen=True)
class Factorization:
    """Prime factorization with strictly increasing primes."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev or e < 1:
                raise ValueError(f"malformed factorization of {self.value}")
            prod *= p**e
            prev = p
        if prod != self.value:
            raise ValueError(f"factors do not multiply back to {self.value}")

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return "·".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)


def factor(n: int) -> Factorization:
    """Factor n >= 1 by trial division to 1e6, then Pollard rho."""
    if n < 1:
        raise ValueError(f"cannot factor {n}: need n >= 1")
    m = n
    found: dict[int, int] = {}
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
            found[p] = found.get(p, 0) + 1
    p = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while p <= _TRIAL_LIMIT and p * p <= m:
        while m % p == 0:
            m //= p
            found[p] = found.get(p, 0) + 1
        p += wheel[i]
        i = (i + 1) % 8
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(n, tuple(sorted(found.items())))


def cube_free_split(delta: int) -> tuple[int, int]:
    """Split delta = b * c^3 with b cube-free and c maximal."""
    if delta < 1:
        raise ValueError(f"need delta >= 1, got {delta}")
    b, c = 1, 1
    for p, e in factor(delta).factors:
        b *= p ** (e % 3)
        c *= p ** (e // 3)
    return b, c


def square_free_split(b: int) -> tuple[int, int]:
    """Split cube-free b = d * e^2 with d, e square-free and coprime."""
    if b < 1:
        raise ValueError(f"need b >= 1, got {b}")
    d, e = 1, 1
    for p, k in factor(b).factors:
        if k >= 3:
            raise ValueError(f"{b} is not cube-free (divisible by {p}^{k})")
        if k == 2:
            e *= p
        else:
            d *= p
    return d, e

