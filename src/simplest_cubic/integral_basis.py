"""Integral basis {1, phi, psi} of L_n for tame n.

With Delta_n = d*e^2*c^3 and a shift t (t = u*n for 3 inverse u mod e^2*c^3
when 3 does not divide n, t = n/3 when n = 12 mod 27), the basis is

    phi = (rho - t)/c,
    psi = (rho^2 + (t - n)*rho + t^2 - n*t - n - 3)/(c^2 * e).

Verification is structural: the Hambleton-Williams congruences (specialized
to g = f_n, s = c, a = e) plus the trace-form discriminant equalling the
field discriminant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cubic_field import FieldElement, trace_form_disc
from .invariants import FieldInvariants, conductor, require_tame


@dataclass(frozen=True)
class CongruenceReport:
    """The three conditions f''(t)/2 = 0 (c), f'(t) = 0 (c^2 e), f(t) = 0 (c^3 e^2)."""

    mod_c: bool
    mod_c2e: bool
    mod_c3e2: bool

    @property
    def all_ok(self) -> bool:
        return self.mod_c and self.mod_c2e and self.mod_c3e2


@dataclass(frozen=True)
class IntegralBasis:
    n: int
    t: int
    u: int | None
    phi: FieldElement
    psi: FieldElement
    invariants: FieldInvariants


def shift(n: int) -> tuple[int, int | None]:
    """The shift t of the integral basis; u is the 3-inverse used (None if 3 | n)."""
    require_tame(n)
    dec = conductor(n).decomposition
    if n % 3 != 0:
        u = pow(3, -1, dec.e**2 * dec.c**3)
        return u * n, u
    return n // 3, None


def check_congruences(n: int, t: int) -> CongruenceReport:
    """Evaluate the three integrality congruences for the shift t."""
    require_tame(n)
    dec = conductor(n).decomposition
    c, e = dec.c, dec.e
    f_t = t**3 - n * t**2 - (n + 3) * t - 1
    df_t = 3 * t**2 - 2 * n * t - (n + 3)
    half_ddf_t = 3 * t - n
    return CongruenceReport(
        mod_c=half_ddf_t % c == 0,
        mod_c2e=df_t % (c * c * e) == 0,
        mod_c3e2=f_t % (c**3 * e**2) == 0,
    )


def build(n: int) -> IntegralBasis:
    """Construct and verify the integral basis of L_n (tame n only)."""
    inv = conductor(n)
    require_tame(n)
    dec = inv.decomposition
    c, e = dec.c, dec.e
    t, u = shift(n)
    report = check_congruences(n, t)
    if not report.all_ok:
        raise ArithmeticError(f"integrality congruences failed for n={n}, t={t}: {report}")
    phi = FieldElement(n, (-t, 1, 0), c)
    psi = FieldElement(n, (t * t - n * t - n - 3, t - n, 1), c * c * e)
    for elem in (phi, psi):
        if not elem.min_poly().is_integral():
            raise ArithmeticError(f"basis element of L_{n} is not an algebraic integer")
    one = FieldElement.rational(n, 1)
    disc = trace_form_disc(one, phi, psi)
    if disc != inv.discriminant:
        raise ArithmeticError(
            f"trace-form discriminant {disc} != field discriminant {inv.discriminant} for n={n}"
        )
    return IntegralBasis(n=n, t=t, u=u, phi=phi, psi=psi, invariants=inv)
