"""Gaussian periods of L_n as signed NIB generators (tame n).

With conductor f = p_1 ... p_t (distinct primes), the periods eta_i are the
traces of exp(2*pi*i/f) from Q(zeta_f) to L_n.  They form one full Galois
orbit of NIB generators: eta_i = ((-1)^t * eps / (e*c^2)) *
(a0*rho^(i) + a1*rho^(i+1) + m) for the generator data (a0, a1, m, eps) of
any valid pair, and their shared minimal polynomial is F_+ when
eps = (-1)^t, else F_-.

Which of the three conjugate expressions to *print* is a pure numbering
convention: the identity only pins the period orbit, not which conjugate
is eta_0.  The convention here: when the square-free closed forms apply
they are printed; otherwise the printed conjugate is the one whose value
at the sigma^2-positioned real root equals the canonical period (the
coset of 1).  The independent oracle never relies on the convention: it
reconstructs the minimal polynomial from period sums over index-3
subgroups of (Z/fZ)^* and compares exactly after rounding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import mpmath

from .arith import factor
from .cubic_field import FieldElement, MonicCubic, numeric_roots
from .invariants import conductor, require_tame
from .nib import (
    NibGenerator,
    all_generators,
    canonical_pair,
    closed_form_pair,
    epsilon,
    generator,
)


# The highest precision numeric_verify_auto doubles up to.
PRECISION_CAP = 4096

# The most terms numeric_periods sums: sum of the primes of the conductor.
# Its memory and time are O(sum of p_i), about 1 byte and 1 us per term.
PERIOD_BUDGET = 10**8


class PrecisionInsufficientError(ArithmeticError):
    """The oracle's working precision cannot certify the period data."""


class PeriodBudgetError(ArithmeticError):
    """The periods of the conductor need more than PERIOD_BUDGET terms."""


@dataclass(frozen=True)
class GaussianReport:
    n: int
    prime_count: int
    epsilon: int
    sign: int
    canonical: tuple[int, int]
    display: NibGenerator
    min_poly: MonicCubic

    @property
    def period_element(self) -> FieldElement:
        return self.display.element


@dataclass(frozen=True)
class NumericVerification:
    ok: bool
    residual: float
    precision_bits: int
    subgroup: str | None


def _display_generator(n: int, mu: int, gens: list[NibGenerator] | None) -> NibGenerator:
    """The generator printed as "the" Gaussian period of L_n, mu = (-1)^t.

    ``gens`` are the six generators when the caller has built them.  In the
    square-free cases the display is the closed-form generator times mu,
    else it is matched numerically within the trio of eps = mu.
    """
    pair = closed_form_pair(n)
    if pair is None:
        trio = [g for g in gens or all_generators(n) if g.epsilon == mu]
        return _display_by_matching(n, trio)
    pair = (mu * pair[0], mu * pair[1])
    built = [g for g in gens or () if g.pair == pair]
    return built[0] if built else generator(n, *pair)


def _display_by_matching(n: int, trio: list[NibGenerator]) -> NibGenerator:
    """The trio member whose value at the sigma^2-positioned root is the
    period of the coset of 1, in one pass at bits = max(96, 3*L(f)//2,
    L(n) + 16), L the bit length.

    |eta| <= sqrt(f), so e3 < 2^(bits + 1/2) and the period polynomials
    rounded at bits + 32 are exact: the subgroup is the one whose polynomial
    is the trio's (distinct subgroups fix distinct fields).  With y = 3*eta
    - mu, the discriminant 81*f^2*y_pi^2 >= 81*f^2 and |y_i| <= 2*sqrt(f)
    part the eta by >= 3/16.  A member's derivative in rho is at most
    1.16*(|n| + 6) at the roots, which are within 2^(8 - bits), so its value
    moves by at most 0.032; its terms are below 36*2^(2*L(n)), evaluated at
    bits + 32 + 2*L(n).  So exactly one member lies within 3/32 of eta_0.
    """
    f = conductor(n).conductor
    bits = max(96, 3 * f.bit_length() // 2, n.bit_length() + 16)
    roots = numeric_roots(n, bits)
    want = [int(c) for c in trio[0].min_poly.coefficients()[1:]]
    for _, periods, rounded, _ in _period_polynomials(f, bits):
        if rounded == want:
            with mpmath.workprec(bits + 32 + 2 * n.bit_length()):
                gap = mpmath.mpf(3) / 32
                hits = [g for g in trio if abs(g.element.eval_at(roots[2]) - periods[0]) < gap]
            if len(hits) == 1:
                return hits[0]
    raise ArithmeticError(f"cannot identify the period conjugate for n={n} at {bits} bits")


def period_identity(n: int, gens: list[NibGenerator] | None = None) -> GaussianReport:
    """The Gaussian-period identification for tame n.

    The report carries the canonical pair, its trace sign eps, the global
    sign (-1)^t * eps, the printed generator (one fixed conjugate of the
    period orbit) and the period minimal polynomial.  ``gens`` are the six
    generators of ``all_generators(n)`` when the caller has them; the
    canonical pair, eps and the printed generator are then read off them
    rather than built again.
    """
    require_tame(n)
    if gens is None:
        pair = canonical_pair(n).canonical
        eps = epsilon(n, *pair)
    else:
        pair, eps = gens[0].pair, gens[0].epsilon
    t = conductor(n).prime_count
    mu = 1 if t % 2 == 0 else -1  # mu(f): the tame conductor is square-free
    display = _display_generator(n, mu, gens)
    if display.epsilon != mu or display.element.trace() != mu:
        raise ArithmeticError(f"period trace violation for n={n}; arithmetic bug")
    return GaussianReport(
        n=n,
        prime_count=t,
        epsilon=eps,
        sign=mu * eps,
        canonical=pair,
        display=display,
        min_poly=display.min_poly,
    )


def _primitive_root(p: int) -> int:
    qs = [q for q, _ in factor(p - 1).factors]
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in qs):
        g += 1
    return g


def _cube_cosets(p: int) -> bytearray:
    """coset[x] = j mod 3 for x = g^j mod p, g the least primitive root."""
    g = _primitive_root(p)
    coset = bytearray(p)
    x = 1
    for j in range(p - 1):
        coset[x] = j % 3
        x = x * g % p
    return coset


def _cubic_coset_sums(p: int, coset: bytearray, bits: int) -> list[mpmath.mpf]:
    """P_k = sum of exp(2*pi*i*x/p) over the x in cube coset k, k = 0, 1, 2.

    -1 is a cube mod p, so x and p - x share a coset and P_k is twice the
    sum of cos(2*pi*x/p) over the x <= (p-1)/2 in coset k.  zeta_p is walked
    in integer fixed point with b = bits + 2*bit_length(p) + 8 fraction bits:
    (X, Y) <- ((X*c - Y*s) >> b, (X*s + Y*c) >> b), with c, s = cos, sin(2*pi/p)
    scaled by 2^b and rounded to within 0.51.  One step moves the error
    vector by at most 0.73 (the rounding of c and s, a scaled rotation of
    norm <= 0.51*sqrt(2)) plus sqrt(2) (the two truncations), so after x
    steps |X - 2^b*cos(2*pi*x/p)| <= 2.2*x.  Summed over x <= (p-1)/2 and
    doubled, the three P_k together carry an error below 0.55*p^2 * 2^-b
    < 2^-(bits + 8).  The integer sums become mpf values only at the end.
    """
    b = bits + 2 * p.bit_length() + 8
    with mpmath.workprec(b + 16):
        theta = 2 * mpmath.pi / p
        c = int(mpmath.nint(mpmath.ldexp(mpmath.cos(theta), b)))
        s = int(mpmath.nint(mpmath.ldexp(mpmath.sin(theta), b)))
    x, y = 1 << b, 0
    sums = [0, 0, 0]
    for k in memoryview(coset)[1 : (p + 1) // 2]:
        x, y = (x * c - y * s) >> b, (x * s + y * c) >> b
        sums[k] += x
    # Exact: each sum has at most b + bit_length(p) + 1 bits.
    with mpmath.workprec(b + p.bit_length() + 2):
        return [mpmath.ldexp(2 * t, -b) for t in sums]


def numeric_periods(
    f: int, precision_bits: int = 256
) -> list[tuple[str, list[mpmath.mpf]]]:
    """Gaussian periods for every full-conductor index-3 subgroup of (Z/fZ)^*.

    f must be a product of distinct primes = 1 (mod 3).  Each entry is
    (description, [eta_0, eta_1, eta_2]) with eta_0 the coset of 1, one per
    dual vector lam = (1, lam_2, ..., lam_s), lam_i in {1, 2}: the subgroups
    whose fixed field has conductor exactly f, up to scaling lam.

    The subgroup with dual vector lam is the kernel of the cubic character
    chi = prod chi_i^lam_i, chi_i(g_i^j) = omega^j, and eta_k =
    (mu(f) + 2*Re(omega^-k * G)) / 3 for its Gauss sum G.  By CRT,
    G = prod chi_i^lam_i(f/p_i) * g(chi_i^lam_i), where g(chi_i) =
    P_0 + omega*P_1 + omega^2*P_2 from the coset sums P_k modulo p_i and
    g(chi_i^2) = conj(g(chi_i)).  So the work is O(sum of p_i), not O(f),
    and PeriodBudgetError is raised before any of it when the sum of the
    p_i exceeds PERIOD_BUDGET.  Each eta_k is within 2^-(precision_bits + 24).
    """
    fac = factor(f)
    primes = fac.primes()
    if f <= 1 or any(e > 1 for _, e in fac.factors) or any(p % 3 != 1 for p in primes):
        raise ValueError(f"f = {f} is not a product of distinct primes = 1 (mod 3)")
    terms = sum(primes)
    if terms > PERIOD_BUDGET:
        raise PeriodBudgetError(
            f"the periods of conductor {f} need {terms} terms, "
            f"over the budget of {PERIOD_BUDGET}"
        )
    lambdas = [(1,) + r for r in itertools.product((1, 2), repeat=len(primes) - 1)]
    # Callers work at precision_bits + 32.  |g(chi_j)| = sqrt(p_j), so an
    # error in g(chi_i) is magnified by sqrt(f/p_i) in G, which half of
    # bit_length(f) more guard bits covers.
    bits = precision_bits + 32 + f.bit_length() // 2
    factors = []
    for p in primes:
        coset = _cube_cosets(p)
        factors.append((_cubic_coset_sums(p, coset, bits), coset[f // p % p]))
    mu = (-1) ** len(primes)
    out = []
    with mpmath.workprec(bits):
        omega = mpmath.expjpi(mpmath.mpf(2) / 3)
        powers = [mpmath.mpc(1), omega, omega * omega]
        for lam in lambdas:
            gauss = mpmath.mpc(1)
            for c, (sums, v) in zip(lam, factors):
                # chi^c(f/p) * g(chi^c) = sum_k omega^(c*(k + v)) * P_k
                gauss *= sum(powers[c * (k + v) % 3] * sums[k] for k in range(3))
            periods = [(mu + 2 * mpmath.re(gauss * powers[-k % 3])) / 3 for k in range(3)]
            desc = "chi" + "".join(f" {p}^{c}" for p, c in zip(primes, lam))
            out.append((desc, periods))
    return out


def _period_polynomials(f: int, bits: int) -> list[tuple[str, list, list[int], mpmath.mpf]]:
    """(description, periods, rounded coefficients, residual) per subgroup:
    the X^2, X, 1 coefficients of the cubic with the periods as roots,
    rounded from symmetric functions at bits + 32, and the largest distance
    rounded away."""
    out = []
    with mpmath.workprec(bits + 32):
        for desc, periods in numeric_periods(f, bits):
            e1 = periods[0] + periods[1] + periods[2]
            e2 = (
                periods[0] * periods[1]
                + periods[1] * periods[2]
                + periods[2] * periods[0]
            )
            e3 = periods[0] * periods[1] * periods[2]
            approx = [-e1, e2, -e3]
            rounded = [int(mpmath.nint(x)) for x in approx]
            residual = max(abs(x - r) for x, r in zip(approx, rounded))
            out.append((desc, periods, rounded, residual))
    return out


def numeric_verify(
    n: int, precision_bits: int = 256, display: NibGenerator | None = None
) -> NumericVerification:
    """Check the period identification numerically against subgroup sums.

    True iff some full-conductor subgroup yields three periods whose monic
    cubic (symmetric functions rounded to nearest integers) equals the
    predicted minimal polynomial with pre-rounding residual below
    2^(-precision_bits/2), and the period values match the generator values
    at the sigma-ordered roots under some cyclic labeling.  ``display`` is
    the printed generator when the caller already has it (the report's
    ``display``); otherwise it is recomputed.
    """
    require_tame(n)
    inv = conductor(n)
    if display is None:
        display = period_identity(n).display
    predicted = [int(c) for c in display.min_poly.coefficients()[1:]]
    dec = inv.decomposition
    ec2 = dec.e * dec.c**2
    a0, a1, m = display.a0, display.a1, display.m
    roots = numeric_roots(n, precision_bits)
    polys = _period_polynomials(inv.conductor, precision_bits)
    with mpmath.workprec(precision_bits + 32):
        tol = mpmath.mpf(2) ** (-(precision_bits // 2))
        want = [
            (a0 * roots[i] + a1 * roots[(i + 1) % 3] + m) / ec2 for i in range(3)
        ]
        best_residual = mpmath.inf
        closest_any = mpmath.inf
        matched: str | None = None
        round_ok = False
        for desc, periods, rounded, residual in polys:
            closest_any = min(closest_any, residual)
            if rounded != predicted:
                continue
            round_ok = True
            best_residual = min(best_residual, residual)
            if residual >= tol:
                continue
            value_err = max(abs(a - b) for a, b in zip(sorted(want), sorted(periods)))
            if value_err < tol:
                matched = desc
                best_residual = max(residual, value_err)
                break
        if matched is not None:
            return NumericVerification(
                ok=True,
                residual=float(best_residual),
                precision_bits=precision_bits,
                subgroup=matched,
            )
        if round_ok or closest_any > mpmath.mpf("0.1"):
            # Either the right polynomial appeared with too-large residual, or
            # the sums were too inaccurate to trust any rounding at all.
            raise PrecisionInsufficientError(
                f"period residual too large for n={n} at {precision_bits} bits"
            )
        return NumericVerification(
            ok=False,
            residual=float("inf"),
            precision_bits=precision_bits,
            subgroup=None,
        )


def numeric_verify_auto(
    n: int, precision_bits: int = 256, display: NibGenerator | None = None
) -> NumericVerification:
    """numeric_verify with the doubling retry policy, capped at PRECISION_CAP bits."""
    require_tame(n)
    if display is None:
        display = period_identity(n).display
    bits = precision_bits
    while True:
        try:
            return numeric_verify(n, bits, display)
        except PrecisionInsufficientError:
            if bits * 2 > PRECISION_CAP:
                raise
            bits *= 2

