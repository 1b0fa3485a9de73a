"""Exact arithmetic, normal integral bases and Gaussian periods of the
simplest cubic fields Q(rho_n), rho_n a root of X^3 - n*X^2 - (n+3)*X - 1."""

from .arith import (
    Factorization,
    cube_free_split,
    factor,
    square_free_split,
)
from .cubic_field import (
    FieldElement,
    MonicCubic,
    lemma42,
    numeric_roots,
    trace_form_disc,
)
from .eisenstein import EisensteinInt, eis_gcd, find_pair
from .gaussian import (
    GaussianReport,
    NumericVerification,
    PrecisionInsufficientError,
    numeric_periods,
    numeric_verify,
    numeric_verify_auto,
    period_identity,
)
from .integral_basis import IntegralBasis, build, check_congruences, shift
from .invariants import (
    DeltaDecomposition,
    FieldInvariants,
    WildRamificationError,
    conductor,
    decompose,
    delta,
    is_tame,
)
from .nib import (
    NibGenerator,
    SpecialForm,
    VerificationReport,
    all_generators,
    canonical_pair,
    epsilon,
    generator,
    m_value,
    min_poly_closed,
    special_forms,
    verify_nib,
)

__version__ = "0.1.0"
