import inspect

import simplest_cubic


def test_exported_names():
    # A change to the public API shows up here and has to be deliberate.
    names = sorted(
        name for name, value in vars(simplest_cubic).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert names == [
        "DeltaDecomposition",
        "EisensteinInt",
        "Factorization",
        "FieldElement",
        "FieldInvariants",
        "GaussianReport",
        "IntegralBasis",
        "MonicCubic",
        "NibGenerator",
        "NumericVerification",
        "PairSet",
        "PrecisionInsufficientError",
        "SpecialForm",
        "VerificationReport",
        "WildRamificationError",
        "all_generators",
        "build",
        "canonical_pair",
        "check_congruences",
        "conductor",
        "cube_free_split",
        "decompose",
        "delta",
        "eis_gcd",
        "epsilon",
        "factor",
        "find_pair",
        "generator",
        "is_tame",
        "legendre3",
        "lemma42",
        "m_value",
        "min_poly_closed",
        "mobius",
        "mod_inverse",
        "numeric_periods",
        "numeric_roots",
        "numeric_verify",
        "numeric_verify_auto",
        "period_identity",
        "shanks_polynomial",
        "shift",
        "special_forms",
        "square_free_split",
        "trace_form_disc",
        "unit_orbit",
        "verify_nib",
    ]
