"""The declared public API of the package: a change to it is an edit here."""

import jacobi49

API = [
    "Certificate", "Classification", "CoefficientSet", "CycNumberTable",
    "CyclotomicInt", "DicksonHurwitzTable", "DomainError", "FieldContext",
    "InputError", "InvariantViolation", "Residue8", "Sextuple", "TUPair",
    "UnsupportedCase", "__version__", "build_ctx", "classify_from_parts",
    "classify_prime", "coeffs_by_definition", "coeffs_closed_form",
    "cyc7_from_solution", "cyclotomic_numbers", "dickson_hurwitz", "find_generator",
    "is_prime", "is_seventh_power_residue", "jacobi_from_cyc", "jacobi_sum",
    "jacobi_sum_variant", "jacobi_via_dh", "prepare_prime",
    "residue_mod_t8", "s_direct", "s_lemma", "solution_from_tables", "tu_decompose",
    "valuation", "verify_diophantine", "verify_prime",
]


def test_public_api_is_the_declared_list():
    assert sorted(jacobi49.__all__) == API
    for name in API:
        assert hasattr(jacobi49, name), name
