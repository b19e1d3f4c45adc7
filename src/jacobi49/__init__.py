"""jacobi49: exact Jacobi-sum congruences of order 49 and artiad primes.

Computes Jacobi sums, cyclotomic numbers and Dickson-Hurwitz sums over
F_p in exact integer arithmetic, verifies the determining congruence for
J(1,n)_49 modulo (1 - zeta)^8 through mutually redundant computation
paths, and classifies primes as ordinary, artiad or hyperartiad.
"""

from .artiad import Classification, classify_from_parts
from .congruence import (CoefficientSet, coeffs_by_definition, coeffs_closed_form,
                         s_direct, s_lemma)
from .cyclotomic_ring import CyclotomicInt, Residue8, residue_mod_t8, valuation
from .cyclotomy import (CycNumberTable, DicksonHurwitzTable, cyclotomic_numbers,
                        dickson_hurwitz, jacobi_from_cyc, jacobi_sum,
                        jacobi_sum_variant, jacobi_via_dh)
from .errors import DomainError, InputError, InvariantViolation, UnsupportedCase
from .order7 import (Sextuple, TUPair, cyc7_from_solution, solution_from_tables,
                     tu_decompose, verify_diophantine)
from .prime_field import (FieldContext, build_ctx, find_generator, is_prime,
                          is_seventh_power_residue)
from .verify import Certificate, classify_prime, prepare_prime, verify_prime

__version__ = "0.1.0"

__all__ = [
    "Certificate", "Classification", "CoefficientSet", "CycNumberTable",
    "CyclotomicInt", "DicksonHurwitzTable", "DomainError", "FieldContext",
    "InputError", "InvariantViolation", "Residue8", "Sextuple", "TUPair",
    "UnsupportedCase", "build_ctx", "classify_from_parts", "classify_prime",
    "coeffs_by_definition", "coeffs_closed_form", "cyc7_from_solution",
    "cyclotomic_numbers", "dickson_hurwitz", "find_generator", "is_prime",
    "is_seventh_power_residue", "jacobi_from_cyc", "jacobi_sum",
    "jacobi_sum_variant", "jacobi_via_dh", "prepare_prime",
    "residue_mod_t8", "s_direct", "s_lemma", "solution_from_tables",
    "tu_decompose", "valuation", "verify_diophantine", "verify_prime",
    "__version__",
]
