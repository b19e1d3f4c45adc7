"""Startup algebra self-checks: fast, deterministic, no field larger than p = 197.

These guard the foundations everything else silently relies on: the
polynomial identity behind the residue map, the ring-homomorphism
property of that map, ideal membership of 7, the elementary Jacobi-sum
identities on a small field, the factorial kernel against math.factorial
at p = 197, and the agreement of the cyclotomic numbers with a count of
class pairs, which is different mathematics from either route that
builds them: Stickelberger's relation on a prime of Z[zeta_7], for the
order-7 tables at p = 29 and p = 197, and factorials mod p, for the
order-49 table at p = 197 = 1 (mod 49).
"""

import math
import random

import numpy as np

from . import _kernels
from .cyclotomic_ring import (CyclotomicInt, check_reduction_identity,
                              cyclotomic_poly_at_zeta, residue_mod_t8, valuation)
from .cyclotomy import cyclotomic_numbers, identity_suite
from .prime_field import build_ctx


def _random_element(rng: random.Random) -> CyclotomicInt:
    return CyclotomicInt(49, [rng.randrange(-50, 51) for _ in range(49)])


PAIRS = 100   # random pairs of the homomorphism check
SEED = 7


def _residue_map_is_a_homomorphism() -> bool:
    rng = random.Random(SEED)
    for _ in range(PAIRS):
        a, b = _random_element(rng), _random_element(rng)
        ra, rb = residue_mod_t8(a), residue_mod_t8(b)
        if residue_mod_t8(a * b) != ra * rb:
            return False
        if residue_mod_t8(a + b).coeffs != tuple(
                (x + y) % 7 for x, y in zip(ra.coeffs, rb.coeffs)):
            return False
    return True


def _tables_agree() -> bool:
    return all(np.array_equal(cyclotomic_numbers(ctx, e).counts,
                              _kernels.pair_counts(ctx.classes, e))
               for ctx, orders in ((build_ctx(29), (7,)), (build_ctx(197), (7, 49)))
               for e in orders)


CHECKS = (
    ("cyclotomic polynomial at 1 + t is t^42 over F_7", check_reduction_identity),
    ("defining relation canonicalizes to zero",
     lambda: cyclotomic_poly_at_zeta(49).is_zero() and cyclotomic_poly_at_zeta(7).is_zero()),
    ("residue of 7 vanishes",
     lambda: residue_mod_t8(CyclotomicInt.from_int(49, 7)).coeffs == (0,) * 8),
    ("valuation anchors: v(0) = inf, v(zeta - 1) = 1, v(7) = 42",
     lambda: valuation(CyclotomicInt.zero(49)) == math.inf
     and valuation(CyclotomicInt.monomial(49, 1) - 1) == 1
     and valuation(CyclotomicInt.from_int(49, 7)) == 42),
    (f"residue map is a ring homomorphism ({PAIRS} random pairs)",
     _residue_map_is_a_homomorphism),
    ("factorial kernel equals math.factorial at every n < 197, mod 197",
     lambda: _kernels.factorials(197, range(197)).tolist()
     == [math.factorial(n) % 197 for n in range(197)]),
    ("elementary Jacobi-sum identities hold at p = 29",
     lambda: not identity_suite(cyclotomic_numbers(build_ctx(29), 7))),
    ("class-pair counts equal the cyclotomic numbers from Stickelberger's relation "
     "at p = 29 and from factorials at p = 197", _tables_agree),
)


def run_selfchecks() -> list[tuple[str, bool]]:
    """Run every check; returns (name, passed) pairs.

    A check that raises has failed: its name then carries the exception,
    and the checks after it still run.
    """
    results = []
    for name, check in CHECKS:
        try:
            results.append((name, bool(check())))
        except Exception as exc:  # a fault in a check is its failure, not a crash
            results.append((f"{name} (raised {type(exc).__name__}: {exc})", False))
    return results
