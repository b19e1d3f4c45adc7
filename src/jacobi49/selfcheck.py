"""Startup algebra self-checks: fast, deterministic, no field larger than p = 197.

These guard the foundations everything else silently relies on: the
polynomial identity behind the residue map, the ring-homomorphism
property of that map, ideal membership of 7, the elementary Jacobi-sum
identities on a small field, the factorial kernel against math.factorial
at p = 197, and the agreement of the two independent constructions of
the cyclotomic numbers (from factorials mod p, and by counting class
pairs).
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


def run_selfchecks() -> list[tuple[str, bool]]:
    """Run every check; returns (name, passed) pairs."""
    rng = random.Random(SEED)
    results = []

    results.append(("cyclotomic polynomial at 1 + t is t^42 over F_7",
                    check_reduction_identity()))
    results.append(("defining relation canonicalizes to zero",
                    cyclotomic_poly_at_zeta(49).is_zero()
                    and cyclotomic_poly_at_zeta(7).is_zero()))
    results.append(("residue of 7 vanishes",
                    residue_mod_t8(CyclotomicInt.from_int(49, 7)).coeffs == (0,) * 8))
    zeta_minus_1 = CyclotomicInt.monomial(49, 1) - 1
    results.append(("valuation anchors: v(0) = inf, v(zeta - 1) = 1, v(7) = 42",
                    valuation(CyclotomicInt.zero(49)) == math.inf
                    and valuation(zeta_minus_1) == 1
                    and valuation(CyclotomicInt.from_int(49, 7)) == 42))

    hom_ok = True
    for _ in range(PAIRS):
        a, b = _random_element(rng), _random_element(rng)
        if residue_mod_t8(a * b) != residue_mod_t8(a) * residue_mod_t8(b):
            hom_ok = False
            break
        if residue_mod_t8(a + b).coeffs != tuple(
                (x + y) % 7 for x, y in
                zip(residue_mod_t8(a).coeffs, residue_mod_t8(b).coeffs)):
            hom_ok = False
            break
    results.append((f"residue map is a ring homomorphism ({PAIRS} random pairs)",
                    hom_ok))

    results.append(("factorial kernel equals math.factorial at every n < 197, mod 197",
                    _kernels.factorials(197, range(197)).tolist()
                    == [math.factorial(n) % 197 for n in range(197)]))

    ctx = build_ctx(29)
    results.append(("elementary Jacobi-sum identities hold at p = 29",
                    not identity_suite(cyclotomic_numbers(ctx, 7))))

    tables_ok = True
    for ctx, orders in ((ctx, (7,)), (build_ctx(197), (7, 49))):
        for e in orders:
            tables_ok &= np.array_equal(cyclotomic_numbers(ctx, e).counts,
                                        _kernels.pair_counts(ctx.classes, e))
    results.append(("cyclotomic numbers from factorials equal the class-pair counts "
                    "at p = 29 and 197", tables_ok))
    return results
