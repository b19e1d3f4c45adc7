"""Reference formulas that only the tests compare against."""

import numpy as np

from jacobi49.cyclotomic_ring import Residue8
from jacobi49.cyclotomy import CycNumberTable
from jacobi49.order7 import Sextuple
from jacobi49.prime_field import FieldContext, index_of


def residue8(*coeffs: int) -> Residue8:
    """The residue with the given coefficients of 1, t, ..., t^7, each reduced mod 7."""
    return Residue8(tuple(v % 7 for v in coeffs))


def ind7_muskat(cyc7: CycNumberTable, p: int) -> int:
    """ind(7) mod 7 from the order-7 cyclotomic numbers:
    (p - 1)/2 - sum_h h * (h, 0)_7."""
    return ((p - 1) // 2 - sum(h * cyc7.cell(h, 0) for h in range(7))) % 7


def ind7_mod49_relation(sol: Sextuple, ctx: FieldContext) -> bool:
    """Check 28 * ind(7) = x2 - 19*x3 - 18*x4 (mod 49)."""
    i7 = index_of(ctx, 7)
    return (28 * i7 - (sol.x2 - 19 * sol.x3 - 18 * sol.x4)) % 49 == 0


def pair_counts_full_field(classes: np.ndarray, e: int) -> np.ndarray:
    """(a,b)_e as an int64 (e, e) array, counted over every v = 1..p-2.

    The reference for _kernels.pair_counts, which reads only the lower
    half of the table: this reads every cell but classes[0], and counts
    (classes[v] mod e, classes[v + 1] mod e) directly, 2**20 pairs at a time.
    """
    p = classes.shape[0]
    counts = np.zeros(e * e, dtype=np.int64)
    for start in range(1, p - 1, 1 << 20):
        stop = min(p - 1, start + (1 << 20))
        a = classes[start:stop].astype(np.int64) % e
        b = classes[start + 1 : stop + 1].astype(np.int64) % e
        counts += np.bincount(a * e + b, minlength=e * e)
    return counts.reshape(e, e)
