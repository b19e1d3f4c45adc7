"""Reference formulas that only the tests compare against."""

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
