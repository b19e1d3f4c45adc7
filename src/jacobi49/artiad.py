"""Artiad and hyperartiad prime classification, by independent criteria.

A prime p = 1 (mod 14) is artiad when every root of x^3 + x^2 - 2x - 1
modulo p is a seventh power; equivalently (and this equivalence is a
permanent regression target, not an assumption) when the attached
sextuple has x2 = x3 = x4 = 0 (mod 7).  Hyperartiad additionally asks
that 7 itself is a seventh power, an intrinsic condition whose
per-generator restatement is ind(7) = 0 (mod 7).

The x-criterion is authoritative for classification: it is exact integer
arithmetic on derived data.  The cubic-root criterion and the
coefficient conditions of the two characterization lemmas are recorded
as evidence, so every classification carries its own cross-checks.
ind(7) mod 7 is read off 7^((p-1)/7) (prime_field.index_mod).
"""

from dataclasses import dataclass

from .cyclotomic_ring import Residue8
from .congruence import CoefficientSet
from .errors import InputError, InvariantViolation
from .order7 import Sextuple
from .prime_field import (FieldContext, index_mod, is_seventh_power_residue,
                          seventh_root_of_unity)


def classify_via_x(sol: Sextuple) -> bool:
    """Artiad test on the sextuple: x2, x3, x4 all divisible by 7."""
    return sol.x2 % 7 == 0 and sol.x3 % 7 == 0 and sol.x4 % 7 == 0


def cubic_roots(p: int) -> list[int]:
    """The three roots of x^3 + x^2 - 2x - 1 modulo p = 1 (mod 7), ascending.

    They are w^k + w^-k, k = 1, 2, 3, for a primitive seventh root of
    unity w in F_p (Berndt-Evans-Williams, Gauss and Jacobi Sums, 1998),
    the one prime_field.seventh_root_of_unity gives.
    Each root is checked against the cubic and the three for distinctness.
    """
    w = seventh_root_of_unity(p)
    roots = sorted((pow(w, k, p) + pow(w, 7 - k, p)) % p for k in (1, 2, 3))
    bad = [r for r in roots if (r * r * r + r * r - 2 * r - 1) % p]
    if bad or len(set(roots)) != 3:
        raise InvariantViolation(
            f"closed-form cubic roots {roots} mod {p}: {bad} fail the cubic "
            f"or the roots repeat")
    return roots


def classify_via_cubic(ctx: FieldContext) -> bool:
    """Artiad test from the defining cubic, by Euler's criterion; needs p = 1 (mod 7)."""
    return all(is_seventh_power_residue(ctx, r) for r in cubic_roots(ctx.p))


def _cond_b_rhs(sol: Sextuple, p: int) -> int:
    # (4/7) of (6p - x1 - 12)/2 as the exact integer 2*(6p - x1 - 12)/7;
    # divisibility by 7 holds because p = x1 = 1 (mod 7).
    num = 6 * p - sol.x1 - 12
    if num % 7 != 0:
        raise InvariantViolation(f"6p - x1 - 12 not divisible by 7 at p = {p}")
    return 2 * (num // 7)


def artiad_conditions(coeffs: CoefficientSet, sol: Sextuple, ind7: int,
                      p: int) -> tuple[bool, bool, bool]:
    """The three coefficient conditions whose conjunction characterizes artiads.

    A: c1..c5 all 0 (mod 7);
    B: 12*c6 = (4/7)(6p - x1 - 12)/2 (mod 7);
    C: 4*c7 - 4*ind(7) = -12*c6 + x5 (mod 7).

    With ind7 = 0 they are the hyperartiad characterization, whose C
    drops the ind(7) term.

    C is evaluated as stated, and as stated it fails at every artiad
    prime = 1 (mod 49) up to 174931, under all six generator classes,
    while A and B hold.  It carries the same slip as the t^7 coefficient
    of simplified_residue: with -12*ind(7) in place of -4*ind(7) it holds
    in all those cases.  So the conjunction is False there.  The test
    suite checks the biconditional with the artiad classification only
    for p = 1 (mod 49) below 20000 and below 3000, where no artiad prime
    = 1 (mod 49) lies, so its artiad side is vacuous there.
    """
    if coeffs.c is None or coeffs.s_value is None:
        raise InputError("need the full n = 1 coefficient set")
    c = coeffs.c
    cond_a = all(v % 7 == 0 for v in c[:5])
    cond_b = (12 * c[5] - _cond_b_rhs(sol, p)) % 7 == 0
    cond_c = (4 * coeffs.s_value - 4 * ind7 + 12 * c[5] - sol.x5) % 7 == 0
    return cond_a, cond_b, cond_c


def simplified_residue(c6: int, ind7: int, x5: int, hyper: bool) -> Residue8:
    """The simplified congruence class claimed for artiad primes:
    -1 + c6 t^6 + (-3 c6 [+ ind7] + 2 x5) t^7.

    Evaluated exactly as stated.  At artiad primes the actual t^7
    coefficient is -3 c6 + 3 ind7 + 2 x5, which is also what the c_{7,1}
    closed form reduces to mod 7 there, so the stated "+ind7" is a slip
    for "+3 ind7" and the non-hyperartiad form fails whenever ind7 is
    not 0 (mod 7).  theorem3_match records that comparison.
    """
    t7 = (-3 * c6 + 2 * x5 + (0 if hyper else ind7)) % 7
    return Residue8((6, 0, 0, 0, 0, 0, c6 % 7, t7))


def simplified_residue_adjusted(c6: int, ind7: int, x2: int, u_signed: int) -> Residue8:
    """Simplified congruence with the empirically adjudicated t^7 coefficient.

    The claimed t^7 coefficient -3*c6 + ind7 + 2*x5 fails at every artiad
    prime reachable by scan, because ind7 enters it with coefficient 1
    where the c_{7,1} closed form gives 3.  The coefficient
    4*c6 + 4*x2 + 3*ind7 + 6*u, with u carrying the generator-matched
    sign, reproduces S(1) mod 7 on every prime tested.  At artiad primes
    x2 = u = 0 (mod 7), so it reduces to -3*c6 + 3*ind7, the claimed form
    with the ind7 coefficient corrected (x5 = 0 (mod 7) as well at every
    artiad prime = 1 (mod 49) in reach).  Informational companion to the
    claimed form, never a substitute in the pass/fail sense.
    """
    t7 = (4 * c6 + 4 * x2 + 3 * ind7 + 6 * u_signed) % 7
    return Residue8((6, 0, 0, 0, 0, 0, c6 % 7, t7))


@dataclass(frozen=True)
class Evidence:
    via_x: bool
    via_cubic: bool
    ind7_zero: bool
    lemma4: bool | None = None            # A and B and C, when p = 1 (mod 49)
    lemma5: bool | None = None
    theorem3_match: bool | None = None    # claimed artiad-form residue == actual
    theorem3_hyper_match: bool | None = None
    theorem3_adjusted_match: bool | None = None  # adjudicated t^7 form == actual

    def to_json(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class Classification:
    kind: str            # ordinary | artiad | hyperartiad
    evidence: Evidence

    def to_json(self) -> dict:
        return {"kind": self.kind, "evidence": self.evidence.to_json()}


def classify_from_parts(ctx: FieldContext, sol: Sextuple,
                        coeffs1: CoefficientSet | None = None,
                        actual_residue: Residue8 | None = None,
                        u_signed: int | None = None) -> Classification:
    """Classification from precomputed per-prime data.

    coeffs1 (the n = 1 coefficient set with S(1)) and the actual residue
    of J(1,1)_49 are only meaningful when p = 1 (mod 49); without them
    the lemma and congruence evidence stays None.  u_signed (the
    generator-matched sign of u) enables the adjusted simplified-form
    comparison.
    """
    if (ctx.p - 1) % 14 != 0:
        raise InputError("classification needs p = 1 (mod 14)")
    via_x = classify_via_x(sol)
    via_cubic = classify_via_cubic(ctx)
    ind7 = index_mod(ctx, 7, 7)
    ind7_zero = ind7 == 0
    kind = "ordinary"
    if via_x:
        kind = "hyperartiad" if ind7_zero else "artiad"

    lemma4 = lemma5 = th3 = th3h = th3adj = None
    if coeffs1 is not None:
        lemma4 = all(artiad_conditions(coeffs1, sol, ind7, ctx.p))
        lemma5 = all(artiad_conditions(coeffs1, sol, 0, ctx.p))
        if actual_residue is not None:
            c6 = coeffs1.c[5]
            th3 = simplified_residue(c6, ind7, sol.x5, hyper=False) == actual_residue
            th3h = simplified_residue(c6, ind7, sol.x5, hyper=True) == actual_residue
            if u_signed is not None:
                th3adj = (simplified_residue_adjusted(c6, ind7, sol.x2, u_signed)
                          == actual_residue)
    return Classification(
        kind=kind,
        evidence=Evidence(
            via_x=via_x,
            via_cubic=via_cubic,
            ind7_zero=ind7_zero,
            lemma4=lemma4,
            lemma5=lemma5,
            theorem3_match=th3,
            theorem3_hyper_match=th3h,
            theorem3_adjusted_match=th3adj,
        ),
    )
