"""Reference formulas that only the tests compare against."""

import math
from fractions import Fraction
from math import isqrt

import numpy as np

from jacobi49.congruence import ClosedFormCoeffs, CoefficientSet, predicted_rows
from jacobi49.cyclotomic_ring import CyclotomicInt, Residue8
from jacobi49.cyclotomy import CycNumberTable
from jacobi49.errors import DomainError, InputError, InvariantViolation
from jacobi49.order7 import Sextuple, TUPair
from jacobi49.prime_field import (FieldContext, _prime_factors, find_generator,
                                  is_primitive_root)


def residue8(*coeffs: int) -> Residue8:
    """The residue with the given coefficients of 1, t, ..., t^7, each reduced mod 7."""
    return Residue8(tuple(v % 7 for v in coeffs))


def predicted_residue(coeffs: CoefficientSet) -> Residue8:
    """-1 + sum c_i t^i in F_7[t]/(t^8); just -1 when 7 | n: one row of predicted_rows."""
    return Residue8(tuple(predicted_rows([coeffs])[0].tolist()))


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


def block_factorials(p, f, h):
    """The products (k*f + 1)(k*f + 2)...((k+1)*f) mod p, k = 0..h-1, as int64.

    The every-integer reference for _kernels.factorials: it multiplies
    every integer up to h*f.  A slab holds up to 2**16 integers as rows
    of h, row r and column k holding k*f + r + 1; each slab is the first
    one plus a constant.  The rows are multiplied pairwise, first half by
    last half, until one is left, reducing mod p after every product.
    """
    out = np.ones(h, dtype=np.int64)
    if h == 0:
        return out
    rows = max(1, min(f, (1 << 16) // h))
    first = np.add.outer(np.arange(1, rows + 1, dtype=np.int64),
                         np.arange(0, h * f, f, dtype=np.int64))
    slab = np.empty_like(first)
    quot = np.empty_like(first)
    for start in range(0, f, rows):
        n = min(rows, f - start)
        x = slab[:n]
        np.add(first[:n], start, out=x)
        while n > 1:
            half = n // 2
            low = x[:half]
            low *= x[n - half : n]
            q = quot[:half]
            np.floor_divide(low, p, out=q)
            q *= p
            low -= q
            n -= half
            x = x[:n]
        out *= x[0]
        out %= p
    return out


def tu_search(p: int) -> TUPair:
    """The (t, u) of order7.tu_decompose, by trying every u with 7u^2 < p."""
    u = 1
    while 7 * u * u < p:
        r = p - 7 * u * u
        t = isqrt(r)
        if t * t == r:
            return TUPair(t=t if t % 7 == 1 else -t, u=u)
        u += 1
    raise ValueError(f"p = {p} has no t^2 + 7u^2 representation")


def _dlog_prime_order(g: int, h: int, q: int, p: int) -> int:
    """x in [0, q) with g**x == h (mod p), g of prime order q: baby-step giant-step."""
    s = math.isqrt(q - 1) + 1
    baby = {}
    x = 1
    for j in range(s):
        baby.setdefault(x, j)
        x = x * g % p
    giant = pow(g, -s, p)
    y = h
    for i in range(s):
        j = baby.get(y)
        if j is not None:
            return i * s + j
        y = y * giant % p
    raise InvariantViolation(f"{h} is not a power of {g} modulo {p}")


def second_generator(p: int) -> int:
    """The second smallest primitive root modulo the odd prime p."""
    return next(g for g in range(find_generator(p) + 1, p) if is_primitive_root(g, p))


def index_of(ctx: FieldContext, a: int) -> int:
    """Discrete log of a with respect to ctx.gamma, in [0, p - 1); a nonzero mod p.

    Pohlig-Hellman over the prime factors q of p - 1, one base-q digit
    at a time in the subgroup of order q; no table over F_p is read.
    """
    p, n = ctx.p, ctx.p - 1
    r = a % p
    if r == 0:
        raise DomainError("index of 0 is undefined")
    x, modulus = 0, 1
    for q in _prime_factors(n):
        g = pow(ctx.gamma, n // q, p)
        xq, qd = 0, 1  # x mod qd, for qd = q**d
        while n % (qd * q) == 0:
            h = pow(r * pow(ctx.gamma, -xq, p) % p, n // (qd * q), p)
            xq += _dlog_prime_order(g, h, q, p) * qd
            qd *= q
        x += modulus * ((xq - x) * pow(modulus, -1, qd) % qd)
        modulus *= qd
    return x


def apply_automorphism(a: CyclotomicInt, s: int) -> CyclotomicInt:
    """The ring automorphism zeta -> zeta^s, for s coprime to the order."""
    if math.gcd(s, a.e) != 1:
        raise InputError(f"automorphism index {s} not coprime to {a.e}")
    out = [0] * a.e
    for k, v in enumerate(a.coeffs):
        if v:
            out[s * k % a.e] += v
    return CyclotomicInt(a.e, out)


def cyc_from_jacobi(all_j: dict[tuple[int, int], CyclotomicInt], e: int,
                    a: int, b: int) -> int:
    """Inverse Fourier direction: recover (a,b)_e from the full Jacobi grid.

    Evaluates sum_{i,j} zeta^-(ai+bj) J(i,j)_e, which must be the rational
    constant e^2 (a,b)_e; anything else raises, since it means an upstream
    table or sum is wrong.
    """
    acc = [0] * e
    for i in range(e):
        for j in range(e):
            shift = (-(a * i + b * j)) % e
            for k, v in enumerate(all_j[i, j].coeffs):
                if v:
                    acc[(k + shift) % e] += v
    value, *rest = CyclotomicInt(e, acc).coeffs
    if any(rest):
        raise InvariantViolation(f"Fourier inversion at ({a},{b}) is not a rational integer")
    if value % (e * e) != 0:
        raise InvariantViolation(
            f"Fourier inversion at ({a},{b}) not divisible by {e}^2: {value}"
        )
    return value // (e * e)


_CONJUGATION = {1, 2, 3, 4, 5, 6}


def conjugate(sol: Sextuple, s: int) -> Sextuple:
    """The sextuple attached to the character chi^s, from the one for chi.

    These are the six nontrivial solutions of the quadratic system; the
    action is a group (conjugate(conjugate(x, s), t) = conjugate(x, s*t)),
    so the orbit is closed by construction.
    """
    s %= 7
    if s not in _CONJUGATION:
        raise InputError("conjugation exponent must be nonzero mod 7")
    x1, x2, x3, x4, x5, x6 = sol.as_tuple()
    if (x5 + 3 * x6) % 2 or (x5 - x6) % 2:
        raise InvariantViolation("parity constraint broken; orbit would leave Z")
    half_a = (x5 + 3 * x6) // 2   # appears in the order-3 tail action
    half_b = (x5 - x6) // 2
    half_c = (x5 - 3 * x6) // 2
    half_d = (x5 + x6) // 2
    table = {
        1: (x1, x2, x3, x4, x5, x6),
        2: (x1, -x4, x2, -x3, -half_c, -half_d),
        3: (x1, -x3, x4, x2, -half_a, half_b),
        4: (x1, x3, -x4, -x2, -half_a, half_b),
        5: (x1, x4, -x2, x3, -half_c, -half_d),
        6: (x1, -x2, -x3, -x4, x5, x6),
    }
    return Sextuple(*table[s])


def orbit(sol: Sextuple) -> list[Sextuple]:
    """All six conjugate solutions, the given one first.

    Order matches the catalog convention for the nontrivial solutions
    (conjugation exponents 1, 4, 5, 2, 3, 6).
    """
    return [conjugate(sol, s) for s in (1, 4, 5, 2, 3, 6)]


def trivial_solutions(tu: TUPair) -> list[Sextuple]:
    """The two solutions (-6t, +-2u, +-2u, -+2u, 0, 0) of the quadratic system."""
    t, u = tu.t, tu.u
    return [
        Sextuple(-6 * t, 2 * u, 2 * u, -2 * u, 0, 0),
        Sextuple(-6 * t, -2 * u, -2 * u, 2 * u, 0, 0),
    ]


# The (0,1) row also circulates with the x5 coefficient attached to x4
# instead; that reading breaks the table total and is kept only so the
# adjudication can be re-run (test_order7).
CYC7_ROW_01_X4_VARIANT = (-72, 12, 24, 168, -6, 84, -42, 147, 0, 147)


def row_value(row: tuple[int, ...], p: int, t: int, u: int, sol: Sextuple) -> int:
    """One closed-form row, such as those of order7.CYC7_ROW_COEFFS, at
    (1, p, t, u, x1..x6), in Python integers."""
    c0, cp, ct, cu, *cx = row
    return (c0 + cp * p + ct * t + cu * u
            + sum(c * x for c, x in zip(cx, sol.as_tuple())))


def closed_forms_stated(sol: Sextuple, p: int) -> ClosedFormCoeffs:
    """The closed forms for c_{1,1}..c_{6,1} and c_{7,1} as stated, in Fraction arithmetic.

    The reference for congruence.coeffs_closed_form, which computes the
    same values as integer numerators over 84.
    """
    x1, x2, x3, x4, x5, x6 = (Fraction(v) for v in sol.as_tuple())
    D = Fraction(6 * p - sol.x1 - 12, 2)
    lin1 = (x4 + 3 * x3 + 5 * x2) / 2
    stated = (
        D - lin1,
        Fraction(5, 3) * D - 3 * lin1 + (28 * x5 + 42 * x6) / 6,
        Fraction(5, 3) * D - 3 * (3 * x4 + 10 * x3 + 20 * x2) / 2
        + (105 * x6 + 70 * x5) / 6,
        D - (x4 - 5 * x3 - 15 * x2) / 2 + (35 * x6 + 21 * x5) / 2,
        Fraction(2, 6) * D - (x3 + 6 * x2) / 2 + (105 * x6 + 49 * x5) / 12,
        Fraction(2, 42) * D - (9 * x3 + 14 * x2) / 28 + (21 * x6 + 7 * x5) / 12,
    )
    repaired = (
        stated[0],
        stated[1],
        Fraction(5, 3) * D - (3 * x4 + 10 * x3 + 20 * x2) / 2
        + (105 * x6 + 70 * x5) / 6,
        D - (x4 + 5 * x3 + 15 * x2) / 2 + (35 * x6 + 21 * x5) / 2,
        stated[4],
        Fraction(2, 42) * D - 14 * x2 / 28 + (21 * x6 + 7 * x5) / 12,
    )
    c7_stated = (-Fraction(2, 14) * D + Fraction(2, 14) * (3 * x3 + 5 * x2) / 2
                 + (7 * x5 - 5 * x4) / 28)
    return ClosedFormCoeffs(stated=stated, repaired=repaired, c7_stated=c7_stated)
