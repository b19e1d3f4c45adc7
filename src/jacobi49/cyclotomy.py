"""Cyclotomic numbers, Jacobi sums, and Dickson-Hurwitz sums over F_p.

The package has three routes to a Jacobi sum J(1,n)_e:

  * a direct character sum over F_p (jacobi_sum),
  * the Fourier transform of the cyclotomic-number table (jacobi_from_cyc):
    coefficient k of J(i,j)_e is the sum of the cells (a,b)_e with
    ia + jb = k (mod e),
  * the Dickson-Hurwitz expansion J(1,n)_e = sum_i B(i,n) zeta^i
    (jacobi_via_dh, valid because the cofactor f is even for odd e).

Only the first is independent of the table.  It costs a pass over F_p,
so the verification pipeline runs it once per prime, for J(1,1)_49, as
the check on the table kernel; the Fourier and Dickson-Hurwitz routes,
and the identity suite, read the one table.

The cofactor f = (p - 1)/e is even for every odd e dividing p - 1, so
chi^i(-1) = zeta^(i (p-1)/2) = zeta^(i e f/2) = 1: the v and 1-v
conventions of J(i,j) agree, and the even-f symmetry classes hold for
every table here.

Convention trap, isolated here once: characters vanish at zero for every
exponent, including exponent 0.  Direct sums therefore always skip the
two field elements where an argument vanishes, which is what makes the
identity J(chi^0, chi^0) = p - 2 come out.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .cyclotomic_ring import CyclotomicInt
from .errors import InvariantViolation, UnsupportedCase
from .prime_field import FieldContext


@dataclass(frozen=True)
class CycNumberTable:
    """The e*e cyclotomic numbers (i,j)_e: counts of v with given index pair."""

    e: int
    p: int
    gamma: int
    counts: np.ndarray = field(repr=False)

    def cell(self, i: int, j: int) -> int:
        return int(self.counts[i % self.e, j % self.e])

    def to_json(self) -> list[list[int]]:
        return self.counts.tolist()


@dataclass(frozen=True)
class DicksonHurwitzTable:
    """Dickson-Hurwitz sums B(i,j)_e = sum_h (h, i - j*h)_e."""

    e: int
    p: int
    gamma: int
    B: np.ndarray = field(repr=False)

    def cell(self, i: int, j: int) -> int:
        return int(self.B[i % self.e, j % self.e])

    def to_json(self) -> list[list[int]]:
        return self.B.tolist()


def cyclotomic_numbers(ctx: FieldContext, e: int) -> CycNumberTable:
    """One pass over v in F_p minus {0, -1}, binning by (ind v, ind(v+1)) mod e.

    e must divide ctx.m = gcd(p - 1, 49), the modulus of the class table.
    """
    counts = _kernels.pair_counts(ctx.classes_for(e), e)
    counts.flags.writeable = False
    return CycNumberTable(e=e, p=ctx.p, gamma=ctx.gamma, counts=counts)


def jacobi_sum(ctx: FieldContext, e: int, i: int, j: int) -> CyclotomicInt:
    """J(i,j)_e = sum over v of chi^i(v) chi^j(1+v), as an exact element; e | ctx.m."""
    hist = _kernels.power_pair_hist(ctx.classes_for(e), e, i % e, j % e)
    return CyclotomicInt(e, hist.tolist())


def jacobi_sum_variant(ctx: FieldContext, e: int, i: int, j: int) -> CyclotomicInt:
    """The 1-v convention: J(chi^i, chi^j)_e = sum of chi^i(v) chi^j(1-v)."""
    hist = _kernels.power_pair_hist_variant(ctx.classes_for(e), e, i % e, j % e)
    return CyclotomicInt(e, hist.tolist())


def jacobi_from_cyc(cyc: CycNumberTable, a: int, b: int) -> CyclotomicInt:
    """J(a,b)_e rebuilt from the cyclotomic-number table (Fourier direction)."""
    e = cyc.e
    i = np.arange(e, dtype=np.int64)
    exps = (a * i[:, None] + b * i[None, :]) % e
    coeffs = np.zeros(e, dtype=np.int64)
    np.add.at(coeffs, exps.ravel(), cyc.counts.ravel())
    return CyclotomicInt(e, coeffs.tolist())


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
    total = CyclotomicInt(e, acc)
    try:
        value = total.constant_value()
    except ValueError as exc:
        raise InvariantViolation(
            f"Fourier inversion at ({a},{b}) is not a rational integer"
        ) from exc
    if value % (e * e) != 0:
        raise InvariantViolation(
            f"Fourier inversion at ({a},{b}) not divisible by {e}^2: {value}"
        )
    return value // (e * e)


def dickson_hurwitz(cyc: CycNumberTable) -> DicksonHurwitzTable:
    """Full table of B(i,j)_e = sum_h (h, i - j*h)_e from the cyclotomic numbers."""
    e = cyc.e
    counts = cyc.counts
    i = np.arange(e, dtype=np.int64)
    h = np.arange(e, dtype=np.int64)
    B = np.zeros((e, e), dtype=np.int64)
    for j in range(e):
        cols = (i[:, None] - j * h[None, :]) % e
        B[:, j] = counts[h[None, :], cols].sum(axis=1)
    B.flags.writeable = False
    return DicksonHurwitzTable(e=e, p=cyc.p, gamma=cyc.gamma, B=B)


def jacobi_via_dh(dh: DicksonHurwitzTable, j: int) -> CyclotomicInt:
    """J(1,j)_e as sum_i B(i,j) zeta^i; needs the cofactor f even."""
    f = (dh.p - 1) // dh.e
    if f % 2 != 0:
        raise UnsupportedCase("the Dickson-Hurwitz expansion of J(1,j) needs f even")
    return CyclotomicInt(dh.e, [int(dh.B[i, j % dh.e]) for i in range(dh.e)])


def _class_images(e, i, j):
    """The six images of the index pair (i,j) under the even-f symmetries.

    Works elementwise when i and j are index arrays.
    """
    return ((i % e, j % e), (j % e, i % e), ((i - j) % e, -j % e),
            ((j - i) % e, -i % e), (-i % e, (j - i) % e), (-j % e, (i - j) % e))


def six_class(e: int, i: int, j: int) -> set[tuple[int, int]]:
    """The symmetry class of the cyclotomic number (i,j)_e when f is even."""
    return set(_class_images(e, i, j))


def check_symmetries(cyc: CycNumberTable) -> list[str]:
    """Verify the even-f symmetry classes and the total count; return failures."""
    e, p, counts = cyc.e, cyc.p, cyc.counts
    problems = []
    if int(counts.sum()) != p - 2:
        problems.append(f"total {int(counts.sum())} != p - 2")
    broken = np.zeros((e, e), dtype=bool)
    for a, b in _class_images(e, *np.indices((e, e)))[1:]:
        broken |= counts[a, b] != counts
    for i, j in zip(*np.nonzero(broken)):
        i, j = int(i), int(j)
        for (a, b) in six_class(e, i, j):
            if cyc.cell(a, b) != cyc.cell(i, j):
                problems.append(f"({i},{j}) class broken at ({a},{b})")
    return problems


def check_dh_identities(dh: DicksonHurwitzTable) -> list[str]:
    """B(i,0) values, column sums, and the column symmetry B(i,j) = B(i, e-j-1).

    The symmetry also circulates with the second index written e-j-i;
    that reading fails every table scan (a 1 read as i), while e-j-1
    follows from the even-f class relation (a,b) = (-a, b-a) applied
    inside the defining sum.
    """
    e, p = dh.e, dh.p
    f = (p - 1) // e
    problems = []
    if dh.cell(0, 0) != f - 1:
        problems.append(f"B(0,0) = {dh.cell(0, 0)} != f - 1")
    for i in range(1, e):
        if dh.cell(i, 0) != f:
            problems.append(f"B({i},0) != f")
    for j in range(e):
        colsum = sum(dh.cell(i, j) for i in range(e))
        if colsum != p - 2:
            problems.append(f"column {j} sums to {colsum} != p - 2")
    for i in range(e):
        for j in range(e):
            if dh.cell(i, j) != dh.cell(i, e - j - 1):
                problems.append(f"B({i},{j}) != B({i},{e - j - 1})")
    return problems


def identity_suite(cyc: CycNumberTable) -> list[str]:
    """Check the elementary Jacobi-sum identities at every index pair; return failures.

    Each J(i,j)_e is the Fourier transform of the table (jacobi_from_cyc),
    and the transform inverts exactly (cyc_from_jacobi).  So J(0,0) = p - 2
    and the Jacobi six-class identities J(i,j) = J(j,i) = J(-i-j,j) = ...
    at all e^2 pairs say the same as: the cells sum to p - 2 and obey the
    even-f symmetry classes, which check_symmetries tests on the table
    itself.  The six class of (i,i) contains J(i,i) = J(-2i,i) = J(i,-2i).

    For every table and every unit s, J(si,sj) = sigma_s(J(i,j)), and
    sigma_s fixes -1 and commutes with complex conjugation.  With the six
    classes checked, J(0,d) = -1 at each proper divisor d of e then gives
    J(0,j) = J(i,0) = J(i,-i) = -1 everywhere, and |J|^2 = p at the pairs
    (d, d*m), m = 1..e/d - 2, gives it at every pair with i, j and i + j
    nonzero: a pair whose first index is not a unit swaps to one whose is,
    or is a unit multiple of some (d, d*m).

    With f even, chi^i(-1) = 1, so the identities hold for J itself.  The
    suite makes no pass over F_p; the direct sum that checks the table
    runs once per prime in the verification pipeline.
    """
    e, p = cyc.e, cyc.p
    if ((p - 1) // e) % 2 != 0:
        raise InvariantViolation(f"the cofactor (p - 1)/{e} is odd at p = {p}")
    failures = check_symmetries(cyc)
    divisors = [d for d in range(1, e) if e % d == 0]
    for d in divisors:
        if jacobi_from_cyc(cyc, 0, d) != -1:
            failures.append(f"one-zero identity fails at (0,{d})")

    reps = [(d, d * m) for d in divisors for m in range(1, e // d - 1)]
    x = np.array([jacobi_from_cyc(cyc, i, j).coeffs for i, j in reps], dtype=np.int64)
    # Coefficient k of J * sigma_-1(J) is sum_a x_a x_(a-k).  From p - 2
    # counts the canonical coefficients have absolute sum at most 2p, so
    # int64 is exact for p below 10^9.
    k = np.arange(e)
    norms = np.einsum("ra,rka->rk", x, x[:, (k[None, :] - k[:, None]) % e])
    for (i, j), row in zip(reps, norms):
        if CyclotomicInt(e, row.tolist()) != p:
            failures.append(f"|J|^2 != p at ({i},{j})")
    return failures
