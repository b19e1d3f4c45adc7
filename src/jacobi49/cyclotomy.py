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
from .cyclotomic_ring import CyclotomicInt, apply_automorphism
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


def six_class(e: int, i: int, j: int) -> set[tuple[int, int]]:
    """The symmetry class of the cyclotomic number (i,j)_e when f is even."""
    return {
        (i % e, j % e),
        (j % e, i % e),
        ((i - j) % e, -j % e),
        ((j - i) % e, -i % e),
        (-i % e, (j - i) % e),
        (-j % e, (i - j) % e),
    }


def jacobi_six_class(e: int, i: int, j: int) -> set[tuple[int, int]]:
    """The index pairs sharing the same Jacobi sum when f is even."""
    return {
        (i % e, j % e),
        (j % e, i % e),
        ((-i - j) % e, j % e),
        (j % e, (-i - j) % e),
        ((-i - j) % e, i % e),
        (i % e, (-i - j) % e),
    }


def check_symmetries(cyc: CycNumberTable) -> list[str]:
    """Verify the even-f symmetry classes and the total count; return failures."""
    e, p = cyc.e, cyc.p
    problems = []
    if int(cyc.counts.sum()) != p - 2:
        problems.append(f"total {int(cyc.counts.sum())} != p - 2")
    for i in range(e):
        for j in range(e):
            base = cyc.cell(i, j)
            for (a, b) in six_class(e, i, j):
                if cyc.cell(a, b) != base:
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


def identity_suite(cyc: CycNumberTable, pairs=None, abs_pairs=None) -> list[str]:
    """Exercise the elementary Jacobi-sum identities; return a list of failures.

    Every J(i,j)_e is read off the cyclotomic-number table by the Fourier
    direction (jacobi_from_cyc) and cached per pair, so the suite makes no
    pass over F_p: it checks that the table is consistent with the
    identities, while the direct character sum that checks the table
    itself runs once per prime in the verification pipeline.  With f
    even, chi^i(-1) = 1, so the identities hold for J itself; the six-class
    check of a pair contains the symmetry J(i,j) = J(j,i) and the index
    shuffle J(i,j) = J(-i-j,i).

    pairs: index pairs for the structural identities (default: all e*e).
    abs_pairs: pairs for the modulus check J * sigma_-1(J) = p (default: same).
    The verification pipeline passes 30 and 20 sampled pairs.
    """
    e, p = cyc.e, cyc.p
    if ((p - 1) // e) % 2 != 0:
        raise InvariantViolation(f"the cofactor (p - 1)/{e} is odd at p = {p}")
    if pairs is None:
        pairs = [(i, j) for i in range(e) for j in range(e)]
    if abs_pairs is None:
        abs_pairs = pairs
    failures = []
    jacobi_cache: dict[tuple[int, int], CyclotomicInt] = {}

    def jacobi(i, j):
        key = (i % e, j % e)
        if key not in jacobi_cache:
            jacobi_cache[key] = jacobi_from_cyc(cyc, *key)
        return jacobi_cache[key]

    for (i, j) in pairs:
        jj = jacobi(i, j)
        if i % e == 0 and j % e == 0:
            if jj != p - 2:
                failures.append(f"J(chi^0,chi^0) != p - 2 at ({i},{j})")
        elif (i % e == 0) != (j % e == 0):
            if jj != -1:
                failures.append(f"one-zero identity fails at ({i},{j})")
        elif (i + j) % e == 0:
            if jj != -1:
                failures.append(f"opposite-pair identity fails at ({i},{j})")
        for (a, b) in jacobi_six_class(e, i, j):
            if jacobi(a, b) != jj:
                failures.append(f"Jacobi six-class symmetry fails at ({i},{j})")
                break

    for (i, j) in abs_pairs:
        if i % e and j % e and (i + j) % e:
            jj = jacobi(i, j)
            if jj * apply_automorphism(jj, -1) != p:
                failures.append(f"|J|^2 != p at ({i},{j})")

    for i in range(1, e):
        jii = jacobi(i, i)
        if not (jii == jacobi(-2 * i, i) == jacobi(i, -2 * i)):
            failures.append(f"J(i,i) = J(-2i,i) = J(i,-2i) fails at i={i}")
    return failures
