"""Cyclotomic numbers, Jacobi sums, and Dickson-Hurwitz sums over F_p.

The package has five routes to a Jacobi sum J(1,n)_e:

  * a direct character sum over F_p (jacobi_sum),
  * the Fourier transform of the cyclotomic-number table (jacobi_rows,
    jacobi_from_cyc): coefficient k of J(i,j)_e is the sum of the cells
    (a,b)_e with ia + jb = k (mod e),
  * the Dickson-Hurwitz expansion J(1,n)_e = sum_i B(i,n) zeta^i
    (jacobi_rows_via_dh, jacobi_via_dh, valid because the cofactor f is
    even for odd e),
  * for e = 49, its image in F_p under zeta -> gamma^f, which the
    Gauss-Jacobi binomial congruence gives from factorials mod p
    (jacobi_images),
  * for e = 7, Stickelberger's relation on a generator of a prime of
    Z[zeta_7] above p (stickelberger.jacobi_sums), which jacobi_images
    maps into F_p the same way.

The table itself is built from the images (cyclotomic_numbers): every
cell lies in [0, p), so its residue, an inverse Fourier transform of the
images, fixes it.  Neither image route reads a class table, and the
Stickelberger one makes no pass over F_p at all.  There is one route per
order, chosen by e alone: Stickelberger for the order-7 table at every
p = 1 (mod 14), factorials for the order-49 table.  So where both tables
exist they come from different mathematics, and the pipeline compares
the order-49 table, folded to order 7, with the order-7 one.  The direct
sum reads the class table, at the cost of a pass over F_p for one
J(i,j); the tests use it as their oracle.  The verification pipeline
also checks the order-49 table by counting it directly, every cell in
one pass over the class table (_kernels.pair_counts), which is different
mathematics from either route.  The Fourier and Dickson-Hurwitz routes,
and the identity suite, read the one table.

Both table routes are one array pass for all n at once.  Column n of
the Dickson-Hurwitz table and J(1,n) before canonicalisation are row n
of a shear sum (_shear_sums) of the table and of its transpose, so all
48 J(1,n)_49, their canonical forms and their residues come from a few
whole-array operations; jacobi_from_cyc, jacobi_via_dh and
dickson_hurwitz are one-row or one-table views of the same code.

The cofactor f = (p - 1)/e is even for every odd e dividing p - 1, so
chi^i(-1) = zeta^(i (p-1)/2) = zeta^(i e f/2) = 1: the v and 1-v
conventions of J(i,j) agree, and the even-f symmetry classes hold for
every table here.  The table routes do not lean on them: a table that
breaks them gives the J(1,n) its cells define.

Convention trap, isolated here once: characters vanish at zero for every
exponent, including exponent 0.  Direct sums therefore always skip the
two field elements where an argument vanishes, which is what makes the
identity J(chi^0, chi^0) = p - 2 come out.
"""

from dataclasses import dataclass, field
from functools import cache, lru_cache

import numpy as np

from . import _kernels, stickelberger
from .cyclotomic_ring import CyclotomicInt, canonical_rows
from .errors import InvariantViolation, UnsupportedCase
from .prime_field import FieldContext


@dataclass(frozen=True)
class CycNumberTable:
    """The e*e cyclotomic numbers (i,j)_e: counts of v with given index pair."""

    e: int
    p: int
    counts: np.ndarray = field(repr=False)

    def cell(self, i: int, j: int) -> int:
        return int(self.counts[i % self.e, j % self.e])


@dataclass(frozen=True)
class DicksonHurwitzTable:
    """Dickson-Hurwitz sums B(i,j)_e = sum_h (h, i - j*h)_e."""

    e: int
    p: int
    B: np.ndarray = field(repr=False)

    def cell(self, i: int, j: int) -> int:
        return int(self.B[i % self.e, j % self.e])


@cache
def _image_grid(e: int) -> tuple[np.ndarray, ...]:
    """The read-only (e, e) grids jacobi_images reads: i, j, (2e - i - j) mod e,
    and where i + j is above e and where it equals e."""
    i, j = np.indices((e, e))
    s = i + j - e
    grid = (i, j, -s % e, s > 0, s == 0)
    for a in grid:
        a.flags.writeable = False
    return grid


@cache
def _fourier_exponents(e: int) -> np.ndarray:
    """a * i mod e for a, i = 0..e-1, read-only: the exponents of the Fourier matrix."""
    k = np.arange(e)
    exponents = np.multiply.outer(k, k) % e
    exponents.flags.writeable = False
    return exponents


def jacobi_images(ctx: FieldContext, e: int) -> np.ndarray:
    """The images of J(i,j)_e, i, j = 0..e-1, in F_p under zeta -> gamma^f; e | ctx.m.

    The route is chosen by e alone.  For e = 7 the cells with i, j and
    i + j nonzero come from the exact J(1,n)_7 of
    stickelberger.jacobi_sums, as J(i,j) = sigma_i(J(1, j/i)) at
    zeta = g = gamma^f, i.e. J(1, j/i) at g^i: no pass over F_p is made.

    For e = 49 they come from ctx.factorials.  With f = (p - 1)/e the map
    sends chi^i(x) to x^(if), so J(i,j)_e goes to the sum over v of
    v^(if) (1 + v)^(jf).  Expanding (1 + v)^(jf) and summing v^k over
    F_p (-1 when p - 1 divides k > 0, else 0) leaves -binom(jf, (e - i)f)
    when i + j >= e and 0 when i + j < e (the Gauss-Jacobi binomial
    congruence; Berndt-Evans-Williams, Gauss and Jacobi Sums, 1998).
    By Wilson's theorem 1/(kf)! = -((e - k)f)! for 0 < k < e, so for
    i + j > e the image is -(if)! (jf)! ((2e - i - j)f)!, a product of
    three entries of ctx.factorials.

    J(0,0) = p - 2 and J(0,j) = J(i,0) = J(i,-i) = -1.  Returns int64
    residues.
    """
    p = ctx.p
    f = ctx.cofactor(e)
    i, j, k, above, on = _image_grid(e)
    if e == 7:
        sums = np.zeros((7, 6), dtype=np.int64)  # row n: J(1,n)_7, n = 1..5
        sums[1:6] = stickelberger.jacobi_sums(p, ctx.gamma)
        g = pow(ctx.gamma, f, p)
        powers = np.array([pow(g, a, p) for a in range(7)], dtype=np.int64)
        exponents = _fourier_exponents(7)
        # at n, i: J(1,n) at g^i; coefficients below 2p, so the sums stay below 2^63
        values = sums @ powers[exponents[:6]] % p
        images = values[exponents[list(stickelberger.INVERSE)], i]
    else:
        fact = ctx.factorials  # (k f)!, k = 0..e-1
        product = fact[i] * fact[j] % p * fact[k] % p
        images = np.where(above, p - product, 0)
    images[on] = p - 1
    images[0, :] = images[:, 0] = p - 1
    images[0, 0] = p - 2
    return images


def counts_from_factorials(ctx: FieldContext, e: int) -> np.ndarray:
    """The cyclotomic numbers (a,b)_e as an int64 (e, e) array, from the images
    of jacobi_images: Stickelberger's relation for e = 7, factorials mod p
    for e = 49.

    J(i,j)_e = sum_{a,b} (a,b)_e zeta^(ia + jb) inverts to
    (a,b)_e = e^-2 sum_{i,j} w^-(ia + jb) J(i,j) = e^-2 (W J W^T)[a, b]
    mod p, with w = gamma^f and W[a, i] = w^-ai, which is exact since
    every count lies in [0, p - 2].  The two matrix products run in
    float64, where numpy has a BLAS path, and are exact: every entry is
    an integer in [0, p), so every product and every partial sum, in
    whatever order BLAS adds, is an integer at most 49 (p - 1)^2 <
    4.9 * 10^15 < 2^53, since build_ctx admits no p above MAX_PRIME =
    10^7.  Each product is cast back to int64 before it is reduced mod p.
    """
    p = ctx.p
    w_inv = pow(ctx.gamma, -ctx.cofactor(e), p)
    powers = [1]
    for _ in range(e - 1):
        powers.append(powers[-1] * w_inv % p)
    W = np.array(powers, dtype=np.float64)[_fourier_exponents(e)]
    counts = (W @ jacobi_images(ctx, e).astype(np.float64)).astype(np.int64) % p
    counts = (counts.astype(np.float64) @ W.T).astype(np.int64) % p
    return counts * pow(e * e, -1, p) % p


def cyclotomic_numbers(ctx: FieldContext, e: int) -> CycNumberTable:
    """The table of (a,b)_e, built from the images of jacobi_images; e must divide ctx.m.

    No class table is read, and for e = 7 no pass over F_p is made.  The
    result must pass check_symmetries (the cells sum to p - 2 and the
    even-f classes hold); otherwise this raises.
    """
    counts = counts_from_factorials(ctx, e)
    table = CycNumberTable(e=e, p=ctx.p, counts=counts)
    problems = check_symmetries(table)
    if problems:
        raise InvariantViolation(
            f"cyclotomic numbers of order {e} at p = {ctx.p}: " + "; ".join(problems[:3]))
    counts.flags.writeable = False
    return table


def jacobi_sum(ctx: FieldContext, e: int, i: int, j: int) -> CyclotomicInt:
    """J(i,j)_e = sum over v of chi^i(v) chi^j(1+v), as an exact element; e | ctx.m."""
    hist = _kernels.power_pair_hist(ctx.classes_for(e), e, i % e, j % e)
    return CyclotomicInt(e, hist.tolist())


def jacobi_sum_variant(ctx: FieldContext, e: int, i: int, j: int) -> CyclotomicInt:
    """The 1-v convention: J(chi^i, chi^j)_e = sum of chi^i(v) chi^j(1-v)."""
    hist = _kernels.power_pair_hist_variant(ctx.classes_for(e), e, i % e, j % e)
    return CyclotomicInt(e, hist.tolist())


def _windows(x: np.ndarray) -> np.ndarray:
    """w[..., s, k] = x[..., (s + k) mod e] for the last axis of x, of length e.

    A read-only strided view of x written twice along that axis; it
    copies x once and builds none of the (e + 1) e windows.
    """
    e = x.shape[-1]
    twice = np.empty(x.shape[:-1] + (2 * e,), dtype=np.int64)
    twice[..., :e] = twice[..., e:] = x
    view = np.ndarray(x.shape[:-1] + (e + 1, e), np.int64, twice, 0,
                      twice.strides + twice.strides[-1:])
    view.flags.writeable = False
    return view


@lru_cache(maxsize=64)
def _shear_cells(e: int, ns: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of the two gathers of _shear_sums, read-only.

    With m = e/7 and cs the distinct n mod m of ns, the first indexes the
    table as first[a, i, b, k] = cell (a + 7b, (k - 7 cs[i] b) mod e), the
    second indexes the (7, len(cs), e) stage-one sums as second[a, r, k] =
    cell (a, i, (k - ns[r] a) mod e) with cs[i] = ns[r] mod m.
    """
    m = e // 7
    ns = np.array(ns, dtype=np.int64)[:, None]
    cs, at = np.unique(ns % m, return_inverse=True)
    a = np.arange(7)[:, None, None]
    b = np.arange(m)[:, None]
    k = np.arange(e)
    first = (a[..., None] + 7 * b) * e + (k - 7 * cs[:, None, None] * b) % e
    second = (a * len(cs) + at.reshape(-1, 1)) * e + (k - ns * a) % e
    # every index is below e^2 (7 len(cs) e <= 7 m e = e^2): uint16 keeps the cache small
    first, second = first.astype(np.uint16), second.astype(np.uint16)
    for cells in (first, second):
        cells.flags.writeable = False
    return first, second


def _shear_sums(table: np.ndarray, ns) -> np.ndarray:
    """out[r, k] = sum_h table[h, (k - ns[r] h) mod e] for an (e, e) table, e in {7, 49}.

    Read row h of the table as a polynomial in zeta: row r of the result
    is the sum of the rows, row h multiplied by zeta^(ns[r] h).  With
    h = a + 7b, a < 7 and b < m = e/7, n h = n a + 7 (n mod m) b (mod e).
    So the rows sharing a are first summed once for each n mod m in ns,
    then those sums once for each n: at most 7 e (m^2 + len(ns)) cells
    gathered, against e^2 len(ns) row by row.  Each stage is one gather
    through the cached indices of _shear_cells and one sum.
    """
    first, second = _shear_cells(table.shape[0], tuple(int(n) for n in ns))
    part = table.take(first).sum(axis=2)
    return part.take(second).sum(axis=0)


def jacobi_rows(cyc: CycNumberTable, a: int, bs) -> np.ndarray:
    """J(a,b)_e off the table for every b in bs, as canonical int64 rows (Fourier direction).

    Coefficient k of J(a,b) is the sum of the cells (x,y)_e with
    ax + by = k (mod e).  Folding row x of the table onto row ax leaves
    in row c the cells with ax = c, so J(a,b) is the shear sum of the
    folded table's transpose at n = b.
    """
    e = cyc.e
    folded = cyc.counts
    if a % e != 1:
        folded = np.zeros_like(folded)
        np.add.at(folded, a * np.arange(e) % e, cyc.counts)
    return canonical_rows(e, _shear_sums(folded.T, bs))


def jacobi_from_cyc(cyc: CycNumberTable, a: int, b: int) -> CyclotomicInt:
    """J(a,b)_e rebuilt from the cyclotomic-number table: one row of jacobi_rows."""
    return CyclotomicInt(cyc.e, jacobi_rows(cyc, a, (b,))[0].tolist())


def dickson_hurwitz(cyc: CycNumberTable) -> DicksonHurwitzTable:
    """Full table of B(i,j)_e = sum_h (h, i - j*h)_e from the cyclotomic numbers.

    Column j is row j of the table's shear sums.
    """
    B = np.ascontiguousarray(_shear_sums(cyc.counts, range(cyc.e)).T)
    B.flags.writeable = False
    return DicksonHurwitzTable(e=cyc.e, p=cyc.p, B=B)


def jacobi_rows_via_dh(dh: DicksonHurwitzTable, js) -> np.ndarray:
    """J(1,j)_e = sum_i B(i,j) zeta^i for every j in js, as canonical int64 rows.

    Needs the cofactor f even.
    """
    f = (dh.p - 1) // dh.e
    if f % 2 != 0:
        raise UnsupportedCase("the Dickson-Hurwitz expansion of J(1,j) needs f even")
    return canonical_rows(dh.e, dh.B.T[np.asarray(js, dtype=np.int64) % dh.e])


def jacobi_via_dh(dh: DicksonHurwitzTable, j: int) -> CyclotomicInt:
    """J(1,j)_e as sum_i B(i,j) zeta^i: one row of jacobi_rows_via_dh."""
    return CyclotomicInt(dh.e, jacobi_rows_via_dh(dh, (j,))[0].tolist())


def _class_images(e, i, j):
    """The six images of the index pair (i,j) under the even-f symmetries.

    Works elementwise when i and j are index arrays.
    """
    return ((i % e, j % e), (j % e, i % e), ((i - j) % e, -j % e),
            ((j - i) % e, -i % e), (-i % e, (j - i) % e), (-j % e, (i - j) % e))


def six_class(e: int, i: int, j: int) -> set[tuple[int, int]]:
    """The symmetry class of the cyclotomic number (i,j)_e when f is even."""
    return set(_class_images(e, i, j))


@cache
def _image_cells(e: int) -> np.ndarray:
    """Flat indices of the five other images of each cell of an (e, e) table, (5, e*e)."""
    cells = np.array([a * e + b for a, b in _class_images(e, *np.indices((e, e)))[1:]])
    cells.flags.writeable = False
    return cells.reshape(5, e * e)


def check_symmetries(cyc: CycNumberTable) -> list[str]:
    """Verify the even-f symmetry classes and the total count; return failures."""
    e, p, counts = cyc.e, cyc.p, cyc.counts
    problems = []
    if int(counts.sum()) != p - 2:
        problems.append(f"total {int(counts.sum())} != p - 2")
    flat = counts.ravel()
    broken = (flat[_image_cells(e)] != flat).any(axis=0).reshape(e, e)
    for i, j in zip(*np.nonzero(broken)):
        i, j = int(i), int(j)
        for (a, b) in six_class(e, i, j):
            if cyc.cell(a, b) != cyc.cell(i, j):
                problems.append(f"({i},{j}) class broken at ({a},{b})")
    return problems


def identity_suite(cyc: CycNumberTable) -> list[str]:
    """Check the elementary Jacobi-sum identities at every index pair; return failures.

    Each J(i,j)_e is the Fourier transform of the table (jacobi_rows),
    and the transform inverts exactly: e^2 (a,b)_e is the sum over i, j
    of zeta^-(ai + bj) J(i,j), which the test reference cyc_from_jacobi
    (tests/oracles.py) evaluates.  So J(0,0) = p - 2
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
    or is a unit multiple of some (d, d*m).  All those products J
    sigma_-1(J) are one einsum of the rows with a strided view of their
    cyclic shifts (_windows), which copies each row twice, not e times.

    With f even, chi^i(-1) = 1, so the identities hold for J itself.  The
    suite makes no pass over F_p; the direct pair count that checks the
    table runs once per prime in the verification pipeline.  A table
    permuted by a unit s, the true table of another generator, passes
    the suite; the count tells it apart.
    """
    e, p = cyc.e, cyc.p
    if ((p - 1) // e) % 2 != 0:
        raise InvariantViolation(f"the cofactor (p - 1)/{e} is odd at p = {p}")
    failures = check_symmetries(cyc)
    divisors = [d for d in range(1, e) if e % d == 0]
    minus_one = np.zeros(e, dtype=np.int64)
    minus_one[0] = -1
    for d, row in zip(divisors, jacobi_rows(cyc, 0, divisors)):
        if (row != minus_one).any():
            failures.append(f"one-zero identity fails at (0,{d})")

    reps = [(d, d * m) for d in divisors for m in range(1, e // d - 1)]
    x = np.concatenate([jacobi_rows(cyc, d, [j for i, j in reps if i == d])
                        for d in divisors])
    # Coefficient k of J * sigma_-1(J) is sum_a x_a x_(a-k), and x_(a-k) is
    # entry a of window e - k of the row: the windows read in reverse.
    # From p - 2 counts the canonical coefficients have absolute sum at
    # most 2p, so int64 is exact for p below 10^9.
    norms = np.einsum("ra,rka->rk", x, _windows(x)[:, e:0:-1])
    norms = canonical_rows(e, norms)
    norms[:, 0] -= p
    for (i, j), wrong in zip(reps, norms.any(axis=1)):
        if wrong:
            failures.append(f"|J|^2 != p at ({i},{j})")
    return failures
