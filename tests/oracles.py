"""Reference formulas that only the tests compare against."""

from math import isqrt

import numpy as np

from jacobi49.cyclotomic_ring import Residue8
from jacobi49.cyclotomy import CycNumberTable
from jacobi49.order7 import Sextuple, TUPair
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
