"""Prime-field context: primality, primitive roots, factorials and the class table.

ind(a) is the discrete logarithm of a with respect to a fixed primitive
root gamma, i.e. gamma**ind(a) == a (mod p).  Every multiplicative
character used elsewhere in the package has order 7 or 49, so it depends
on ind(a) only mod m = gcd(p - 1, 49).  The context is built once per
prime and shared read-only.  It holds two per-prime tables, each built
on first use and then kept:

  * factorials, (k (p-1)/m)! mod p for k = 0..m-1, from which the
    cyclotomic numbers are computed (cyclotomy.cyclotomic_numbers).
    By Legendre's formula n! is 2^v2 3^v3 times the products of the
    integers prime to 6 up to floor(n/s), s = 2^a 3^b, so one walk over
    a third of the integers up to ((m - 1)/2)(p-1)/m gives the lower
    half, and Wilson's theorem the upper;
  * classes, ind(a) mod m as one uint8 per field element, which only
    the direct counts read: the pair count that checks the cyclotomic
    numbers in verification, and the direct character sums.

A single full logarithm (index_of) comes from Pohlig-Hellman, ind(a)
mod e for e | m (index_mod) from a^((p-1)/e), and the seventh-power test
from Euler's criterion; none of them reads a table.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import DomainError, InputError, InvariantViolation

# Above this the O(p) passes over F_p stop being desk-scale.
MAX_PRIME = 10**7
# The class table holds ind(a) mod gcd(p - 1, CLASS_MODULUS).
CLASS_MODULUS = 49

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the supported range."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_primitive_root(g: int, p: int) -> bool:
    if g % p == 0:
        return False
    return all(pow(g, (p - 1) // q, p) != 1 for q in _prime_factors(p - 1))


def find_generator(p: int) -> int:
    """Smallest primitive root modulo the odd prime p (smallest for determinism)."""
    if not is_prime(p) or p == 2:
        raise InputError(f"{p} is not an odd prime")
    factors = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise InputError(f"no generator found for {p}")  # pragma: no cover


@dataclass(frozen=True)
class FieldContext:
    """Immutable per-prime context: p, the chosen generator and m = gcd(p - 1, 49).

    factorials and classes are computed on first access, at most once
    per context, and are read-only.
    """

    p: int
    gamma: int
    m: int

    def cofactor(self, e: int) -> int:
        """f = (p - 1)/e for characters of order e; e must divide m."""
        if self.m % e != 0:
            raise InputError(f"{e} does not divide m = gcd(p - 1, {CLASS_MODULUS}) "
                             f"= {self.m}")
        return (self.p - 1) // e

    @cached_property
    def factorials(self) -> np.ndarray:
        """(k*f)! mod p for k = 0..m-1, f = (p - 1)/m, as int64.

        Only the lower half, up to (h*f)!, h = m // 2, comes from the
        kernel, in one call: _kernels.factorials multiplies only the
        integers prime to 6, a third of those up to h*f, since Legendre's
        formula gives n! as 2^v2 3^v3 times products of them.  The rest
        follows from Wilson's theorem in the form
        a! (p - 1 - a)! = (-1)^(a + 1) (mod p): with a = k*f even and
        p - 1 - a = (m - k) f, (k*f)! = -1/((m - k) f)!.
        """
        p, m = self.p, self.m
        h, f = m // 2, (p - 1) // m
        out = [1] + _kernels.factorials(p, range(f, h * f + 1, f)).tolist()
        out += [p - pow(out[m - k], -1, p) for k in range(h + 1, m)]
        table = np.array(out, dtype=np.int64)
        table.flags.writeable = False
        return table

    @cached_property
    def classes(self) -> np.ndarray:
        """classes[a] = ind(a) mod m for a = 1..p-1, as uint8."""
        table = _kernels.index_table(self.p, self.gamma, self.m)
        table.flags.writeable = False
        return table

    def classes_for(self, e: int) -> np.ndarray:
        """The class table, for characters of order e; e must divide m."""
        self.cofactor(e)
        return self.classes


def build_ctx(p: int, gamma: int | None = None) -> FieldContext:
    """The context of F_p with the given (or the smallest) generator; no table yet."""
    if not is_prime(p) or p == 2:
        raise InputError(f"{p} is not an odd prime")
    if p > MAX_PRIME:
        raise InputError(f"p = {p} exceeds the supported bound {MAX_PRIME}")
    if gamma is None:
        gamma = find_generator(p)
    else:
        gamma = gamma % p
        if not is_primitive_root(gamma, p):
            raise InputError(f"{gamma} is not a primitive root modulo {p}")
    return FieldContext(p=p, gamma=gamma, m=math.gcd(p - 1, CLASS_MODULUS))


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


def index_mod(ctx: FieldContext, a: int, e: int) -> int:
    """ind(a) mod e, for e dividing m and a nonzero mod p; reads no table.

    With f = (p - 1)/e, a^f = (gamma^f)^ind(a) is an e-th root of unity,
    and ind(a) mod e is its exponent.
    """
    p = ctx.p
    r = a % p
    if r == 0:
        raise DomainError("index of 0 is undefined")
    f = ctx.cofactor(e)
    target, w = pow(r, f, p), pow(ctx.gamma, f, p)
    x = 1
    for k in range(e):
        if x == target:
            return k
        x = x * w % p
    raise InvariantViolation(f"{r}^{f} is not a power of {w} modulo {p}")


def is_seventh_power_residue(ctx: FieldContext, a: int) -> bool:
    """Whether a is a seventh power in F_p*, by Euler's criterion; requires p = 1 (mod 7)."""
    r = a % ctx.p
    if r == 0:
        raise DomainError("index of 0 is undefined")
    return pow(r, ctx.cofactor(7), ctx.p) == 1
