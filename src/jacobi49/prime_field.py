"""Prime-field context: primality, primitive roots and the per-prime field tables.

ind(a) is the discrete logarithm of a with respect to a fixed primitive
root gamma, i.e. gamma**ind(a) == a (mod p).  Every multiplicative
character used elsewhere in the package has order 7 or 49, so it depends
on ind(a) only mod m = gcd(p - 1, 49).  The context is built once per
prime and shared read-only: a scanned prime's classification and its
verification read one context, so each of its tables is built once for
both.  It holds three per-prime tables, each built on first use and then
kept:

  * jacobi7, the exact J(1,n)_7 for n = 1..5 by Stickelberger's relation
    on a generator of a prime of Z[zeta_7] above p
    (stickelberger.jacobi_sums), from which the cyclotomic numbers of
    order 7 are computed at every p = 1 (mod 14), with no pass over F_p;
  * factorials, (k (p-1)/m)! mod p for k = 0..m-1, from which the
    cyclotomic numbers of order 49 are computed when m = 49
    (cyclotomy.cyclotomic_numbers).  By Legendre's formula n! is
    2^v2 3^v3 times the products of the integers prime to 6 up to
    floor(n/s), s = 2^a 3^b, so one walk over a third of the integers up
    to ((m - 1)/2)(p-1)/m gives the lower half, and Wilson's theorem the
    upper.  The order-7 numbers never read it;
  * classes, ind(a) mod m as one uint8 per field element, which only
    the direct counts read: the pair count that checks the cyclotomic
    numbers in verification, and the direct character sums.

ind(a) mod e for e | m (index_mod) comes from a^((p-1)/e), the
seventh-power test from Euler's criterion, and a primitive seventh root
of unity (seventh_root_of_unity) from the least a with a^((p-1)/7) != 1;
none of them reads a table.  A full logarithm, by Pohlig-Hellman, is a
test reference (tests/oracles.py).
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
# Below this the witnesses 2, 3, 5 and 7 alone are deterministic: it is
# the least strong pseudoprime to all four (Jaeschke 1993).
_FOUR_WITNESSES_BELOW = 3215031751


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the supported range."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES[:4] if n < _FOUR_WITNESSES_BELOW else _MR_WITNESSES:
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
    if n % 2 == 0:
        out.append(2)
        while n % 2 == 0:
            n //= 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 2
    if n > 1:
        out.append(n)
    return out


def _generates(g: int, p: int, factors: list[int]) -> bool:
    """Whether g has order p - 1 mod p, given the prime factors of p - 1."""
    return all(pow(g, (p - 1) // q, p) != 1 for q in factors)


def is_primitive_root(g: int, p: int) -> bool:
    return g % p != 0 and _generates(g, p, _prime_factors(p - 1))


def find_generator(p: int) -> int:
    """Smallest primitive root modulo the odd prime p (smallest for determinism)."""
    if not is_prime(p) or p == 2:
        raise InputError(f"{p} is not an odd prime")
    return _smallest_generator(p)


def _smallest_generator(p: int) -> int:
    """Smallest primitive root modulo p, which must be an odd prime."""
    factors = _prime_factors(p - 1)
    for g in range(2, p):
        if _generates(g, p, factors):
            return g
    raise InputError(f"no generator found for {p}")  # pragma: no cover


def seventh_root_of_unity(p: int) -> int:
    """A primitive seventh root of unity modulo the prime p = 1 (mod 7).

    It is a^((p-1)/7) for the least a >= 2 that is not a seventh power,
    so it depends on p alone, not on a generator.
    """
    if p % 7 != 1:
        raise InputError(f"{p} is not 1 (mod 7): no primitive seventh root of unity")
    f = (p - 1) // 7
    a = 2
    while (w := pow(a, f, p)) == 1:
        a += 1
    return w


@dataclass(frozen=True)
class FieldContext:
    """Immutable per-prime context: p, the chosen generator and m = gcd(p - 1, 49).

    jacobi7, factorials and classes are computed on first access, at most
    once per context, and are read-only; every reader of the prime that
    shares the context shares them.
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
    def jacobi7(self) -> tuple[tuple[int, ...], ...]:
        """J(1,n)_7 for n = 1..5 and this generator, as stickelberger.jacobi_sums
        gives them; it requires m = 7 or 49 and makes no pass over F_p."""
        from . import stickelberger  # imported here: stickelberger imports this module

        return tuple(stickelberger.jacobi_sums(self.p, self.gamma))

    @cached_property
    def factorials(self) -> np.ndarray:
        """(k*f)! mod p for k = 0..m-1, f = (p - 1)/m, as int64; the order-49
        table alone reads it, so only when m = 49.

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
        gamma = _smallest_generator(p)
    else:
        gamma = gamma % p
        if not is_primitive_root(gamma, p):
            raise InputError(f"{gamma} is not a primitive root modulo {p}")
    return FieldContext(p=p, gamma=gamma, m=math.gcd(p - 1, CLASS_MODULUS))


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
