"""Known answers for the benchmark, computed without jacobi49.

Primes come from a sieve of Eratosthenes over a numpy byte array.  The
artiad verdict uses no index table: for p = 1 (mod 7) and any seventh
root of unity w != 1 in F_p, the roots of x^3 + x^2 - 2x - 1 are
w^k + w^-k for k = 1, 2, 3.  p is artiad when every root is a seventh
power, r^((p-1)/7) = 1, and hyperartiad when 7^((p-1)/7) = 1 as well.
"""

import numpy as np


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n, ascending, as int64."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=np.bool_)
    sieve[:2] = False
    for q in range(2, int(n**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    return np.flatnonzero(sieve).astype(np.int64)


def primes_in(lo: int, hi: int, modulus: int) -> list[int]:
    """Primes p in [lo, hi] with p = 1 (mod modulus)."""
    ps = primes_upto(hi)
    ps = ps[(ps >= lo) & (ps % modulus == 1)]
    return [int(p) for p in ps]


def cubic_roots(p: int) -> list[int]:
    """The three roots of x^3 + x^2 - 2x - 1 mod p = 1 (mod 7), in closed form."""
    f = (p - 1) // 7
    a = 2
    while (w := pow(a, f, p)) == 1:
        a += 1
    roots = [(pow(w, k, p) + pow(w, 7 - k, p)) % p for k in (1, 2, 3)]
    for r in roots:
        if (r * r * r + r * r - 2 * r - 1) % p:
            raise ArithmeticError(f"closed-form root {r} fails the cubic mod {p}")
    return roots


def kind(p: int) -> str:
    """'ordinary', 'artiad' or 'hyperartiad' for a prime p = 1 (mod 7)."""
    if (p - 1) % 7:
        raise ValueError(f"p = {p} is not 1 (mod 7)")
    f = (p - 1) // 7
    if any(pow(r, f, p) != 1 for r in cubic_roots(p)):
        return "ordinary"
    return "hyperartiad" if pow(7, f, p) == 1 else "artiad"
