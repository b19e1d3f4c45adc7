"""Jacobi sums of order 7 from a generator of a prime of Z[zeta_7] above p.

For p = 1 (mod 7), p splits in Z[zeta], zeta = zeta_7, into six primes;
P = (p, zeta - w0) is the one on which zeta is w0 mod p, for the
seventh root of unity w0 = prime_field.seventh_root_of_unity(p).
Z[zeta_7] is norm-Euclidean (H. W. Lenstra, Euclid's algorithm in
cyclotomic fields, J. London Math. Soc. 10, 1975), so P has a generator
pi, which Euclid's algorithm finds in O(log p) steps (prime_above).
Stickelberger's relation then gives every J(1,n)_7 exactly
(Berndt-Evans-Williams, Gauss and Jacobi Sums, 1998; Ireland-Rosen,
ch. 14):

    J(1,n)_7 = eps * prod sigma_{t^-1}(pi_w),  t in 1..6 with
               floor((1 + n) t / 7) - floor(n t / 7) = 1,

where sigma_t maps zeta to zeta^t, pi_w generates the prime (p, zeta - w)
with w = gamma^(-(p-1)/7) for the chosen generator gamma, and eps is the
one unit +-zeta^k with J = -1 mod (1 - zeta)^2.  No pass over F_p is
made: the cost is a few dozen products of small elements.

Elements are 6-tuples of Python ints on the basis 1, zeta, ..., zeta^5,
with zeta^6 = -(1 + zeta + ... + zeta^5); the canonical rows of
cyclotomic_ring are the same vectors with a seventh entry 0.  Norms go
through the subfield Q(sqrt(-7)) = Q(theta), theta = zeta + zeta^2 +
zeta^4, theta^2 + theta + 2 = 0: with s = sigma_2(b) sigma_4(b), b s =
x + y theta and N(b) = x^2 - x y + 2 y^2, and N(b)/b is s (x - y - y
theta).  So a rounded division costs a few products and no six-fold
one.  The prime of Q(sqrt(-7)) below P is t + u sqrt(-7), p = t^2 + 7u^2
(subfield_prime, Cornacchia's algorithm), and sqrt(-7) = 1 + 2 theta;
Euclid starts from it and zeta - w0, at norm p^3 rather than p^6.
"""

from itertools import product
from math import isqrt

from .errors import InputError, InvariantViolation
from .prime_field import seventh_root_of_unity

# STICKELBERGER[n - 1]: the t in 1..6 with floor((1 + n) t / 7) - floor(n t / 7) = 1,
# n = 1..3; n = 4 and 5 give the sets of 2 and 1, as J(1,4) = J(1,2) and J(1,5) = J(1,1)
STICKELBERGER = ((4, 5, 6), (3, 5, 6), (2, 4, 6))
# INVERSE[t] = t^-1 mod 7
INVERSE = (0, 1, 4, 5, 2, 3, 6)


def mul(a, b):
    """The product of two elements: the 36 products written out, then zeta^7 = 1
    and zeta^6 = -(1 + ... + zeta^5)."""
    a0, a1, a2, a3, a4, a5 = a
    b0, b1, b2, b3, b4, b5 = b
    c6 = a1 * b5 + a2 * b4 + a3 * b3 + a4 * b2 + a5 * b1
    return (a0 * b0 + a2 * b5 + a3 * b4 + a4 * b3 + a5 * b2 - c6,
            a0 * b1 + a1 * b0 + a3 * b5 + a4 * b4 + a5 * b3 - c6,
            a0 * b2 + a1 * b1 + a2 * b0 + a4 * b5 + a5 * b4 - c6,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + a5 * b5 - c6,
            a0 * b4 + a1 * b3 + a2 * b2 + a3 * b1 + a4 * b0 - c6,
            a0 * b5 + a1 * b4 + a2 * b3 + a3 * b2 + a4 * b1 + a5 * b0 - c6)


def sigma(a, t):
    """sigma_t(a): zeta -> zeta^t, t a unit mod 7."""
    c = [0] * 7
    for i, x in enumerate(a):
        c[i * t % 7] = x
    top = c[6]
    return tuple(x - top for x in c[:6])


def _parts(b):
    """(s, x, y, N(b)) with s = sigma_2(b) sigma_4(b) and b s = x + y theta.

    Only the coefficients of 1 and zeta of b s are formed; those of
    zeta^2 and zeta^4 equal y, and those of zeta^3 and zeta^5 vanish.
    """
    b0, b1, b2, b3, b4, b5 = b
    s = mul((b0 - b3, b4 - b3, b1 - b3, b5 - b3, b2 - b3, -b3),   # sigma_2(b)
            (b0 - b5, b2 - b5, b4 - b5, -b5, b1 - b5, b3 - b5))   # sigma_4(b)
    s0, s1, s2, s3, s4, s5 = s
    c6 = b1 * s5 + b2 * s4 + b3 * s3 + b4 * s2 + b5 * s1
    x = b0 * s0 + b2 * s5 + b3 * s4 + b4 * s3 + b5 * s2 - c6
    y = b0 * s1 + b1 * s0 + b3 * s5 + b4 * s4 + b5 * s3 - c6
    return s, x, y, x * x - x * y + 2 * y * y


def norm(b) -> int:
    """N(b), the product of the six conjugates of b."""
    return _parts(b)[3]


def _minus(a, q, b):
    """a - q b."""
    return tuple(x - y for x, y in zip(a, mul(q, b)))


def _nearby(a, b, q, nb):
    """The first (q', a - q' b) with N(a - q' b) below nb = N(b), over the q'
    whose coordinates differ from q's by -1, 0 or 1, the fewest changed first.

    Below MAX_PRIME one changed coordinate has always sufficed: rounding
    fails at 291 of the steps that prime_above takes at the 110653 primes
    p = 1 (mod 14), the first at p = 28309.
    """
    for ds in sorted(product((-1, 0, 1), repeat=6), key=lambda ds: ds.count(0),
                     reverse=True):
        near = [x + d for x, d in zip(q, ds)]
        r = _minus(a, near, b)
        if norm(r) < nb:
            return near, r
    raise InvariantViolation(f"no quotient next to {q} lowers the norm below {nb}")


def _divide(a, b, parts):
    """(q, r, _parts(r)) with a = q b + r and N(r) < N(b); parts = _parts(b).

    q is a (N(b)/b) / N(b), rounded coefficientwise, where N(b)/b =
    s (x - y - y theta).  When the remainder's norm is not below N(b),
    the quotients next to the rounded one are tried (_nearby); since
    Z[zeta_7] is norm-Euclidean, some quotient lowers it.
    """
    s, x, y, nb = parts
    num = mul(mul(a, s), (x - y, -y, -y, 0, -y, 0))
    q = [(2 * c + nb) // (2 * nb) for c in num]
    r = _minus(a, q, b)
    rparts = _parts(r)
    if rparts[3] >= nb:
        q, r = _nearby(a, b, q, nb)
        rparts = _parts(r)
    return q, r, rparts


def gcd(a, b):
    """A generator of the ideal (a, b), by Euclid's algorithm (_divide)."""
    parts = _parts(b)
    while parts[3]:
        _, r, rparts = _divide(a, b, parts)
        a, b, parts = b, r, rparts
    return a


def subfield_prime(p: int, w0: int) -> tuple[int, int]:
    """(t, u) with p = t^2 + 7u^2, t > 0, and t + u sqrt(-7) in (p, zeta - w0).

    Cornacchia's algorithm: the Euclidean algorithm on p and a square root
    of -7 mod p stops at the first remainder t below sqrt(p), and then
    p - t^2 = 7u^2.  The root is g, the image of sqrt(-7) = 1 + 2 theta at
    zeta = w0: the conductor-7 Gauss sum w0 + w0^2 + w0^4 - w0^3 - w0^5 -
    w0^6, whose square is -7 for any seventh root of unity w0 != 1 mod p.
    No square root is searched for.  u has the sign that makes t + u g
    vanish mod p.
    """
    x = [1]
    for _ in range(6):
        x.append(x[-1] * w0 % p)
    g = (x[1] + x[2] + x[4] - x[3] - x[5] - x[6]) % p
    a, t = p, g
    limit = isqrt(p)
    while t > limit:
        a, t = t, a % t
    u2, rest = divmod(p - t * t, 7)
    u = isqrt(u2)
    if rest or u * u != u2 or u == 0:
        raise InvariantViolation(f"p = {p} has no t^2 + 7u^2 representation")
    return (t, u) if (t + u * g) % p == 0 else (t, -u)


def prime_above(p: int, w0: int):
    """A generator pi of P = (p, zeta - w0), w0 a primitive seventh root of unity mod p.

    It is the gcd of zeta - w0 and t + u sqrt(-7) (subfield_prime), whose
    norm is p^3.  Raises unless N(pi) = p and pi vanishes at zeta = w0
    mod p.
    """
    t, u = subfield_prime(p, w0)
    pi = gcd((-w0, 1, 0, 0, 0, 0), (t + u, 2 * u, 2 * u, 0, 2 * u, 0))
    value = 0
    for c in reversed(pi):
        value = (value * w0 + c) % p
    if norm(pi) != p or value:
        raise InvariantViolation(f"Euclid's algorithm gave {pi}, no generator of "
                                 f"the prime above {p} at zeta = {w0}")
    return pi


def jacobi_sums(p: int, gamma: int) -> list[tuple[int, ...]]:
    """J(1,n)_7 for n = 1..5 and the generator gamma, by Stickelberger's relation.

    pi generates P = (p, zeta - w0), w0 = seventh_root_of_unity(p), so it
    depends on p alone.  With w = gamma^(-(p-1)/7) = w0^j, the prime
    (p, zeta - w) is sigma_{j^-1}(P), so sigma_{t^-1}(pi_w) =
    sigma_{(t j)^-1}(pi).  eps makes the product -1 mod (1 - zeta)^2:
    with zeta = 1 + l, sum c_k zeta^k = sum c_k + (sum k c_k) l mod l^2,
    and the classical congruence leaves the product +-1 mod l.  (1,4)
    and (1,5) lie in the six classes of (1,2) and (1,1), so J(1,4) =
    J(1,2) and J(1,5) = J(1,1).  A gamma whose (p-1)/7-th power is 1 is
    no primitive root and has no j: InputError.
    """
    w0 = seventh_root_of_unity(p)
    pi = prime_above(p, w0)
    g = pow(gamma, (p - 1) // 7, p)
    j = next((k for k in range(1, 7) if pow(w0, k, p) * g % p == 1), None)
    if j is None:
        raise InputError(f"gamma = {gamma} is not a primitive root mod p = {p}")
    conjugates = [None] + [sigma(pi, k) for k in range(1, 7)]
    sums = []
    for ts in STICKELBERGER:
        a, b, c = (conjugates[INVERSE[t * j % 7]] for t in ts)
        x = mul(mul(a, b), c)
        head = sum(x) % 7
        if head not in (1, 6):
            raise InvariantViolation(f"J(1,n)_7 at p = {p} is not +-1 mod (1 - zeta)")
        sign = -1 if head == 1 else 1
        k = sign * sum(i * v for i, v in enumerate(x)) % 7
        # sign zeta^k x, with zeta^6 = -(1 + ... + zeta^5)
        c7 = [0] * 7
        for i, v in enumerate(x):
            c7[(i + k) % 7] = sign * v
        sums.append(tuple(v - c7[6] for v in c7[:6]))
    return sums + [sums[1], sums[0]]
