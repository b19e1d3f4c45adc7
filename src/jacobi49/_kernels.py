"""Hot loops over F_p, in numpy.

factorials gives the n! mod p that the order-49 cyclotomic numbers are
built from when p = 1 (mod 49) (cyclotomy.cyclotomic_numbers; the
order-7 numbers come from Stickelberger's relation at every p, and no
kernel here runs for them).  Every k <= n is s * r in exactly
one way with s = 2^a 3^b and r prime to 6, and then r <= floor(n/s), so

    n! = 2^v2 * 3^v3 * prod_s R(floor(n/s)),

s over the 3-smooth numbers up to n, R(x) the product of the integers
up to x that are prime to 6, and v2 = sum_a floor(n/2^a) = n - popcount(n)
and v3 = sum_b floor(n/3^b) = (n - digitsum_3(n))/2 Legendre's exponents
of 2 and 3 in n! (the odd-part route to fast factorials: Borwein, On the
complexity of calculating factorials, J. Algorithms 1985; Schoenhage,
Grotefeld and Vetter, Fast Algorithms, 1994).  So only the integers
prime to 6, a third of all, are multiplied: one walk over the pairs
(6k + 1)(6k + 5) up to the largest n, read at the few distinct points
floor(n/s), where a running product over every integer would multiply
three times as many.  The walk is arithmetic in sequence, product trees
in int64 with no table and no scatter.

The other kernels read the field's class table: classes[a] = ind(a) mod m
for a = 1..p-1, where ind is the discrete logarithm to a fixed primitive
root and m divides p - 1.  With m = gcd(p - 1, 49) every character of
order 7 or 49 is read off it.  Labels are below 64 and stored as uint8;
classes[0] holds UNDEFINED and is never read.  The pipeline builds the
table only for pair_counts: verify counts the order-49 table pair by
pair, once per prime, and compares every cell with the factorial-built
table, and every cell of the fold with the Stickelberger-built order-7
table.
pair_counts is also the oracle of the startup self-check.
power_pair_hist, one direct character sum, is the kernel of
cyclotomy.jacobi_sum, which the tests use as their oracle.

Half the field fixes the table and the pair counts.  m is odd, so
f = (p - 1)/m is even and -1 = gamma**((p - 1)/2) has class 0
(chi(-1) = 1 for every character here; Berndt-Evans-Williams, Gauss and
Jacobi Sums, 1998): classes[p - a] = classes[a].  index_table powers out
only the exponents below (p - 1)/2, one for each pair {a, p - a}, and
mirrors the lower half of the table onto the upper.  pair_counts counts
the pairs of the lower half and adds their transposes, since
v -> p - 1 - v swaps the two classes of the pair (v, v + 1).

The kernels walk the field in chunks, so their temporaries stay small
whatever p is: _CHUNK elements for the pair histograms, whose keys and
bins then stay in cache, _SLAB pairs for the factorials, and
_BLOCK elements for index_table, whose int64 block of powers and its
quotients by p, 128 KB each, then stay in cache from the product through
the reduction mod p to the scatter; a block that spills out of cache
makes the reduction cost more than the scatter.  The pair histograms
widen each chunk of labels to int64 before any multiply (uint8
arithmetic wraps silently), once per chunk: one slice of n + 1 labels
holds both v and v + 1, and the keys go into a buffer allocated once per
call.  So all their arithmetic runs in the int64 loops the rest of the
package uses; narrow loops of their own would add numpy code pages to
every process that runs a kernel once.  Counts stay far below 2**63,
since p is capped at 10**7, and so do products of two residues, below
p**2 < 10**14.

cubic_roots, a full scan for the roots of x^3 + x^2 - 2x - 1, is the
test oracle of the closed form in artiad.cubic_roots; the pipeline does
not call it.
"""

from functools import lru_cache

import numpy as np

from .errors import InputError

_CHUNK = 1 << 15
_SLAB = 1 << 15  # pairs (6k + 1)(6k + 5) per slab of factorials
_TOP = 1 << 6  # nodes of a slab's top level, whose prefix products Python takes
_SHORT = 1 << 11  # a level this short is reduced mod p by one %=
_BLOCK = 1 << 14
_LABELS = 64  # every label is below 64
UNDEFINED = 255

# There is one backend; perfbench records this flag as its name.
USING_NUMBA = False


def _powers(base, n, p):
    """base**k mod p for k = 0..n-1, as int64."""
    out = np.ones(1, dtype=np.int64)
    g = base % p
    while out.size < n:
        out = np.concatenate([out, out * g % p])[:n]
        g = g * g % p
    return out


def _reduce(x, p, quot):
    """x mod p, in place; quot, as long as x, is scratch.

    A long x is reduced as x - (x // p) * p, since numpy's division by a
    scalar is much faster than its remainder; on a short one the one
    call of %= costs less than the three.
    """
    if x.size > _SHORT:
        np.floor_divide(x, p, out=quot)
        quot *= p
        x -= quot
    else:
        x %= p


def _fold(x, p):
    """The product mod p down the first axis of x, which it overwrites.

    The rows are multiplied first half by last half, reducing mod p after
    every product, until one is left; each product of two is below 2**63.
    """
    n = x.shape[0]
    while n > 1:
        half = n // 2
        low = x[:half]
        low *= x[n - half : n]
        low %= p
        n -= half
    return x[0]


def _divisors(top):
    """The s of the identity for every n <= top: a list, and how many powers of 3 and of 2.

    1, the powers 3..3^B and 2..2^A up to max(top, 3), whose quotients
    give Legendre's sums, then the other 3-smooth s <= top // 5.  A
    larger s leaves floor(n/s) <= 4, and R is 1 there.
    """
    bound = max(top, 3)
    threes = [3]
    while threes[-1] * 3 <= bound:
        threes.append(threes[-1] * 3)
    twos = [1 << a for a in range(1, bound.bit_length())]
    cap = top // 5
    rest = [t << a for t in threes for a in range(1, (cap // t).bit_length())]
    return [1] + threes + twos + rest, len(threes), len(twos)


@lru_cache(maxsize=None)
def _plan(size, top):
    """How _coprime_prefix reads a count w in a slab of size pairs, as (5, rows, 1) int64.

    Each row is one factor of the product of the slab's first w integers
    prime to 6.  Its five entries: the shift of w whose low bit decides
    whether the row is read, the shift and the offset that give the
    index read, the mask on that bit, and the index read where the
    masked bit is 0, a cell that holds 1.  Row 0 is the slab's 6k + 1,
    read at k = w >> 1 where w is odd.  Then come the pair levels below
    the top: level L, whose nodes hold 2**L pairs, is read at node
    (w >> (L + 1)) - 1 where bit L + 1 of w is set.  The last row is the
    prefix products of the top level, read at w >> depth whatever that
    is: its mask is -1, and at 0 its fallback is the same cell.
    """
    depth = (size // top).bit_length()
    levels = range(depth - 1)
    cum = 3 * size - top
    one = cum + top + 1
    plan = np.array([list(range(depth + 1)),
                     [1] + list(range(1, depth + 1)),
                     [0] + [3 * size - 2 * (size >> L) - 1 for L in levels] + [cum],
                     [1] * depth + [-1],
                     [one] * depth + [cum]], dtype=np.int64)[:, :, None]
    plan.flags.writeable = False
    return plan


def _coprime_prefix(p, c):
    """P(c) mod p for each c of the ascending int64 array c, P(c) the product
    of the first c integers prime to 6.

    The integers are walked as pairs (6k + 1)(6k + 5), below 2**63, a
    slab of _SLAB pairs at a time, in one buffer: the slab's 6k + 1, its
    pairs, each reduced mod p once, then the levels of their product
    tree, each node the product of two below it, down to _TOP nodes,
    whose prefix products, times those of the slabs before, Python takes.
    The product of the first w integers of the slab is then one node of
    each level where w has a bit set, the lone 6k + 1 where w is odd, and
    one top prefix: a single gather and row product per slab.  Each
    level's reduction scratch is the space of the levels above it, not
    yet built; the buffer of a slab of 2**15 pairs is 768 KB.
    """
    total = int(c[-1]) if c.size else 0
    size = min(_SLAB, 1 << (max(total - 1, 0) // 2).bit_length())
    top = min(size, _TOP)
    cshifts, ishifts, starts, masks, fallback = _plan(size, top)
    cum = 3 * size - top
    buf = np.ones(cum + top + 2, dtype=np.int64)
    lone = buf[:size]
    lone[:] = np.arange(1, 6 * size, 6, dtype=np.int64)
    parts = []
    lo, carry = 0, 1
    for start in range(0, max(total, 1), 2 * size):
        if start:
            lone += 6 * size
        x = buf[size : 2 * size]
        np.add(lone, 4, out=x)
        x *= lone
        _reduce(x, p, buf[2 * size : 3 * size])
        off, n = size, size
        while n > top:
            half = n // 2
            nxt = buf[off + n : off + n + half]
            np.multiply(buf[off : off + n : 2], buf[off + 1 : off + n : 2], out=nxt)
            off += n
            n = half
            _reduce(nxt, p, buf[off + n : off + 2 * n])
        prefix = [carry]
        for v in buf[off : off + n].tolist():
            carry = carry * v % p
            prefix.append(carry)
        buf[cum : cum + n + 1] = prefix
        hi = int(np.searchsorted(c, start + 2 * size, "right"))
        w = c[lo:hi] - start
        read = w >> cshifts
        read &= masks
        idx = w >> ishifts
        idx += starts
        parts.append(_fold(buf[np.where(read, idx, fallback)], p))
        lo = hi
    return np.concatenate(parts)


def factorials(p, ns):
    """n! mod p for each n of the ascending ns, n >= 0, as int64; p an odd prime.

    The cells floor(n/s), s from _divisors, are counted as integers
    prime to 6, (x + 1)//6 + (x + 5)//6 up to x; the distinct counts go
    to _coprime_prefix once each.  The powers 3**v3 * 2**v2 come from
    base-4 digits of the exponents, each read from a table of
    g**(d * 4**i), and one row product takes every factor of each n.
    """
    ns = np.asarray(ns, dtype=np.int64)
    top = int(ns[-1]) if ns.size else 0
    s, threes, twos = _divisors(top)
    x = ns // np.array(s, dtype=np.int64)[:, None]
    counts = x + 1
    counts //= 6
    t = x + 5
    t //= 6
    counts += t
    ordered = np.sort(counts, axis=None)
    keep = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    distinct = ordered[keep]
    digits = (top.bit_length() + 1) // 2 or 1
    table = [1] * (8 * digits)
    for row, g in enumerate((3 % p, 2 % p)):
        for i in range(digits):
            k = 4 * (row * digits + i)
            table[k + 1] = g
            table[k + 2] = g2 = g * g % p
            table[k + 3] = g2 * g % p
            g = g2 * g2 % p
    shifts, offsets = _digit_plan(digits)
    d = np.add.reduceat(x[1 : 1 + threes + twos], [0, threes])[:, None, :] >> shifts
    d &= 3
    d += offsets
    prefix = _coprime_prefix(p, distinct)[np.searchsorted(distinct, counts)]
    powers = np.array(table, dtype=np.int64)[d.reshape(2 * digits, -1)]
    return _fold(np.concatenate([prefix, powers]), p)


@lru_cache(maxsize=None)
def _digit_plan(digits):
    """The shifts 2i and the table offsets 4(row * digits + i) of factorials' power digits."""
    k = np.arange(2 * digits, dtype=np.int64).reshape(2, digits, 1)
    plan = np.stack([2 * (k % digits), 4 * k])
    plan.flags.writeable = False
    return plan


def index_table(p, gamma, m):
    """The class table of F_p for the primitive root gamma; m | p - 1, m odd, m <= 64.

    gamma**(k*m + r) has class r: the powers are the outer product
    (gamma**m)**k * gamma**r mod p, scattered a block of rows at a time
    with labels tiled to match.  Each block is reduced mod p by _reduce.
    Only the exponents below
    h = (p - 1)/2, the first f/2 rows, f = (p - 1)/m, are powered out:
    gamma**(x + h) = -gamma**x, so each pair {a, p - a} holds exactly one
    of those powers, which is folded to min(a, p - a) and written once
    into the lower half.  With f even, h is a multiple of m and a and
    p - a share a class, so the upper half is the lower half mirrored.
    """
    f = (p - 1) // m
    if f % 2:
        raise InputError(f"the class table needs (p - 1)/m even; m = {m} at p = {p}")
    h = (p - 1) // 2
    half = f // 2
    steps = _powers(pow(gamma, m, p), half, p)
    offsets = _powers(gamma, m, p)
    table = np.empty(p, dtype=np.uint8)
    table[0] = UNDEFINED
    rows = max(1, min(half, _BLOCK // m))
    labels = np.tile(np.arange(m, dtype=np.uint8), rows)
    block = np.empty((rows, m), dtype=np.int64)
    quot = np.empty_like(block)
    for start in range(0, half, rows):
        n = min(rows, half - start)
        x, q = block[:n], quot[:n]
        np.multiply(steps[start : start + n, None], offsets, out=x)
        _reduce(x, p, q)
        np.subtract(p, x, out=q)
        np.minimum(x, q, out=x)
        table[x.ravel()] = labels[: x.size]
    table[h + 1 :] = table[h:0:-1]
    return table


def _pairs(classes):
    """(classes[v], classes[v + 1]) for v = 1..len(classes) - 2, chunk by chunk, as int64.

    Each chunk widens one slice of n + 1 labels into a buffer that the
    next chunk reuses; the pair are two views of it that overlap in all
    but one element, so a caller writes its keys into a buffer of its own.
    """
    p = classes.shape[0]
    wide = np.empty(_CHUNK + 1, dtype=np.int64)
    for start in range(1, p - 1, _CHUNK):
        stop = min(p - 1, start + _CHUNK)
        w = wide[: stop + 1 - start]
        w[:] = classes[start : stop + 1]
        yield w[:-1], w[1:]


def pair_counts(classes, e):
    """The cyclotomic numbers (a,b)_e, e | m, as an int64 (e, e) array.

    The table must have classes[p - a] = classes[a], as every table of
    index_table has; no cell above h = (p - 1)/2 is read.  v -> p - 1 - v
    turns the pair (c[v], c[v + 1]) into (c[v + 1], c[v]), so the pairs
    of v = 1..h-1 and their transposes are those of every v but h, the
    fixed point, whose pair is (c[h], c[h]).  Counts the class pairs
    (a, b) mod m in 64 x 64 bins and folds them to (a mod e, b mod e):
    the bins, padded with zeros to k e on each side, are a (k, e, k, e)
    array summed over its k axes.
    """
    h = (classes.shape[0] - 1) // 2
    joint = np.zeros(_LABELS * _LABELS, dtype=np.int64)
    keys = np.empty(_CHUNK, dtype=np.int64)
    for a, b in _pairs(classes[: h + 1]):
        key = keys[: a.size]
        np.multiply(a, _LABELS, out=key)
        key += b
        joint += np.bincount(key, minlength=_LABELS * _LABELS)
    joint = joint.reshape(_LABELS, _LABELS)
    joint = joint + joint.T
    joint[classes[h], classes[h]] += 1
    k = -(-_LABELS // e)
    padded = np.zeros((k * e, k * e), dtype=np.int64)
    padded[:_LABELS, :_LABELS] = joint
    return padded.reshape(k, e, k, e).sum(axis=(0, 2))


def power_pair_hist(classes, e, i, j):
    """Histogram over v = 1..p-2 of (i*ind(v) + j*ind(v+1)) mod e; 0 <= i, j < e | m."""
    out = np.zeros(e, dtype=np.int64)
    keys = np.empty(_CHUNK, dtype=np.int64)
    right = np.empty(_CHUNK, dtype=np.int64)
    for a, b in _pairs(classes):
        key, r = keys[: a.size], right[: a.size]
        np.multiply(a, i, out=key)
        np.multiply(b, j, out=r)
        key += r
        key %= e
        out += np.bincount(key, minlength=e)
    return out


def power_pair_hist_variant(classes, e, i, j):
    """Histogram over v = 2..p-1 of (i*ind(v) + j*ind(1 - v)) mod e; 0 <= i, j < e | m.

    The partner index (1 - v) mod p = p + 1 - v is classes[2:p] backwards.
    """
    p = classes.shape[0]
    a = classes[2:p].astype(np.int64)
    keys = i * a + j * a[::-1]
    keys %= e
    return np.bincount(keys, minlength=e)


def cubic_roots(p):
    """Roots of x^3 + x^2 - 2x - 1 modulo p, ascending, by scanning all of F_p."""
    roots = []
    for start in range(0, p, _BLOCK):
        x = np.arange(start, min(p, start + _BLOCK), dtype=np.int64)
        vals = ((x * x % p) * x + x * x + (p - 2) * x + (p - 1)) % p
        roots.extend(int(start + k) for k in np.flatnonzero(vals == 0))
    return np.array(roots, dtype=np.int64)


def warmup():
    """Run every kernel once on F_29, so that lazy numpy set-up is not timed later."""
    factorials(29, (4, 8, 12))
    classes = index_table(29, 2, 7)
    pair_counts(classes, 7)
    power_pair_hist(classes, 7, 1, 1)
    power_pair_hist_variant(classes, 7, 1, 1)
    cubic_roots(29)
