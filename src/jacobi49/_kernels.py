"""Hot loops over F_p, in numpy.

block_factorials multiplies out the running product 1*2*...*n mod p
that the cyclotomic numbers are built from (cyclotomy.cyclotomic_numbers).
It is arithmetic in sequence: blocks of consecutive integers, tree-reduced
in int64, with no table and no scatter.

The other kernels read the field's class table: classes[a] = ind(a) mod m
for a = 1..p-1, where ind is the discrete logarithm to a fixed primitive
root and m divides p - 1.  With m = gcd(p - 1, 49) every character of
order 7 or 49 is read off it.  Labels are below 64 and stored as uint8;
classes[0] holds UNDEFINED and is never read.  The pipeline builds the
table only for pair_counts: verify counts the order-49 table pair by
pair, once per prime, and compares every cell, and every cell of the
order-7 table through the fold, with the factorial-built tables.
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
bins then stay in cache, _SLAB elements for the factorial products, and
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

import numpy as np

from .errors import InputError

_CHUNK = 1 << 15
_SLAB = 1 << 16
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


def block_factorials(p, f, h):
    """The products (k*f + 1)(k*f + 2)...((k+1)*f) mod p, k = 0..h-1, as int64.

    A slab holds up to _SLAB integers as rows of h, row r and column k
    holding k*f + r + 1; each slab is the first one plus a constant.  The
    rows are multiplied pairwise, first half by last half, until one is
    left, reducing mod p after every product.  x mod p is taken as
    x - (x // p) * p, since numpy's division by a scalar is much faster
    than its remainder.
    """
    out = np.ones(h, dtype=np.int64)
    if h == 0:
        return out
    rows = max(1, min(f, _SLAB // h))
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


def index_table(p, gamma, m):
    """The class table of F_p for the primitive root gamma; m | p - 1, m odd, m <= 64.

    gamma**(k*m + r) has class r: the powers are the outer product
    (gamma**m)**k * gamma**r mod p, scattered a block of rows at a time
    with labels tiled to match.  Each block is reduced mod p as
    x - (x // p) * p, as in block_factorials.  Only the exponents below
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
        np.floor_divide(x, p, out=q)
        q *= p
        x -= q
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
    block_factorials(29, 4, 3)
    classes = index_table(29, 2, 7)
    pair_counts(classes, 7)
    power_pair_hist(classes, 7, 1, 1)
    power_pair_hist_variant(classes, 7, 1, 1)
    cubic_roots(29)
