"""The order-7 Jacobi sums from a generator of a prime of Z[zeta_7] above p.

The reference is the class-pair count of the order-7 table
(_kernels.pair_counts): other data, the class table, and other
mathematics, a count over F_p, than Euclid's algorithm and
Stickelberger's relation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobi49 import _kernels, stickelberger
from jacobi49.cli import primes_in_range
from jacobi49.cyclotomic_ring import CyclotomicInt
from jacobi49.cyclotomy import CycNumberTable, jacobi_rows
from jacobi49.errors import InputError, InvariantViolation
from jacobi49.prime_field import build_ctx, find_generator, seventh_root_of_unity
from oracles import apply_automorphism, second_generator


def counted_sums(p: int, gamma: int) -> list[tuple[int, ...]]:
    """J(1,n)_7, n = 1..5, off the class-pair count of the order-7 table."""
    ctx = build_ctx(p, gamma)
    counted = CycNumberTable(e=7, p=p, counts=_kernels.pair_counts(ctx.classes_for(7), 7))
    rows = jacobi_rows(counted, 1, range(1, 6))
    assert not rows[:, 6].any()
    return [tuple(row) for row in rows[:, :6].tolist()]


def test_jacobi_sums_match_the_pair_counts_below_20000():
    primes = primes_in_range(2, 20000, 14)
    assert len(primes) == 377
    for p in primes:
        for gamma in (find_generator(p), second_generator(p)):
            assert stickelberger.jacobi_sums(p, gamma) == counted_sums(p, gamma), (p, gamma)


@pytest.mark.parametrize("p", [28309, 4500007, 9999991])
def test_jacobi_sums_match_the_pair_counts_large(p):
    for gamma in (find_generator(p), second_generator(p)):
        assert stickelberger.jacobi_sums(p, gamma) == counted_sums(p, gamma), (p, gamma)


def test_jacobi_sums_rejects_a_seventh_power_as_generator():
    # 3^((p-1)/7) = 1 mod 4500007: no seventh root of unity w0^j matches it,
    # and the search for j must say so, not end a caller's map early
    assert pow(3, (4500007 - 1) // 7, 4500007) == 1
    with pytest.raises(InputError, match="gamma = 3 is not a primitive root mod p = 4500007"):
        stickelberger.jacobi_sums(4500007, 3)


def test_stickelberger_sets_and_inverses():
    sets = [tuple(t for t in range(1, 7) if (1 + n) * t // 7 - n * t // 7 == 1)
            for n in range(1, 6)]
    assert stickelberger.STICKELBERGER == tuple(sets[:3])
    assert sets[3:] == [sets[1], sets[0]]
    assert all(t * stickelberger.INVERSE[t] % 7 == 1 for t in range(1, 7))


def _searches(monkeypatch) -> list:
    """The arguments of every neighbour search from here on."""
    calls = []
    real = stickelberger._nearby

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(stickelberger, "_nearby", counting)
    return calls


def test_the_neighbour_search_is_first_needed_at_28309(monkeypatch):
    calls = _searches(monkeypatch)
    for p in primes_in_range(2, 28308, 14):
        stickelberger.prime_above(p, seventh_root_of_unity(p))
    assert calls == []
    pi = stickelberger.prime_above(28309, seventh_root_of_unity(28309))
    assert len(calls) == 1
    assert stickelberger.norm(pi) == 28309


def test_the_neighbour_search_raises_when_no_quotient_lowers_the_norm(monkeypatch):
    # a stub norm under which every quotient next to the rounded one fails
    monkeypatch.setattr(stickelberger, "norm", lambda b: 10**100)
    with pytest.raises(InvariantViolation, match="no quotient next to"):
        stickelberger.prime_above(28309, seventh_root_of_unity(28309))


def test_prime_above_rejects_a_gcd_that_generates_no_prime(monkeypatch):
    # with the other sign of u, t + u sqrt(-7) lies below the conjugate
    # primes only, so the gcd with zeta - w0 is a unit, not a generator of P
    p = 43
    w0 = seventh_root_of_unity(p)
    t, u = stickelberger.subfield_prime(p, w0)
    monkeypatch.setattr(stickelberger, "subfield_prime", lambda p, w: (t, -u))
    with pytest.raises(InvariantViolation, match="no generator of the prime above 43"):
        stickelberger.prime_above(p, w0)


def test_subfield_prime():
    for p in primes_in_range(2, 3000, 7):
        w0 = seventh_root_of_unity(p)
        t, u = stickelberger.subfield_prime(p, w0)
        g = (1 + 2 * (w0 + w0**2 + w0**4)) % p
        assert t > 0 and t * t + 7 * u * u == p and (t + u * g) % p == 0


element = st.tuples(*[st.integers(-60, 60)] * 6)


def as_cyclotomic(a) -> CyclotomicInt:
    return CyclotomicInt(7, list(a))


@settings(max_examples=200, deadline=None)
@given(element, element)
def test_mul_is_the_ring_product(a, b):
    assert as_cyclotomic(stickelberger.mul(a, b)) == as_cyclotomic(a) * as_cyclotomic(b)


@settings(max_examples=200, deadline=None)
@given(element)
def test_norm_is_the_product_of_the_six_conjugates(b):
    # the long way, in the package's general ring arithmetic
    product = CyclotomicInt.from_int(7, 1)
    for t in range(1, 7):
        product = product * apply_automorphism(as_cyclotomic(b), t)
    assert product == CyclotomicInt.from_int(7, stickelberger.norm(b))
    assert as_cyclotomic(stickelberger.sigma(b, 3)) == apply_automorphism(as_cyclotomic(b), 3)


@settings(max_examples=200, deadline=None)
@given(element, element)
def test_norm_is_multiplicative(a, b):
    assert stickelberger.norm(stickelberger.mul(a, b)) == (
        stickelberger.norm(a) * stickelberger.norm(b))


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.integers(-10**6, 10**6)] * 6), element.filter(any))
def test_a_division_step_lowers_the_norm(a, b):
    q, r, parts = stickelberger._divide(a, b, stickelberger._parts(b))
    assert tuple(x + y for x, y in zip(stickelberger.mul(q, b), r)) == a
    assert stickelberger.norm(r) < stickelberger.norm(b)
    assert parts == stickelberger._parts(r)
