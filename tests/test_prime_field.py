import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobi49 import _kernels
from jacobi49.errors import DomainError, InputError
from jacobi49.prime_field import (MAX_PRIME, _prime_factors, build_ctx, find_generator,
                                  is_prime, is_primitive_root, is_seventh_power_residue)
from oracles import index_of


def multiplicative_order(a: int, p: int) -> int:
    """Order of a in F_p*, via the divisors of p - 1."""
    if a % p == 0:
        raise DomainError("zero has no multiplicative order")
    order = p - 1
    for q in _prime_factors(p - 1):
        while order % q == 0 and pow(a, order // q, p) == 1:
            order //= q
    return order


def brute_order(a: int, p: int) -> int:
    # independent oracle: repeated multiplication, no pow()
    x = a % p
    k = 1
    while x != 1:
        x = x * a % p
        k += 1
    return k


def smallest_root_oracle(p: int) -> int:
    return next(g for g in range(2, p) if brute_order(g, p) == p - 1)


def reference_log(p: int, gamma: int) -> list[int]:
    # independent oracle: repeated multiplication, no pow(); entry 0 unused
    log = [-1] * p
    x = 1
    for k in range(p - 1):
        log[x] = k
        x = x * gamma % p
    return log


@pytest.mark.parametrize("p", [7, 29, 197, 491])
def test_find_generator_is_smallest_primitive_root(p):
    assert find_generator(p) == smallest_root_oracle(p)


def test_find_generator_known_values():
    assert find_generator(7) == 3
    assert find_generator(29) == 2


def test_find_generator_rejects_composite_and_even():
    with pytest.raises(InputError):
        find_generator(196)
    with pytest.raises(InputError):
        find_generator(2)


def test_index_table_p7_hand_enumeration():
    # powers of 3 mod 7: 1, 3, 2, 6, 4, 5; gcd(6, 49) = 1, so every class is 0
    ctx = build_ctx(7, 3)
    assert [index_of(ctx, a) for a in range(1, 7)] == [0, 2, 1, 4, 5, 3]
    assert ctx.m == 1
    assert ctx.classes[1:].tolist() == [0] * 6
    # powers of 2 mod 29: 1, 2, 4, 8, 16, 3, 6, 12, 24, 19, 9, 18, 7, 14, 28,
    # 27, 25, 21, 13, 26, 23, 17, 5, 10, 20, 11, 22, 15; classes are ind mod 7
    ctx = build_ctx(29, 2)
    assert ctx.m == 7
    assert ctx.classes[1:].tolist() == [0, 1, 5, 2, 1, 6, 5, 3, 3, 2, 4, 0, 4, 6,
                                        6, 4, 0, 4, 2, 3, 3, 5, 6, 1, 2, 5, 1, 0]


@pytest.mark.parametrize("p", [29, 197])
def test_index_table_anchors(p):
    ctx = build_ctx(p)
    assert index_of(ctx, 1) == 0
    assert index_of(ctx, ctx.gamma) == 1
    assert index_of(ctx, p - 1) == (p - 1) // 2
    # gamma**ind[a] == a for every a
    for a in range(1, p):
        assert pow(ctx.gamma, index_of(ctx, a), p) == a


@pytest.mark.parametrize("p", [29, 113, 197])
def test_index_table_bijective(p):
    ctx = build_ctx(p)
    ref = reference_log(p, ctx.gamma)
    logs = [index_of(ctx, a) for a in range(1, p)]
    assert logs == ref[1:]
    assert sorted(logs) == list(range(p - 1))
    # the class table is the reference log mod m, each class of size (p - 1)/m
    assert ctx.m == math.gcd(p - 1, 49)
    assert ctx.classes[1:].tolist() == [k % ctx.m for k in ref[1:]]
    assert np.bincount(ctx.classes[1:]).tolist() == [(p - 1) // ctx.m] * ctx.m


def index_table_by_remainder(p: int, gamma: int, m: int) -> np.ndarray:
    """The class table from the same outer product, reduced by np.remainder.

    It takes blocks of 2**20 elements: one block for p below 2**20.
    """
    f = (p - 1) // m
    steps = _kernels._powers(pow(gamma, m, p), f, p)
    offsets = _kernels._powers(gamma, m, p)
    table = np.empty(p, dtype=np.uint8)
    table[0] = _kernels.UNDEFINED
    rows = max(1, min(f, (1 << 20) // m))
    labels = np.tile(np.arange(m, dtype=np.uint8), rows)
    for start in range(0, f, rows):
        block = np.multiply.outer(steps[start : start + rows], offsets)
        np.remainder(block, p, out=block)
        table[block.ravel()] = labels[: block.size]
    return table


@pytest.mark.parametrize("p,gamma,m", [(29, None, 7), (43, None, 7), (197, None, 49),
                                       (60271, None, 49), (60271, 33, 49),
                                       (4500007, None, 7), (1000679, None, 49),
                                       (9999823, None, 49)])
def test_index_table_matches_the_remainder_oracle(p, gamma, m):
    # index_table reduces each block as x - (x // p) * p, a block of rows
    # at a time, powers out only the exponents below (p - 1)/2 and mirrors
    # the rest; the oracle powers out every exponent
    ctx = build_ctx(p, gamma)
    assert ctx.m == m
    table = _kernels.index_table(p, ctx.gamma, m)
    assert (table == index_table_by_remainder(p, ctx.gamma, m)).all()


def test_index_table_needs_an_even_cofactor():
    # with (p - 1)/m odd, -1 is not in class 0 and the mirror would be wrong
    with pytest.raises(InputError):
        _kernels.index_table(29, 2, 4)


@given(a=st.integers(1, 196), b=st.integers(1, 196))
@settings(max_examples=60, deadline=None)
def test_index_is_homomorphism(a, b):
    ctx = build_ctx(197)
    lhs = index_of(ctx, a * b % 197)
    assert lhs == (index_of(ctx, a) + index_of(ctx, b)) % 196


def test_index_of_zero_is_domain_error():
    ctx = build_ctx(29)
    with pytest.raises(DomainError):
        index_of(ctx, 0)
    with pytest.raises(DomainError):
        index_of(ctx, 29 * 5)


def test_build_ctx_rejects_bad_input():
    with pytest.raises(InputError):
        build_ctx(196)
    with pytest.raises(InputError):
        build_ctx(29, 28)  # order 2, not primitive
    with pytest.raises(InputError):
        build_ctx(10_000_019)  # prime, but beyond the table cap


def test_max_prime_guard_is_a_clean_input_error():
    assert is_prime(10_000_019)
    assert 10_000_019 > MAX_PRIME


def test_seventh_power_residue_basics():
    ctx = build_ctx(29)
    assert is_seventh_power_residue(ctx, 1)
    assert not is_seventh_power_residue(ctx, ctx.gamma)
    for b in (3, 10, 17, 23):
        assert is_seventh_power_residue(ctx, pow(b, 7, 29))
    with pytest.raises(DomainError):
        is_seventh_power_residue(ctx, 0)


def test_seventh_power_residue_needs_residue_class():
    ctx = build_ctx(11)  # 7 does not divide 10
    with pytest.raises(InputError):
        is_seventh_power_residue(ctx, 3)


def test_seventh_power_residue_generator_independent():
    a = build_ctx(197, 2)
    b = build_ctx(197, 3)
    for v in range(1, 197):
        assert is_seventh_power_residue(a, v) == is_seventh_power_residue(b, v)


def test_multiplicative_order_against_brute_force():
    for a in range(1, 29):
        assert multiplicative_order(a, 29) == brute_order(a, 29)
    assert is_primitive_root(2, 29)
    assert not is_primitive_root(28, 29)


def test_is_prime_small_table():
    primes_below_100 = [n for n in range(100) if is_prime(n)]
    assert primes_below_100 == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                                43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def test_ctx_is_readonly():
    ctx = build_ctx(29)
    assert isinstance(ctx.classes, np.ndarray)
    assert ctx.classes.dtype == np.uint8 and ctx.classes.shape == (29,)
    with pytest.raises(ValueError):
        ctx.classes[3] = 0


def test_class_table_needs_dividing_order():
    ctx = build_ctx(29)
    assert ctx.classes_for(7) is ctx.classes
    with pytest.raises(InputError):
        ctx.classes_for(49)  # 49 does not divide 28
    with pytest.raises(InputError):
        build_ctx(197).classes_for(4)  # 4 divides 196 but not m = 49


@pytest.mark.parametrize("p", [4500007, 4500161, 9999047])
def test_index_of_large_prime(p):
    # 9999047 = 2q + 1 with q prime, so baby-step giant-step runs in order q
    ctx = build_ctx(p)
    for a in (2, 7, p - 1, 1234567, p - 2):
        x = index_of(ctx, a)
        assert 0 <= x < p - 1 and pow(ctx.gamma, x, p) == a
        assert x % ctx.m == ctx.classes[a]


# Cross-checks against an independent implementation; skipped without sympy.

_PSEUDOPRIMES = (561, 1105, 1729, 2047, 25326001, 3215031751, 2152302898747,
                 3825123056546413051)


def test_is_prime_against_sympy():
    ntheory = pytest.importorskip("sympy.ntheory")
    for n in list(range(-2, 20000)) + list(range(MAX_PRIME - 2000, MAX_PRIME + 2000)):
        assert is_prime(n) == ntheory.isprime(n), n
    for n in _PSEUDOPRIMES:
        assert not is_prime(n) and not ntheory.isprime(n)


def test_find_generator_against_sympy():
    ntheory = pytest.importorskip("sympy.ntheory")
    primes = [p for p in range(3, 3000) if is_prime(p)] + [4500007, 4500161, 9999047]
    for p in primes:
        assert find_generator(p) == ntheory.primitive_root(p), p


@pytest.mark.parametrize("p,gamma", [(197, None), (60271, None), (60271, 33),
                                     (4500161, None), (9999047, None)])
def test_index_of_against_sympy(p, gamma):
    ntheory = pytest.importorskip("sympy.ntheory")
    ctx = build_ctx(p, gamma)
    for a in [1, 2, 3, 7, p - 1] + list(range(1000, p, p // 50)):
        assert index_of(ctx, a) == ntheory.discrete_log(p, a, ctx.gamma), a
