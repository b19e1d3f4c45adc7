import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobi49.cyclotomic_ring import (CyclotomicInt, Residue8, canonical_rows,
                                      check_reduction_identity, cyclotomic_poly_at_zeta,
                                      residue_mod_t8, valuation)
from jacobi49.errors import InputError
from oracles import apply_automorphism, residue8

zeta49 = CyclotomicInt.monomial(49, 1)
zeta7 = CyclotomicInt.monomial(7, 1)


def cyc_elements(e):
    return st.lists(st.integers(-40, 40), min_size=e, max_size=e).map(
        lambda c: CyclotomicInt(e, c))


def test_small_product():
    one_plus_z = 1 + zeta49
    sq = one_plus_z * one_plus_z
    assert sq.coeffs[:3] == (1, 2, 1)
    assert all(v == 0 for v in sq.coeffs[3:])


def test_additive_inverse():
    a = CyclotomicInt(49, range(49))
    assert (a + (-a)).is_zero()


@pytest.mark.parametrize("e", [7, 49])
def test_defining_relation_is_zero(e):
    assert cyclotomic_poly_at_zeta(e).is_zero()


@pytest.mark.parametrize("e", [7, 49])
def test_canonical_rows_match_the_element_canonicalization(e):
    rows = np.random.default_rng(e).integers(-10**12, 10**12, (50, e))
    rows[1::2, e - e // 7:] = 0  # already canonical
    out = canonical_rows(e, rows)
    assert out.dtype == np.int64 and out is not rows
    assert [tuple(row) for row in out.tolist()] == [
        CyclotomicInt(e, row).coeffs for row in rows.tolist()]


def test_canonicalization_identifies_equal_elements():
    # zeta^42 = -(1 + zeta^7 + ... + zeta^35)
    a = CyclotomicInt.monomial(49, 42)
    b = -sum((CyclotomicInt.monomial(49, 7 * j) for j in range(6)),
             CyclotomicInt.zero(49))
    assert a == b and hash(a) == hash(b)


def test_canonical_form_has_no_high_exponents():
    a = CyclotomicInt(49, [3] * 49)
    assert all(a.coeffs[k] == 0 for k in range(42, 49))
    b = CyclotomicInt(7, [5] * 7)
    assert b.coeffs[6] == 0


def test_canonicalization_idempotent():
    a = CyclotomicInt(49, list(range(49)))
    assert CyclotomicInt(49, a.coeffs) == a


@given(a=cyc_elements(49), b=cyc_elements(49))
@settings(max_examples=40, deadline=None)
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(a=cyc_elements(49), b=cyc_elements(49), c=cyc_elements(49))
@settings(max_examples=25, deadline=None)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


def test_mixed_orders_rejected():
    with pytest.raises(InputError):
        zeta49 + zeta7
    with pytest.raises(InputError):
        CyclotomicInt(11, [1])


def test_automorphism_identity_and_conjugation():
    a = CyclotomicInt(49, range(49))
    assert apply_automorphism(a, 1) == a
    assert apply_automorphism(zeta49, -1) == CyclotomicInt.monomial(49, 48)
    with pytest.raises(InputError):
        apply_automorphism(a, 7)


@given(a=cyc_elements(49))
@settings(max_examples=30, deadline=None)
def test_automorphism_composition(a):
    assert apply_automorphism(apply_automorphism(a, 4), 2) == apply_automorphism(a, 8)


@given(a=cyc_elements(49), b=cyc_elements(49))
@settings(max_examples=30, deadline=None)
def test_automorphism_is_ring_map(a, b):
    s = 3
    assert apply_automorphism(a * b, s) == apply_automorphism(a, s) * apply_automorphism(b, s)


def test_residue_map_basics():
    assert residue_mod_t8(CyclotomicInt.from_int(49, -1)) == residue8(6, 0, 0, 0, 0, 0, 0, 0)
    assert residue_mod_t8(zeta49) == residue8(1, 1, 0, 0, 0, 0, 0, 0)
    zm1 = zeta49 - 1
    eighth = zm1
    for _ in range(7):
        eighth = eighth * zm1
    assert residue_mod_t8(eighth) == residue8(0, 0, 0, 0, 0, 0, 0, 0)
    assert residue_mod_t8(CyclotomicInt.from_int(49, 7)) == residue8(0, 0, 0, 0, 0, 0, 0, 0)
    with pytest.raises(InputError):
        residue_mod_t8(zeta7)


@given(a=cyc_elements(49), b=cyc_elements(49))
@settings(max_examples=60, deadline=None)
def test_residue_map_is_ring_homomorphism(a, b):
    assert residue_mod_t8(a * b) == residue_mod_t8(a) * residue_mod_t8(b)
    assert residue_mod_t8(a + b) == residue_mod_t8(a) + residue_mod_t8(b)


@given(a=cyc_elements(49))
@settings(max_examples=30, deadline=None)
def test_residue_kills_multiples_of_seven(a):
    assert residue_mod_t8(7 * a) == residue8(0, 0, 0, 0, 0, 0, 0, 0)


def test_valuation_anchors():
    assert valuation(CyclotomicInt.zero(49)) == math.inf
    assert valuation(zeta49 - 1) == 1
    assert valuation(CyclotomicInt.from_int(49, 7)) == 42
    cube = (zeta49 - 1) * (zeta49 - 1) * (zeta49 - 1)
    assert valuation(cube) == 3
    assert valuation(7 * (zeta49 - 1) * (zeta49 - 1)) == 42  # capped report
    assert valuation(CyclotomicInt.from_int(49, 1)) == 0


def test_reduction_identity_holds():
    assert check_reduction_identity()


def test_residue8_validation_and_json():
    with pytest.raises(InputError):
        Residue8((1, 2, 3))
    with pytest.raises(InputError):
        Residue8((9, 0, 0, 0, 0, 0, 0, 0))
    r = residue8(6, 0, 0, 1, 0, 0, 0, 0)
    assert r.to_json() == [6, 0, 0, 1, 0, 0, 0, 0]


def test_json_roundtrip_is_canonical():
    a = CyclotomicInt(49, [1] + [0] * 41 + [2] + [0] * 6)  # has a zeta^42 term
    data = a.to_json()
    assert len(data) == 49 and all(data[k] == 0 for k in range(42, 49))
    assert CyclotomicInt(49, data) == a
