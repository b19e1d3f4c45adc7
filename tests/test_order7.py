import re

import pytest

from jacobi49.cli import primes_in_range
from jacobi49.cyclotomy import six_class
from jacobi49.errors import InputError, InvariantViolation
from jacobi49.order7 import (CYC7_ROW_COEFFS, Sextuple, cyc7_from_solution,
                             match_reconstruction, norm_form, recover_t, tu_decompose,
                             verify_diophantine)
from oracles import (CYC7_ROW_01_X4_VARIANT, conjugate, orbit, row_value, trivial_solutions,
                     tu_search)

P14_SMALL = primes_in_range(2, 1500, 14)


def tu_oracle(p):
    # brute-force all u, keep every (t, u) with t = 1 (mod 7), u > 0
    hits = []
    for u in range(1, p):
        if 7 * u * u >= p:
            break
        r = p - 7 * u * u
        t = int(r**0.5)
        for cand in (t - 1, t, t + 1):
            if cand > 0 and cand * cand == r:
                for sign in (cand, -cand):
                    if sign % 7 == 1:
                        hits.append((sign, u))
    return hits


@pytest.mark.parametrize("p,expected", [(29, (1, 2)), (113, (1, 4)), (197, (-13, 2))])
def test_tu_decompose_known_values(p, expected):
    tu = tu_decompose(p)
    assert (tu.t, tu.u) == expected
    assert tu.t * tu.t + 7 * tu.u * tu.u == p
    assert tu.t % 7 == 1 and tu.u > 0


@pytest.mark.parametrize("p", P14_SMALL[:12])
def test_tu_decompose_unique(p):
    hits = tu_oracle(p)
    assert len(hits) == 1
    tu = tu_decompose(p)
    assert hits[0] == (tu.t, tu.u)


def test_tu_decompose_matches_the_search_below_300000():
    # Cornacchia from the Gauss-sum root of -7 against trying every u
    for p in primes_in_range(2, 300000, 7):
        assert tu_decompose(p) == tu_search(p), p


def test_tu_decompose_matches_the_search_at_the_cap():
    tu = tu_decompose(9999823)
    assert tu == tu_search(9999823) and (tu.t, tu.u) == (-1644, 1021)


def test_tu_decompose_refuses_a_composite():
    # 85 = 1 (mod 7) is 5 * 17, and -7 has no square root mod 85
    with pytest.raises(InvariantViolation):
        tu_decompose(85)


def test_tu_decompose_wrong_class():
    with pytest.raises(InputError):
        tu_decompose(13)


def test_extraction_p29(bundle):
    b = bundle(29)
    sol = b.sol
    assert sol.as_tuple() == (1, -2, -3, -2, -1, 1)
    assert norm_form(sol) == 72 * 29
    assert sol.x1 % 7 == 1
    assert (sol.x5 + 3 * sol.x6) % 2 == 0 and (sol.x5 - 3 * sol.x6) % 2 == 0


@pytest.mark.parametrize("p", P14_SMALL)
def test_extraction_invariants_many_primes(bundle, p):
    sol = bundle(p).sol
    assert norm_form(sol) == 72 * p
    assert sol.x1 % 7 == 1
    assert (sol.x5 + 3 * sol.x6) % 2 == 0
    # universal linear relation behind the ind(7) congruence
    assert (sol.x2 + 2 * sol.x3 + 3 * sol.x4) % 7 == 0


def test_coefficient_sum_is_minus_x1(bundle):
    b = bundle(29)
    c = [b.dh7.cell(i, 1) - b.dh7.cell(0, 1) for i in range(1, 7)]
    assert sum(c) == -b.sol.x1


def test_orbit_properties(bundle):
    sol = bundle(29).sol
    orb = orbit(sol)
    assert len(set(orb)) == 6
    assert orb[0] == sol
    for member in orb:
        assert norm_form(member) == 72 * 29
        assert member.x1 % 7 == 1
    x1, x2, x3, x4, x5, x6 = sol.as_tuple()
    assert Sextuple(x1, -x2, -x3, -x4, x5, x6) in orb  # the negation member


def test_orbit_closure(bundle):
    sol = bundle(113).sol
    base = set(orbit(sol))
    for member in base:
        assert set(orbit(member)) == base


def test_conjugation_group_law(bundle):
    sol = bundle(197).sol
    for s in range(1, 7):
        for t in range(1, 7):
            assert conjugate(conjugate(sol, s), t) == conjugate(sol, s * t % 7)


def test_double_step_then_negation_lands_in_orbit(bundle):
    sol = bundle(29).sol
    y = conjugate(conjugate(conjugate(sol, 4), 4), 6)
    assert y in set(orbit(sol))


def test_conjugate_rejects_multiples_of_seven(bundle):
    with pytest.raises(InputError):
        conjugate(bundle(29).sol, 7)


def test_trivial_solutions_p29():
    tu = tu_decompose(29)
    triv = trivial_solutions(tu)
    assert triv[0].as_tuple() == (-6, 4, 4, -4, 0, 0)
    for t in triv:
        assert norm_form(t) == 72 * 29
        assert t.x1 % 7 == 1  # -6t = 1 (mod 7) since t = 1 (mod 7)


def test_zero_sextuple_fails_norm():
    rep = verify_diophantine(Sextuple(0, 0, 0, 0, 0, 0), 29)
    assert not rep.norm


def test_diophantine_on_trivial_solutions():
    for p in (29, 113, 197):
        tu = tu_decompose(p)
        for t in trivial_solutions(tu):
            rep = verify_diophantine(t, p)
            assert rep.norm and rep.aux1 and rep.aux2_x3_square


def test_aux_equation_adjudication(bundle):
    """The second side constraint: only the x3-square reading (with the
    x2*x4 cross term) holds across primes; the stated and x2-square
    readings both fail.  Run on 25 primes as the recorded adjudication."""
    primes = P14_SMALL[:25]
    assert len(primes) >= 20
    reports = [verify_diophantine(bundle(p).sol, p) for p in primes]
    assert all(r.norm for r in reports)
    assert all(r.aux1 for r in reports)
    assert all(r.aux2_x3_square for r in reports)
    assert not all(r.aux2_stated for r in reports)
    assert not all(r.aux2_x2_square for r in reports)


@pytest.mark.parametrize("p", [29, 113, 197])
def test_reconstruction_roundtrip(bundle, p):
    b = bundle(p)
    rep = match_reconstruction(b.cyc7, b.sol, b.tu)
    assert rep.matched
    assert rep.t == b.tu.t
    assert rep.u_signed in (b.tu.u, -b.tu.u)


def test_recover_t(bundle):
    b = bundle(29)
    assert recover_t(b.sol, 29, b.cyc7.cell(0, 0)) == b.tu.t


def test_table_row_12_p113(bundle):
    b = bundle(113)
    sol, tu = b.sol, b.tu
    rep = match_reconstruction(b.cyc7, sol, tu)
    val = (12 * 113 + 12 + 24 * rep.t + 8 * sol.x1 - 196 * sol.x5)
    assert val == 588 * b.cyc7.cell(1, 2)


def test_stated_01_row_reading_fails(bundle):
    # the circulating (0,1) row with the coefficient on x4 instead of x5
    # cannot reproduce the table (here x4 != x5, so the readings differ)
    b = bundle(29)
    rep = match_reconstruction(b.cyc7, b.sol, b.tu)
    assert b.sol.x4 != b.sol.x5
    stated = {
        row_value(CYC7_ROW_01_X4_VARIANT, 29, rep.t, u, b.sol)
        for u in (b.tu.u, -b.tu.u)
    }
    assert 588 * b.cyc7.cell(0, 1) not in stated


def test_cyc7_from_solution_wrong_u_fails(bundle):
    b = bundle(29)
    rep = match_reconstruction(b.cyc7, b.sol, b.tu)
    import numpy as np
    try:
        wrong = cyc7_from_solution(b.sol, rep.t, -rep.u_signed, 29)
        assert not np.array_equal(wrong.counts, b.cyc7.counts)
    except InvariantViolation:
        pass  # non-exact division is also an acceptable failure mode


@pytest.mark.parametrize("p", [29, 197, 4020409])
def test_cyc7_from_solution_equals_the_rows_cell_by_cell(bundle, p):
    # the int64 product against each row in Python integers, copied over its
    # six class, under both signs of u; a sign with an inexact row raises
    b = bundle(p)
    t = match_reconstruction(b.cyc7, b.sol, b.tu).t
    for u in (b.tu.u, -b.tu.u):
        expected = [[None] * 7 for _ in range(7)]
        expected[0][0] = (p - 20 - 12 * t + 3 * b.sol.x1) // 49
        exact = True
        for (i, j), row in CYC7_ROW_COEFFS.items():
            value, rest = divmod(row_value(row, p, t, u, b.sol), 588)
            exact = exact and rest == 0
            for a, c in six_class(7, i, j):
                expected[a][c] = value
        if exact:
            assert cyc7_from_solution(b.sol, t, u, p).counts.tolist() == expected
        else:
            with pytest.raises(InvariantViolation, match="not divisible by 588"):
                cyc7_from_solution(b.sol, t, u, p)


def test_cyc7_from_solution_names_the_first_inexact_representative(bundle):
    # x4 off by one keeps (0,0) exact; the representative named is the first,
    # in the order of CYC7_ROW_COEFFS, whose row is no multiple of 588
    b = bundle(29)
    rep = match_reconstruction(b.cyc7, b.sol, b.tu)
    x1, x2, x3, x4, x5, x6 = b.sol.as_tuple()
    sol = Sextuple(x1, x2, x3, x4 + 1, x5, x6)
    first = next(ij for ij, row in CYC7_ROW_COEFFS.items()
                 if row_value(row, 29, rep.t, rep.u_signed, sol) % 588)
    assert first == (0, 2)
    with pytest.raises(InvariantViolation,
                       match=re.escape("(0,2) cell not divisible by 588 for p = 29")):
        cyc7_from_solution(sol, rep.t, rep.u_signed, 29)
    with pytest.raises(InvariantViolation, match=re.escape("(0,0) cell not divisible by 49")):
        cyc7_from_solution(sol, rep.t + 1, rep.u_signed, 29)


def test_generator_change_stays_in_orbit(bundle):
    base = bundle(197).sol          # gamma = 2
    other = bundle(197, 3).sol      # gamma = 3
    assert other in set(orbit(base))
    assert other != base


def test_reconstruction_second_generator(bundle):
    b = bundle(197, 3)
    rep = match_reconstruction(b.cyc7, b.sol, b.tu)
    assert rep.matched and rep.t == b.tu.t


def test_row_coefficients_cover_twelve_classes():
    assert len(CYC7_ROW_COEFFS) == 11  # plus the (0,0) cell makes 12
    assert (0, 0) not in CYC7_ROW_COEFFS
