import random

import numpy as np
import pytest

from jacobi49.cyclotomic_ring import apply_automorphism
from jacobi49.cyclotomy import (CycNumberTable, check_dh_identities, check_symmetries,
                                cyc_from_jacobi, cyclotomic_numbers,
                                dickson_hurwitz, jacobi_from_cyc,
                                jacobi_sum, jacobi_sum_variant, jacobi_via_dh,
                                six_class, identity_suite)
from jacobi49.errors import InputError, InvariantViolation
from jacobi49.prime_field import build_ctx


def jacobi_six_class(e: int, i: int, j: int) -> set[tuple[int, int]]:
    """The index pairs sharing the same Jacobi sum when f is even."""
    return {
        (i % e, j % e),
        (j % e, i % e),
        ((-i - j) % e, j % e),
        (j % e, (-i - j) % e),
        ((-i - j) % e, i % e),
        (i % e, (-i - j) % e),
    }


def all_pairs_oracle(cyc) -> bool:
    """The identity suite written out: every J(i,j)_e formed and checked.

    J(0,0) = p - 2, J = -1 at one-zero and opposite pairs, the Jacobi six
    class of every pair, and J * sigma_-1(J) = p at every other pair.
    """
    e, p = cyc.e, cyc.p
    J = {(i, j): jacobi_from_cyc(cyc, i, j) for i in range(e) for j in range(e)}
    for (i, j), jj in J.items():
        if i == j == 0:
            if jj != p - 2:
                return False
        elif i == 0 or j == 0 or (i + j) % e == 0:
            if jj != -1:
                return False
        elif jj * apply_automorphism(jj, -1) != p:
            return False
        if any(J[ab] != jj for ab in jacobi_six_class(e, i, j)):
            return False
    return True


@pytest.mark.parametrize("p,e", [(29, 7), (113, 7), (197, 49)])
def test_total_count(bundle, p, e):
    cyc = cyclotomic_numbers(bundle(p).ctx, e)
    assert int(cyc.counts.sum()) == p - 2


def test_symmetries_match_even_f(bundle):
    assert check_symmetries(cyclotomic_numbers(bundle(29).ctx, 7)) == []
    assert check_symmetries(cyclotomic_numbers(bundle(197).ctx, 49)) == []


def test_cell_00_against_power_residue_oracle(bundle):
    # (0,0)_49 counts v with v and v+1 both 49th powers; the oracle uses
    # modular exponentiation only, no index table.
    p = 197
    f = (p - 1) // 49
    oracle = sum(1 for v in range(1, p - 1)
                 if pow(v, f, p) == 1 and pow(v + 1, f, p) == 1)
    cyc = cyclotomic_numbers(bundle(p).ctx, 49)
    assert cyc.cell(0, 0) == oracle


def test_requires_dividing_modulus():
    ctx = build_ctx(29)
    with pytest.raises(InputError):
        cyclotomic_numbers(ctx, 5)
    with pytest.raises(InputError):
        jacobi_sum(ctx, 49, 1, 1)


def test_variant_identities(bundle):
    ctx = bundle(29).ctx
    assert jacobi_sum_variant(ctx, 7, 0, 0) == 27
    for i in range(1, 7):
        assert jacobi_sum_variant(ctx, 7, i, 0) == -1
        assert jacobi_sum_variant(ctx, 7, 0, i) == -1
    for i in range(1, 7):
        # f even, so chi^i(-1) = 1 and the opposite-pair value is -1
        assert jacobi_sum_variant(ctx, 7, i, 7 - i) == -1


def test_modulus_property_p29(bundle):
    ctx = bundle(29).ctx
    j11 = jacobi_sum(ctx, 7, 1, 1)
    assert j11 * apply_automorphism(j11, -1) == 29


def test_direct_vs_fourier_exhaustive_e7(bundle):
    ctx = bundle(113).ctx
    cyc = cyclotomic_numbers(ctx, 7)
    for a in range(7):
        for b in range(7):
            assert jacobi_from_cyc(cyc, a, b) == jacobi_sum(ctx, 7, a, b)


def test_direct_vs_fourier_sampled_e49(bundle):
    ctx = bundle(197).ctx
    cyc = cyclotomic_numbers(ctx, 49)
    for (a, b) in [(0, 0), (1, 1), (1, 5), (3, 5), (12, 40), (48, 48)]:
        assert jacobi_from_cyc(cyc, a, b) == jacobi_sum(ctx, 49, a, b)


@pytest.mark.parametrize("p", [197, 491])
def test_table_and_direct_kernels_agree_all_pairs_e49(bundle, p):
    # The pipeline reads every J(i,j)_49 off the table, and the identity
    # suite takes the 1-v convention to be J(i,j) itself: (p-1)/2 = 0
    # (mod 49), so chi^i(-1) = 1.  Both rest on these equalities.
    assert (p - 1) // 2 % 49 == 0
    ctx = bundle(p).ctx
    cyc = bundle(p).cyc49
    for i in range(49):
        for j in range(49):
            direct = jacobi_sum(ctx, 49, i, j)
            assert jacobi_from_cyc(cyc, i, j) == direct, (i, j)
            assert jacobi_sum_variant(ctx, 49, i, j) == direct, (i, j)


def test_fourier_inversion_roundtrip_e7(bundle):
    ctx = bundle(29).ctx
    cyc = cyclotomic_numbers(ctx, 7)
    all_j = {(i, j): jacobi_from_cyc(cyc, i, j) for i in range(7) for j in range(7)}
    for a in range(7):
        for b in range(7):
            assert cyc_from_jacobi(all_j, 7, a, b) == cyc.cell(a, b)


def test_fourier_inversion_spot_e49(bundle):
    ctx = bundle(197).ctx
    cyc = cyclotomic_numbers(ctx, 49)
    all_j = {(i, j): jacobi_from_cyc(cyc, i, j)
             for i in range(49) for j in range(49)}
    for (a, b) in [(0, 0), (1, 1), (3, 5)]:
        assert cyc_from_jacobi(all_j, 49, a, b) == cyc.cell(a, b)


def test_fourier_inversion_flags_corrupt_input(bundle):
    ctx = bundle(29).ctx
    cyc = cyclotomic_numbers(ctx, 7)
    all_j = {(i, j): jacobi_from_cyc(cyc, i, j) for i in range(7) for j in range(7)}
    all_j[(2, 3)] = all_j[(2, 3)] + 1  # corrupt one entry
    with pytest.raises(InvariantViolation):
        for a in range(7):
            for b in range(7):
                cyc_from_jacobi(all_j, 7, a, b)


@pytest.mark.parametrize("p,e", [(29, 7), (197, 49)])
def test_dickson_hurwitz_identities(bundle, p, e):
    dh = dickson_hurwitz(cyclotomic_numbers(bundle(p).ctx, e))
    assert check_dh_identities(dh) == []


def test_dh_symmetry_reading_adjudication(bundle):
    # Of the two circulating forms of the column symmetry, only the
    # second index e-j-1 survives a table scan; e-j-i does not.
    dh = dickson_hurwitz(cyclotomic_numbers(bundle(29).ctx, 7))
    e = 7
    stated = all(dh.cell(i, j) == dh.cell(i, e - j - i)
                 for i in range(e) for j in range(e))
    corrected = all(dh.cell(i, j) == dh.cell(i, e - j - 1)
                    for i in range(e) for j in range(e))
    assert not stated and corrected


def test_jacobi_via_dh_j0_is_minus_one(bundle):
    dh = dickson_hurwitz(cyclotomic_numbers(bundle(29).ctx, 7))
    assert jacobi_via_dh(dh, 0) == -1


@pytest.mark.parametrize("p,e,j", [(29, 7, 1), (29, 7, 3), (197, 49, 1), (197, 49, 11)])
def test_three_paths_agree(bundle, p, e, j):
    ctx = bundle(p).ctx
    cyc = cyclotomic_numbers(ctx, e)
    dh = dickson_hurwitz(cyc)
    direct = jacobi_sum(ctx, e, 1, j)
    assert jacobi_via_dh(dh, j) == direct == jacobi_from_cyc(cyc, 1, j)


def test_identity_suite_full_small_primes(bundle):
    for cyc in (bundle(29).cyc7, bundle(43).cyc7, bundle(197).cyc49, bundle(491).cyc49):
        assert identity_suite(cyc) == []
        assert all_pairs_oracle(cyc)


def _with_counts(cyc, counts):
    return CycNumberTable(e=cyc.e, p=cyc.p, gamma=cyc.gamma, counts=counts)


def test_identity_suite_checks_the_modulus_off_the_galois_representatives(bundle):
    # Shift one count from each cell of the class of (3,11) to the cell of
    # the class of (-3,-11) it negates.  Both classes stay uniform, so the
    # total, every six-class symmetry and every row and column sum hold,
    # and so do all linear identities; (3,11) is not one of the pairs
    # (d, d*m) the modulus is checked at, but it is a unit multiple of one.
    cyc = bundle(197).cyc49
    counts = cyc.counts.copy()
    cls = six_class(49, 3, 11)
    assert cls.isdisjoint(six_class(49, -3, -11))
    for (a, b) in cls:
        counts[a, b] -= 1
        counts[-a % 49, -b % 49] += 1
    bad = _with_counts(cyc, counts)
    assert check_symmetries(bad) == []
    assert (counts.sum(axis=0) == cyc.counts.sum(axis=0)).all()
    assert (counts.sum(axis=1) == cyc.counts.sum(axis=1)).all()
    fails = identity_suite(bad)
    assert fails and all(f.startswith("|J|^2 != p at ") for f in fails), fails
    assert not all_pairs_oracle(bad)


def check_symmetries_by_cell(cyc) -> list[str]:
    """check_symmetries as a loop over every cell: the reference for its array form."""
    problems = []
    if int(cyc.counts.sum()) != cyc.p - 2:
        problems.append(f"total {int(cyc.counts.sum())} != p - 2")
    for i in range(cyc.e):
        for j in range(cyc.e):
            for (a, b) in six_class(cyc.e, i, j):
                if cyc.cell(a, b) != cyc.cell(i, j):
                    problems.append(f"({i},{j}) class broken at ({a},{b})")
    return problems


def test_check_symmetries_matches_the_cell_loop(bundle):
    # A count moved between cells; one more count in the singleton class
    # (0,0); a pair of counts that keeps only the swap symmetry.
    cyc = bundle(197).cyc49
    moved, extra, swapped = (cyc.counts.copy() for _ in range(3))
    moved[0, 1] -= 1
    moved[0, 2] += 1
    extra[0, 0] += 1
    swapped[3, 11] += 1
    swapped[11, 3] += 1
    swapped[0, 0] -= 2
    for counts in (cyc.counts.copy(), moved, extra, swapped):
        table = _with_counts(cyc, counts)
        assert check_symmetries(table) == check_symmetries_by_cell(table)
    assert check_symmetries(_with_counts(cyc, extra)) == ["total 196 != p - 2"]


def test_identity_suite_checks_one_zero_pairs(bundle):
    # Move a count from each cell of the class of (1,5) to each cell of the
    # class of (1,2): the total and every symmetry hold, the column sums,
    # which are the coefficients of J(0,1), do not.
    cyc = bundle(197).cyc49
    counts = cyc.counts.copy()
    for (a, b) in six_class(49, 1, 5):
        counts[a, b] -= 1
    for (a, b) in six_class(49, 1, 2):
        counts[a, b] += 1
    bad = _with_counts(cyc, counts)
    assert check_symmetries(bad) == []
    assert "one-zero identity fails at (0,1)" in identity_suite(bad)
    assert not all_pairs_oracle(bad)


def test_identity_suite_catches_every_single_count_move(bundle):
    rng = random.Random(49)
    cyc = bundle(197).cyc49
    cells = [(i, j) for i in range(49) for j in range(49)]
    for _ in range(200):
        src, dst = rng.sample(cells, 2)
        counts = cyc.counts.copy()
        counts[src] -= 1
        counts[dst] += 1
        assert identity_suite(_with_counts(cyc, counts)), (src, dst)


def test_identity_suite_refuses_odd_cofactor():
    # (p - 1)/e odd cannot happen for odd e | p - 1; a table claiming it is wrong
    cyc = CycNumberTable(e=2, p=7, gamma=3, counts=np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(InvariantViolation):
        identity_suite(cyc)


def test_jacobi_six_class_differs_from_cyclotomic_class():
    assert jacobi_six_class(7, 1, 2) == {(1, 2), (2, 1), (4, 2), (2, 4), (4, 1), (1, 4)}
    assert six_class(7, 1, 2) == {(1, 2), (2, 1), (6, 5), (1, 6), (6, 1), (5, 6)}


def test_remark_equalities_e7(bundle):
    ctx = bundle(29).ctx
    for i in range(1, 7):
        jii = jacobi_sum(ctx, 7, i, i)
        assert jii == jacobi_sum(ctx, 7, -2 * i, i) == jacobi_sum(ctx, 7, i, -2 * i)


def test_convention_relation(bundle):
    # J(i,j) = chi^i(-1) * J(chi^i, chi^j); with f even the sign is +1
    ctx = bundle(29).ctx
    for (i, j) in [(1, 1), (2, 5), (3, 4)]:
        assert jacobi_sum(ctx, 7, i, j) == jacobi_sum_variant(ctx, 7, i, j)
