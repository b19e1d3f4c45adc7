import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobi49 import _kernels
from jacobi49.artiad import classify_via_cubic
from jacobi49.cli import primes_in_range
from jacobi49.cyclotomic_ring import CyclotomicInt
from jacobi49.cyclotomy import (CycNumberTable, check_symmetries, cyclotomic_numbers,
                                dickson_hurwitz, jacobi_from_cyc, jacobi_rows,
                                jacobi_rows_via_dh, jacobi_sum, jacobi_sum_variant,
                                jacobi_via_dh, six_class, identity_suite)
from jacobi49.errors import InputError, InvariantViolation
from jacobi49.prime_field import (MAX_PRIME, build_ctx, find_generator, index_mod,
                                  is_seventh_power_residue)
from oracles import (apply_automorphism, block_factorials, cyc_from_jacobi,
                     pair_counts_full_field, second_generator)


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


def check_dh_identities(dh) -> list[str]:
    """B(i,0) values, column sums, and the column symmetry B(i,j) = B(i, e-j-1).

    The symmetry also circulates with the second index written e-j-i;
    that reading fails every table scan (a 1 read as i), while e-j-1
    follows from the even-f class relation (a,b) = (-a, b-a) applied
    inside the defining sum.
    """
    e, p = dh.e, dh.p
    f = (p - 1) // e
    problems = []
    if dh.cell(0, 0) != f - 1:
        problems.append(f"B(0,0) = {dh.cell(0, 0)} != f - 1")
    for i in range(1, e):
        if dh.cell(i, 0) != f:
            problems.append(f"B({i},0) != f")
    for j in range(e):
        colsum = sum(dh.cell(i, j) for i in range(e))
        if colsum != p - 2:
            problems.append(f"column {j} sums to {colsum} != p - 2")
    for i in range(e):
        for j in range(e):
            if dh.cell(i, j) != dh.cell(i, e - j - 1):
                problems.append(f"B({i},{j}) != B({i},{e - j - 1})")
    return problems


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
    return CycNumberTable(e=cyc.e, p=cyc.p, counts=counts)


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



def test_identity_suite_checks_the_modulus_at_the_order_7_pairs(bundle):
    # The order-7 analogue of the shift above, tiled over the 49 x 49 table:
    # one count from each cell of the class of (0,1)_7 to the cell it
    # negates, at every lift to order 49.  Only J(i,j) with 7 | i and 7 | j
    # sees the shift, and of the pairs the modulus is checked at those are
    # the five (7, 7m); all other identities hold.
    cyc = bundle(60271).cyc49
    d7 = np.zeros((7, 7), dtype=cyc.counts.dtype)
    for (a, b) in six_class(7, 0, 1):
        d7[a, b] -= 1
        d7[-a % 7, -b % 7] += 1
    bad = _with_counts(cyc, cyc.counts + np.tile(d7, (7, 7)))
    assert check_symmetries(bad) == []
    assert identity_suite(bad) == [f"|J|^2 != p at (7,{7 * m})" for m in range(1, 6)]

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
    cyc = CycNumberTable(e=2, p=7, counts=np.zeros((2, 2), dtype=np.int64))
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


# The tables built from factorials mod p against the class-pair counts.

@pytest.mark.parametrize("p", [29, 43, 197, 491, 883, 1373])
def test_block_factorials_against_math_factorial(p):
    # the every-integer oracle of _kernels.factorials
    m = build_ctx(p).m
    f = (p - 1) // m
    for h in (0, 1, m // 2, m - 1):
        blocks = block_factorials(p, f, h)
        assert blocks.dtype == np.int64 and blocks.shape == (h,)
        for k, block in enumerate(blocks.tolist()):
            assert block * math.factorial(k * f) % p == math.factorial((k + 1) * f) % p


def test_block_factorials_across_slabs():
    # blocks of 100001 integers, in slabs of 2**16 // 3 rows: the last partial
    p, f, h = 1000003, 100001, 3
    expected = []
    for k in range(h):
        x = 1
        for n in range(k * f + 1, (k + 1) * f + 1):
            x = x * n % p
        expected.append(x)
    assert block_factorials(p, f, h).tolist() == expected


def _running_factorials(p, top):
    """n! mod p for n = 0..top, one product at a time."""
    out = [1]
    for n in range(1, top + 1):
        out.append(out[-1] * n % p)
    return out


@pytest.mark.parametrize("p", [29, 43, 197, 491, 883, 1373])
def test_factorials_against_math_factorial(p):
    m = build_ctx(p).m
    f = (p - 1) // m
    for h in (0, 1, m // 2, m - 1):
        got = _kernels.factorials(p, range(f, h * f + 1, f))
        assert got.dtype == np.int64 and got.shape == (h,)
        assert got.tolist() == [math.factorial(k * f) % p for k in range(1, h + 1)]
    assert build_ctx(p).factorials.tolist() == [math.factorial(k * f) % p
                                                for k in range(m)]


def test_factorials_of_every_n_below_p_below_1500():
    for p in primes_in_range(3, 1500, 2):
        assert _kernels.factorials(p, range(p)).tolist() == _running_factorials(p, p - 1), p


@pytest.mark.parametrize("p", [1000679, 4500007, 9999823])
def test_factorials_match_the_every_integer_oracle(p):
    # the lower half of ctx.factorials, (k f)! for k = 1..m // 2, both ways
    m = math.gcd(p - 1, 49)
    f, h = (p - 1) // m, m // 2
    expected = np.cumprod(block_factorials(p, f, h).astype(object)) % p
    assert _kernels.factorials(p, range(f, h * f + 1, f)).tolist() == expected.tolist()


def test_factorials_across_slabs(monkeypatch):
    # slabs of 8 pairs, 48 integers: (10**4)! walks 209 of them, with a
    # top level of 2 nodes and queries in the first, the last and between
    monkeypatch.setattr(_kernels, "_SLAB", 8)
    monkeypatch.setattr(_kernels, "_TOP", 2)
    p = 10007
    ns = [0, 1, 5, 47, 48, 49, 95, 96, 97, 1000, 4999, 5000, 9999, 10000]
    table = _running_factorials(p, 10000)
    assert _kernels.factorials(p, ns).tolist() == [table[n] for n in ns]
    monkeypatch.setattr(_kernels, "_SLAB", 1 << 10)
    assert _kernels.factorials(p, ns).tolist() == [table[n] for n in ns]


@given(ns=st.lists(st.integers(0, 3000), max_size=30).map(lambda v: sorted(v + [0])))
@settings(max_examples=60, deadline=None)
def test_factorials_of_random_ascending_ns(ns):
    # 0 and repeated n included; n at or above p gives 0
    p = 2003
    table = _running_factorials(p, 3000)
    assert _kernels.factorials(p, ns).tolist() == [table[n] for n in ns]


def test_factorials_of_no_n():
    assert _kernels.factorials(29, []).shape == (0,)


def test_factorials_memory_at_the_cap():
    # one call at the cap allocates at most 1.5 MB, about what the
    # every-integer oracle block_factorials takes there
    p = 9999823
    f = (p - 1) // 49
    ns = range(f, 24 * f + 1, f)
    _kernels.factorials(p, ns)
    tracemalloc.start()
    try:
        _kernels.factorials(p, ns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6, peak


def _assert_tables_match_pair_counts(ctx, orders):
    for e in orders:
        from_factorials = cyclotomic_numbers(ctx, e).counts
        assert (from_factorials == _kernels.pair_counts(ctx.classes, e)).all(), (ctx.p, e)


def test_factorial_tables_match_pair_counts_mod49_below_30000():
    primes = primes_in_range(2, 30000, 49)
    assert len(primes) == 74
    for p in primes:
        _assert_tables_match_pair_counts(build_ctx(p), (7, 49))


def test_factorial_tables_match_pair_counts_other_generator():
    _assert_tables_match_pair_counts(build_ctx(60271, 33), (7, 49))


def test_stickelberger_tables_match_pair_counts_mod14_e7():
    # the order-7 table comes from Stickelberger's relation at every p, the
    # primes = 1 (mod 49) among these included
    for p in primes_in_range(2, 3000, 14):
        _assert_tables_match_pair_counts(build_ctx(p), (7,))
    _assert_tables_match_pair_counts(build_ctx(4500007), (7,))


@pytest.mark.parametrize("p", [5000549, 9999823])
def test_factorial_tables_match_pair_counts_near_the_cap(p):
    # int64 headroom: residues near 10^7, matrix-product sums near 49 p^2
    assert p % 49 == 1 and p <= MAX_PRIME
    _assert_tables_match_pair_counts(build_ctx(p), (7, 49))


def _assert_pair_counts_match_the_full_field(ctx):
    for e in (d for d in (1, 7, 49) if ctx.m % d == 0):
        counts = _kernels.pair_counts(ctx.classes, e)
        assert (counts == pair_counts_full_field(ctx.classes, e)).all(), (ctx.p, ctx.gamma, e)


def test_pair_counts_match_the_full_field_oracle():
    # pair_counts counts v = 1..h-1 and mirrors them; the oracle counts every v
    for p in primes_in_range(2, 3000, 14):
        for gamma in (find_generator(p), second_generator(p)):
            _assert_pair_counts_match_the_full_field(build_ctx(p, gamma))
    for p in (3, 5, 7):  # m = 1; at p = 3 only the fixed point v = h is counted
        _assert_pair_counts_match_the_full_field(build_ctx(p))


@pytest.mark.parametrize("p", [1000679, 9999823])
def test_pair_counts_match_the_full_field_oracle_large(p):
    _assert_pair_counts_match_the_full_field(build_ctx(p))


def test_pair_counts_read_no_cell_above_half():
    ctx = build_ctx(60271)
    h = (ctx.p - 1) // 2
    garbled = ctx.classes.copy()
    garbled[h + 1 :] = 50
    for e in (7, 49):
        # the upper half matters to a count over every v, but not to pair_counts
        assert (pair_counts_full_field(garbled, e) != pair_counts_full_field(ctx.classes, e)).any()
        assert (_kernels.pair_counts(garbled, e) == _kernels.pair_counts(ctx.classes, e)).all()


def test_table_free_residue_tests_match_the_class_table():
    for p in primes_in_range(2, 3000, 14):
        for gamma in (find_generator(p), second_generator(p)):
            ctx = build_ctx(p, gamma)
            classes = ctx.classes
            assert index_mod(ctx, 7, 7) == classes[7] % 7
            assert [is_seventh_power_residue(ctx, a) for a in range(1, p)] == [
                c % 7 == 0 for c in classes[1:].tolist()]
            assert classify_via_cubic(ctx) == all(
                classes[r] % 7 == 0 for r in _kernels.cubic_roots(p).tolist())


# The batched table routes against loop references.

def jacobi_by_scatter(cyc, a, b) -> CyclotomicInt:
    """J(a,b)_e as one scatter-add of the cells onto their exponents: the loop reference."""
    e = cyc.e
    i = np.arange(e, dtype=np.int64)
    exps = (a * i[:, None] + b * i[None, :]) % e
    coeffs = np.zeros(e, dtype=np.int64)
    np.add.at(coeffs, exps.ravel(), cyc.counts.ravel())
    return CyclotomicInt(e, coeffs.tolist())


def dickson_hurwitz_by_column(cyc) -> np.ndarray:
    """B(i,j)_e = sum_h (h, i - j*h)_e one column at a time: the loop reference."""
    e, counts = cyc.e, cyc.counts
    i = np.arange(e, dtype=np.int64)
    h = np.arange(e, dtype=np.int64)
    B = np.zeros((e, e), dtype=np.int64)
    for j in range(e):
        cols = (i[:, None] - j * h[None, :]) % e
        B[:, j] = counts[h[None, :], cols].sum(axis=1)
    return B


BATCH_CASES = [(29, 7), (197, 7), (197, 49), (491, 7), (491, 49), (60271, 7), (60271, 49)]


@pytest.mark.parametrize("p,e", BATCH_CASES)
def test_jacobi_rows_match_the_scatter_reference(bundle, with_shuffled_copy, p, e):
    for cyc in with_shuffled_copy(bundle(p).ctx, e):
        for a in (0, 1, 2, 7, e - 1):
            rows = jacobi_rows(cyc, a, range(e))
            assert rows.shape == (e, e) and rows.dtype == np.int64
            for b in range(e):
                expected = jacobi_by_scatter(cyc, a, b)
                assert tuple(rows[b].tolist()) == expected.coeffs, (a, b)
                assert jacobi_from_cyc(cyc, a, b) == expected, (a, b)
        unordered = [5, -1, 3 * e + 2, 0, 5]
        assert [tuple(row) for row in jacobi_rows(cyc, 3, unordered).tolist()] == [
            jacobi_by_scatter(cyc, 3, b).coeffs for b in unordered]


@pytest.mark.parametrize("p,e", BATCH_CASES)
def test_dickson_hurwitz_matches_the_column_loop(bundle, with_shuffled_copy, p, e):
    cyc, shuffled = with_shuffled_copy(bundle(p).ctx, e)
    for table in (cyc, shuffled):
        dh = dickson_hurwitz(table)
        assert (dh.B == dickson_hurwitz_by_column(table)).all()
        rows = jacobi_rows_via_dh(dh, range(e))
        for j in range(e):
            expected = CyclotomicInt(e, dh.B[:, j].tolist())
            assert tuple(rows[j].tolist()) == expected.coeffs, j
            assert jacobi_via_dh(dh, j) == expected, j
    assert check_dh_identities(dickson_hurwitz(cyc)) == []
    assert check_dh_identities(dickson_hurwitz(shuffled))
