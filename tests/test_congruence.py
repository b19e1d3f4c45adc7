import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobi49 import congruence, cyclotomic_ring, cyclotomy, stickelberger, verify
from jacobi49.cli import main, primes_in_range
from jacobi49.congruence import (MINUS_ONE_RESIDUE, SIX_CLASS_REPS,
                                 adjudicate_closed_forms, c7_closed_form_fitted,
                                 coefficient_sets, coeffs_by_definition, coeffs_closed_form,
                                 lambda_pair, lambda_single, predicted_rows, s_direct,
                                 s_direct_all, s_lemma, s_lemma_all)
from jacobi49.cyclotomic_ring import CyclotomicInt, Residue8, image_rows, residue_mod_t8
from jacobi49.cyclotomy import (DicksonHurwitzTable, cyclotomic_numbers, dickson_hurwitz,
                                identity_suite, jacobi_from_cyc, jacobi_rows, jacobi_sum,
                                six_class)
from jacobi49.errors import InputError, InvariantViolation
from jacobi49.order7 import Sextuple, solution_from_tables
from jacobi49.prime_field import build_ctx, find_generator
from jacobi49.verify import classify_prime, prepare_prime, verify_prime
from oracles import closed_forms_stated, predicted_residue, residue8, second_generator

P49_SMALL = primes_in_range(2, 5000, 49)


def test_lambda_single_example():
    # n' = 1, h = 1: floor(1/7) + floor(-2/7) = 0 + (-1) = -1
    assert lambda_single(1, 1) == -1
    assert lambda_single(1, 1) % 7 == 6


def test_six_class_partition():
    covered = set()
    for rep in SIX_CLASS_REPS:
        cls = six_class(7, *rep)
        assert len(cls) == 6
        covered |= cls
    assert len(SIX_CLASS_REPS) == 5
    assert covered == {(h, k) for h in range(1, 7) for k in range(1, 7) if h != k}


@pytest.mark.parametrize("n_prime", range(1, 7))
def test_lambda_pair_is_class_invariant(n_prime):
    for rep in SIX_CLASS_REPS:
        values = {lambda_pair(n_prime, h, k) for (h, k) in six_class(7, *rep)}
        assert len(values) == 1


def test_s_direct_divisible_by_seven_on_multiples(bundle):
    b = bundle(197)
    for n in (7, 14, 21, 28, 35, 42):
        assert s_direct(b.dh49, n) % 7 == 0


@pytest.mark.parametrize("p", [197, 491])
def test_s_two_paths_agree(bundle, p):
    b = bundle(p)
    for n in range(1, 49):
        if math.gcd(n, 7) == 1:
            assert s_lemma(b.cyc7, n) == s_direct(b.dh49, n) % 7
        else:
            assert s_lemma(b.cyc7, n) == 0


def test_coeffs_by_definition_structure(bundle):
    b = bundle(197)
    cs = coeffs_by_definition(b.dh7, 1)
    dh = b.dh7
    assert cs.c[5] == dh.cell(6, 1)  # c6 is the single-term row
    assert cs.c[2] == (dh.cell(3, 1) + 4 * dh.cell(4, 1)
                       + 10 * dh.cell(5, 1) + 20 * dh.cell(6, 1))
    assert cs.c[0] == sum(u * dh.cell(u, 1) for u in range(1, 7))


def test_coeffs_multiple_of_seven_branch(bundle):
    cs = coeffs_by_definition(bundle(197).dh7, 14)
    assert cs.n_prime == 0 and cs.c is None
    assert predicted_residue(cs) == residue8(6, 0, 0, 0, 0, 0, 0, 0)


def test_coeffs_use_n_mod_7_column(bundle):
    b = bundle(197)
    a = coeffs_by_definition(b.dh7, 3)
    bb = coeffs_by_definition(b.dh7, 10)  # 10 = 7 + 3
    assert a.c == bb.c


def test_predicted_residue_shapes():
    from jacobi49.congruence import CoefficientSet
    cs = CoefficientSet(n=1, n_prime=1, c=(0, 0, 0, 0, 0, 0), s_value=0)
    assert predicted_residue(cs) == residue8(6, 0, 0, 0, 0, 0, 0, 0)
    cs = CoefficientSet(n=1, n_prime=1, c=(0, 0, 1, 0, 0, 0), s_value=0)
    assert predicted_residue(cs) == residue8(6, 0, 0, 1, 0, 0, 0, 0)
    with pytest.raises(InputError):
        predicted_residue(CoefficientSet(n=1, n_prime=1, c=None, s_value=None))


@pytest.mark.parametrize("p", [197, 491, 60271])
def test_predicted_rows(bundle, p):
    b = bundle(p)
    ns = list(range(-3, 60))
    s_values = [int(s_direct_all(b.dh49)[n % 49]) for n in ns]
    sets = coefficient_sets(b.dh7, ns, s_values)
    rows = predicted_rows(sets)
    assert rows.dtype == np.int64 and rows.shape == (len(ns), 8)
    for n, cs, row in zip(ns, sets, rows.tolist()):
        assert Residue8(tuple(row)) == predicted_residue(cs), n
        if n % 7 == 0:
            assert Residue8(tuple(row)) == MINUS_ONE_RESIDUE, n
        else:
            assert row == [6, 0, 0, *(v % 7 for v in cs.c[2:]), cs.s_value % 7], n
    assert predicted_rows([]).shape == (0, 8)
    with pytest.raises(InputError):
        predicted_rows(sets[:3] + coefficient_sets(b.dh7, [1], [None]))


def test_c1_c2_always_vanish_mod7(bundle):
    # the weak congruence mod (1-zeta)^3 forces these for every prime
    for p in P49_SMALL:
        cs = coeffs_by_definition(bundle(p).dh7, 1)
        assert cs.c[0] % 7 == 0 and cs.c[1] % 7 == 0


def test_closed_form_adjudication_p197(bundle):
    b = bundle(197)
    coeffs = coeffs_by_definition(b.dh7, 1, s_value=s_direct(b.dh49, 1))
    closed = coeffs_closed_form(b.sol, 197)
    fitted = c7_closed_form_fitted(b.sol, 197, b.recon.u_signed)
    adj = adjudicate_closed_forms(closed, coeffs, fitted)
    assert adj.stated_exact == (True, True, False, False, True, False)
    assert adj.repaired_exact == (True,) * 6
    assert adj.repaired_mod7 == (True,) * 6
    assert adj.rows_needing_repair == (3, 4, 6)
    assert adj.unexplained_rows == ()
    assert not adj.c7_stated_integral
    assert adj.c7_fitted_match is True


def test_closed_forms_match_the_stated_expressions():
    # the numerators over 84 against the expressions as stated, in Fractions
    cases = [(p, gamma) for p in primes_in_range(2, 20000, 14)
             for gamma in (find_generator(p), second_generator(p))]
    cases += [(p, None) for p in (60271, 1000679, 9999823)]
    for p, gamma in cases:
        sol = solution_from_tables(dickson_hurwitz(cyclotomic_numbers(build_ctx(p, gamma), 7)))
        got, want = coeffs_closed_form(sol, p), closed_forms_stated(sol, p)
        assert got == want, (p, gamma)
        assert got.to_json() == want.to_json(), (p, gamma)


@given(st.lists(st.integers(-10**9, 10**9), min_size=6, max_size=6), st.integers(0, 10**8))
@settings(max_examples=200, deadline=None)
def test_closed_forms_match_the_stated_expressions_anywhere(xs, p):
    # the rewriting is algebra: it holds for any integers, not only sextuples
    sol = Sextuple(*xs)
    assert coeffs_closed_form(sol, p).to_json() == closed_forms_stated(sol, p).to_json()


def test_divisibility_anchor(bundle):
    # 6p - x1 - 12 is divisible by 7 for every in-scope prime
    for p in P49_SMALL:
        assert (6 * p - bundle(p).sol.x1 - 12) % 7 == 0


def test_verify_prime_multiple_of_seven_branch(bundle):
    certs = verify_prime(197, ns=(7,))
    assert certs[0].actual == residue8(6, 0, 0, 0, 0, 0, 0, 0)
    assert certs[0].match


def test_verify_prime_n1(bundle):
    cert = verify_prime(197, ns=(1,))[0]
    assert cert.match and not cert.discrepancies
    assert cert.predicted.coeffs[0] == 6
    assert cert.coeffs["s_paths"]["agree_mod7"]
    assert cert.cross_checks["three_path_agree"]
    assert cert.cross_checks["table_reconstruction"]["matched"]


def test_verify_prime_full_n_small(bundle):
    certs = verify_prime(491)
    assert len(certs) == 48
    assert all(c.match and not c.discrepancies for c in certs)


def test_verify_prime_input_errors():
    with pytest.raises(InputError):
        verify_prime(29)
    with pytest.raises(InputError):
        verify_prime(196)
    with pytest.raises(InputError):
        verify_prime(197, ns=(0,))
    with pytest.raises(InputError):
        verify_prime(197, ns=(49,))


def test_actual_residue_taken_from_direct_sum(bundle):
    # the certificate's actual residue, read off the table for n != 1,
    # is the direct character sum's image
    b = bundle(197)
    cert = verify_prime(197, ns=(5,))[0]
    assert cert.actual == residue_mod_t8(jacobi_sum(b.ctx, 49, 1, 5))


@pytest.mark.parametrize("identities", ["pipeline", "full"])
def test_verify_prime_passes_over_field(kernel_calls, bundle, identities):
    # Every J(i,j)_49 is read off the table built from factorials mod p;
    # the only pass over the class table is one pair count of the whole
    # order-49 table, the check on that table, and no direct character
    # sum runs.  The cubic's roots come in closed form.  The identity
    # suite over all 49 x 49 pairs of the same table runs inside
    # verify_prime, and run again on its own ("full") it makes no pass
    # over F_p either.
    certs = verify_prime(197)
    assert all(c.match and not c.discrepancies for c in certs)
    assert sum(kernel_calls.values()) <= 3, kernel_calls
    assert kernel_calls["factorials"] == 1
    assert kernel_calls["index_table"] == 1
    assert kernel_calls["pair_counts"] == 1
    assert kernel_calls["power_pair_hist"] == 0
    assert kernel_calls["power_pair_hist_variant"] == 0
    assert kernel_calls["cubic_roots"] == 0
    if identities == "full":
        table = bundle(197).cyc49
        before = dict(kernel_calls)
        assert identity_suite(table) == []
        assert kernel_calls == before


def test_verify_prime_of_no_n_runs_no_check(kernel_calls):
    # with no n to verify there is nothing for the pair count to check
    assert verify_prime(197, ns=()) == []
    assert kernel_calls["index_table"] == kernel_calls["pair_counts"] == 0, kernel_calls


@pytest.mark.parametrize("p", [43, 197, 60271])
def test_classify_prime_passes_over_field(kernel_calls, p):
    # p = 1 (mod 14), and at 197 and 60271 also 1 (mod 49): there the order-49
    # table comes from one factorial product.  The order-7 table comes from
    # Stickelberger's relation at every p, with no pass over F_p at all.
    # No class table is built.
    cert = classify_prime(p)
    assert not cert.discrepancies
    assert kernel_calls == {"factorials": int(p % 49 == 1), "index_table": 0,
                            "pair_counts": 0, "power_pair_hist": 0,
                            "power_pair_hist_variant": 0, "cubic_roots": 0}


def test_classify_prime_builds_no_class_table_near_the_workload(kernel_calls):
    # p != 1 (mod 49): no O(p) kernel runs, not even the factorials
    cert = classify_prime(4500007)
    assert not cert.discrepancies
    assert sum(kernel_calls.values()) == 0, kernel_calls


def _shift_the_factorial_table(monkeypatch, e, shift):
    """Make the factorial-built (e, e) table pass through shift(counts) first."""
    real = cyclotomy.counts_from_factorials

    def shifted(ctx, order):
        counts = real(ctx, order)
        if order == e:
            shift(counts)
        return counts

    monkeypatch.setattr(cyclotomy, "counts_from_factorials", shifted)


def _negate_one_class(counts):
    """Move one count from each cell of the class of (3,11)_49 to the cell it negates."""
    for (a, b) in six_class(49, 3, 11):
        counts[a, b] -= 1
        counts[-a % 49, -b % 49] += 1


def test_direct_sum_catches_a_wrong_table(monkeypatch):
    # Move one count from each cell of the class of (3,11)_49 to the cell of
    # the class of (-3,-11) it negates: the total and the even-f classes,
    # which the table's own guard checks, still hold, but the single direct
    # sum no longer matches the table at n = 1.
    _shift_the_factorial_table(monkeypatch, 49, _negate_one_class)
    cert = verify_prime(197, ns=(1,))[0]
    assert "Jacobi sum paths disagree at n = 1" in cert.discrepancies
    assert cert.cross_checks["three_path_agree"] is False
    # the identity suite reads the same table at every pair and catches it too
    assert cert.cross_checks["identity_suite_ok"] is False
    assert "elementary Jacobi-sum identity suite failed" in cert.discrepancies


def test_discrepancy_order_with_a_wrong_table(monkeypatch):
    # The per-n texts come first, then the per-prime ones, each group in a
    # fixed order.  classify builds no class table and runs no identity
    # suite, and the (3,11) negation keeps the table's fold to order 7, so
    # classify still sees nothing wrong with this table.
    _shift_the_factorial_table(monkeypatch, 49, _negate_one_class)
    per_prime = ("elementary Jacobi-sum identity suite failed",
                 "order-49 table differs from the direct pair count")
    assert [c.discrepancies for c in verify_prime(197)] == [
        ("Jacobi sum paths disagree at n = 1",) + per_prime] + [per_prime] * 47
    assert classify_prime(197).discrepancies == ()


COUNTED_49 = "order-49 table differs from the direct pair count"
FOLDED_7 = "order-7 table differs from the folded direct pair count"
FOLDED_49 = "order-7 table differs from the folded order-49 table"


def _permute_by_unit(s, e):
    """counts[a, b] <- counts[a/s, b/s] mod e.

    For a unit s this is the true table of another generator.
    """
    cells = np.arange(e) * pow(s, -1, e) % e

    def permute(counts):
        counts[...] = counts[np.ix_(cells, cells)]

    return permute


@pytest.mark.parametrize("p", [197, 60271, 1000679])
def test_pair_count_catches_the_table_of_another_generator(monkeypatch, p):
    # Permuted by the unit 8 = 1 (mod 7), the order-49 table is the true
    # table for another generator: its total, its even-f classes and every
    # identity of the suite hold, and its fold to order 7 is still the
    # order-7 table.  Only the direct pair count sees it.
    _shift_the_factorial_table(monkeypatch, 49, _permute_by_unit(8, 49))
    cert = verify_prime(p, ns=(1,))[0]
    assert cert.cross_checks["identity_suite_ok"] is True
    assert COUNTED_49 in cert.discrepancies
    assert FOLDED_7 not in cert.discrepancies
    assert FOLDED_49 not in cert.discrepancies


@pytest.mark.parametrize("p", [197, 60271])
def test_folded_pair_count_catches_a_wrong_order7_table(monkeypatch, p):
    # The order-7 table alone, permuted by the unit 3 mod 7: the order-49
    # table still matches its count, and the fold of the count does not
    # match the order-7 table.
    _shift_the_factorial_table(monkeypatch, 7, _permute_by_unit(3, 7))
    cert = verify_prime(p, ns=(1,))[0]
    assert FOLDED_7 in cert.discrepancies
    assert COUNTED_49 not in cert.discrepancies
    # the fold of the order-49 table disagrees with it too
    assert FOLDED_49 in cert.discrepancies


def test_classify_catches_the_order49_table_of_another_generator(monkeypatch):
    # Renamed by the unit 3, the order-49 table is the true table of another
    # generator.  Its fold is that generator's order-7 table, not the one
    # Stickelberger's relation gives for this one.  At 197 no other check of
    # classify sees the renaming.
    _shift_the_factorial_table(monkeypatch, 49, _permute_by_unit(3, 49))
    assert classify_prime(197).discrepancies == (FOLDED_49,)


@pytest.mark.parametrize("p", [197, 60271])
def test_classify_flags_the_fold_beside_the_s_paths(monkeypatch, p):
    # renamed by the unit 2, the order-49 table moves S(1) off the order-7 path too
    _shift_the_factorial_table(monkeypatch, 49, _permute_by_unit(2, 49))
    assert classify_prime(p).discrepancies == ("S(1) direct and order-7 paths disagree",
                                               FOLDED_49)


@pytest.mark.parametrize("p", [197, 60271])
def test_the_fold_misses_a_unit_that_is_1_mod_7(monkeypatch, p):
    # The fold's blind spot: renamed by 8 = 1 (mod 7), the order-49 table
    # folds to the same order-7 table, and classify sees nothing.  Only
    # verify's pair count catches it
    # (test_pair_count_catches_the_table_of_another_generator).
    _shift_the_factorial_table(monkeypatch, 49, _permute_by_unit(8, 49))
    assert classify_prime(p).discrepancies == ()


@pytest.mark.parametrize("p", [197, 60271])
def test_stickelberger_builds_the_order7_table_at_p_1_mod_49(monkeypatch, p):
    # one route per order: the order-7 table comes from Stickelberger's
    # relation, once per bundle, even where the factorials exist
    calls = []
    real = stickelberger.jacobi_sums

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(stickelberger, "jacobi_sums", counting)
    bundle = prepare_prime(build_ctx(p))
    assert calls == [(p, bundle.ctx.gamma)]


@pytest.mark.parametrize("p,e", [(43, 7), (197, 7), (197, 49)])
def test_table_guard_catches_an_asymmetric_move(monkeypatch, p, e):
    # One count moved from (0,1)_e to (0,2)_e keeps the total p - 2 but
    # breaks the even-f classes, so the table is refused as it is built.
    def move_one(counts):
        counts[0, 1] -= 1
        counts[0, 2] += 1

    _shift_the_factorial_table(monkeypatch, e, move_one)
    with pytest.raises(InvariantViolation, match=f"cyclotomic numbers of order {e} "):
        classify_prime(p)


def test_bad_class_rejected_before_the_table(kernel_calls, capsys):
    # 9999973 is prime but not 1 (mod 14): no O(p) work before the refusal
    with pytest.raises(InputError):
        classify_prime(9999973)
    assert sum(kernel_calls.values()) == 0, kernel_calls
    assert main(["classify", "--prime", "9999973"]) == 2
    assert "not 1 (mod 14)" in capsys.readouterr().err
    assert sum(kernel_calls.values()) == 0, kernel_calls


def test_bundle_of_a_bad_class_refused_before_the_table(kernel_calls):
    # a context of p = 23, not 1 (mod 14), has no order-7 table to build
    with pytest.raises(InputError, match="7 does not divide m"):
        prepare_prime(build_ctx(23))
    assert sum(kernel_calls.values()) == 0, kernel_calls


def test_classify_flags_an_s_lemma_mismatch(monkeypatch, capsys):
    # S(1) mod 7 off the order-7 table, shifted by one: classify records
    # the paths' disagreement as a discrepancy, as verify does at n = 1,
    # and the command fails.
    real = congruence.s_lemma_all

    def shifted(cyc7):
        return (real(cyc7) + 1) % 7

    for module in (congruence, verify):  # s_lemma reads it from congruence
        monkeypatch.setattr(module, "s_lemma_all", shifted)
    text = "S(1) direct and order-7 paths disagree"
    cert = classify_prime(197)
    assert cert.coeffs["s_paths"]["agree_mod7"] is False
    assert text in cert.discrepancies
    assert text in verify_prime(197, ns=(1,))[0].discrepancies
    assert main(["classify", "--prime", "197"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("p", [197, 60271])
def test_verify_and_classify_share_one_step(p):
    # classify and verify read one classification, sextuple, t/u pair and
    # per-prime checks; classify's S(1) paths are verify's at n = 1
    cls = classify_prime(p).to_json()
    certs = [c.to_json() for c in verify_prime(p)]
    for cert in certs:
        for key in ("classification", "lw", "tu"):
            assert cert[key] == cls[key], (cert["n"], key)
        for key in ("table_reconstruction", "diophantine"):
            assert cert["cross_checks"][key] == cls["cross_checks"][key], (cert["n"], key)
    assert certs[0]["n"] == 1
    assert certs[0]["coeffs"]["s_paths"] == cls["coeffs"]["s_paths"]


@pytest.mark.parametrize("p", [197, 491, 60271, 1000679])
def test_one_result_holds_the_classification_record(p):
    # The result of a verify run holds the classification record too, so one
    # bundle per scanned prime (ROADMAP item 3) can serve both.  Here every
    # check passes.  Where a check only verify makes fails (the direct pair
    # count, its fold, the identity suite), whether the record carries its
    # text is for that change to decide.
    record = verify.run_prime(build_ctx(p), verify.ALL_N).record()
    assert record.to_json() == classify_prime(p).to_json()


@pytest.mark.parametrize("p,second", [(197, False), (491, False), (60271, False),
                                      (1000679, False), (60271, True), (1000679, True)])
def test_one_context_serves_classify_and_verify(p, second):
    # A scan runs classify and then verify on one context: its records are
    # classify_prime's and verify_prime's, each of which builds its own.
    gamma = second_generator(p) if second else None
    ctx = build_ctx(p, gamma)
    assert verify.run_prime(ctx, None).record().to_json() == classify_prime(p, gamma).to_json()
    assert ([c.to_json() for c in verify.run_prime(ctx, verify.ALL_N).certificates()]
            == [c.to_json() for c in verify_prime(p, gamma)])


def test_certificates_share_the_per_prime_block():
    certs = verify_prime(197)
    assert len(certs) == 48
    for key in ("lw", "tu", "classification"):
        assert len({id(getattr(cert, key)) for cert in certs}) == 1, key


def test_records_declare_their_json_once():
    # each record's JSON holds its own fields, in declaration order, and is a
    # copy: changing it leaves the record as it was
    cert = verify_prime(197, ns=(1,))[0]
    bundle = prepare_prime(build_ctx(197))
    for record in (cert, cert.classification.evidence, bundle.dio, bundle.recon):
        names = [f.name for f in dataclasses.fields(record)]
        assert list(record.to_json()) == names, type(record)
        before = record.to_json()
        record.to_json().update(dict.fromkeys(names, "changed"))
        assert record.to_json() == before, type(record)
        assert all(getattr(record, name) != "changed" for name in names)


def _count_calls(monkeypatch):
    """Count CyclotomicInt products and the table-reading calls, wherever looked up."""
    calls = {"mul": 0, "jacobi_from_cyc": 0, "jacobi_rows": 0, "residue_mod_t8": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(CyclotomicInt, "__mul__", counting("mul", CyclotomicInt.__mul__))
    for name, module in (("jacobi_from_cyc", cyclotomy), ("jacobi_rows", cyclotomy),
                         ("residue_mod_t8", cyclotomic_ring)):
        wrapper = counting(name, getattr(module, name))
        monkeypatch.setattr(module, name, wrapper)
        if hasattr(verify, name):
            monkeypatch.setattr(verify, name, wrapper)
    return calls


def test_verify_prime_products(monkeypatch):
    # The identity suite checks every pair from 54 Jacobi sums off the table
    # in three batches (J(0,1) and J(0,7); J(1,m); J(7,7m)), and the norms
    # of the 52 Galois representatives are one array product, with no
    # CyclotomicInt product.  J(1,1)_49 and all 48 J(1,n) are read off the
    # table in one more batch, and J(1,1)_49 off the pair-counted table in
    # one more; every residue is taken from these rows at once.
    calls = _count_calls(monkeypatch)
    certs = verify_prime(197)
    assert all(c.match and not c.discrepancies for c in certs)
    assert calls == {"mul": 0, "jacobi_from_cyc": 0, "jacobi_rows": 5,
                     "residue_mod_t8": 0}, calls


def test_classify_prime_products(monkeypatch):
    # classify reads J(1,1)_49 off the table as one batch of one row, and
    # its residue from that row
    calls = _count_calls(monkeypatch)
    cert = classify_prime(60271)
    assert not cert.discrepancies
    assert calls == {"mul": 0, "jacobi_from_cyc": 0, "jacobi_rows": 1,
                     "residue_mod_t8": 0}, calls


@pytest.mark.parametrize("k", [2, 14, 48])
def test_dh_column_is_compared_at_its_own_n(monkeypatch, k):
    # Move one count between rows 0 and 1 of column k of the order-49
    # Dickson-Hurwitz table.  Both rows carry weight floor(r/7) = 0 in
    # S(k), so only the Jacobi sum read off that column changes: the
    # certificate of n = k, and no other, sees its three paths disagree.
    real = verify.dickson_hurwitz

    def perturbed(cyc):
        dh = real(cyc)
        if cyc.e != 49:
            return dh
        B = dh.B.copy()
        B[0, k] -= 1
        B[1, k] += 1
        return DicksonHurwitzTable(e=dh.e, p=dh.p, B=B)

    monkeypatch.setattr(verify, "dickson_hurwitz", perturbed)
    certs = verify_prime(197)
    assert [c.n for c in certs if not c.cross_checks["three_path_agree"]] == [k]
    assert [c.discrepancies for c in certs] == [
        (f"Jacobi sum paths disagree at n = {k}",) if c.n == k else () for c in certs]
    assert all(c.match for c in certs)


# The batched congruence numbers against loop references, on the tables of
# order 7 and 49 and on copies with their cells shuffled, which break the
# even-f classes.

def residue_by_loop(coeffs) -> tuple[int, ...]:
    """zeta -> 1 + t term by term, modulo (7, t^8): the loop reference of the residue map."""
    out = [0] * 8
    for k, v in enumerate(coeffs):
        for i in range(min(8, k + 1)):
            out[i] += v * math.comb(k, i)
    return tuple(v % 7 for v in out)


def s_lemma_by_loop(cyc7, n) -> int:
    if n % 7 == 0:
        return 0
    total = sum(lambda_single(n % 7, h) * cyc7.cell(h, 0) for h in range(1, 7))
    total += sum(lambda_pair(n % 7, h, k) * cyc7.cell(h, k) for (h, k) in SIX_CLASS_REPS)
    return total % 7


@pytest.mark.parametrize("p", [197, 491, 60271])
def test_batched_residues_and_s_match_the_loops(bundle, with_shuffled_copy, p):
    for cyc in with_shuffled_copy(bundle(p).ctx, 49):
        rows = jacobi_rows(cyc, 1, range(49))
        images = image_rows(rows, 8).tolist()
        B = dickson_hurwitz(cyc).B
        s_all = s_direct_all(dickson_hurwitz(cyc)).tolist()
        for n in range(49):
            expected = residue_by_loop(rows[n].tolist())
            assert tuple(images[n]) == expected, n
            assert residue_mod_t8(jacobi_from_cyc(cyc, 1, n)).coeffs == expected, n
            s_loop = sum((r // 7) * int(B[r, n]) for r in range(49))
            assert s_all[n] == s_direct(dickson_hurwitz(cyc), n) == s_loop, n


@pytest.mark.parametrize("p", [29, 197, 491, 60271])
def test_batched_coefficients_and_lemma_match_the_loops(bundle, with_shuffled_copy, p):
    ns = list(range(-3, 60))
    for cyc7 in with_shuffled_copy(bundle(p).ctx, 7):
        dh7 = dickson_hurwitz(cyc7)
        s_values = [n * n - 7 for n in ns]
        sets = coefficient_sets(dh7, ns, s_values)
        lemma = s_lemma_all(cyc7).tolist()
        for n, s_value, cs in zip(ns, s_values, sets):
            c = None if n % 7 == 0 else tuple(
                sum(math.comb(u, i) * dh7.cell(u, n) for u in range(i, 7))
                for i in range(1, 7))
            assert (cs.n, cs.n_prime, cs.c, cs.s_value) == (n, n % 7, c, s_value), n
            assert coeffs_by_definition(dh7, n, s_value) == cs
            assert coeffs_by_definition(dh7, n).s_value is None
            assert lemma[n % 7] == s_lemma(cyc7, n) == s_lemma_by_loop(cyc7, n), n
