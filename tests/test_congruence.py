import math

import pytest

from jacobi49 import _kernels, cyclotomy, verify
from jacobi49.cli import main, primes_in_range
from jacobi49.congruence import (SIX_CLASS_REPS, adjudicate_closed_forms,
                                 c7_closed_form_fitted, coeffs_by_definition,
                                 coeffs_closed_form, lambda_pair, lambda_single,
                                 predicted_residue, s_direct, s_lemma)
from jacobi49.cyclotomic_ring import CyclotomicInt, residue8, residue_mod_t8
from jacobi49.cyclotomy import identity_suite, jacobi_sum, six_class
from jacobi49.errors import InputError
from jacobi49.verify import classify_prime, verify_prime

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
    # Every J(i,j)_49 is read off the pair-count table; the only direct
    # character sum per prime is J(1,1)_49, the check on that table.  The
    # cubic's roots come in closed form.  The identity suite over all
    # 49 x 49 pairs of the same table runs inside verify_prime, and run
    # again on its own ("full") it makes no pass over F_p either.
    certs = verify_prime(197)
    assert all(c.match and not c.discrepancies for c in certs)
    assert sum(kernel_calls.values()) <= 4, kernel_calls
    assert kernel_calls["power_pair_hist"] == 1
    assert kernel_calls["power_pair_hist_variant"] == 0
    assert kernel_calls["cubic_roots"] == 0
    if identities == "full":
        table = bundle(197).cyc49
        before = dict(kernel_calls)
        assert identity_suite(table) == []
        assert kernel_calls == before


def test_classify_prime_passes_over_field(kernel_calls):
    # p = 1 (mod 14), not 1 (mod 49): one class table and the order-7 counts
    cert = classify_prime(43)
    assert not cert.discrepancies
    assert kernel_calls == {"index_table": 1, "pair_counts": 1, "power_pair_hist": 0,
                            "power_pair_hist_variant": 0, "cubic_roots": 0}


def test_direct_sum_catches_a_wrong_table(monkeypatch):
    # Move one count from cell (0,1)_49 to (0,2)_49: the totals still add up
    # to p - 2, but the single direct sum no longer matches the table at n = 1.
    real = _kernels.pair_counts

    def shifted(ind, e):
        counts = real(ind, e)
        if e == 49:
            counts[0, 1] -= 1
            counts[0, 2] += 1
        return counts

    monkeypatch.setattr(_kernels, "pair_counts", shifted)
    cert = verify_prime(197, ns=(1,))[0]
    assert "Jacobi sum paths disagree at n = 1" in cert.discrepancies
    assert cert.cross_checks["three_path_agree"] is False
    # the identity suite reads the same table at every pair and catches it too
    assert cert.cross_checks["identity_suite_ok"] is False
    assert "elementary Jacobi-sum identity suite failed" in cert.discrepancies


def test_bad_class_rejected_before_the_table(kernel_calls, capsys):
    # 9999973 is prime but not 1 (mod 14): no O(p) work before the refusal
    with pytest.raises(InputError):
        classify_prime(9999973)
    assert sum(kernel_calls.values()) == 0, kernel_calls
    assert main(["classify", "--prime", "9999973"]) == 2
    assert "not 1 (mod 14)" in capsys.readouterr().err
    assert sum(kernel_calls.values()) == 0, kernel_calls


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


def test_verify_prime_products(monkeypatch):
    # The identity suite checks every pair with 54 Jacobi sums off the table:
    # J(0,1), J(0,7) and the 52 Galois representatives of |J|^2 = p, whose
    # norms are one array product, with no CyclotomicInt product.  The n
    # loop reads 48 more.
    calls = {"mul": 0, "jacobi_from_cyc": 0}
    real_mul = CyclotomicInt.__mul__
    real_from_cyc = cyclotomy.jacobi_from_cyc

    def mul(self, other):
        calls["mul"] += 1
        return real_mul(self, other)

    def from_cyc(*args):
        calls["jacobi_from_cyc"] += 1
        return real_from_cyc(*args)

    monkeypatch.setattr(CyclotomicInt, "__mul__", mul)
    monkeypatch.setattr(cyclotomy, "jacobi_from_cyc", from_cyc)
    monkeypatch.setattr(verify, "jacobi_from_cyc", from_cyc)
    certs = verify_prime(197)
    assert all(c.match and not c.discrepancies for c in certs)
    assert calls == {"mul": 0, "jacobi_from_cyc": 102}, calls
