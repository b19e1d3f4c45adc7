"""Acceptance suite: every criterion at its stated range, exact comparisons.

One pass/fail line per criterion is printed (run with -s to see them on
success; pytest shows them on failure regardless).

Criterion 8 is split: the ordinary-prime branch, the structural part of
the artiad branch, and the simplified congruence as stated.  The stated
t^7 coefficient -3*c6 + ind7 + 2*x5 does not hold at the artiad primes
= 1 (mod 49) in reach, under any generator class.  The actual
coefficient is -3*c6 + 3*ind7 + 2*x5, which is also what the paper's own
c_{7,1} closed form reduces to at artiad primes: the stated "+ind7" is a
slip for "+3*ind7".  The tests pin that: the stated form is evaluated
verbatim, agrees with the actual residue in t^0..t^6, and misses in t^7
by exactly the ind(7) coefficient.
"""

import math
import time

import pytest

from jacobi49.artiad import (artiad_conditions, classify_via_cubic, classify_via_x,
                             simplified_residue)
from jacobi49.cli import primes_in_range
from jacobi49.congruence import coeffs_by_definition, s_direct, s_lemma
from jacobi49.cyclotomy import cyclotomic_numbers, jacobi_from_cyc, identity_suite
from jacobi49.order7 import norm_form
from jacobi49.prime_field import build_ctx, find_generator, is_primitive_root
from jacobi49.selfcheck import run_selfchecks
from jacobi49.verify import prepare_prime, verify_prime
from oracles import (cyc_from_jacobi, ind7_mod49_relation, ind7_muskat, index_of, orbit,
                     residue8)

P49_20000 = primes_in_range(2, 20000, 49)
P49_5000 = [p for p in P49_20000 if p < 5000]
P14_10000 = primes_in_range(2, 10000, 14)

MINUS_ONE = residue8(6, 0, 0, 0, 0, 0, 0, 0)

_VERIFIED: dict[int, list] = {}
_SWEEP14: dict[int, dict] = {}
_VERIFY_SECONDS: list[float] = []


def report(criterion, ok, detail=""):
    line = f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)


@pytest.fixture(scope="module")
def verified():
    """Full certificates (all n) for every p = 1 (mod 49) below 20000."""
    if not _VERIFIED:
        t0 = time.monotonic()
        for p in P49_20000:
            _VERIFIED[p] = verify_prime(p)
        _VERIFY_SECONDS.append(time.monotonic() - t0)
    return _VERIFIED


@pytest.fixture(scope="module")
def sweep14():
    """Light per-prime data for every p = 1 (mod 14) below 10000."""
    if not _SWEEP14:
        for p in P14_10000:
            b = prepare_prime(build_ctx(p))
            _SWEEP14[p] = {
                "bundle": b,
                "via_x": classify_via_x(b.sol),
                "via_cubic": classify_via_cubic(b.ctx),
                "muskat": ind7_muskat(b.cyc7, p),
                "ind7": index_of(b.ctx, 7),
                "mod49_rel": ind7_mod49_relation(b.sol, b.ctx),
            }
    return _SWEEP14


def test_criterion_1_main_congruence(verified):
    ok = True
    for p in P49_20000:
        for cert in verified[p]:
            if not cert.match or cert.discrepancies:
                ok = False
            if cert.n % 7 == 0 and cert.actual != MINUS_ONE:
                ok = False
    compute_seconds = _VERIFY_SECONDS[0]
    n_pairs = sum(len(v) for v in verified.values())
    report(1, ok, f"{len(P49_20000)} primes x 48 n ({n_pairs} residue pairs) "
                  f"computed single-threaded in {compute_seconds:.1f}s")
    assert ok
    assert compute_seconds < 300


def test_criterion_2_elementary_identity_suite():
    ok = True
    for p in (29, 43, 71, 113, 127):
        fails = identity_suite(prepare_prime(build_ctx(p)).cyc7)
        if fails:
            ok = False
    for p in (197, 491):
        if identity_suite(prepare_prime(build_ctx(p)).cyc49):
            ok = False
    report(2, ok, "orders 7 (5 primes) and 49 (2 primes), all pairs, "
                  "modulus check included")
    assert ok


def test_criterion_3_fourier_duality():
    ok = True
    for p in (29, 113):
        cyc = cyclotomic_numbers(prepare_prime(build_ctx(p)).ctx, 7)
        all_j = {(i, j): jacobi_from_cyc(cyc, i, j)
                 for i in range(7) for j in range(7)}
        for a in range(7):
            for b in range(7):
                if cyc_from_jacobi(all_j, 7, a, b) != cyc.cell(a, b):
                    ok = False
    cyc = cyclotomic_numbers(prepare_prime(build_ctx(197)).ctx, 49)
    all_j = {(i, j): jacobi_from_cyc(cyc, i, j)
             for i in range(49) for j in range(49)}
    cells = [(0, 0), (1, 1), (3, 5), (7, 0), (11, 40), (2, 2), (46, 3),
             (25, 25), (48, 48), (13, 31), (6, 42), (1, 48)]
    for (a, b) in cells:
        if cyc_from_jacobi(all_j, 49, a, b) != cyc.cell(a, b):
            ok = False
    report(3, ok, f"order 7 exhaustive at p in {{29, 113}}; order 49 at p = 197 "
                  f"on {len(cells)} cells")
    assert ok


def test_criterion_4_s_cross_paths():
    ok = True
    for p in P49_5000:
        b = prepare_prime(build_ctx(p))
        for n in range(1, 49):
            sd = s_direct(b.dh49, n)
            if math.gcd(n, 7) == 1:
                if s_lemma(b.cyc7, n) != sd % 7:
                    ok = False
            elif sd % 7 != 0:
                ok = False
    report(4, ok, f"{len(P49_5000)} primes x 48 n, both S(n) paths")
    assert ok


def test_criterion_5_closed_forms(verified):
    ok = True
    repaired_rows = set()
    for p in P49_20000:
        cert = verified[p][0]  # n = 1
        adj = cert.coeffs["closed_form"]["adjudication"]
        if adj["unexplained_rows"]:
            ok = False
        if not all(adj["repaired_mod7"][2:6]):  # rows 3..6 mod 7
            ok = False
        if not all(adj["repaired_exact"]):      # informational but should hold
            ok = False
        if adj["c7_fitted_match"] is not True:  # adjudicated c7 replacement
            ok = False
        if cert.coeffs["s_paths"]["agree_mod7"] is not True:
            ok = False
        repaired_rows.update(adj["rows_needing_repair"])
    report(5, ok, f"rows needing the repaired reading everywhere: "
                  f"{sorted(repaired_rows)}; stated c7 form adjudicated "
                  f"defective and replaced; zero unexplained discrepancies")
    assert ok
    assert repaired_rows == {3, 4, 6}


def test_criterion_6_sextuple_layer(verified):
    ok = True
    for p in P49_20000:
        cert = verified[p][0]
        sol = cert.lw
        if norm_form(sol) != 72 * p or sol.x1 % 7 != 1:
            ok = False
        if (sol.x5 + 3 * sol.x6) % 2 or (sol.x5 - 3 * sol.x6) % 2:
            ok = False
        members = orbit(sol)
        base = set(members)
        if len(base) != 6 or any(set(orbit(m)) != base for m in members):
            ok = False
        if not cert.cross_checks["table_reconstruction"]["matched"]:
            ok = False
        if cert.cross_checks["table_reconstruction"]["t"] != cert.tu.t:
            ok = False
    report(6, ok, f"{len(P49_20000)} primes: norm, residue and parity "
                  f"constraints, orbit closure, cell-for-cell reconstruction")
    assert ok


def test_criterion_7_classifier_equivalences(verified, sweep14):
    ok = True
    for p, rec in sweep14.items():
        if rec["via_x"] != rec["via_cubic"]:
            ok = False
        if rec["muskat"] != rec["ind7"] % 7:
            ok = False
        if not rec["mod49_rel"]:
            ok = False
    # No artiad prime = 1 (mod 49) lies below 20000, so the artiad side of
    # the lemma biconditionals is vacuous here; see the criterion 8 tests.
    for p in P49_20000:
        ev = verified[p][0].classification.evidence
        artiad = ev.via_x
        hyper = artiad and ev.ind7_zero
        if ev.lemma4 != artiad or ev.lemma5 != hyper:
            ok = False
    report(7, ok, f"{len(sweep14)} primes = 1 (mod 14) below 10000; "
                  f"{len(P49_20000)} primes = 1 (mod 49) below 20000")
    assert ok


def hunt_first_artiad_mod49(start=20000, stop=10**6, step=20000):
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        for p in primes_in_range(lo + 1, hi, 49):
            b = prepare_prime(build_ctx(p))
            if classify_via_x(b.sol):
                return p
    return None


def test_criterion_8_ordinary_branch(verified):
    ok = True
    checked = 0
    for p in P49_20000:
        cert = verified[p][0]
        ev = cert.classification.evidence
        c = cert.coeffs["definition"]["c1_to_c6"]
        if ev.via_x:
            continue
        if any(v % 7 for v in c[2:5]):
            checked += 1
            if ev.theorem3_match is not False:
                ok = False
    report("8 (ordinary branch)", ok,
           f"{checked} ordinary primes with nonzero c3..c5: simplified form "
           f"differs from the actual residue")
    assert ok and checked > 0


@pytest.fixture(scope="module")
def first_artiad():
    """The first artiad prime = 1 (mod 49), hunted once per module."""
    return hunt_first_artiad_mod49()


# Every artiad prime = 1 (mod 49) up to 126127.
ARTIAD_MOD49 = (60271, 76343, 79283, 88397, 126127)


def corrected_t7(c6, ind7, x5):
    """The simplified congruence's t^7 coefficient with ind(7) entering
    three times, not once as stated."""
    return (-3 * c6 + 3 * ind7 + 2 * x5) % 7


def ind7_power_residue(p, gamma):
    """ind(7) mod 7 from the seventh-power residue symbol, with no index table."""
    h = (p - 1) // 7
    return next(j for j in range(7) if pow(gamma, j * h, p) == pow(7, h, p))


def test_criterion_8_artiad_structure(verified, first_artiad):
    assert not any(v[0].classification.evidence.via_x for v in verified.values()), \
        "no artiad prime = 1 (mod 49) exists below 20000"
    assert first_artiad is not None
    cert = verify_prime(first_artiad, ns=(1,))[0]
    ev = cert.classification.evidence
    ok = (cert.classification.kind == "artiad"
          and cert.match
          and cert.actual.coeffs[3:6] == (0, 0, 0)
          and cert.actual.coeffs[6] == cert.coeffs["definition"]["c1_to_c6"][5] % 7
          and ev.theorem3_adjusted_match is True)
    report("8 (artiad structure)", ok,
           f"first artiad prime = 1 (mod 49) found by staged scan: {first_artiad}; "
           f"t^3..t^5 vanish, t^6 form matches, adjusted t^7 form matches")
    assert ok


def test_criterion_8_artiad_simplified_form_as_stated(first_artiad):
    """The stated simplified congruence at the first artiad prime = 1 (mod 49).

    The paper states J(1,1)_49 = -1 + c6 t^6 + (-3 c6 + ind7 + 2 x5) t^7
    mod (1 - zeta)^8 at artiad primes.  Evaluated verbatim, it agrees
    with the actual residue in t^0..t^6 and misses in t^7, where the
    actual coefficient is -3 c6 + 3 ind7 + 2 x5.  The actual residue is
    cross-checked: it equals the residue predicted from c3..c6 and S(1),
    S(1) agrees by two paths, and ind7 agrees with Muskat's formula, the
    power-residue symbol and the mod-49 relation.

    The paper's own c_{7,1} closed form gives the same coefficient.  With
    x_i = 7 y_i (i = 2, 3, 4) it is 7-integral; condition B gives
    D/7 = 3 c6 and the relation 28 ind7 = x2 - 19 x3 - 18 x4 (mod 49)
    gives ind7 = 2 y2 + 4 y3 + 6 y4 (mod 7), which reduce it to
    -3 c6 + 2 x5 + 3 ind7 (mod 7).  So the stated "+ind7" is a slip for
    "+3 ind7", and since ind7 != 0 (mod 7) the stated form must fail.
    Lemma 4's condition C carries the same slip: it holds with -12 ind7
    in place of the stated -4 ind7, while A and B hold as stated.
    """
    p = first_artiad
    b = prepare_prime(build_ctx(p))
    cert = verify_prime(p, ns=(1,))[0]
    ev = cert.classification.evidence
    c6 = cert.coeffs["definition"]["c1_to_c6"][5]
    x5 = cert.lw.x5
    ind7 = index_of(b.ctx, 7)
    actual = cert.actual
    stated = simplified_residue(c6, ind7, x5, hyper=False)
    corrected = corrected_t7(c6, ind7, x5)
    coeffs1 = coeffs_by_definition(b.dh7, 1, s_value=s_direct(b.dh49, 1))
    cond_a, cond_b, cond_c = artiad_conditions(coeffs1, b.sol, ind7, p)
    adj = cert.coeffs["closed_form"]["adjudication"]
    checks = {
        "residue cross-checked": cert.match and not cert.discrepancies,
        "ind7 agrees three ways": (ind7 % 7 == ind7_muskat(b.cyc7, p)
                                   == ind7_power_residue(p, b.ctx.gamma)
                                   and ind7_mod49_relation(b.sol, b.ctx)),
        "artiad, ind7 != 0 (mod 7)": cert.classification.kind == "artiad"
                                     and ind7 % 7 != 0,
        "stated form evaluated verbatim":
            stated == residue8(6, 0, 0, 0, 0, 0, c6 % 7, (-3 * c6 + ind7 + 2 * x5) % 7),
        "theorem3_match reflects the comparison": ev.theorem3_match == (stated == actual),
        "t^0..t^6 agree": stated.coeffs[:7] == actual.coeffs[:7],
        "actual t^7 = -3c6 + 3ind7 + 2x5": actual.coeffs[7] == corrected,
        "c7_stated = S(1) (mod 7)": adj["c7_stated_mod7_match"] is True,
        "stated form refuted": ev.theorem3_match is False,
        "lemma 4: A and B hold": cond_a and cond_b,
        "lemma 4: C fails as stated": not cond_c and ev.lemma4 is False,
        "lemma 4: C holds with -12 ind7":
            (4 * coeffs1.s_value - 12 * ind7 + 12 * c6 - x5) % 7 == 0,
    }
    failed = [name for name, passed in checks.items() if not passed]
    report("8 (artiad branch, t^7 form as stated)", not failed,
           f"p = {p}: the stated t^7 form does not hold: stated t^7 = "
           f"{stated.coeffs[7]}, actual t^7 = {actual.coeffs[7]} = "
           f"-3*c6 + 3*ind7 + 2*x5 (ind7 = {ind7 % 7} mod 7); the ind(7) "
           f"coefficient is 3, not 1")
    assert not failed, (
        f"At the first artiad prime {p} the stated simplified congruence "
        f"(t^7 = -3*c6 + ind7 + 2*x5) should fail by exactly the ind(7) "
        f"coefficient, which is 3 rather than 1 (stated t^7 = "
        f"{stated.coeffs[7]}, actual t^7 = {actual.coeffs[7]}, "
        f"-3*c6 + 3*ind7 + 2*x5 = {corrected}).  Failed checks: {failed}")


def test_criterion_8_stated_t7_slip_all_generator_classes():
    """The ind(7)-coefficient slip at every artiad prime = 1 (mod 49) up to
    126127, under a generator from each of the six classes mod 7th powers,
    in the t^7 coefficient and in lemma 4's condition C."""
    failed = []
    # the list is complete: none lies below 20000 (criterion 8 structure)
    scanned = [p for p in primes_in_range(20001, ARTIAD_MOD49[-1], 49)
               if classify_via_x(prepare_prime(build_ctx(p)).sol)]
    if tuple(scanned) != ARTIAD_MOD49:
        failed.append(("artiad primes = 1 (mod 49) in (20000, 126127]", scanned))
    for p in ARTIAD_MOD49:
        g = find_generator(p)
        classes = set()
        for r in range(1, 7):
            k = next(k for k in range(r, p, 7) if math.gcd(k, p - 1) == 1)
            gamma = pow(g, k, p)
            cert = verify_prime(p, gamma=gamma, ns=(1,))[0]
            ev = cert.classification.evidence
            adj = cert.coeffs["closed_form"]["adjudication"]
            c6 = cert.coeffs["definition"]["c1_to_c6"][5]
            x5 = cert.lw.x5
            ind7 = ind7_power_residue(p, gamma)
            classes.add(ind7)
            corrected = corrected_t7(c6, ind7, x5)
            stated = simplified_residue(c6, ind7, x5, hyper=False)
            b = prepare_prime(build_ctx(p, gamma))
            coeffs1 = coeffs_by_definition(b.dh7, 1, s_value=s_direct(b.dh49, 1))
            conditions = artiad_conditions(coeffs1, b.sol, ind7, p)
            if not (cert.match and cert.classification.kind == "artiad"
                    and cert.actual.coeffs[7] == corrected
                    and adj["c7_stated_mod7_match"] is True
                    and stated.coeffs[:7] == cert.actual.coeffs[:7]
                    and stated != cert.actual and ev.theorem3_match is False):
                failed.append((p, gamma))
            # lemma 4: A and B hold, C fails as stated and holds with -12 ind7
            if not (conditions == (True, True, False) and ev.lemma4 is False
                    and (4 * coeffs1.s_value - 12 * ind7 + 12 * c6 - x5) % 7 == 0):
                failed.append((p, gamma, "lemma 4", conditions))
        if classes != set(range(1, 7)):
            failed.append((p, "generator classes", sorted(classes)))
    report("8 (artiad branch, t^7 slip coverage)", not failed,
           f"{len(ARTIAD_MOD49)} artiad primes x 6 generator classes: actual "
           f"t^7 = -3*c6 + 3*ind7 + 2*x5 = c7_stated (mod 7), stated form fails; "
           f"lemma 4's C fails as stated and holds with -12*ind7")
    assert not failed


def test_criterion_9_generator_robustness(verified):
    ok = True
    for p in (197, 491):
        g2 = next(h for h in range(find_generator(p) + 1, p)
                  if is_primitive_root(h, p))
        certs = verify_prime(p, gamma=g2)
        if not all(c.match and not c.discrepancies for c in certs):
            ok = False
        base = verified[p][0]
        alt = certs[0]
        if alt.classification.kind != base.classification.kind:
            ok = False
        if not alt.cross_checks["table_reconstruction"]["matched"]:
            ok = False
        if alt.classification.evidence.via_x != alt.classification.evidence.via_cubic:
            ok = False
        if set(orbit(alt.lw)) != set(orbit(base.lw)):
            ok = False
    report(9, ok, "p in {197, 491} re-verified with the second primitive root")
    assert ok


def test_criterion_10_selfcheck_speed():
    t0 = time.monotonic()
    results = run_selfchecks()
    elapsed = time.monotonic() - t0
    ok = all(passed for _, passed in results) and elapsed < 5.0
    report(10, ok, f"{len(results)} checks in {elapsed:.2f}s")
    assert ok
