import pytest

from jacobi49 import _kernels
from jacobi49.artiad import (classify_from_parts, classify_via_cubic,
                             classify_via_x, cubic_roots, artiad_conditions,
                             simplified_residue)
from jacobi49.cli import primes_in_range
from jacobi49.congruence import coeffs_by_definition, s_direct
from jacobi49.cyclotomic_ring import residue_mod_t8
from jacobi49.cyclotomy import jacobi_sum
from jacobi49.errors import InputError
from jacobi49.order7 import Sextuple, tu_decompose
from jacobi49.verify import classify_prime, verify_prime
from oracles import ind7_mod49_relation, ind7_muskat, index_of, orbit, trivial_solutions

P14_1000 = primes_in_range(2, 1000, 14)
P49_3000 = primes_in_range(2, 3000, 49)

FIRST_ARTIAD_MOD14 = 14197   # smallest septic artiad found by the scanner
FIRST_ARTIAD_MOD49 = 60271   # smallest artiad prime that is 1 (mod 49)


def n1_coeffs(b):
    return coeffs_by_definition(b.dh7, 1, s_value=s_direct(b.dh49, 1))


def test_via_x_on_constructed_sextuples():
    tu = tu_decompose(911)  # 911 = 14*65+1, u = 7 here? just use a crafted case
    sol = Sextuple(-6, 14, 7, -21, 0, 0)
    assert classify_via_x(sol)
    assert not classify_via_x(Sextuple(1, 1, 0, 0, 0, 0))
    # a trivial solution with 7 | u has x2 = x3 = x4 = 0 (mod 7)
    crafted = trivial_solutions(type(tu)(t=1, u=7))
    assert all(classify_via_x(t) for t in crafted)


def test_via_x_is_orbit_invariant(bundle):
    for p in (29, 197, FIRST_ARTIAD_MOD14):
        sol = bundle(p).sol
        vals = {classify_via_x(m) for m in orbit(sol)}
        assert len(vals) == 1


@pytest.mark.parametrize("p", [29, 197, 491])
def test_cubic_root_structure(bundle, p):
    roots = cubic_roots(p)
    assert len(roots) == 3
    prod = 1
    for r in roots:
        prod = prod * r % p
        assert (pow(r, 3, p) + pow(r, 2, p) + (p - 2) * r + p - 1) % p == 0
    assert prod == 1  # Vieta: product of roots is +1


def test_cubic_needs_right_class(bundle):
    from jacobi49.prime_field import build_ctx
    with pytest.raises(InputError):
        classify_via_cubic(build_ctx(11))
    with pytest.raises(InputError):
        cubic_roots(13)  # 13 = -1 (mod 7): the cubic splits, but not as w^k + w^-k


def test_closed_form_roots_match_full_scan():
    # the full scan over F_p is the oracle for w^k + w^-k
    for p in primes_in_range(2, 5000, 7) + [4500007]:
        assert cubic_roots(p) == _kernels.cubic_roots(p).tolist(), p


@pytest.mark.parametrize("p", P14_1000)
def test_artiad_criteria_agree_small(bundle, p):
    b = bundle(p)
    assert classify_via_x(b.sol) == classify_via_cubic(b.ctx)


@pytest.mark.parametrize("p", P14_1000[:10])
def test_ind7_muskat_formula(bundle, p):
    b = bundle(p)
    assert ind7_muskat(b.cyc7, p) == index_of(b.ctx, 7) % 7


def test_ind7_muskat_both_generators(bundle):
    for gamma in (2, 3):
        b = bundle(197, gamma)
        assert ind7_muskat(b.cyc7, 197) == index_of(b.ctx, 7) % 7


@pytest.mark.parametrize("p", P14_1000)
def test_ind7_mod49_relation(bundle, p):
    b = bundle(p)
    assert ind7_mod49_relation(b.sol, b.ctx)
    # mod-7 corollary
    assert (b.sol.x2 + 2 * b.sol.x3 + 3 * b.sol.x4) % 7 == 0


@pytest.mark.parametrize("p", P49_3000)
def test_characterization_biconditionals_small(bundle, p):
    # No artiad prime = 1 (mod 49) lies below 3000, so only the ordinary
    # side of the biconditionals is exercised here.
    b = bundle(p)
    coeffs = n1_coeffs(b)
    ind7 = index_of(b.ctx, 7)
    artiad = classify_via_x(b.sol)
    hyper = artiad and ind7 % 7 == 0
    assert all(artiad_conditions(coeffs, b.sol, ind7, p)) == artiad
    assert all(artiad_conditions(coeffs, b.sol, 0, p)) == hyper


def test_classification_kinds(bundle):
    b = bundle(29)
    cl = classify_from_parts(b.ctx, b.sol)
    assert cl.kind == "ordinary"
    assert cl.evidence.lemma4 is None  # 29 is not 1 (mod 49)

    b = bundle(FIRST_ARTIAD_MOD14)
    cl = classify_from_parts(b.ctx, b.sol)
    assert cl.kind == "artiad"
    assert cl.evidence.via_x and cl.evidence.via_cubic


def second_primroot(p):
    from jacobi49.prime_field import find_generator, is_primitive_root
    g = find_generator(p)
    return next(h for h in range(g + 1, p) if is_primitive_root(h, p))


def test_classification_generator_independent(bundle):
    for p in (197, FIRST_ARTIAD_MOD14):
        kinds = set()
        flags = set()
        for g in (None, second_primroot(p)):
            b = bundle(p, g)
            cl = classify_from_parts(b.ctx, b.sol)
            kinds.add(cl.kind)
            flags.add(cl.evidence.ind7_zero)
        assert len(kinds) == 1 and len(flags) == 1


def test_classify_prime_wrong_class_rejected():
    with pytest.raises(InputError):
        classify_prime(23)


def test_classify_prime_includes_lemma_evidence_for_mod49(bundle):
    cert = classify_prime(197)
    ev = cert.classification.evidence
    assert ev.lemma4 is not None and ev.lemma5 is not None
    assert ev.theorem3_match is not None
    assert cert.n is None and cert.predicted is None


def test_theorem3_only_if_direction(bundle):
    # ordinary prime with some c_{3..5} nonzero: the simplified residue
    # must differ from the actual one
    b = bundle(197)
    coeffs = n1_coeffs(b)
    assert any(v % 7 for v in coeffs.c[2:5])
    actual = residue_mod_t8(jacobi_sum(b.ctx, 49, 1, 1))
    simplified = simplified_residue(coeffs.c[5], index_of(b.ctx, 7), b.sol.x5,
                                  hyper=False)
    assert simplified != actual


def test_theorem3_on_first_artiad_mod49(bundle):
    """Adjudicated record at the first artiad prime that is 1 (mod 49).

    The main determining congruence holds, the coefficient structure an
    artiad prime forces (vanishing t^3..t^5, the t^6 value) holds, and
    the x-criterion lines up with the cubic criterion.  The *claimed*
    simplified t^7 coefficient (-3 c6 + ind7 + 2 x5) does not reproduce
    the actual residue here, under any of the six generator classes:
    ind7 enters the actual coefficient, and the c_{7,1} closed form, with
    3 rather than 1.  The failure is recorded as a source defect, not
    masked.  The adjusted coefficient 4 c6 + 4 x2 + 3 ind7 + 6 u, which
    reduces to -3 c6 + 3 ind7 here, does reproduce it.
    """
    p = FIRST_ARTIAD_MOD49
    cert = verify_prime(p, ns=(1,))[0]
    assert cert.classification.kind == "artiad"
    ev = cert.classification.evidence
    assert cert.match and not cert.discrepancies   # the determining congruence
    assert cert.actual.coeffs[3:6] == (0, 0, 0)    # forced by artiad-ness
    assert ev.via_x and ev.via_cubic
    assert not ev.ind7_zero
    # recorded source defect: claimed simplified forms fail, adjusted holds
    assert ev.theorem3_match is False
    assert ev.theorem3_hyper_match is False
    assert ev.theorem3_adjusted_match is True
    assert ev.lemma4 is False   # condition C carries the same ind7 slip
    assert ev.lemma5 is False
