"""Per-prime verification pipeline and the certificate records it emits.

A certificate is self-contained evidence for one (p, n) pair: the
predicted and directly-computed congruence residues, every coefficient
cross-path that was compared, the sextuple and t/u data, the
classification, and a list of *unexplained* discrepancies.  Expected,
adjudicated defects of the closed-form transcriptions are recorded under
coeffs.closed_form, not as discrepancies, so a nonempty discrepancy list
always means something is actually wrong.
"""

from dataclasses import dataclass, field

from . import artiad as artiad_mod
from .congruence import (CoefficientSet, adjudicate_closed_forms,
                         c7_closed_form_fitted, coeffs_by_definition,
                         coeffs_closed_form, predicted_residue, s_direct, s_lemma)
from .cyclotomic_ring import CyclotomicInt, Residue8, residue_mod_t8
from .cyclotomy import (CycNumberTable, DicksonHurwitzTable, cyclotomic_numbers,
                        dickson_hurwitz, jacobi_from_cyc, jacobi_sum,
                        jacobi_via_dh, identity_suite)
from .errors import InputError
from .order7 import (DiophantineReport, ReconstructionReport, Sextuple, TUPair,
                     match_reconstruction, solution_from_tables, tu_decompose,
                     verify_diophantine)
from .prime_field import FieldContext, build_ctx

ALL_N = tuple(range(1, 49))


@dataclass(frozen=True)
class Certificate:
    """Verification record for one (p, n); n is None for classify-only runs."""

    p: int
    gamma: int
    n: int | None
    predicted: Residue8 | None
    actual: Residue8 | None
    match: bool | None
    coeffs: dict
    lw: Sextuple
    tu: TUPair
    classification: artiad_mod.Classification
    cross_checks: dict
    discrepancies: tuple[str, ...] = field(default_factory=tuple)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "gamma": self.gamma,
            "n": self.n,
            "predicted": None if self.predicted is None else self.predicted.to_json(),
            "actual": None if self.actual is None else self.actual.to_json(),
            "match": self.match,
            "coeffs": self.coeffs,
            "lw": self.lw.to_json(),
            "tu": self.tu.to_json(),
            "classification": self.classification.to_json(),
            "cross_checks": self.cross_checks,
            "discrepancies": list(self.discrepancies),
        }


@dataclass(frozen=True)
class PrimeBundle:
    """Everything computed once per prime and shared across the n loop."""

    ctx: FieldContext
    cyc7: CycNumberTable
    dh7: DicksonHurwitzTable
    sol: Sextuple
    tu: TUPair
    recon: ReconstructionReport
    dio: DiophantineReport
    cyc49: CycNumberTable | None = None
    dh49: DicksonHurwitzTable | None = None


def prepare_prime(p: int, gamma: int | None = None) -> PrimeBundle:
    """Build tables, extract the sextuple, and run the per-prime checks."""
    if (p - 1) % 14 != 0:
        raise InputError(f"p = {p} is not 1 (mod 14)")
    ctx = build_ctx(p, gamma)
    cyc7 = cyclotomic_numbers(ctx, 7)
    dh7 = dickson_hurwitz(cyc7)
    sol = solution_from_tables(dh7)
    tu = tu_decompose(p)
    recon = match_reconstruction(cyc7, sol, tu)
    dio = verify_diophantine(sol, p)
    cyc49 = dh49 = None
    if (p - 1) % 49 == 0:
        cyc49 = cyclotomic_numbers(ctx, 49)
        dh49 = dickson_hurwitz(cyc49)
    return PrimeBundle(ctx=ctx, cyc7=cyc7, dh7=dh7, sol=sol, tu=tu,
                       recon=recon, dio=dio, cyc49=cyc49, dh49=dh49)


@dataclass(frozen=True)
class PrimeStep:
    """The per-prime results that verify_prime and classify_prime share.

    coeffs1 (the n = 1 coefficient set), direct1 (J(1,1)_49 summed
    directly over F_p) and actual1 (its residue) are None unless
    p = 1 (mod 49); identity_suite_ok is None where the suite did not run.
    discrepancies are the bundle-level ones, carried by every certificate
    of the prime.
    """

    bundle: PrimeBundle
    classification: artiad_mod.Classification
    coeffs1: CoefficientSet | None
    direct1: CyclotomicInt | None
    actual1: Residue8 | None
    identity_suite_ok: bool | None
    discrepancies: tuple[str, ...]


def _prime_step(p: int, gamma: int | None, with_suite: bool) -> PrimeStep:
    """Bundle, classification, n = 1 data and bundle-level discrepancies.

    with_suite runs the identity suite, at every index pair, on the
    order-49 table.
    """
    bundle = prepare_prime(p, gamma)
    coeffs1 = direct1 = actual1 = suite_ok = None
    if bundle.dh49 is not None:
        coeffs1 = coeffs_by_definition(bundle.dh7, 1, s_value=s_direct(bundle.dh49, 1))
        direct1 = jacobi_sum(bundle.ctx, 49, 1, 1)
        actual1 = residue_mod_t8(direct1)
        if with_suite:
            suite_ok = not identity_suite(bundle.cyc49)
    classification = artiad_mod.classify_from_parts(
        bundle.ctx, bundle.cyc7, bundle.sol, coeffs1=coeffs1, actual_residue=actual1,
        u_signed=bundle.recon.u_signed)

    discrepancies: list[str] = []
    if not bundle.recon.matched:
        discrepancies.append("order-7 table reconstruction from the sextuple failed")
    if not bundle.dio.norm:
        discrepancies.append("sextuple fails the norm equation")
    if suite_ok is False:
        discrepancies.append("elementary Jacobi-sum identity suite failed")
    ev = classification.evidence
    if ev.via_x != ev.via_cubic:
        discrepancies.append("artiad criteria disagree (x-test vs cubic roots)")
    return PrimeStep(bundle=bundle, classification=classification, coeffs1=coeffs1,
                     direct1=direct1, actual1=actual1, identity_suite_ok=suite_ok,
                     discrepancies=tuple(discrepancies))


def _cross_checks(step: PrimeStep, weak_ok: bool | None = None,
                  three_path: bool | None = None) -> dict:
    return {
        "table_reconstruction": step.bundle.recon.to_json(),
        "diophantine": step.bundle.dio.to_json(),
        "identity_suite_ok": step.identity_suite_ok,
        "weak_congruence_ok": weak_ok,
        "three_path_agree": three_path,
    }


def verify_prime(p: int, gamma: int | None = None,
                 ns: tuple[int, ...] | None = None) -> list[Certificate]:
    """Run the full congruence verification for each n; p must be 1 (mod 49).

    Every Jacobi sum is read off the order-49 cyclotomic-number table
    except J(1,1)_49, which is also summed directly over F_p once and
    compared with the table at n = 1: that one pass checks the table kernel.
    The elementary-identity suite runs on the same table at every index pair.
    """
    if (p - 1) % 49 != 0:
        raise InputError(f"p = {p} is not 1 (mod 49)")
    ns = ALL_N if ns is None else tuple(ns)
    bad = [n for n in ns if not 1 <= n <= 48]
    if bad:
        raise InputError(f"n values out of range 1..48: {bad}")
    step = _prime_step(p, gamma, with_suite=True)
    return [_certificate_for_n(step, n) for n in ns]


def _certificate_for_n(step: PrimeStep, n: int) -> Certificate:
    bundle = step.bundle
    ctx, sol, tu = bundle.ctx, bundle.sol, bundle.tu
    p = ctx.p
    discrepancies: list[str] = []

    via_cyc = jacobi_from_cyc(bundle.cyc49, 1, n)
    if n == 1:
        coeffs = step.coeffs1
        direct = step.direct1
        actual = step.actual1
    else:
        coeffs = coeffs_by_definition(bundle.dh7, n, s_value=s_direct(bundle.dh49, n))
        direct = via_cyc
        actual = residue_mod_t8(direct)
    predicted = predicted_residue(coeffs)
    match = predicted == actual
    if not match:
        discrepancies.append(f"predicted residue differs from actual at n = {n}")

    # weak classical congruence: J = -1 mod (1 - zeta)^3
    weak_ok = actual.coeffs[0] == 6 and actual.coeffs[1] == 0 and actual.coeffs[2] == 0
    if not weak_ok:
        discrepancies.append("weak congruence J = -1 mod (1-zeta)^3 fails")

    # S(n) two-path comparison
    sd = coeffs.s_value
    if coeffs.n_prime == 0:
        sl = None
        s_agree = sd % 7 == 0
        if not s_agree:
            discrepancies.append(f"S({n}) not divisible by 7 despite 7 | n")
    else:
        sl = s_lemma(bundle.cyc7, n)
        s_agree = sl == sd % 7
        if not s_agree:
            discrepancies.append(f"S({n}) direct and order-7 paths disagree")

    # Jacobi agreement for this n: direct sum, Fourier and Dickson-Hurwitz
    # at n = 1; for n != 1 the residue is read off the table, so this
    # compares the two expansions of the same table.
    via_dh = jacobi_via_dh(bundle.dh49, n)
    three_path = via_dh == direct == via_cyc
    if not three_path:
        discrepancies.append(f"Jacobi sum paths disagree at n = {n}")

    closed_json = None
    if n == 1:
        closed = coeffs_closed_form(sol, p)
        fitted = None
        if bundle.recon.u_signed is not None:
            fitted = c7_closed_form_fitted(sol, p, bundle.recon.u_signed)
        adj = adjudicate_closed_forms(closed, coeffs, fitted)
        closed_json = {"values": closed.to_json(), "adjudication": adj.to_json()}
        if adj.unexplained_rows:
            discrepancies.append(
                f"closed-form rows {list(adj.unexplained_rows)} fail beyond the "
                f"known transcription defects")

    coeffs_block = {
        "definition": coeffs.to_json(),
        "closed_form": closed_json,
        "s_paths": {"direct": sd, "lemma": sl, "agree_mod7": s_agree},
    }
    return Certificate(
        p=p, gamma=ctx.gamma, n=n,
        predicted=predicted, actual=actual, match=match,
        coeffs=coeffs_block, lw=sol, tu=tu,
        classification=step.classification,
        cross_checks=_cross_checks(step, weak_ok, three_path),
        discrepancies=tuple(discrepancies) + step.discrepancies,
    )


def classify_prime(p: int, gamma: int | None = None) -> Certificate:
    """Classification-only certificate for p = 1 (mod 14); no congruence part."""
    step = _prime_step(p, gamma, with_suite=False)
    bundle, coeffs1 = step.bundle, step.coeffs1
    sl = s_lemma(bundle.cyc7, 1)
    coeffs_block = {
        "definition": coeffs1.to_json() if coeffs1 is not None
        else coeffs_by_definition(bundle.dh7, 1).to_json(),
        "closed_form": None,
        "s_paths": {"direct": None if coeffs1 is None else coeffs1.s_value,
                    "lemma": sl,
                    "agree_mod7": None if coeffs1 is None else sl == coeffs1.s_value % 7},
    }
    return Certificate(
        p=p, gamma=bundle.ctx.gamma, n=None,
        predicted=None, actual=None, match=None,
        coeffs=coeffs_block, lw=bundle.sol, tu=bundle.tu,
        classification=step.classification, cross_checks=_cross_checks(step),
        discrepancies=step.discrepancies,
    )
