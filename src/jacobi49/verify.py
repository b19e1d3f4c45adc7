"""The per-prime pipeline, run_prime, its result, and the certificate records.

run_prime builds a prime's tables once (prepare_prime) and reads from
them, for n = 1 and for every n it verifies, one column per quantity:
the coefficient sets, S(n) off the order-49 table and mod 7 off the
order-7 table, and J(1,n)_49 on three paths with its residue in
F_7[t]/(t^8).  Each check is decided once: over n as a column (S
agreement, the weak congruence, predicted vs actual, three-path
agreement), or once for the prime.  It returns a PrimeResult, which
holds the prime's block once (the sextuple, the t/u pair, the
classification, the reconstruction and norm-equation records, the
identity-suite verdict, the closed forms for n = 1 and the discrepancy
texts of the prime's own checks) beside those columns.  Its records are
views of it: record() is the classification record (n = None), which
classify_prime returns, and certificates() holds one certificate per
verified n, which verify_prime returns.

A certificate is self-contained evidence for one (p, n) pair: the
predicted and directly-computed congruence residues, every coefficient
cross-path that was compared, the sextuple and t/u data, the
classification, and a list of *unexplained* discrepancies.  Expected,
adjudicated defects of the closed-form transcriptions are recorded under
coeffs.closed_form, not as discrepancies, so a nonempty discrepancy list
always means something is actually wrong.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from . import artiad as artiad_mod
from .congruence import (ClosedFormAdjudication, ClosedFormCoeffs, adjudicate_closed_forms,
                         c7_closed_form_fitted, coefficient_sets, coeffs_closed_form,
                         predicted_rows, s_direct_all, s_lemma_all)
from .cyclotomic_ring import Residue8, image_rows
from .cyclotomy import (CycNumberTable, DicksonHurwitzTable, cyclotomic_numbers,
                        dickson_hurwitz, jacobi_rows, jacobi_rows_via_dh,
                        identity_suite)
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
    discrepancies: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {**vars(self),
                "predicted": None if self.predicted is None else self.predicted.to_json(),
                "actual": None if self.actual is None else self.actual.to_json(),
                "lw": self.lw.to_json(), "tu": self.tu.to_json(),
                "classification": self.classification.to_json(),
                "discrepancies": list(self.discrepancies)}


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


def _fold(counts: np.ndarray) -> np.ndarray:
    """The order-7 table of an order-49 one: (a,b)_7 is the sum of the (a + 7s, b + 7t)_49."""
    return counts.reshape(7, 7, 7, 7).sum(axis=(0, 2))


@dataclass(frozen=True)
class PrimeResult:
    """A prime's evidence: its per-prime block once, and one column per
    quantity over rows, which are n = 1 and then the verified n.

    The congruence columns (predicted, actual, match, weak, three_path)
    hold None on every row when p != 1 (mod 49), and all but actual also
    when no n value is verified: record() reads actual[0] and coeffs[0]
    alone.  per_prime holds the discrepancy texts of the checks made once
    for the prime.
    """

    p: int
    gamma: int
    lw: Sextuple
    tu: TUPair
    classification: artiad_mod.Classification
    recon: ReconstructionReport
    dio: DiophantineReport
    suite_ok: bool | None                        # None unless n values are verified
    closed: ClosedFormCoeffs | None              # the closed forms for n = 1 and
    adjudication: ClosedFormAdjudication | None  # their verdicts, when 1 is verified
    per_prime: tuple[str, ...]
    coeffs: list             # the coefficient set of each row: its n, c_i and S(n)
    s_lemmas: list
    s_agree: list
    predicted: list
    actual: list
    match: list
    weak: list
    three_path: list

    def record(self) -> Certificate:
        """The classification record: row 0, without the congruence part,
        the identity-suite verdict or the closed forms.

        When n values were verified, per_prime also holds the texts of the
        checks that only verify makes (the direct pair count, its fold and
        the identity suite).  Where those checks pass, this record equals
        classify_prime's; whether it carries their texts where they fail is
        for one bundle per scanned prime to decide.
        """
        return self._view(0, None)

    def certificates(self) -> list[Certificate]:
        """One certificate per verified n, in the order of ns."""
        return [self._view(i, self.coeffs[i].n) for i in range(1, len(self.coeffs))]

    def _view(self, i: int, n: int | None) -> Certificate:
        """Row i as a record: a certificate of n, or the classification record if n is None."""
        row = self.coeffs[i].n
        verified = n is not None
        match, weak, three_path = ((self.match[i], self.weak[i], self.three_path[i])
                                   if verified else (None, None, None))
        closed = n == 1
        flags = []
        if match is False:
            flags.append(f"predicted residue differs from actual at n = {n}")
        if weak is False:
            flags.append("weak congruence J = -1 mod (1-zeta)^3 fails")
        if self.s_agree[i] is False:
            flags.append(f"S({row}) not divisible by 7 despite 7 | n" if row % 7 == 0
                         else f"S({row}) direct and order-7 paths disagree")
        if three_path is False:
            flags.append(f"Jacobi sum paths disagree at n = {n}")
        if closed and self.adjudication.unexplained_rows:
            flags.append(f"closed-form rows {list(self.adjudication.unexplained_rows)} "
                         f"fail beyond the known transcription defects")
        return Certificate(
            p=self.p, gamma=self.gamma, n=n,
            predicted=self.predicted[i] if verified else None,
            actual=self.actual[i] if verified else None, match=match,
            coeffs={"definition": self.coeffs[i].to_json(),
                    "closed_form": {"values": self.closed.to_json(),
                                    "adjudication": self.adjudication.to_json()}
                                   if closed else None,
                    "s_paths": {"direct": self.coeffs[i].s_value, "lemma": self.s_lemmas[i],
                                "agree_mod7": self.s_agree[i]}},
            lw=self.lw, tu=self.tu, classification=self.classification,
            cross_checks={"table_reconstruction": self.recon.to_json(),
                          "diophantine": self.dio.to_json(),
                          "identity_suite_ok": self.suite_ok if verified else None,
                          "weak_congruence_ok": weak,
                          "three_path_agree": three_path},
            discrepancies=(*flags, *self.per_prime),
        )


def run_prime(p: int, gamma: int | None, ns: tuple[int, ...] | None) -> PrimeResult:
    """The result of p over the rows n = 1, *ns; n = 1 alone if ns is None.

    Row 0 of every column is n = 1, which the classification reads; the
    other rows are the n in ns.  J(1,n)_49 is read off the order-49
    table built from factorials mod p.  Its fold to order 7 is compared
    cell for cell with the order-7 table, which comes from Stickelberger's
    relation, for classify as for verify.  When n values are verified, one
    pass over the class table counts that table directly over F_p, and
    every cell of it, and of the order-7 table through the fold, is
    compared with the count; J(1,1)_49 is then read off the counted table,
    so at n = 1 the three paths compare two tables.  The identity suite
    runs at every index pair of the factorial-built table.
    """
    bundle = prepare_prime(p, gamma)
    ctx, cyc49, dh49 = bundle.ctx, bundle.cyc49, bundle.dh49
    sol, recon = bundle.sol, bundle.recon
    rows = (1,) if ns is None else (1, *ns)

    # S(n) off the order-49 table, and mod 7 off the order-7 table alone,
    # which gives no value for 7 | n: there S(n) must vanish mod 7.
    lemma = s_lemma_all(bundle.cyc7).tolist()
    s_lemmas = [lemma[n % 7] if n % 7 else None for n in rows]
    s_values = ([None] * len(rows) if dh49 is None
                else s_direct_all(dh49)[list(rows)].tolist())
    s_agree = [None if sd is None else sd % 7 == (sl or 0)
               for sd, sl in zip(s_values, s_lemmas)]
    coeffs = coefficient_sets(bundle.dh7, rows, s_values)

    counted_ok = folded_ok = fold49_ok = True
    suite_ok = None
    actual = predicted = match = weak = three_path = [None] * len(rows)
    if dh49 is not None:
        fold49_ok = (_fold(cyc49.counts) == bundle.cyc7.counts).all()
        via_cyc = jacobi_rows(cyc49, 1, rows)
        direct = via_cyc.copy()
        if ns:
            counts = _kernels.pair_counts(ctx.classes_for(49), 49)
            counted_ok = (counts == cyc49.counts).all()
            folded_ok = (_fold(counts) == bundle.cyc7.counts).all()
            counted = CycNumberTable(e=49, p=p, counts=counts)
            direct[np.equal(rows, 1)] = jacobi_rows(counted, 1, (1,))
            suite_ok = not identity_suite(cyc49)
        images = image_rows(direct)
        actual = [Residue8(tuple(image)) for image in images.tolist()]
    if dh49 is not None and ns:
        predicted_images = predicted_rows(coeffs)
        predicted = [Residue8(tuple(image)) for image in predicted_images.tolist()]
        match = (predicted_images == images).all(axis=1).tolist()
        # the weak classical congruence J = -1 mod (1 - zeta)^3
        weak = (images[:, :3] == (6, 0, 0)).all(axis=1).tolist()
        # Dickson-Hurwitz, Fourier and direct; direct is the Fourier row
        # for n != 1, so there this compares the table's two expansions
        three_path = ((jacobi_rows_via_dh(dh49, rows) == direct).all(axis=1)
                      & (direct == via_cyc).all(axis=1)).tolist()

    classification = artiad_mod.classify_from_parts(
        ctx, sol, coeffs1=None if dh49 is None else coeffs[0],
        actual_residue=actual[0], u_signed=recon.u_signed)
    ev = classification.evidence
    per_prime = tuple(text for failed, text in (
        (not recon.matched, "order-7 table reconstruction from the sextuple failed"),
        (not bundle.dio.norm, "sextuple fails the norm equation"),
        (suite_ok is False, "elementary Jacobi-sum identity suite failed"),
        (not counted_ok, "order-49 table differs from the direct pair count"),
        (not folded_ok, "order-7 table differs from the folded direct pair count"),
        (not fold49_ok, "order-7 table differs from the folded order-49 table"),
        (ev.via_x != ev.via_cubic, "artiad criteria disagree (x-test vs cubic roots)"),
    ) if failed)

    closed = adjudication = None
    if ns and 1 in ns:
        closed = coeffs_closed_form(sol, p)
        fitted = (None if recon.u_signed is None
                  else c7_closed_form_fitted(sol, p, recon.u_signed))
        adjudication = adjudicate_closed_forms(closed, coeffs[0], fitted)

    return PrimeResult(
        p=p, gamma=ctx.gamma, lw=sol, tu=bundle.tu, classification=classification,
        recon=recon, dio=bundle.dio, suite_ok=suite_ok, closed=closed,
        adjudication=adjudication, per_prime=per_prime, coeffs=coeffs,
        s_lemmas=s_lemmas, s_agree=s_agree, predicted=predicted, actual=actual,
        match=match, weak=weak, three_path=three_path)


def verify_prime(p: int, gamma: int | None = None,
                 ns: tuple[int, ...] | None = None) -> list[Certificate]:
    """The congruence certificate of each n in ns (all 48 by default); p = 1 (mod 49)."""
    if (p - 1) % 49 != 0:
        raise InputError(f"p = {p} is not 1 (mod 49)")
    ns = ALL_N if ns is None else tuple(ns)
    bad = [n for n in ns if not 1 <= n <= 48]
    if bad:
        raise InputError(f"n values out of range 1..48: {bad}")
    return run_prime(p, gamma, ns).certificates()


def classify_prime(p: int, gamma: int | None = None) -> Certificate:
    """Classification-only certificate for p = 1 (mod 14); no congruence part.

    Builds no class table.  The order-7 table comes from Stickelberger's
    relation on a prime of Z[zeta_7] above p, with no pass over F_p.  When
    p = 1 (mod 49) the one pass over F_p is the factorial product behind
    the order-49 table, whose fold to order 7 is checked against the
    order-7 table; otherwise no pass over F_p is made.
    """
    return run_prime(p, gamma, None).record()
