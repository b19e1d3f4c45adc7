"""Coefficient machinery for the determining congruence of J(1,n)_49.

For gcd(7, n) = 1 the congruence reads

    J(1,n)_49 = -1 + sum_{i=3}^{7} c_{i,n} (zeta - 1)^i   mod (1 - zeta)^8,

with c_{i,n} = sum_{u=i}^{6} binom(u,i) B(u, n mod 7)_7 for i <= 6 and
c_{7,n} = S(n), the weighted row sum of the order-49 Dickson-Hurwitz
table.  For 7 | n the right side is just -1.

The c_{i,n} of all n come from one product of the order-7 table with
the binomial matrix (coefficient_sets), and S(n) of all n from one
vector-matrix product with the order-49 table (s_direct_all); the
one-n functions are views of these.

S(n) mod 7 is computed twice: from the order-49 table directly
(s_direct) and from order-7 data alone via the floor-function weights
lambda_h, lambda_{h,k} (s_lemma).  The two must agree; the floor
convention is floor toward minus infinity, which the agreement itself
pins down (truncation toward zero fails it).

Closed forms for the c_{i,1} in terms of the sextuple are also
evaluated.  Three of the six circulating expressions carry transcription
defects; both readings of each are computed and the adjudication is
recorded per prime rather than silently picking one.  At ordinary
primes the c_{7,1} expression is defective beyond repair in those
variables: S(1) mod 7 provably depends on the generator class of 7 (see
ind-based fit in the certificate), so its failure is expected and
recorded.  At artiad primes (x2 = x3 = x4 = 0 (mod 7)) it is 7-integral:
condition B and the mod-49 relation for ind(7) reduce it to
-3*c6 + 3*ind(7) + 2*x5 (mod 7), which equals S(1) mod 7 at every artiad
prime = 1 (mod 49) checked.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb

import numpy as np

from .cyclotomic_ring import Residue8
from .cyclotomy import CycNumberTable, DicksonHurwitzTable, six_class
from .errors import InputError
from .order7 import Sextuple

MINUS_ONE_RESIDUE = Residue8((6, 0, 0, 0, 0, 0, 0, 0))


def _build_six_classes() -> list[tuple[int, int]]:
    reps: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for h in range(1, 7):
        for k in range(1, 7):
            if h != k and (h, k) not in seen:
                cls = six_class(7, h, k)
                assert len(cls) == 6
                seen |= cls
                reps.append(min(cls))
    assert len(reps) == 5 and len(seen) == 30
    return reps


# The five six-element symmetry classes of off-diagonal nonzero pairs mod 7.
SIX_CLASS_REPS = _build_six_classes()


def lambda_single(n_prime: int, h: int) -> int:
    return (n_prime * h) // 7 + (-h * (n_prime + 1)) // 7


def lambda_pair(n_prime: int, h: int, k: int) -> int:
    m = n_prime + 1
    return ((h + n_prime * k) // 7 + (k + n_prime * h) // 7
            + (n_prime * k - h * m) // 7 + (n_prime * h - k * m) // 7
            + (k - h * m) // 7 + (h - k * m) // 7)


def s_direct_all(dh49: DicksonHurwitzTable) -> np.ndarray:
    """S(n) = sum over rows r of floor(r / 7) * B(r, n)_49 for n = 0..48, exact int64."""
    if dh49.e != 49:
        raise InputError("S(n) needs the order-49 Dickson-Hurwitz table")
    return np.arange(49) // 7 @ dh49.B


def s_direct(dh49: DicksonHurwitzTable, n: int) -> int:
    """S(n) for one n: an entry of s_direct_all."""
    return int(s_direct_all(dh49)[n % 49])


@cache
def _lemma_weights() -> tuple[np.ndarray, tuple]:
    """The lambda weights of S(n) mod 7, and the cells of the order-7 table they weigh.

    The cells are (h,0) for h = 1..6, then the five class representatives;
    row n' = 0..6 of the weights holds their lambda_single and lambda_pair
    at n' (row 0, for 7 | n, is zero).
    """
    cells = [(h, 0) for h in range(1, 7)] + SIX_CLASS_REPS
    weights = np.array([[lambda_single(n, h) for h in range(1, 7)]
                        + [lambda_pair(n, h, k) for (h, k) in SIX_CLASS_REPS]
                        for n in range(7)], dtype=np.int64)
    weights[0] = 0
    weights.flags.writeable = False
    return weights, tuple(zip(*cells))


def s_lemma_all(cyc7: CycNumberTable) -> np.ndarray:
    """S(n) mod 7 from order-7 cyclotomic numbers alone, for n mod 7 = 0..6."""
    if cyc7.e != 7:
        raise InputError("expected the order-7 cyclotomic table")
    weights, cells = _lemma_weights()
    return weights @ cyc7.counts[cells] % 7


def s_lemma(cyc7: CycNumberTable, n: int) -> int:
    """S(n) mod 7 for one n, 0 when 7 | n: an entry of s_lemma_all."""
    return int(s_lemma_all(cyc7)[n % 7])


@dataclass(frozen=True)
class CoefficientSet:
    """The congruence coefficients for one n: c1..c6 exact, c7 = S(n)."""

    n: int
    n_prime: int                      # n mod 7; 0 encodes gcd(7, n) = 7
    c: tuple[int, ...] | None         # (c1, ..., c6); None when 7 | n
    s_value: int | None               # exact S(n); None if no order-49 table

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "n_prime": self.n_prime,
            "c1_to_c6": list(self.c) if self.c is not None else None,
            "s_value": self.s_value,
        }


@cache
def _binomials() -> np.ndarray:
    """binom(u, i) for u = 0..6 (rows) and i = 1..6 (columns)."""
    table = np.array([[comb(u, i) for i in range(1, 7)] for u in range(7)], dtype=np.int64)
    table.flags.writeable = False
    return table


def coefficient_sets(dh7: DicksonHurwitzTable, ns, s_values) -> list[CoefficientSet]:
    """c_{i,n} = sum_{u=i}^{6} binom(u, i) B(u, n')_7, i = 1..6, for every n in ns.

    All seven columns n' come from one product of the table with the
    binomial matrix.  s_values, aligned with ns, gives each S(n) (None
    where it is not known).  Only i >= 3 enters the congruence; c1 and c2
    are carried because the artiad criteria quantify over them (they
    vanish mod 7 for every in-scope prime, which is itself asserted by
    tests).
    """
    if dh7.e != 7:
        raise InputError("expected the order-7 Dickson-Hurwitz table")
    c = (dh7.B.T @ _binomials()).tolist()
    return [CoefficientSet(n=n, n_prime=n % 7, c=tuple(c[n % 7]) if n % 7 else None,
                           s_value=None if s is None else int(s))
            for n, s in zip(ns, s_values)]


def coeffs_by_definition(dh7: DicksonHurwitzTable, n: int,
                         s_value: int | None = None) -> CoefficientSet:
    """The coefficient set of one n: an entry of coefficient_sets."""
    return coefficient_sets(dh7, (n,), (s_value,))[0]


def predicted_rows(sets: list[CoefficientSet]) -> np.ndarray:
    """-1 + sum c_i t^i in F_7[t]/(t^8) for every coefficient set, as int64 (rows, 8).

    Coefficient i of row r is c_i of sets[r] mod 7 for i = 3..6 and S(n)
    mod 7 for i = 7, after -1 = 6 at i = 0; a row is just -1 when 7 | n.
    """
    rows = np.tile(np.array(MINUS_ONE_RESIDUE.coeffs, dtype=np.int64), (len(sets), 1))
    full = [r for r, cs in enumerate(sets) if cs.n_prime]
    if any(sets[r].c is None or sets[r].s_value is None for r in full):
        raise InputError("coefficient set is missing c values or S(n)")
    tail = np.array([(*sets[r].c[2:], sets[r].s_value) for r in full], dtype=np.int64)
    rows[full, 3:] = tail.reshape(-1, 5) % 7
    return rows


def _frac_mod7(x: Fraction) -> int | None:
    """x mod 7 for a rational with denominator coprime to 7, else None."""
    if x.denominator % 7 == 0:
        return None
    return x.numerator * pow(x.denominator, -1, 7) % 7


@dataclass(frozen=True)
class ClosedFormCoeffs:
    """Closed-form c_{i,1} evaluations, in both circulating readings.

    stated: the six expressions as they appear in the source tables.
    repaired: rows 3, 4 and 6 with the transcription defects undone
    (stray factor 3, two flipped inner signs, spurious 9*x3/28 term).
    c7_stated: the circulating c_{7,1} expression; at ordinary primes it
    is generically not even 7-integral, which the certificate records as
    an adjudicated defect rather than a verification failure.  At artiad
    primes it is 7-integral and matches S(1) mod 7 wherever checked.
    """

    stated: tuple[Fraction, ...]
    repaired: tuple[Fraction, ...]
    c7_stated: Fraction

    def to_json(self) -> dict:
        return {
            "stated": [str(v) for v in self.stated],
            "repaired": [str(v) for v in self.repaired],
            "c7_stated": str(self.c7_stated),
        }


def coeffs_closed_form(sol: Sextuple, p: int) -> ClosedFormCoeffs:
    """Evaluate the closed forms for c_{1,1}..c_{6,1} and c_{7,1} exactly.

    Every expression is a rational combination of D = (6p - x1 - 12)/2
    and x2..x6 whose denominators divide 84, so each is computed as its
    integer numerator over 84, and only the results become Fractions.
    The expressions as stated, D - (x4 + 3*x3 + 5*x2)/2 and so on, are
    kept as a test reference (tests/oracles.py, closed_forms_stated).
    """
    _, x2, x3, x4, x5, x6 = sol.as_tuple()
    d = 6 * p - sol.x1 - 12  # 2D
    lin1 = x4 + 3 * x3 + 5 * x2  # 2 * lin1
    stated = (
        42 * d - 42 * lin1,
        70 * d - 126 * lin1 + 14 * (28 * x5 + 42 * x6),
        70 * d - 126 * (3 * x4 + 10 * x3 + 20 * x2) + 14 * (105 * x6 + 70 * x5),
        42 * d - 42 * (x4 - 5 * x3 - 15 * x2) + 42 * (35 * x6 + 21 * x5),
        14 * d - 42 * (x3 + 6 * x2) + 7 * (105 * x6 + 49 * x5),
        2 * d - 3 * (9 * x3 + 14 * x2) + 7 * (21 * x6 + 7 * x5),
    )
    repaired = (
        stated[0],
        stated[1],
        70 * d - 42 * (3 * x4 + 10 * x3 + 20 * x2) + 14 * (105 * x6 + 70 * x5),
        42 * d - 42 * (x4 + 5 * x3 + 15 * x2) + 42 * (35 * x6 + 21 * x5),
        stated[4],
        2 * d - 42 * x2 + 7 * (21 * x6 + 7 * x5),
    )
    c7_stated = -6 * d + 6 * (3 * x3 + 5 * x2) + 3 * (7 * x5 - 5 * x4)
    return ClosedFormCoeffs(stated=tuple(Fraction(v, 84) for v in stated),
                            repaired=tuple(Fraction(v, 84) for v in repaired),
                            c7_stated=Fraction(c7_stated, 84))


def c7_closed_form_fitted(sol: Sextuple, p: int, u_signed: int) -> int | None:
    """An empirically fitted substitute for the defective c_{7,1} expression.

    S(1) = (18p - 3*x1 + 20*x2 - 16*x3 - 10*x4 + 42*u - 36) / 7 (mod 7),
    with u carrying the generator-matched sign.  Validated against
    s_direct on every in-scope prime with both generators; informational
    (the authoritative c7 is always s_direct).
    """
    num = (18 * p - 3 * sol.x1 + 20 * sol.x2 - 16 * sol.x3 - 10 * sol.x4
           + 42 * u_signed - 36)
    if num % 7 != 0:
        return None
    return (num // 7) % 7


@dataclass(frozen=True)
class ClosedFormAdjudication:
    """Per-row comparison of the closed forms against the definitional c_i."""

    stated_exact: tuple[bool, ...]        # rows 1..6
    repaired_exact: tuple[bool, ...]      # rows 1..6
    repaired_mod7: tuple[bool, ...]       # rows 1..6
    c7_stated_integral: bool
    c7_stated_mod7_match: bool | None     # None when not 7-integral
    c7_fitted_match: bool | None

    @property
    def rows_needing_repair(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(6)
                     if not self.stated_exact[i] and self.repaired_exact[i])

    @property
    def unexplained_rows(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(6) if not self.repaired_exact[i])

    def to_json(self) -> dict:
        return {
            "stated_exact": list(self.stated_exact),
            "repaired_exact": list(self.repaired_exact),
            "repaired_mod7": list(self.repaired_mod7),
            "rows_needing_repair": list(self.rows_needing_repair),
            "unexplained_rows": list(self.unexplained_rows),
            "c7_stated_integral": self.c7_stated_integral,
            "c7_stated_mod7_match": self.c7_stated_mod7_match,
            "c7_fitted_match": self.c7_fitted_match,
        }


def adjudicate_closed_forms(closed: ClosedFormCoeffs, coeffs: CoefficientSet,
                            fitted_c7: int | None) -> ClosedFormAdjudication:
    """Compare every closed-form reading with the definitional coefficients."""
    if coeffs.c is None or coeffs.s_value is None:
        raise InputError("adjudication needs the full n = 1 coefficient set")
    cdef = coeffs.c
    s7 = coeffs.s_value % 7
    stated_exact = tuple(closed.stated[i] == cdef[i] for i in range(6))
    repaired_exact = tuple(closed.repaired[i] == cdef[i] for i in range(6))
    repaired_mod7 = tuple(_frac_mod7(closed.repaired[i]) == cdef[i] % 7
                          for i in range(6))
    c7m = _frac_mod7(closed.c7_stated)
    return ClosedFormAdjudication(
        stated_exact=stated_exact,
        repaired_exact=repaired_exact,
        repaired_mod7=repaired_mod7,
        c7_stated_integral=closed.c7_stated.denominator == 1,
        c7_stated_mod7_match=None if c7m is None else c7m == s7,
        c7_fitted_match=None if fitted_c7 is None else fitted_c7 == s7,
    )
