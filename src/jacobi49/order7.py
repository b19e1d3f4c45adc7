"""The order-7 solution layer: sextuples, the t/u decomposition, and the
closed-form reconstruction of the order-7 cyclotomic numbers.

For p = 1 (mod 7) the Jacobi sum J(1,1)_7 is parameterized by an integer
sextuple (x1..x6) satisfying

    72 p = 2 x1^2 + 42 (x2^2 + x3^2 + x4^2) + 343 (x5^2 + 3 x6^2)

with x1 = 1 (mod 7), together with two quadratic side constraints (see
verify_diophantine for the textual variants of the second one).  The
sextuple here is always *derived* from the generator-attached tables by
inverting the linear relations between the x's and the Dickson-Hurwitz
column B(i,1)_7; the quadratic system is used as a checksum only, never
searched.  That removes the "suitable choice of solution" ambiguity: each
generator class pins exactly one sextuple, and the six conjugate
characters give the six-element orbit.  The orbit, the two trivial
solutions and the circulating x4 reading of the (0,1) closed-form row are
test references (tests/oracles.py): the pipeline reads none of them.
"""

from dataclasses import dataclass

import numpy as np

from .cyclotomy import CycNumberTable, DicksonHurwitzTable, six_class
from .errors import InputError, InvariantViolation
from .prime_field import seventh_root_of_unity
from .stickelberger import subfield_prime


@dataclass(frozen=True)
class TUPair:
    """The decomposition p = t^2 + 7 u^2 with t = 1 (mod 7) and u > 0."""

    t: int
    u: int

    def to_json(self) -> list[int]:
        return [self.t, self.u]


@dataclass(frozen=True)
class Sextuple:
    x1: int
    x2: int
    x3: int
    x4: int
    x5: int
    x6: int

    def as_tuple(self) -> tuple[int, ...]:
        return (self.x1, self.x2, self.x3, self.x4, self.x5, self.x6)

    def to_json(self) -> list[int]:
        return list(self.as_tuple())


def tu_decompose(p: int) -> TUPair:
    """The unique (t, u) with p = t^2 + 7u^2, t = 1 (mod 7), u > 0; p a prime = 1 (mod 7).

    Cornacchia's algorithm (stickelberger.subfield_prime) on the seventh
    root of unity of prime_field.seventh_root_of_unity, with the signs
    then normalized.
    """
    t, u = subfield_prime(p, seventh_root_of_unity(p))
    if t % 7 != 1:
        t = -t
    if t % 7 != 1:
        raise InvariantViolation(f"no residue-normalized t for p = {p}")
    return TUPair(t=t, u=abs(u))


def solution_from_tables(dh7: DicksonHurwitzTable) -> Sextuple:
    """Invert the linear relations between (x1..x6) and the column B(i,1)_7.

    With c_i = B(i,1) - B(0,1) (the coefficients of J(1,1)_7 on the basis
    zeta..zeta^6), the inverse is

        x1 = -(c1 + ... + c6),   x2 = c1 - c6,  x3 = c2 - c5,  x4 = c3 - c4,
        x5 = -(x1 + 3(c3 + c4)) / 7,            x6 = (c1 + c6 - c2 - c5) / 7,

    every division exact.  A non-exact division means the tables and the
    sign conventions have drifted apart, which is a bug, not bad input.
    """
    if dh7.e != 7:
        raise InputError("expected an order-7 Dickson-Hurwitz table")
    c = [dh7.cell(i, 1) - dh7.cell(0, 1) for i in range(1, 7)]
    x1 = -sum(c)
    x2 = c[0] - c[5]
    x3 = c[1] - c[4]
    x4 = c[2] - c[3]
    num6 = c[0] + c[5] - c[1] - c[4]
    num5 = -(x1 + 3 * (c[2] + c[3]))
    if num5 % 7 or num6 % 7:
        raise InvariantViolation(f"non-exact x5/x6 division for p = {dh7.p}")
    x5 = num5 // 7
    x6 = num6 // 7
    alt5 = 3 * (c[0] + c[1] + c[4] + c[5]) + 2 * x1
    if alt5 != 7 * x5:
        raise InvariantViolation(f"x5 cross-derivation mismatch for p = {dh7.p}")
    return Sextuple(x1, x2, x3, x4, x5, x6)


def norm_form(sol: Sextuple) -> int:
    x1, x2, x3, x4, x5, x6 = sol.as_tuple()
    return 2 * x1**2 + 42 * (x2**2 + x3**2 + x4**2) + 343 * (x5**2 + 3 * x6**2)


@dataclass(frozen=True)
class DiophantineReport:
    """Outcome of the quadratic checksum system for one sextuple.

    norm is required to hold.  aux1 and the aux2 variants are advisory:
    the second constraint circulates with a corrupted leading square
    term, so all three candidate readings are evaluated and recorded
    instead of hard-coding one.
    """

    norm: bool
    aux1: bool
    aux2_stated: bool      # leading term 12*x5^2, no x2*x4 cross term
    aux2_x2_square: bool   # leading term 12*x2^2, no x2*x4 cross term
    aux2_x3_square: bool   # leading term 12*x3^2 plus the 24*x2*x4 cross term

    def to_json(self) -> dict:
        return dict(vars(self))


def verify_diophantine(sol: Sextuple, p: int) -> DiophantineReport:
    """Evaluate the quadratic system on a sextuple; nothing raises here."""
    x1, x2, x3, x4, x5, x6 = sol.as_tuple()
    a1 = (12 * x2**2 - 12 * x4**2 + 147 * x5**2 - 441 * x6**2 + 56 * x1 * x6
          + 24 * x2 * x3 - 24 * x2 * x4 + 48 * x3 * x4 + 98 * x5 * x6)
    common = (-12 * x4**2 + 49 * x5**2 - 147 * x6**2 + 28 * x1 * x5
              + 28 * x1 * x6 + 48 * x2 * x3 + 490 * x5 * x6)
    a2_stated = 12 * x5**2 + common + 24 * x3 * x4
    a2_x2 = 12 * x2**2 + common + 24 * x3 * x4
    a2_x3 = 12 * x3**2 + common + 24 * x2 * x4 + 24 * x3 * x4
    return DiophantineReport(
        norm=(norm_form(sol) == 72 * p),
        aux1=(a1 == 0),
        aux2_stated=(a2_stated == 0),
        aux2_x2_square=(a2_x2 == 0),
        aux2_x3_square=(a2_x3 == 0),
    )


# Closed forms for the order-7 cyclotomic numbers: 49*(0,0) and 588*(i,j)
# as integer combinations of (1, p, t, u, x1..x6).  Twelve representatives
# determine the table; the rest follows from the even-f symmetry classes.
CYC7_ROW_COEFFS: dict[tuple[int, int], tuple[int, ...]] = {
    #          const   p    t    u    x1   x2   x3   x4   x5   x6
    (0, 1): (-72, 12, 24, 168, -6, 84, -42, 0, 147, 147),
    (0, 2): (-72, 12, 24, 168, -6, 0, 84, 42, 0, -294),
    (0, 3): (-72, 12, 24, -168, -6, 42, 0, 84, -147, 147),
    (0, 4): (-72, 12, 24, 168, -6, -42, 0, -84, -147, 147),
    (0, 5): (-72, 12, 24, -168, -6, 0, -84, -42, 0, -294),
    (0, 6): (-72, 12, 24, -168, -6, -84, 42, 0, 147, 147),
    (1, 2): (12, 12, 24, 0, 8, 0, 0, 0, -196, 0),
    (1, 3): (12, 12, -60, -84, -6, 42, 42, -42, 0, 0),
    (1, 4): (12, 12, 24, 0, 8, 0, 0, 0, 98, -294),
    (1, 5): (12, 12, -60, 84, -6, -42, -42, 42, 0, 0),
    (2, 4): (12, 12, 24, 0, 8, 0, 0, 0, 98, 294),
}


# CYC7_ROW_COEFFS as one int64 matrix, and for each cell of the order-7
# table the row of its representative; (0,0), which has no row, is written
# apart.
_ROWS = np.array(list(CYC7_ROW_COEFFS.values()), dtype=np.int64)
_ROW_OF_CELL = np.zeros((7, 7), dtype=np.int64)
for _row, _rep in enumerate(CYC7_ROW_COEFFS):
    _ROW_OF_CELL[tuple(zip(*six_class(7, *_rep)))] = _row


def recover_t(sol: Sextuple, p: int, cell00: int) -> int:
    """t from the (0,0)_7 cell: 49*(0,0) = p - 20 - 12t + 3*x1."""
    num = p - 20 + 3 * sol.x1 - 49 * cell00
    if num % 12 != 0:
        raise InvariantViolation(f"t recovery not exact for p = {p}")
    return num // 12


def cyc7_from_solution(sol: Sextuple, t: int, u: int, p: int) -> CycNumberTable:
    """Rebuild the full order-7 cyclotomic table from (sol, t, u).

    The caller supplies the generator-matched sign of u; a wrong sign
    produces a table that simply fails to match the direct one.  The
    eleven numerators 588 (i,j)_7 are one int64 product of the rows of
    CYC7_ROW_COEFFS with (1, p, t, u, x1..x6), exact while every entry is
    below 2^63 / (10 * 294), about 3 * 10^15, in absolute value: no
    coefficient exceeds 294.  From the tables of a p <= MAX_PRIME every
    entry is below 7p.  The representatives are checked for exact
    division in the order of CYC7_ROW_COEFFS, after (0,0).
    """
    num00 = p - 20 - 12 * t + 3 * sol.x1
    if num00 % 49 != 0:
        raise InvariantViolation(f"(0,0) cell not divisible by 49 for p = {p}")
    nums = _ROWS @ np.array([1, p, t, u, *sol.as_tuple()], dtype=np.int64)
    inexact = np.flatnonzero(nums % 588)
    if inexact.size:
        i, j = list(CYC7_ROW_COEFFS)[inexact[0]]
        raise InvariantViolation(f"({i},{j}) cell not divisible by 588 for p = {p}")
    counts = (nums // 588)[_ROW_OF_CELL]
    counts[0, 0] = num00 // 49
    counts.flags.writeable = False
    return CycNumberTable(e=7, p=p, counts=counts)


@dataclass(frozen=True)
class ReconstructionReport:
    matched: bool
    t: int
    u_signed: int | None   # the sign of u that reproduces the table, if any
    notes: tuple[str, ...]

    def to_json(self) -> dict:
        return {**vars(self), "notes": list(self.notes)}


def match_reconstruction(cyc7: CycNumberTable, sol: Sextuple,
                         tu: TUPair) -> ReconstructionReport:
    """Adjudicate the sign of u and compare the rebuilt table cell by cell.

    One sign of u is expected to fail (by mismatch or non-exact division);
    probe failures are reported only when neither sign works.
    """
    notes: list[str] = []
    probe_notes: list[str] = []
    t = recover_t(sol, cyc7.p, cyc7.cell(0, 0))
    if t != tu.t:
        notes.append(f"recovered t = {t} differs from decomposition t = {tu.t}")
    for u in (tu.u, -tu.u):
        try:
            rebuilt = cyc7_from_solution(sol, t, u, cyc7.p)
        except InvariantViolation as exc:
            probe_notes.append(str(exc))
            continue
        if np.array_equal(rebuilt.counts, cyc7.counts):
            return ReconstructionReport(matched=True, t=t, u_signed=u,
                                        notes=tuple(notes))
    notes += probe_notes + ["no sign of u reproduces the direct table"]
    return ReconstructionReport(matched=False, t=t, u_signed=None, notes=tuple(notes))
