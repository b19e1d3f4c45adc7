"""Exact arithmetic in Z[zeta_e] for e in {7, 49}, and the reduction map
into F_7[t]/(t^8) used for congruence checks.

Elements are stored as length-e integer coefficient vectors on the power
basis 1, zeta, ..., zeta^(e-1) and canonicalized so that coefficients at
exponents >= phi(e) vanish, using the relation Phi_e(zeta) = 0.  All
coefficients are Python ints, so arithmetic is exact at any size.

Congruences modulo powers of (1 - zeta) are never checked by
constructing the ideal.  Instead zeta maps to 1 + t: the 49th cyclotomic
polynomial at 1 + t is t^42 modulo 7, so Z[zeta_49]/(1 - zeta)^k is
F_7[t]/(t^k) for k <= 42, and reducing modulo (7, t^k) computes the
congruence class exactly.  `check_reduction_identity` asserts this once.

Batches of elements are (rows, e) int64 arrays of coefficient vectors:
`canonical_rows` and `image_rows` put a whole batch in canonical form
and map it into F_7[t]/(t^k) in a few array operations; the one-element
functions are views of them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

SUPPORTED_ORDERS = (7, 49)

# binomial(k, i) mod 7 for k <= 48, i <= 41: coefficient of t^i in (1+t)^k.
_BINOM7 = np.array([[math.comb(k, i) % 7 for i in range(42)] for k in range(49)],
                   dtype=np.int64)


def _phi(e: int) -> int:
    return 6 if e == 7 else 42


def _canonicalize(e: int, coeffs: list[int]) -> tuple[int, ...]:
    c = list(coeffs)
    ph = _phi(e)
    step = e // 7  # 1 for e=7, 7 for e=49
    for m in range(e - 1, ph - 1, -1):
        v = c[m]
        if v:
            c[m] = 0
            r = m - ph
            for j in range(6):
                c[j * step + r] -= v
    return tuple(c)


def canonical_rows(e: int, rows) -> np.ndarray:
    """The canonical form of every row of an int64 (r, e) array, as a new array.

    The same reduction as CyclotomicInt's: zeta^(phi + r) = -sum_j
    zeta^(j step + r) for j = 0..5, and no target exponent is itself
    reduced, so one subtraction per row does it.
    """
    ph = _phi(e)
    out = np.array(rows, dtype=np.int64)
    out[:, :ph] -= np.tile(out[:, ph:], 6)
    out[:, ph:] = 0
    return out


class CyclotomicInt:
    """An element of Z[zeta_e], kept in canonical form."""

    __slots__ = ("e", "coeffs")

    def __init__(self, e: int, coeffs):
        if e not in SUPPORTED_ORDERS:
            raise InputError(f"unsupported cyclotomic order {e}")
        coeffs = [int(v) for v in coeffs]
        if len(coeffs) > e:
            raise InputError(f"coefficient vector longer than {e}")
        coeffs += [0] * (e - len(coeffs))
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "coeffs", _canonicalize(e, coeffs))

    def __setattr__(self, *_):
        raise AttributeError("CyclotomicInt is immutable")

    @classmethod
    def zero(cls, e: int) -> "CyclotomicInt":
        return cls(e, [])

    @classmethod
    def from_int(cls, e: int, n: int) -> "CyclotomicInt":
        return cls(e, [n])

    @classmethod
    def monomial(cls, e: int, k: int, c: int = 1) -> "CyclotomicInt":
        coeffs = [0] * e
        coeffs[k % e] = c
        return cls(e, coeffs)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.coeffs)

    def _check_same_ring(self, other: "CyclotomicInt") -> None:
        if not isinstance(other, CyclotomicInt):
            raise TypeError("expected a CyclotomicInt")
        if self.e != other.e:
            raise InputError(f"mixed cyclotomic orders {self.e} and {other.e}")

    def __add__(self, other):
        if isinstance(other, int):
            other = CyclotomicInt.from_int(self.e, other)
        self._check_same_ring(other)
        return CyclotomicInt(self.e, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicInt(self.e, [-a for a in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            other = CyclotomicInt.from_int(self.e, other)
        self._check_same_ring(other)
        return CyclotomicInt(self.e, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInt(self.e, [other * a for a in self.coeffs])
        self._check_same_ring(other)
        e = self.e
        out = [0] * e
        for k, a in enumerate(self.coeffs):
            if a:
                for m, b in enumerate(other.coeffs):
                    if b:
                        out[(k + m) % e] += a * b
        return CyclotomicInt(e, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coeffs == CyclotomicInt.from_int(self.e, other).coeffs
        return (
            isinstance(other, CyclotomicInt)
            and self.e == other.e
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.e, self.coeffs))

    def __repr__(self):
        terms = [f"{a}*z^{k}" for k, a in enumerate(self.coeffs) if a]
        return f"CyclotomicInt({self.e}: {' + '.join(terms) or '0'})"

    def to_json(self) -> list[int]:
        return list(self.coeffs)


@dataclass(frozen=True)
class Residue8:
    """An element of F_7[t]/(t^8): the target ring of the main congruence."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != 8 or min(self.coeffs) < 0 or max(self.coeffs) > 6:
            raise InputError("Residue8 needs eight coefficients in [0, 6]")

    def __add__(self, other: "Residue8") -> "Residue8":
        return Residue8(tuple((a + b) % 7 for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "Residue8") -> "Residue8":
        out = [0] * 8
        for k, a in enumerate(self.coeffs):
            if a:
                for m, b in enumerate(other.coeffs[: 8 - k]):
                    out[k + m] += a * b
        return Residue8(tuple(v % 7 for v in out))

    def to_json(self) -> list[int]:
        return list(self.coeffs)


def image_rows(rows, upto: int = 8) -> np.ndarray:
    """Images of the rows of an (r, 49) coefficient array in F_7[t]/(t^upto), upto <= 42.

    zeta -> 1 + t sends coefficient k to binomial(k, i) t^i for every i,
    so the images are one product with the binomial matrix mod 7.  Rows
    are reduced mod 7 first: the products then stay below 49 * 36.
    """
    return np.asarray(rows, dtype=np.int64) % 7 @ _BINOM7[:, :upto] % 7


def _image_coeffs(a: CyclotomicInt, upto: int) -> list[int]:
    # Coefficients of the image of a under zeta -> 1 + t, modulo (7, t^upto).
    return image_rows([[v % 7 for v in a.coeffs]], upto)[0].tolist()


def residue_mod_t8(a: CyclotomicInt) -> Residue8:
    """Image of a in F_7[t]/(t^8) under zeta -> 1 + t (order 49 only)."""
    if a.e != 49:
        raise InputError("reduction mod (1 - zeta)^8 is defined for order 49")
    return Residue8(tuple(_image_coeffs(a, 8)))


def valuation(a: CyclotomicInt) -> int | float:
    """(1 - zeta)-adic valuation of a, capped at 42; inf for the zero element.

    A return of 42 means "at least 42": 7 generates (1 - zeta)^42, and
    finer resolution would need arithmetic mod 7^2, which is out of scope.
    """
    if a.e != 49:
        raise InputError("valuation is defined for order 49")
    if a.is_zero():
        return math.inf
    img = _image_coeffs(a, 42)
    for i, v in enumerate(img):
        if v:
            return i
    return 42


def cyclotomic_poly_at_zeta(e: int) -> CyclotomicInt:
    """Phi_e evaluated at zeta_e, as an element; canonicalizes to zero."""
    # Phi_7(x) = 1 + x + ... + x^6; Phi_49(x) = 1 + x^7 + ... + x^42.
    step = e // 7
    coeffs = [0] * e
    for j in range(7):
        coeffs[j * step] = 1
    return CyclotomicInt(e, coeffs)


def check_reduction_identity() -> bool:
    """Assert Phi_49(1 + t) = t^42 (mod 7), the fact the residue map rests on.

    Also checks Phi_49(1) = 7, which pins the valuation of 7 at exactly 42.
    """
    # Expand Phi_49(1 + t) = sum_j (1 + t)^(7j) over j = 0..6 exactly.
    poly = [0] * 43
    for j in range(7):
        for i in range(7 * j + 1):
            poly[i] += math.comb(7 * j, i)
    target = [0] * 42 + [1]
    return [v % 7 for v in poly] == target and poly[0] == 7
