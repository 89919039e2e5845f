"""Exact scalar arithmetic over a prime field or the rationals.

Scalars are plain Python values: a canonical residue ``int`` in ``[0, p)``
for a prime field, or a ``fractions.Fraction`` (which normalizes itself to
a reduced fraction with positive denominator) for the rationals.  Scalar
arithmetic goes through a :class:`Field` object, keeping the hot paths free
of wrapper objects; :meth:`DensePoly.mul` instead convolves whole
coefficient sequences as numpy object arrays of Python integers.

The module also provides dense univariate polynomials (:class:`DensePoly`)
over a field.  They serve two roles: polynomials in the shift variable ``t``
and the univariate tuples fed to the hitting-set constructions.  On top of
them sits :func:`rank_over_ft`, the deterministic evaluation-based rank of a
matrix with univariate entries, viewed over the fraction field F(t).

Field spec strings (used by the CLI and by file headers): ``"q"`` for the
rationals, ``"p:<decimal prime>"`` for a prime field.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, TypeVar, Union

import numpy as np

from .errors import CharTooSmall, MixedFields, ParseError, ValidationError, ZeroInverse

Scalar = Union[int, Fraction]
T = TypeVar("T")

#: Default prime: 2^61 - 1 (Mersenne).  Large enough that every binomial
#: coefficient, degree and interpolation node count arising at desk scale
#: stays below the characteristic, small enough for fast machine reduction.
MERSENNE61 = (1 << 61) - 1

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin; deterministic for n < 3.3e24, else strong-pseudoprime check."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """A prime field F_p (``p`` set) or the rationals (``p is None``)."""

    p: int | None = None

    def __post_init__(self) -> None:
        if self.p is not None and not _is_prime(self.p):
            raise ValidationError(f"{self.p} is not prime")

    # -- constructors -------------------------------------------------

    @staticmethod
    def rationals() -> "Field":
        return Field(None)

    @staticmethod
    def prime(p: int) -> "Field":
        return Field(p)

    @staticmethod
    def default_prime() -> "Field":
        return Field(MERSENNE61)

    @staticmethod
    def from_spec(spec: str) -> "Field":
        """Parse a field spec string: ``"q"`` or ``"p:<decimal prime>"``."""
        if not isinstance(spec, str):
            raise ParseError(f"field spec must be a string, got {spec!r}")
        spec = spec.strip()
        if spec == "q":
            return Field.rationals()
        if spec.startswith("p:"):
            try:
                p = int(spec[2:])
            except ValueError as exc:
                raise ParseError(f"bad field spec {spec!r}") from exc
            return Field.prime(p)
        raise ParseError(f"bad field spec {spec!r} (want 'q' or 'p:<prime>')")

    @property
    def spec(self) -> str:
        return "q" if self.p is None else f"p:{self.p}"

    @property
    def is_rational(self) -> bool:
        return self.p is None

    # -- element construction -----------------------------------------

    def zero(self) -> Scalar:
        return Fraction(0) if self.p is None else 0

    def one(self) -> Scalar:
        return Fraction(1) if self.p is None else 1

    def of(self, x: int | Fraction | str) -> Scalar:
        """Coerce an int (numpy integers too), Fraction, or decimal string
        into canonical form."""
        if type(x) is int:
            return Fraction(x) if self.p is None else x % self.p
        if isinstance(x, np.integer):
            return self.of(int(x))
        if isinstance(x, str):
            try:
                x = Fraction(x)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad scalar literal {x!r}") from exc
        if self.p is None:
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator == 1:
                return x.numerator % self.p
            return x.numerator * self.inv(x.denominator % self.p) % self.p
        return x % self.p

    def render(self, x: Scalar) -> str:
        """Canonical decimal text; rationals print as ``n`` or ``n/d``."""
        return str(x)

    # -- arithmetic ----------------------------------------------------

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return (a - b) % self.p if self.p is not None else a - b

    def neg(self, a: Scalar) -> Scalar:
        return (-a) % self.p if self.p is not None else -a

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.p if self.p is not None else a * b

    def inv(self, a: Scalar) -> Scalar:
        if a == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        if self.p is None:
            return 1 / Fraction(a)
        return pow(a, -1, self.p)

    def pow(self, a: Scalar, e: int) -> Scalar:
        if self.p is not None:
            return pow(a, e, self.p)
        return Fraction(a) ** e

    def random(self, rng: random.Random) -> Scalar:
        if self.p is not None:
            return rng.randrange(self.p)
        return Fraction(rng.randrange(-9, 10))

    # -- size guards ---------------------------------------------------

    def size_exceeds(self, n: int) -> bool:
        """True iff the field has more than n elements."""
        return self.p is None or self.p > n

    def require_size_over(self, n: int, what: str) -> None:
        if not self.size_exceeds(n):
            raise CharTooSmall(f"{what} needs a field with more than {n} elements, have F_{self.p}")


def clear_denominators(values: Sequence[Scalar]) -> tuple[list[int], int]:
    """([m * v for v in values], m) for m the lcm of the values' denominators."""
    m = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (m // v.denominator) for v in values], m


def square_and_multiply(base: T, e: int, one: T, mul: Callable[[T, T], T]) -> T:
    """base^e for a natural e by binary exponentiation, where ``one`` is the
    identity of the product ``mul``."""
    out = one
    while e:
        if e & 1:
            out = mul(out, base)
        base = mul(base, base)
        e >>= 1
    return out


def require_same_field(fields: Sequence[Field], what: str) -> Field:
    first = fields[0]
    for f in fields[1:]:
        if f != first:
            raise MixedFields(f"{what}: mixed fields {first.spec} and {f.spec}")
    return first


# ----------------------------------------------------------------------
# Dense univariate polynomials
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DensePoly:
    """Dense univariate polynomial; coeffs[i] multiplies the i-th power.

    The coefficient sequence never ends in a zero; the zero polynomial is
    the empty tuple.  Values are immutable and safe to share.
    """

    field: Field
    coeffs: tuple[Scalar, ...]

    @staticmethod
    def make(field: Field, coeffs: Sequence[int | Fraction | str]) -> "DensePoly":
        vals = [field.of(c) for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        return DensePoly(field, tuple(vals))

    @staticmethod
    def zero(field: Field) -> "DensePoly":
        return DensePoly(field, ())

    @staticmethod
    def const(field: Field, c: int | Fraction | str) -> "DensePoly":
        return DensePoly.make(field, [c])

    @staticmethod
    def monomial(field: Field, c: int | Fraction | str, power: int) -> "DensePoly":
        return DensePoly.make(field, [0] * power + [c])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> Scalar:
        return self.coeffs[i] if i < len(self.coeffs) else self.field.zero()

    def add(self, other: "DensePoly") -> "DensePoly":
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return DensePoly.make(F, [F.add(self.coefficient(i), other.coefficient(i)) for i in range(n)])

    def sub(self, other: "DensePoly") -> "DensePoly":
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return DensePoly.make(F, [F.sub(self.coefficient(i), other.coefficient(i)) for i in range(n)])

    def scale(self, c: Scalar) -> "DensePoly":
        F = self.field
        if c == 0:
            return DensePoly.zero(F)
        return DensePoly(F, tuple(F.mul(c, v) for v in self.coeffs))

    def mul(self, other: "DensePoly") -> "DensePoly":
        """One ``np.convolve`` over exact integers: the residues over F_p, or
        over Q the numerators once each operand's denominators are cleared."""
        F = self.field
        if self.is_zero or other.is_zero:
            return DensePoly.zero(F)
        if F.p is not None:
            prod = np.convolve(np.array(self.coeffs, dtype=object), np.array(other.coeffs, dtype=object))
            return DensePoly(F, tuple(v % F.p for v in prod))
        (na, da), (nb, db) = clear_denominators(self.coeffs), clear_denominators(other.coeffs)
        prod = np.convolve(np.array(na, dtype=object), np.array(nb, dtype=object))
        return DensePoly(F, tuple(Fraction(v, da * db) for v in prod))

    def pow(self, e: int) -> "DensePoly":
        return square_and_multiply(self, e, DensePoly.const(self.field, 1), DensePoly.mul)

    def eval(self, x: Scalar) -> Scalar:
        F = self.field
        acc = F.zero()
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc


# ----------------------------------------------------------------------
# Rank over F(t)
# ----------------------------------------------------------------------


def rank_over_ft(matrix: Sequence[Sequence[DensePoly]]) -> int:
    """Rank of a DensePoly matrix viewed over the fraction field F(t).

    Deterministic: evaluates t at 0, 1, ..., D with
    D = min(rows, cols) * (max entry degree) and returns the maximum rank
    among the evaluations.  Every r x r minor that is nonzero over F(t) is a
    polynomial in t of degree at most D, so at most D of the D+1 points can
    miss it; and no evaluation exceeds the generic rank.
    """
    rows = list(matrix)
    if not rows or not rows[0]:
        return 0
    all_fields = [e.field for row in rows for e in row]
    field = require_same_field(all_fields, "rank_over_ft")

    max_deg = max((e.degree() for row in rows for e in row), default=-1)
    if max_deg < 0:
        return 0
    bound = min(len(rows), len(rows[0]))
    D = bound * max_deg
    field.require_size_over(D, "rank_over_ft evaluation grid")

    from .linalg import matrix_rank

    best = 0
    for tau in range(D + 1):
        t = field.of(tau)
        evaluated = [[e.eval(t) for e in row] for row in rows]
        best = max(best, matrix_rank(evaluated, field))
        if best == bound:
            break
    return best
