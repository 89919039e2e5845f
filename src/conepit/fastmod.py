"""Vectorized field arithmetic kernels (internal).

Exact arithmetic on numpy arrays, used to evaluate circuits on many points
at once.  Every field has a kernel:

* p = 2^61 - 1: two residue layouts, fixed per batch from its point count
  (see :class:`Mersenne61Kernel`).  Batches of up to ``SMALL`` points are
  object arrays of Python ints, where one operation is a single numpy call
  (``(a*b) % p``, ``pow(a, e, p)``).  Larger batches are uint64 arrays with
  Mersenne reduction and a 32/32 split multiply, all intermediates below
  2^64: about twenty numpy calls per multiply, which only pay off on long
  arrays.  The batches a low-cone PIT sends hold tens of points, where the
  fixed cost per numpy call dominates; grids hold thousands.
* p < 2^31: products of canonical residues fit in uint64 directly.
* anything else (the rationals, other primes): Python arithmetic
  elementwise on object arrays of Python scalars (see :class:`ObjectKernel`).
  Over Q an integral value is held as a Python ``int`` and only a truly
  rational one as a ``Fraction``, so integer data never builds a
  ``Fraction`` inside the engine; the engine's exits turn values back into
  ``Fraction`` field scalars.

Values enter through ``array`` and scalars through ``scalar``.  Over a
prime an exact ``int`` is reduced mod p directly, and anything else
(numpy integers, ``Fraction``s) goes through ``Field.of``, so results
equal those of the scalar path, ``Circuit.evaluate``, on any integer or
rational input.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Sequence

import numpy as np

from .fields import MERSENNE61, Field, Scalar, square_and_multiply

_U = np.uint64

#: Batches of at most this many points take the object layout of
#: :class:`Mersenne61Kernel`.  On whole diagonal circuits (arity 4-7, 6-7
#: terms) at random residues the object layout is faster up to about 128
#: points and 2-8x slower from 512 points up.  PIT points are small
#: integers, which moves the crossover up: on diag-pit, 256 gave the same
#: throughput as 128 and a lower p95 latency.
SMALL = 256


def _residue_list(values: Sequence[Scalar], field: Field) -> list[int]:
    """The values as Python-int residues of the prime field: an exact
    ``int`` by ``%``, anything else (numpy integers, ``Fraction``s) by
    ``Field.of``, as the scalar path reads it."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    p = field.p
    return [v % p if type(v) is int else field.of(v) for v in values]


def _residues(values: Sequence[Scalar], field: Field) -> np.ndarray:
    """The values reduced mod p as a uint64 array.  Values that numpy
    reads as unsigned, or as signed and non-negative, convert directly;
    anything else (negative, too wide for uint64, rational, or a mix numpy
    would widen to float) goes through :func:`_residue_list`."""
    arr = np.asarray(values)
    kind = arr.dtype.kind
    if kind == "u" or kind == "i" and (not arr.size or arr.min() >= 0):
        out = arr.astype(np.uint64, copy=False)
        return out % _U(field.p) if out.size and out.max() >= field.p else out
    return np.array(_residue_list(values, field), dtype=np.uint64)


class Mersenne61Kernel:
    """mod (2^61 - 1) vector arithmetic; operands must be canonical residues,
    which :meth:`array` produces from any integers.

    The layout is fixed at construction from the batch's point count, and
    every array of that batch must come from this kernel: object arrays of
    Python ints for at most ``SMALL`` points, uint64 arrays otherwise.
    Every value of the object layout is a Python int: a numpy integer held
    in an object array would multiply in 64 bits and wrap."""

    p = MERSENNE61
    field = Field.prime(MERSENNE61)
    _MASK = _U(MERSENNE61)
    _S61 = _U(61)
    _S32 = _U(32)
    _S29 = _U(29)
    _S3 = _U(3)
    _LOW32 = _U(0xFFFFFFFF)
    _LOW29 = _U((1 << 29) - 1)
    _powmod = np.frompyfunc(pow, 3, 1)

    def __init__(self, points: int):
        self.small = points <= SMALL

    def array(self, values: Sequence[Scalar]) -> np.ndarray:
        if self.small:
            return np.array(_residue_list(values, self.field), dtype=object)
        return _residues(values, self.field)

    def scalar(self, value: int) -> int | np.uint64:
        return int(value) if self.small else _U(value)

    def full(self, n: int, value: int) -> np.ndarray:
        if self.small:
            return np.full(n, int(value), dtype=object)
        return np.full(n, value, dtype=np.uint64)

    def reduce(self, x: np.ndarray) -> np.ndarray:
        # uint64 layout, valid for x < 2^63: two folds of 2^61 = 1, then
        # conditional subtract
        x = (x >> self._S61) + (x & self._MASK)
        x = (x >> self._S61) + (x & self._MASK)
        return np.where(x >= self._MASK, x - self._MASK, x)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.small:
            return (a + b) % self.p
        return self.reduce(a + b)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.small:
            return a * b % self.p
        ah = a >> self._S32
        al = a & self._LOW32
        bh = b >> self._S32
        bl = b & self._LOW32
        hi = ah * bh                # < 2^58
        mid = ah * bl + al * bh     # < 2^62
        lo = al * bl                # full 64-bit product, wraps nowhere
        acc = self.reduce(lo) + (hi << self._S3) + (mid >> self._S29) + ((mid & self._LOW29) << self._S32)
        return self.reduce(acc)     # acc < 2^63

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        if self.small:
            return self._powmod(a, e, self.p)
        return square_and_multiply(a, e, np.ones_like(a), self.mul)


class SmallPrimeKernel:
    """mod p vector arithmetic for p < 2^31 (products fit in uint64)."""

    def __init__(self, field: Field):
        self.field = field
        self.p = field.p
        self._p = _U(field.p)

    def array(self, values: Sequence[Scalar]) -> np.ndarray:
        return _residues(values, self.field)

    def scalar(self, value: int) -> np.uint64:
        return _U(value)

    def full(self, n: int, value: int) -> np.ndarray:
        return np.full(n, value, dtype=np.uint64)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + b) % self._p

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a * b) % self._p

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        return square_and_multiply(a, e, np.ones_like(a), self.mul)


class ObjectKernel:
    """Exact arithmetic elementwise on numpy object arrays: the rationals,
    and primes too wide for the uint64 kernels.

    Over a prime every value is a Python-int residue.  Over Q every
    integral value is a Python ``int`` and only a truly rational one a
    ``Fraction``: Python mixes the two exactly, and integral data, all that
    a PIT sends, never pays for a ``Fraction`` and its gcd.  An array
    over Q may therefore hold ``int``, and ``Fraction`` with denominator 1
    where a product of rationals came out integral; the callers that hand
    values out of the engine turn them into ``Fraction`` field scalars."""

    _powmod = np.frompyfunc(pow, 3, 1)

    def __init__(self, field: Field):
        self.field = field
        self.p = field.p

    def _entry(self, value) -> Scalar:
        if self.p is not None:
            return value % self.p if type(value) is int else self.field.of(value)
        if type(value) is int:
            return value
        if isinstance(value, Fraction):
            return value.numerator if value.denominator == 1 else value
        return operator.index(value)

    def array(self, values: Sequence[Scalar]) -> np.ndarray:
        if isinstance(values, np.ndarray):
            values = values.tolist()
        return np.array([self._entry(v) for v in values], dtype=object)

    def scalar(self, value: Scalar) -> Scalar:
        return self._entry(value)

    def full(self, n: int, value: Scalar) -> np.ndarray:
        return np.full(n, self._entry(value), dtype=object)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b if self.p is None else (a + b) % self.p

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a * b if self.p is None else (a * b) % self.p

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        return a**e if self.p is None else self._powmod(a, e, self.p)


def kernel_for(field: Field, points: int):
    """The vector kernel for the field, for batches of ``points`` points."""
    if field.p == MERSENNE61:
        return Mersenne61Kernel(points)
    if field.p is not None and field.p < (1 << 31):
        return SmallPrimeKernel(field)
    return ObjectKernel(field)
