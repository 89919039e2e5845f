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
* anything else (the rationals, other primes): :class:`Field` arithmetic
  elementwise on object arrays of Python scalars.

Values enter through ``array`` (integers are reduced mod p) and scalars
through ``scalar``, so results equal those of the scalar path,
``Circuit.evaluate``, on any integer input.
"""

from __future__ import annotations

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


def _residues(values: Sequence[int], p: int) -> np.ndarray:
    """The integers reduced mod p as a uint64 array.  Canonical residues
    convert directly; anything else (at least p, or negative, or too wide
    for uint64) is reduced first."""
    try:
        out = np.asarray(values, dtype=np.uint64)
    except OverflowError:
        return np.asarray([v % p for v in values], dtype=np.uint64)
    if out.size and out.max() >= p:
        return out % _U(p)
    return out


class Mersenne61Kernel:
    """mod (2^61 - 1) vector arithmetic; operands must be canonical residues,
    which :meth:`array` produces from any integers.

    The layout is fixed at construction from the batch's point count, and
    every array of that batch must come from this kernel: object arrays of
    Python ints for at most ``SMALL`` points, uint64 arrays otherwise.
    Every value of the object layout is a Python int: a numpy integer held
    in an object array would multiply in 64 bits and wrap."""

    p = MERSENNE61
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

    def array(self, values: Sequence[int]) -> np.ndarray:
        if self.small:
            return np.array([int(v) % self.p for v in values], dtype=object)
        return _residues(values, self.p)

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

    def __init__(self, p: int):
        self.p = p
        self._p = _U(p)

    def array(self, values: Sequence[int]) -> np.ndarray:
        return _residues(values, self.p)

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
    """Field arithmetic elementwise on numpy object arrays: the rationals,
    and primes too wide for the uint64 kernels."""

    def __init__(self, field: Field):
        self.p = field.p
        self._pow = np.frompyfunc(field.pow, 2, 1)

    def array(self, values: Sequence[Scalar]) -> np.ndarray:
        out = np.asarray(values, dtype=object)
        return out if self.p is None else out % self.p

    def scalar(self, value: Scalar) -> Scalar:
        return value

    def full(self, n: int, value: Scalar) -> np.ndarray:
        return np.full(n, value, dtype=object)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b if self.p is None else (a + b) % self.p

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a * b if self.p is None else (a * b) % self.p

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        return self._pow(a, e)


def kernel_for(field: Field, points: int):
    """The vector kernel for the field, for batches of ``points`` points."""
    if field.p == MERSENNE61:
        return Mersenne61Kernel(points)
    if field.p is not None and field.p < (1 << 31):
        return SmallPrimeKernel(field.p)
    return ObjectKernel(field)
