"""Vectorized modular arithmetic kernels (internal).

Exact mod-p arithmetic on numpy uint64 arrays, used to batch-evaluate
circuits and diagonal circuits on many points at once.  Two regimes:

* p = 2^61 - 1: Mersenne reduction with a 32/32 split multiply.  All
  intermediates stay below 2^64.
* p < 2^31: products of canonical residues fit in uint64 directly.

Anything else (other primes, the rationals) has no kernel and callers fall
back to scalar Python arithmetic.  Integers enter through ``array``, which
reduces them mod p, so results are bit-identical to the scalar path on any
integer input.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .fields import MERSENNE61, Field

_U = np.uint64


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
    which :meth:`array` produces from any integers."""

    p = MERSENNE61
    _MASK = _U(MERSENNE61)
    _S61 = _U(61)
    _S32 = _U(32)
    _S29 = _U(29)
    _S3 = _U(3)
    _LOW32 = _U(0xFFFFFFFF)
    _LOW29 = _U((1 << 29) - 1)

    def array(self, values: Sequence[int]) -> np.ndarray:
        return _residues(values, self.p)

    def full(self, n: int, value: int) -> np.ndarray:
        return np.full(n, value, dtype=np.uint64)

    def reduce(self, x: np.ndarray) -> np.ndarray:
        # valid for x < 2^63: two folds of 2^61 = 1, then conditional subtract
        x = (x >> self._S61) + (x & self._MASK)
        x = (x >> self._S61) + (x & self._MASK)
        return np.where(x >= self._MASK, x - self._MASK, x)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.reduce(a + b)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
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
        out = np.ones_like(a)
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out


class SmallPrimeKernel:
    """mod p vector arithmetic for p < 2^31 (products fit in uint64)."""

    def __init__(self, p: int):
        self.p = p
        self._p = _U(p)

    def array(self, values: Sequence[int]) -> np.ndarray:
        return _residues(values, self.p)

    def full(self, n: int, value: int) -> np.ndarray:
        return np.full(n, value, dtype=np.uint64)

    def reduce(self, x: np.ndarray) -> np.ndarray:
        return x % self._p

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + b) % self._p

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a * b) % self._p

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        out = np.ones_like(a)
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out


def kernel_for(field: Field):
    """Vector kernel for the field, or None when only the scalar path applies."""
    if field.p == MERSENNE61:
        return Mersenne61Kernel()
    if field.p is not None and field.p < (1 << 31):
        return SmallPrimeKernel(field.p)
    return None
