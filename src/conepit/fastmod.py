"""Vectorized field arithmetic kernels (internal).

Exact arithmetic on numpy arrays, one point per column, used to run
circuit programs on many points at once.  Besides elementwise ``add``,
``mul`` and ``pow`` (one exponent, or a tuple of one per row), every kernel
has ``lincomb(W, V)``, the product of a weight matrix with a 2-D block.
Every field has one residue layout:

* p < 2^31: uint64 arrays (:class:`SmallPrimeKernel`); products of
  canonical residues fit in uint64 directly.
* everything else (the rationals, 2^61 - 1 and other wide primes): object
  arrays of Python scalars with Python arithmetic elementwise (see
  :class:`ObjectKernel`), where one operation is a single numpy call
  (``(a*b) % p``, ``pow(a, e, p)``, a square ``a*a % p``).  F_{2^61-1} has
  a subclass of its own, :class:`Mersenne61Kernel`.  Over Q an integral
  value is held as a Python ``int`` and only a truly rational one as a
  ``Fraction``, so integer data never builds a ``Fraction`` inside the
  engine; the engine's exits turn values back into ``Fraction`` field
  scalars.

``lincomb`` takes W dense, a matrix, or sparse, :class:`SparseRows`, whose
rows are summed by one ``np.add.reduceat`` over their (source row, weight)
entries, with weights in the kernel's ``dtype`` (uint64 for p < 2^31, made
once by ``circuits.weight_matrix``; object weights cost a conversion per
call).  On object arrays it is one object dot or that sum and one reduction
mod p (over Q, one exact division by each rational row's denominator).  A
uint64 sum of products would overflow, so for p < 2^31 the products are
reduced first (a dense W: two uint64 dots with the 16-bit halves of V).
``pow`` with one exponent per row multiplies rows up from lower powers, so
a sum of low powers costs a few ``mul`` calls.

Values enter through ``array`` and ``full``, which every kernel takes from
one base class, each value by the one function ``_entry`` into the kernel's
``dtype``; weights enter as ``circuits.weight_matrix`` builds them.  An
exact ``int`` is reduced directly, and anything else goes through
``Field.of``, as on the scalar path, ``Circuit.evaluate``: numpy integers,
bools, ``Fraction``s and decimal strings are read exactly, and inexact
values (floats, numpy floats, ``Decimal``) raise ``ValidationError`` on
both paths.  Points enter as a read-only :class:`PointBatch`, which a
caller can keep and run again.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ArityMismatch
from .fields import MERSENNE61, Field, Scalar, square_and_multiply

_U = np.uint64


def _entry(field: Field, v) -> Scalar:
    """An outside value as the kernels hold it, the one way values enter
    them: an exact ``int`` reduced directly, anything else read by
    ``Field.of`` (which refuses inexact values), and an integral result
    held as an ``int``, over Q too."""
    if type(v) is int:
        return v if field.p is None else v % field.p
    v = field.of(v)
    return v.numerator if type(v) is Fraction and v.denominator == 1 else v


class SparseRows:
    """Sparse weight rows for ``lincomb``: row i of W.V is the sum of
    weights[e] * V[cols[e]] over the entries starts[i] <= e < starts[i + 1].
    Every row holds at least one entry (a zero row one zero weight), since
    ``np.add.reduceat`` reads an empty run as the entry at its start."""

    def __init__(self, cols: Sequence[Sequence[int]], weights: Sequence[Sequence[Scalar]], dtype=object):
        self.cols = np.array([c for row in cols for c in row], dtype=np.intp)
        self.weights = np.array([w for row in weights for w in row], dtype=dtype)[:, None]
        self.starts = np.cumsum([0] + [len(row) for row in cols[:-1]], dtype=np.intp)

    def __len__(self) -> int:
        return len(self.starts)

    def dot(self, V: np.ndarray) -> np.ndarray:
        """W.V on object arrays, before any reduction."""
        return np.add.reduceat(self.weights * V[self.cols], self.starts)


def _pow_rows(kern, a: np.ndarray, exps: tuple[int, ...]) -> np.ndarray:
    """Row i of ``a`` raised to exps[i].  In ascending exponent order every
    row is multiplied up from the power of the row before it, so low powers
    cost about one ``mul`` per row and degree, not a power per element."""
    order = sorted(range(len(exps)), key=exps.__getitem__)
    if order != list(range(len(exps))):
        out = np.empty_like(a)
        out[order] = _pow_rows(kern, a[order], tuple(sorted(exps)))
        return out
    out = kern.pow(a, exps[0]) if exps and exps[0] != 1 else a.copy()
    for i in range(1, len(exps)):
        gap = exps[i] - exps[i - 1]
        if gap:
            out[i:] = kern.mul(out[i:], a[i:] if gap == 1 else kern.pow(a[i:], gap))
    return out


class _Kernel:
    """What every kernel shares: its field, and values entering it, each
    by :func:`_entry`, as arrays in its ``dtype``."""

    def __init__(self, field: Field):
        self.field = field
        self.p = field.p

    def array(self, values: Sequence[Scalar]) -> np.ndarray:
        return np.array([_entry(self.field, v) for v in values], dtype=self.dtype)

    def full(self, n: int, value: Scalar) -> np.ndarray:
        return np.full(n, _entry(self.field, value), dtype=self.dtype)


class SmallPrimeKernel(_Kernel):
    """mod p vector arithmetic for p < 2^31 (products fit in uint64)."""

    dtype = np.uint64
    _S16 = _U(16)
    _LOW16 = _U(0xFFFF)

    def __init__(self, field: Field):
        super().__init__(field)
        self._p = _U(field.p)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + b) % self._p

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a * b) % self._p

    def lincomb(self, W: np.ndarray | SparseRows, V: np.ndarray) -> np.ndarray:
        if type(W) is SparseRows:  # products reduced, exact for rows of fewer than 2^33 entries
            return np.add.reduceat(W.weights.astype(_U, copy=False) * V[W.cols] % self._p, W.starts) % self._p
        # dense: two uint64 dots per 2^16 columns of W, with the 16-bit
        # halves of V: every product is below 2^47 and every sum below 2^63
        Wu, out, step = W.astype(_U, copy=False), 0, 1 << 16
        for c in range(0, W.shape[1] or 1, step):
            Wc, Vc = Wu[:, c : c + step], V[c : c + step]
            out = (out + (Wc.dot(Vc >> self._S16) % self._p << self._S16) + Wc.dot(Vc & self._LOW16)) % self._p
        return out

    def pow(self, a: np.ndarray, e: int | tuple[int, ...]) -> np.ndarray:
        if type(e) is tuple:
            return _pow_rows(self, a, e)
        return square_and_multiply(a, e, lambda: np.ones_like(a), self.mul)


class ObjectKernel(_Kernel):
    """Exact arithmetic elementwise on numpy object arrays: the rationals,
    and primes too wide for the uint64 kernel.

    Over a prime every value is a Python-int residue.  Over Q an integral
    value is a Python ``int`` (or, from a product of rationals, a ``Fraction``
    of denominator 1) and only a truly rational one a ``Fraction``, so
    integral data never pays for a gcd.  A rational weight matrix is integer
    rows over one denominator per row: ``lincomb`` is one integer dot and one
    exact division per entry, an ``int`` where it is integral.  The engine's
    exits turn values into ``Fraction`` field scalars."""

    dtype = object
    _powmod = np.frompyfunc(pow, 3, 1)
    _exact_quotient = np.frompyfunc(lambda x, d: x // d if x % d == 0 else Fraction(x, d), 2, 1)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b if self.p is None else (a + b) % self.p

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a * b if self.p is None else (a * b) % self.p

    def lincomb(self, W: np.ndarray | SparseRows | tuple[np.ndarray, np.ndarray], V: np.ndarray) -> np.ndarray:
        if type(W) is tuple:  # over Q: integer rows, divided exactly by one denominator per row
            return self._exact_quotient(W[0].dot(V), W[1])
        out = W.dot(V)
        return out if self.p is None else out % self.p

    def pow(self, a: np.ndarray, e: int | tuple[int, ...]) -> np.ndarray:
        if type(e) is tuple:
            return _pow_rows(self, a, e)
        return a**e if self.p is None else a * a % self.p if e == 2 else self._powmod(a, e, self.p)


class Mersenne61Kernel(ObjectKernel):
    """mod (2^61 - 1) arithmetic on object arrays of Python-int residues:
    :class:`ObjectKernel` with the field fixed, a class of its own so that
    the F_{2^61-1} kernel can be named, and its calls timed, apart."""

    field = Field.prime(MERSENNE61)

    def __init__(self):
        super().__init__(self.field)


def kernel_for(field: Field):
    """The vector kernel for the field."""
    if field.p == MERSENNE61:
        return Mersenne61Kernel()
    if field.p is not None and field.p < (1 << 31):
        return SmallPrimeKernel(field)
    return ObjectKernel(field)


class PointBatch:
    """Points as a program's block 0, [1; x_1; ...; x_n] in the layout of the
    field's kernel, one point per column, built once: the arity is checked
    and every coordinate reduced here, and the block is read-only, so a batch
    can be kept and run again.  ``len()`` and iteration give the points."""

    def __init__(self, field: Field, arity: int, points: Sequence[Sequence[Scalar]]):
        self.field, self.arity, self.points = field, arity, tuple(points)
        if any(len(pt) != arity for pt in self.points):
            raise ArityMismatch(f"points must have {arity} coordinates")
        self.kernel = kern = kernel_for(field)
        coords = kern.array([v for pt in self.points for v in pt]).reshape(len(self.points), arity).T
        self.block = np.concatenate([kern.full(len(self.points), 1)[None], coords])
        self.block.flags.writeable = False

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)
