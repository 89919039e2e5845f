"""Exact linear algebra kernels: incremental row reduction, rank, nullspaces.

Everything here is deterministic and exact.  The incremental
:class:`RowReducer` is the one general elimination over a field: rank,
span membership with its combination (:meth:`RowReducer.add`), and the
first dependency among lazily read columns (:func:`first_dependency`) all
run on it.  Two narrower eliminations stay beside it, each for a shape it
does not fit: ``diagonal._eliminate_forms`` wants only the pivots of a few
short forms, so it keeps no multipliers and takes no inverse (2-3x faster
than this class at arities 4-7); ``polys.PolySpan`` reduces sparse
polynomials by leading monomial, so ``pd_space_dim`` never lays its
derivatives out as dense rows over the cones of the support.  The Bareiss
routines handle integer matrices, where fraction-free elimination keeps
intermediate entries at minor-determinant size:
:func:`first_integer_dependency` is the integer first dependency, one
column at a time, and :func:`bareiss_echelon` eliminates a whole matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

import numpy as np

from .fields import Field, Scalar, clear_denominators


class RowReducer:
    """Incremental Gaussian elimination over a field, the general one in
    conepit (see the module docstring for the two narrower ones).

    Rows may differ in length (missing entries are zero).  Each independent
    row is kept reduced against the earlier ones, scaled to 1 at its pivot
    (its first nonzero entry), with the multipliers that reduced it and its
    pivot inverse.  Over F_p entries are reduced mod p only where read: each
    step adds less than p^2 to one.
    """

    def __init__(self, field: Field):
        self.field = field
        self.rows: list[list[Scalar]] = []
        self.pivots: list[int] = []
        self._steps: list[tuple[list[Scalar], Scalar]] = []  # per row: its multipliers, its pivot inverse
        self._width = 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: Sequence[Scalar]) -> tuple[list[Scalar], list[Scalar]]:
        p = self.field.p
        v = list(vec)
        v += [self.field.zero()] * (self._width - len(v))
        mults = []
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv] if p is None else v[piv] % p
            mults.append(c)
            if c:
                v[: len(row)] = [x - c * y for x, y in zip(v, row)]
        return v, mults

    def reduce(self, vec: Sequence[Scalar]) -> list[Scalar]:
        """Residual of vec modulo the current span."""
        v, p = self._reduce(vec)[0], self.field.p
        return v if p is None else [x % p for x in v]

    def add(self, vec: Sequence[Scalar]) -> list[Scalar] | None:
        """Insert vec and return None if it is independent of the span;
        otherwise insert nothing and return the coefficients c with
        vec = sum c_k r_k over the independent rows r_k as inserted."""
        F, p = self.field, self.field.p
        v, mults = self._reduce(vec)
        piv = next((j for j, x in enumerate(v) if (x if p is None else x % p)), None)
        if piv is None:
            # vec = sum m_k b_k, where b_k = inv_k (r_k - sum_(i<k) m_ki b_i)
            for k in reversed(range(len(mults))):
                m, inv = self._steps[k]
                a = F.mul(mults[k], inv)
                mults[:k] = [y - a * c for y, c in zip(mults, m)]
                mults[k] = a
            return mults
        inv = F.inv(v[piv] if p is None else v[piv] % p)
        self.rows.append([x * inv for x in v] if p is None else [x * inv % p for x in v])
        self.pivots.append(piv)
        self._steps.append((mults, inv))
        self._width = len(v)
        return None

    def insert(self, vec: Sequence[Scalar]) -> bool:
        """Insert a row; returns True iff it was independent of the span."""
        return self.add(vec) is None


def matrix_rank(rows: Sequence[Sequence[Scalar]], field: Field) -> int:
    red = RowReducer(field)
    for r in rows:
        red.insert(r)
    return red.rank


def nullspace_canonical(rows: Sequence[Sequence[Scalar]], field: Field, width: int) -> list[Scalar] | None:
    """Canonical kernel vector of a homogeneous system, or None if trivial.

    Reduced-echelon convention: among the non-pivot (free) columns, the
    first is set to 1 and the rest to 0; pivot variables are solved exactly.
    The row-wise twin of :func:`first_dependency` in the tests' reference
    annihilator; the benchmark's tracer wraps it by name.
    """
    F = field
    red = RowReducer(F)
    for r in rows:
        red.insert(r)
    pivot_cols = set(red.pivots)
    free = next((j for j in range(width) if j not in pivot_cols), None)
    if free is None:
        return None
    x = [F.zero()] * width
    x[free] = F.one()
    # Back-substitute through the rows in reverse pivot order (pivot entries are 1).
    for piv, row in sorted(zip(red.pivots, red.rows), reverse=True):
        x[piv] = F.neg(sum(map(F.mul, row[piv + 1 :], x[piv + 1 :]), F.zero()))
    return x


def first_dependency(columns: Iterable[Sequence[Scalar]], field: Field) -> list[Scalar] | None:
    """:func:`nullspace_canonical` of columns 0..j0, for j0 the first column
    in the span of those before it; None if there is none.

    Columns are read lazily, none past j0, and may differ in length
    (missing entries are zero); the :meth:`RowReducer.add` combination of
    column j0, negated, is the kernel vector with 1 at j0.
    """
    red = RowReducer(field)
    for col in columns:
        if (combo := red.add(col)) is not None:
            return [field.neg(c) for c in combo] + [field.one()]
    return None


# ----------------------------------------------------------------------
# Integer (fraction-free) elimination
# ----------------------------------------------------------------------


def bareiss_echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form of an integer matrix.

    Returns (echelon rows, pivot column per row).  The pivot of column c is
    the first nonzero entry at or below the current row r; one Bareiss step
    then updates the whole trailing block of a numpy object array at once,
    a[i, j] <- (a[r, c] * a[i, j] - a[i, c] * a[r, j]) // prev for i > r and
    j > c, where prev is the previous pivot and the division is exact.
    Bareiss one-step elimination keeps every intermediate entry equal to a
    minor of the input, so bit growth is bounded by the determinant bound.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0 or n == 0:
        return [], []
    a = np.empty((m, n), dtype=object)
    a[:] = rows
    piv_rows: list[list[int]] = []
    piv_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(n):
        below = np.flatnonzero(a[r:, c])
        if not below.size:
            continue
        pr = r + int(below[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r + 1 :, c + 1 :] = (a[r, c] * a[r + 1 :, c + 1 :] - np.outer(a[r + 1 :, c], a[r, c + 1 :])) // prev
        a[r + 1 :, c] = 0
        prev = a[r, c]
        piv_rows.append(a[r].tolist())
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    return piv_rows, piv_cols


def integer_nullspace_canonical(rows: Sequence[Sequence[Fraction | int]], width: int) -> list[int] | None:
    """Canonical integral kernel vector of a homogeneous rational system.

    Same free-variable convention as :func:`nullspace_canonical`; the result
    is scaled to integers with content 1 and a positive free entry.  Sign
    normalization is left to the caller.  Returns None when the kernel is
    trivial.  The row-wise twin of :func:`first_integer_dependency` in the
    tests' reference annihilator; the benchmark's tracer wraps it by name.
    """
    # Scaling a row by the lcm of its denominators leaves the kernel as is.
    ech, piv_cols = bareiss_echelon(
        [row if all(type(v) is int for v in row) else clear_denominators(row)[0] for row in rows]
    )
    pivot_set = set(piv_cols)
    free = next((j for j in range(width) if j not in pivot_set), None)
    return None if free is None else _primitive_kernel_vector(ech, piv_cols, free, width)


def _primitive_kernel_vector(ech: list[list[int]], piv_cols: list[int], free: int, width: int) -> list[int]:
    """Back-substitute integer echelon rows (pivots ascending) with the free
    column ``free`` set to 1 and the other free columns to 0, then divide
    out the content."""
    # x = num / den for one common den, which each pivot scales by its
    # reduced pivot entry.  den itself is never needed, since the answer is
    # the primitive multiple of num.
    num = [0] * width
    num[free] = 1
    for row, piv in reversed(list(zip(ech, piv_cols))):
        s = sum(map(mul, row[piv + 1 :], num[piv + 1 :]))
        if s == 0:
            continue
        g = math.gcd(s, row[piv])
        s, d = s // g, row[piv] // g
        if d < 0:
            s, d = -s, -d
        if d != 1:
            num = [d * v for v in num]
        num[piv] = -s
    g = math.gcd(*num)
    return [v // g for v in num]


def first_integer_dependency(columns: Iterable[Sequence[int]]) -> list[int] | None:
    """:func:`integer_nullspace_canonical` of integer columns 0..j0, for j0
    the first column in the span of those before it; None if there is none.

    Columns are read lazily, none past j0, and may differ in length
    (missing entries are zero).  Each is replayed through the Bareiss steps
    of the pivots before it: the pivot's row swap, then
    v[i] <- (pivot * v[i] - mult_i * v[r]) // prev below its row r.  Its
    entries in the pivot rows are then those :func:`bareiss_echelon` of the
    whole prefix holds.  A row past the height of an earlier pivot's column
    was zero in it and in every column before it, so that step only scales
    the row (its multiplier is 0).
    """
    steps: list[tuple[int, int, int, list[int]]] = []  # per pivot: swap row, pivot, previous pivot, multipliers
    upper: list[list[int]] = []  # per pivot column: its entries in the pivot rows up to its own
    height = 0
    for col in columns:
        v = list(col)
        height = max(height, len(v))
        v += [0] * (height - len(v))
        for k, (pr, piv, prev, mults) in enumerate(steps):
            v[k], v[pr] = v[pr], v[k]
            x, m = v[k], k + 1 + len(mults)
            v[k + 1 : m] = [(piv * y - c * x) // prev for y, c in zip(v[k + 1 : m], mults)]
            v[m:] = [piv * y // prev for y in v[m:]]
        r = len(steps)
        pr = next((i for i in range(r, height) if v[i]), None)
        if pr is None:
            ech = [[0] * k + [u[k] for u in upper[k:]] + [v[k]] for k in range(r)]
            return _primitive_kernel_vector(ech, list(range(r)), r, r + 1)
        v[r], v[pr] = v[pr], v[r]
        steps.append((pr, v[r], steps[-1][1] if steps else 1, v[r + 1 :]))
        upper.append(v[: r + 1])
    return None
