"""Exact linear algebra kernels: incremental row reduction, rank, nullspaces.

Everything here is deterministic and exact.  The incremental
:class:`RowReducer` is the workhorse for span/rank/membership queries and
:func:`first_dependency` for lazily read columns over F_p; the Bareiss
routines handle integer matrices where fraction-free elimination keeps
intermediate entries at minor-determinant size.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

import numpy as np

from .fields import Field, Scalar, clear_denominators


class RowReducer:
    """Incremental Gaussian elimination over a field.

    Rows are inserted one by one; independent rows are kept in echelon form
    with pivot entries normalized to 1.
    """

    def __init__(self, field: Field):
        self.field = field
        self.rows: list[list[Scalar]] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Sequence[Scalar]) -> list[Scalar]:
        """Residual of vec modulo the current span."""
        F = self.field
        v = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if c == 0:
                continue
            for j in range(piv, len(v)):
                if row[j] != 0:
                    v[j] = F.sub(v[j], F.mul(c, row[j]))
        return v

    def insert(self, vec: Sequence[Scalar]) -> bool:
        """Insert a row; returns True iff it was independent of the span."""
        F = self.field
        v = self.reduce(vec)
        piv = next((j for j, x in enumerate(v) if x != 0), None)
        if piv is None:
            return False
        inv = F.inv(v[piv])
        self.rows.append([F.mul(inv, x) for x in v])
        self.pivots.append(piv)
        return True


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
    # Back-substitute through the echelon rows in reverse pivot order.
    order = sorted(range(len(red.rows)), key=lambda i: red.pivots[i], reverse=True)
    for i in order:
        row = red.rows[i]
        piv = red.pivots[i]
        s = F.zero()
        for j in range(piv + 1, width):
            if row[j] != 0 and x[j] != 0:
                s = F.add(s, F.mul(row[j], x[j]))
        x[piv] = F.neg(s)  # pivot entry is normalized to 1
    return x


def first_dependency(columns: Iterable[Sequence[int]], field: Field) -> list[int] | None:
    """:func:`nullspace_canonical` of columns 0..j0 over F_p, for j0 the
    first column in the span of those before it; None if there is none.

    Columns are read lazily, none past j0, and may differ in length
    (missing entries are zero).  Each is reduced against the earlier ones,
    kept scaled to 1 at a pivot row, recording only the multipliers, which
    are unwound at j0, last column first.  Entries are reduced mod p only
    where read: each step adds less than p^2 to one.
    """
    p, height = field.p, 0
    basis: list[tuple[int, list[int]]] = []  # (pivot row, column scaled to 1 there)
    steps: list[tuple[list[int], int]] = []  # per entry: its multipliers, its pivot inverse
    for col in columns:
        height = max(height, len(col))
        v = list(col) + [0] * (height - len(col))
        mults = []
        for r, b in basis:
            c = v[r] % p
            mults.append(c)
            if c:
                v[: len(b)] = [x - c * y for x, y in zip(v, b)]
        r = next((i for i, x in enumerate(v) if x % p), None)
        if r is None:
            # col = sum m_k b_k, where b_k = inv_k (column k - sum_(i<k) m_ki b_i)
            x = mults + [1]
            for k in reversed(range(len(steps))):
                m, inv = steps[k]
                a = x[k] * inv % p
                x[:k] = [y - a * c for y, c in zip(x, m)]
                x[k] = -a % p
            return x
        inv = pow(v[r] % p, -1, p)
        basis.append((r, [x * inv % p for x in v]))
        steps.append((mults, inv))
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
    trivial.
    """
    # Scaling a row by the lcm of its denominators leaves the kernel as is.
    ech, piv_cols = bareiss_echelon(
        [row if all(type(v) is int for v in row) else clear_denominators(row)[0] for row in rows]
    )
    pivot_set = set(piv_cols)
    free = next((j for j in range(width) if j not in pivot_set), None)
    if free is None:
        return None
    # Back-substitute in integers: x = num / den for one common den, which
    # each pivot scales by its reduced pivot entry.  den itself is never
    # needed, since the answer is the primitive multiple of num.
    num = [0] * width
    num[free] = 1
    for row, piv in sorted(zip(ech, piv_cols), key=lambda t: t[1], reverse=True):
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
