"""Blackbox coefficient extraction by per-variable interpolation filtering.

To read the coefficient of x^e out of an evaluation oracle, each variable
x_i is processed in turn: the oracle is queried at the scalings x_i -> a*x_i
for e_i + 1 interpolation nodes a, and the results are combined with the
weight vector that annihilates the powers x_i^0 .. x_i^(e_i - 1) and keeps
x_i^(e_i).  After all variables are filtered this way, every surviving
monomial agrees with x^e on coordinates where it does not strictly exceed
it, so the target term is the unique one of total degree |e|; the final
stage scales the whole point by a fresh parameter tau, evaluates at the
all-ones point for d + 1 values of tau, and interpolates the coefficient of
tau^|e|.

Stages are fused lazily: no intermediate circuit is materialized.  An
extraction is two steps, :meth:`FilteredOracle.queries` (the base points
and the weight of each in the combination) and :meth:`FilteredOracle.combine`
(the weighted sum of the values there: one dot product, over Q with the
weights' integer numerators, and one division), so a caller that
extracts many coefficients can evaluate the union of their points once.
The base oracle is queried exactly cone_size(e) * (d + 1) times per
extraction.

The points and weights depend only on (field, e, d), never on the oracle,
so they are built once per key and shared: an LRU cache of 1024 query
sets, each of at most ``QUERY_CACHE_POINTS`` points, so at most 2^18
points in all; a larger extraction builds its own.  ``EXTRACTION_GUARD``
refuses an extraction whose points or weight rows would not fit in memory.

Interpolation nodes are always the ints 0 .. m-1 (query points over Q are
int tuples), so the weight rows have a closed form, :func:`interpolation_row`;
all m rows of one width come from one O(m^2) pass, :func:`interpolation_rows`
(over Q also as ints, the rows times (m-1)!); :func:`vandermonde_row` solves
for arbitrary nodes and is their twin.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import OrderedDict
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ArityMismatch, DuplicateNodes, TooLarge
from .fields import Field, Scalar, clear_denominators
from .polys import ExpVec, cone_size

if TYPE_CHECKING:
    from .circuits import Oracle

#: Query sets of at most this many points are cached and shared.
QUERY_CACHE_POINTS = 256

#: Largest max(cone_size(e), d + 1) * (d + 1) an extraction with |e| <= d
#: may take on: it bounds both the points requested and the O(d^2) work of
#: the weight rows.  With |e| > d there is nothing to build.
EXTRACTION_GUARD = 10_000_000


def require_within_guard(cone: int, total: int, degree: int) -> None:
    """Raise TooLarge when extracting a monomial of cone size ``cone`` and
    total degree ``total`` at degree bound ``degree`` exceeds
    ``EXTRACTION_GUARD``."""
    if total <= degree and max(cone, degree + 1) * (degree + 1) > EXTRACTION_GUARD:
        raise TooLarge(f"extraction of a cone of size {cone} at degree bound {degree} exceeds the guard {EXTRACTION_GUARD}")


def vandermonde_row(nodes: Sequence[Scalar], target: int, field: Field) -> list[Scalar]:
    """The unique weights a with sum_j a_j * nodes_j^k = [k == target]
    for k = 0 .. len(nodes)-1, by exact elimination on the transposed
    Vandermonde system.  Nodes must be pairwise distinct."""
    m = len(nodes)
    if len(set(nodes)) != m:
        raise DuplicateNodes(f"interpolation nodes not distinct: {nodes}")
    if not 0 <= target < m:
        raise ValueError(f"target power {target} outside 0..{m - 1}")
    F = field
    # Augmented system M a = e_target with M[k][j] = nodes_j^k.
    rows = [[F.pow(nodes[j], k) for j in range(m)] + [F.one() if k == target else F.zero()] for k in range(m)]
    for col in range(m):
        piv = next(r for r in range(col, m) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = F.inv(rows[col][col])
        rows[col] = [F.mul(inv, x) for x in rows[col]]
        for r in range(m):
            if r != col and rows[r][col] != 0:
                c = rows[r][col]
                rows[r] = [F.sub(x, F.mul(c, y)) for x, y in zip(rows[r], rows[col])]
    return [rows[j][m] for j in range(m)]


#: The row tables of :func:`interpolation_rows` held in its cache hold at
#: most this many rows together, as many as :func:`interpolation_row`'s
#: cache; a wider table is built and not kept.
ROW_CACHE_ROWS = 4096


def _lagrange_rows(field: Field, m: int, targets: Sequence[int], integral: bool = False) -> dict[int, tuple[Scalar, ...]]:
    """The rows of :func:`interpolation_row` on the nodes 0 .. m-1 for
    each of ``targets``, by target, from one synthetic division.

    With P(x) = prod_{i<m} (x - i), the weight of node j in row t is the
    coefficient of x^t in the Lagrange basis polynomial P(x) / ((x - j) P'(j)),
    where P'(j) = (-1)^(m-1-j) j! (m-1-j)!.  Dividing P by (x - j) for every
    j at once, from the top coefficient down, passes through the
    coefficient of every x^t in turn, so all m rows cost O(m^2) operations.
    As (m-1)! / P'(j) is the signed binomial (-1)^(m-1-j) C(m-1, j), only
    (m-1)! is inverted, and the rows times (m-1)! are integers; ``integral``
    asks for those, over Q.  The division stops at the lowest target, and
    only the rows asked for are scaled."""
    F = field
    p = F.p
    # c[k] is the coefficient of x^k in P, built one factor (x - i) at a time.
    c = np.zeros(m + 1, dtype=object)
    c[0] = 1
    for i in range(m):
        c[1 : i + 2] = c[: i + 1] - i * c[1 : i + 2]
        c[0] = -i * c[0]
        if p is not None:
            c[: i + 2] %= p
    # (m-1)! is nonzero in F_p because p >= m
    scale = 1 if integral else F.inv(F.of(math.factorial(m - 1)))
    inv = np.array([F.mul((-1) ** (m - 1 - j) * math.comb(m - 1, j), scale) for j in range(m)], dtype=object)
    js = np.arange(m).astype(object)
    q = np.ones(m, dtype=object)  # the coefficient of x^(m-1) in P(x) / (x - j)
    lowest = min(targets)
    rows = {}
    for t in range(m - 1, lowest - 1, -1):
        if t in targets:
            row = q * inv
            rows[t] = tuple((row if p is None else row % p).tolist())
        if t > lowest:
            q = c[t] + js * q
            if p is not None:
                q %= p
    return rows


def _require_distinct_nodes(field: Field, m: int) -> None:
    if field.p is not None and m > field.p:
        raise DuplicateNodes(f"interpolation nodes 0..{m - 1} not distinct in F_{field.p}")


_row_tables: OrderedDict[tuple, tuple[tuple[Scalar, ...], ...]] = OrderedDict()


def interpolation_rows(field: Field, m: int, integral: bool = False) -> tuple[tuple[Scalar, ...], ...]:
    """Every :func:`interpolation_row` on the nodes 0 .. m-1: row t maps
    the values at the nodes to the coefficient of x^t; with ``integral``,
    over Q, the rows times (m-1)!, all ints.  O(m^2) operations in all; the
    least recently used tables are dropped to keep at most ``ROW_CACHE_ROWS``
    rows."""
    key = (field, m, True) if integral else (field, m)
    table = _row_tables.get(key)
    if table is not None:
        _row_tables.move_to_end(key)
        return table
    _require_distinct_nodes(field, m)
    rows = _lagrange_rows(field, m, range(m), integral)
    table = tuple(rows[t] for t in range(m))
    if m <= ROW_CACHE_ROWS:
        _row_tables[key] = table
        while sum(map(len, _row_tables.values())) > ROW_CACHE_ROWS:
            _row_tables.popitem(last=False)
    return table


@functools.lru_cache(maxsize=4096)
def interpolation_row(field: Field, m: int, target: int) -> tuple[Scalar, ...]:
    """:func:`vandermonde_row` on the nodes 0 .. m-1, in closed form and
    cached: the weight of node j is the coefficient of x^target in the
    Lagrange basis polynomial of j (see :func:`_lagrange_rows`).  The
    division stops at the target row, so an extraction at a high degree
    builds no whole table."""
    _require_distinct_nodes(field, m)
    if not 0 <= target < m:
        raise ValueError(f"target power {target} outside 0..{m - 1}")
    return _lagrange_rows(field, m, (target,))[target]


def _build_query_set(field: Field, e: ExpVec, degree: int) -> tuple[tuple[tuple, np.ndarray], np.ndarray, int]:
    """:meth:`FilteredOracle.queries` of the extraction of x^e at degree
    bound d over ``field``, then the weights as numerators over one
    denominator (over F_p the residues over 1)."""
    F = field
    points: list[tuple[Scalar, ...]] = []
    weights: list[Scalar] = []
    if sum(e) <= degree:
        # Zero-exponent coordinates use the single node 1 with weight 1: the
        # stage is the identity and contributes factor 1 to the cost.
        t_nodes = range(degree + 1)
        stage_nodes = [(1,) if ei == 0 else t_nodes[: ei + 1] for ei in e]
        # itertools.product order over the stages: x1's node slowest
        combo = [F.one()]
        for ei in e:
            if ei:
                combo = [F.mul(w, x) for w in combo for x in interpolation_row(F, ei + 1, ei)]
        for tau, tw in zip(t_nodes, interpolation_row(F, degree + 1, sum(e))):
            points.extend(itertools.product(*([F.mul(a, tau) for a in ns] for ns in stage_nodes)))
            weights.extend([F.mul(tw, w) for w in combo])
    nums, den = clear_denominators(weights) if F.p is None else (weights, 1)
    out = np.array(weights, dtype=object)
    num = np.array(nums, dtype=object) if F.p is None else out
    out.flags.writeable = num.flags.writeable = False
    return (tuple(points), out), num, den


_cached_query_set = functools.lru_cache(maxsize=1024)(_build_query_set)


class FilteredOracle:
    """The per-variable filtered view of a base oracle for one target
    exponent: the query set of (field, e, d) and its combination."""

    def __init__(self, base: Oracle, e: ExpVec):
        if len(e) != base.arity:
            raise ArityMismatch(f"exponent arity {len(e)}, oracle arity {base.arity}")
        F = base.field
        d = base.degree
        F.require_size_over(d, "coefficient extraction")
        self.base = base
        self.e = tuple(e)
        self.field = F
        cone = cone_size(self.e)
        require_within_guard(cone, sum(self.e), d)
        build = _cached_query_set if cone * (d + 1) <= QUERY_CACHE_POINTS else _build_query_set
        self._queries, self._num, self._den = build(F, self.e, d)

    def queries(self) -> tuple[tuple[tuple[Scalar, ...], ...], np.ndarray]:
        """The base points of this extraction, tau-major, and the weight of
        each point's value in the coefficient, as a read-only object array:
        cone_size(e) * (d + 1) of each, or none when |e| exceeds the degree
        bound.  Shared with every extraction of the same (field, e, d) when
        there are at most ``QUERY_CACHE_POINTS`` points."""
        return self._queries

    def combine(self, values: Sequence[Scalar]) -> Scalar:
        """The coefficient of x^e from the base values at the points of
        :meth:`queries`, in the same order: one dot product, over Q with the
        weights' integer numerators, then one division by their denominator."""
        F = self.field
        if not len(self._num):
            return F.zero()
        acc = np.dot(self._num, np.array(values, dtype=object))
        return Fraction(acc, self._den) if F.p is None else acc % F.p

    def coefficient(self) -> Scalar:
        """The coefficient of x^e in the base oracle's polynomial."""
        return self.combine(self.base.eval_many(self._queries[0]))


def extract_coefficient(oracle: Oracle, e: ExpVec) -> Scalar:
    """Coefficient of x^e in the polynomial behind the oracle, using exactly
    cone_size(e) * (degree + 1) base evaluations."""
    return FilteredOracle(oracle, e).coefficient()
