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
so they are built once per key and shared, as are the weight rows.  The
low-cone test's layers hold points only: :func:`layer_points` gives a
total-degree layer's points that no lower layer requests, as a read-only
``fastmod.PointBatch`` for the evaluator, and its request count, per test
shape (field, n, k, d, t), and builds no weight, so query sets exist only
for coefficients a test combines.  One least recently used cache keeps
them all, at most ``CACHE_ITEMS`` items of ``CACHE_ENTRIES`` entries in
all: a row of width m counts m, a query set or a layer one per point.  An
item of more than ``CACHE_ENTRIES // 64`` is built per call and not kept,
nor is any row but the one asked for of a division whose rows come to
more, and none holds an oracle's values.  ``EXTRACTION_GUARD`` refuses an
extraction whose points or weight rows would not fit in memory.

Interpolation nodes are always the ints 0 .. m-1 (query points over Q are
int tuples), so the weight rows have a closed form, :func:`interpolation_row`,
each kept under its own key by the one division that passes it; the table
of one width that ``dense_expand`` reads, :func:`interpolation_rows`, is
those same rows; :func:`vandermonde_row` solves for arbitrary nodes and is
their twin.  Every row has one exact form: residues over F_p, and over Q
the ints (m-1)! times the row, so a query set's weights over Q are products
of integer rows over d! * prod e_i! and no ``Fraction`` is built before
``combine``'s division.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from fractions import Fraction
from typing import TYPE_CHECKING, Container, Iterator, Sequence

import numpy as np

from .errors import BadParameters, DuplicateNodes, TooLarge, natural
from .fastmod import PointBatch
from .fields import Field, Scalar
from .linalg import RowReducer
from .polys import ExpVec, _exponent, cone_size

if TYPE_CHECKING:
    from .circuits import Oracle

#: The cache keeps at most this many items ...
CACHE_ITEMS = 4096
#: ... of this many entries in all, and none of more than 1/64 of them.
CACHE_ENTRIES = 1 << 18

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
    for k = 0 .. len(nodes)-1: the combination that writes the unit vector
    e_target over the node columns (nodes_j^k)_k.  Nodes must be pairwise
    distinct in the field."""
    m = len(nodes)
    nodes = [field.of(x) for x in nodes]
    if len(set(nodes)) != m:
        raise DuplicateNodes(f"interpolation nodes not distinct: {nodes}")
    target = _target_power(target, m)
    red = RowReducer(field)
    for x in nodes:
        red.insert([field.pow(x, k) for k in range(m)])
    return red.add([field.one() if k == target else field.zero() for k in range(m)])


def _target_power(target: int, m: int) -> int:
    """``target`` read by :func:`natural`, which must lie in 0 .. m-1, else
    BadParameters; an int is taken as it is, so a negative one is reported
    as outside that range."""
    if type(target) is not int:
        target = natural(target, "target power", BadParameters)
    if not 0 <= target < m:
        raise BadParameters(f"target power {target} outside 0..{m - 1}")
    return target


class _Cache:
    """Least recently used items keyed by (kind, *arguments), each counted
    as a number of entries; see the module docstring for the bound."""

    def __init__(self) -> None:
        self.items: OrderedDict[tuple, tuple[object, int]] = OrderedDict()
        self.entries = 0

    def get(self, key: tuple):
        """The value kept under ``key``, now the most recently used, or None."""
        hit = self.items.get(key)
        if hit is not None:
            self.items.move_to_end(key)
            return hit[0]
        return None

    def put(self, key: tuple, value, entries: int):
        """``value``, kept under ``key`` unless it is over the item cap or
        ``key`` is kept already."""
        if entries <= CACHE_ENTRIES // 64 and key not in self.items:
            self.items[key] = value, entries
            self.entries += entries
            while len(self.items) > CACHE_ITEMS or self.entries > CACHE_ENTRIES:
                self.entries -= self.items.popitem(last=False)[1][1]
        return value


_cache = _Cache()


def _lagrange_rows(field: Field, m: int, lowest: int) -> list[tuple[Scalar, ...]]:
    """The rows of :func:`interpolation_row` on the nodes 0 .. m-1 for the
    targets lowest .. m-1, in that order, from one synthetic division.

    With P(x) = prod_{i<m} (x - i), the weight of node j in row t is the
    coefficient of x^t in the Lagrange basis polynomial P(x) / ((x - j) P'(j)),
    where P'(j) = (-1)^(m-1-j) j! (m-1-j)!.  Dividing P by (x - j) for every
    j at once, from the top coefficient down, passes through the
    coefficient of every x^t in turn, so all m rows cost O(m^2) operations.
    As (m-1)! / P'(j) is the signed binomial (-1)^(m-1-j) C(m-1, j), the
    rows times (m-1)! are integers: the rows over Q; over F_p only (m-1)!
    is inverted, and m > p raises DuplicateNodes."""
    F, p = field, field.p
    if p is not None and m > p:
        raise DuplicateNodes(f"interpolation nodes 0..{m - 1} not distinct in F_{p}")
    # c[k] is the coefficient of x^k in P, built one factor (x - i) at a time.
    c = np.zeros(m + 1, dtype=object)
    c[0] = 1
    for i in range(m):
        c[1 : i + 2] = c[: i + 1] - i * c[1 : i + 2]
        c[0] = -i * c[0]
        if p is not None:
            c[: i + 2] %= p
    # (m-1)! is nonzero in F_p because p >= m
    scale = 1 if p is None else F.inv(math.factorial(m - 1) % p)
    inv = np.array([F.mul((-1) ** (m - 1 - j) * math.comb(m - 1, j), scale) for j in range(m)], dtype=object)
    js = np.arange(m).astype(object)
    q = np.ones(m, dtype=object)  # the coefficient of x^(m-1) in P(x) / (x - j)
    rows = []
    for t in range(m - 1, lowest - 1, -1):
        row = q * inv
        rows.append(tuple((row if p is None else row % p).tolist()))
        if t > lowest:
            q = c[t] + js * q
            if p is not None:
                q %= p
    return rows[::-1]


def interpolation_rows(field: Field, m: int) -> tuple[tuple[Scalar, ...], ...]:
    """Every :func:`interpolation_row` on the nodes 0 .. m-1: row t maps
    the values at the nodes to the coefficient of x^t (over Q times (m-1)!).
    The rows are those :func:`interpolation_row` keeps, so a missing row 0
    costs one O(m^2) division that keeps them all; a table of more than
    ``CACHE_ENTRIES // 64`` entries is built per call and none of its rows
    is kept."""
    if m * m > CACHE_ENTRIES // 64:
        return tuple(_lagrange_rows(field, m, 0))
    return tuple([interpolation_row(field, m, t) for t in range(m)])


def interpolation_row(field: Field, m: int, target: int) -> tuple[Scalar, ...]:
    """:func:`vandermonde_row` on the nodes 0 .. m-1, in closed form and
    cached as m entries, over Q as the ints (m-1)! times that row: the
    weight of node j is the coefficient of x^target in the Lagrange basis
    polynomial of j (see :func:`_lagrange_rows`).  The division stops at the
    target row, so an extraction at a high degree builds no whole table.
    It keeps every row it passes that is not kept yet, unless they come to
    more than ``CACHE_ENTRIES // 64`` entries in all, when it keeps the
    target row alone."""
    target = _target_power(target, m)
    row = _cache.get(("row", field, m, target))
    if row is None:
        rows = _lagrange_rows(field, m, target)
        if (m - target) * m > CACHE_ENTRIES // 64:
            rows = rows[:1]
        for t, new in enumerate(rows, target):
            _cache.put(("row", field, m, t), new, m)
        row = rows[0]
    return row


def _base_points(field: Field, e: ExpVec, degree: int) -> Iterator[tuple[Scalar, ...]]:
    """The base points of the extraction of x^e at degree bound d: tau * a
    for tau in 0 .. d, tau-major, and a in the product of the stages' nodes
    in itertools.product order, x1's node slowest; none when |e| > d."""
    # a zero exponent's stage is the single node 1, with weight 1: the identity
    stage_nodes = [(1,) if ei == 0 else range(ei + 1) for ei in e]
    taus = range(degree + 1) if sum(e) <= degree else ()
    return itertools.chain.from_iterable(itertools.product(*([field.mul(a, tau) for a in ns] for ns in stage_nodes)) for tau in taus)


def _build_query_set(field: Field, e: ExpVec, degree: int) -> tuple[tuple[tuple, np.ndarray], int]:
    """The points of :meth:`FilteredOracle.queries` of the extraction of x^e
    at degree bound d over ``field`` and their weights as numerators over
    one denominator: over Q the products of the integer rows over
    d! * prod e_i!, over F_p the residues over 1."""
    F, num, den = field, np.zeros(0, dtype=object), 1
    if sum(e) <= degree:
        # the rows' outer product, in the order of the points: tau's row slowest,
        # then x1's; over F_p reduced after each stage, so no product passes p^2
        num = np.ones(1, dtype=object)
        for m, t in [(degree + 1, sum(e))] + [(ei + 1, ei) for ei in e if ei]:
            num = np.multiply.outer(num, np.array(interpolation_row(F, m, t), dtype=object)).ravel()
            if F.p is not None:
                num %= F.p
        if F.p is None:
            den = math.factorial(degree) * math.prod(map(math.factorial, e))
    num.flags.writeable = False
    return (tuple(_base_points(F, e, degree)), num), den


def query_set(field: Field, e: ExpVec, degree: int) -> tuple[tuple[tuple, np.ndarray], int]:
    """:func:`_build_query_set` of x^e at degree bound d, cached as one entry
    per point and read only through :class:`FilteredOracle`; raises
    CharTooSmall for a field of at most d elements, then TooLarge past the guard."""
    field.require_size_over(degree, "coefficient extraction")
    require_within_guard(cone_size(e), sum(e), degree)
    key = ("query", field, e, degree)
    entry = _cache.get(key)
    if entry is None:
        entry = _build_query_set(field, e, degree)
        _cache.put(key, entry, len(entry[0][0]))
    return entry


def layer_points(field: Field, shape: tuple[int, int, int, int], layer: Sequence[ExpVec], seen: Container[tuple]) -> tuple[PointBatch, int]:
    """Layer t's extraction points that no layer below t requests, as a
    read-only batch, and the layer's request count, the sum of
    cone_size(e) * (d + 1) over x^e in ``layer``; no weight is built.

    ``shape`` is (n, k, d, t): ``layer`` is ``enumerate_low_cone(n, k, d,
    degree=t)`` and ``seen`` holds the points of layers 0 .. t-1, read only
    to build an entry.  Refuses as :func:`query_set` on each monomial in
    turn would (CharTooSmall, then TooLarge at the first past
    ``EXTRACTION_GUARD``, read at call time), both checks once per call.
    Cached per (field, shape) as one entry per new point, never a value."""
    degree = shape[2]
    field.require_size_over(degree, "coefficient extraction")
    key = ("layer", field, *shape)
    entry = _cache.get(key)
    guarded = entry[2] if entry is not None else max((cone_size(e) for e in layer if sum(e) <= degree), default=0)
    if guarded and max(guarded, degree + 1) * (degree + 1) > EXTRACTION_GUARD:
        # the first monomial past the guard raises, with its own message
        for e in layer:
            require_within_guard(cone_size(e), sum(e), degree)
    if entry is None:
        requested = itertools.chain.from_iterable(_base_points(field, e, degree) for e in layer)
        fresh = [pt for pt in dict.fromkeys(requested) if pt not in seen]
        requests = sum(cone_size(e) for e in layer if sum(e) <= degree) * (degree + 1)
        entry = _cache.put(key, (PointBatch(field, shape[0], fresh), requests, guarded), len(fresh))
    return entry[0], entry[1]


class FilteredOracle:
    """The per-variable filtered view of a base oracle for one target
    exponent: the query set of (field, e, d) and its combination."""

    def __init__(self, base: Oracle, e: ExpVec):
        self.base = base
        self.e = _exponent(e, base.arity)
        self.field = base.field
        self._queries, self._den = query_set(base.field, self.e, base.degree)
        self._num = self._queries[1]

    def queries(self) -> tuple[tuple[tuple[Scalar, ...], ...], np.ndarray]:
        """The base points of this extraction, tau-major, and the weight of
        each point's value in the coefficient, as an object array:
        cone_size(e) * (d + 1) of each, or none when |e| > d.  Built for an
        extraction alone, never a layer; over F_p read-only and shared while
        the cache keeps them, over Q ``Fraction`` weights built per call."""
        if self.field.p is None:
            return self._queries[0], np.array([Fraction(w, self._den) for w in self._num], dtype=object)
        return self._queries

    def combine(self, values: Sequence[Scalar]) -> Scalar:
        """The coefficient of x^e from the base values at the points of
        :meth:`queries`, in the same order: one dot product, over Q with the
        weights' integer numerators, then one division by their denominator."""
        p = self.field.p
        acc = np.dot(self._num, np.array(values, dtype=object))
        return Fraction(acc, self._den) if p is None else acc % p

    def coefficient(self) -> Scalar:
        """The coefficient of x^e in the base oracle's polynomial."""
        return self.combine(self.base.eval_many(self._queries[0]))


def extract_coefficient(oracle: Oracle, e: ExpVec) -> Scalar:
    """Coefficient of x^e in the polynomial behind the oracle, using exactly
    cone_size(e) * (degree + 1) base evaluations."""
    return FilteredOracle(oracle, e).coefficient()
