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
(the weighted sum of the values there, one dot product), so a caller that
extracts many coefficients can evaluate the union of their points once.
The base oracle is queried exactly cone_size(e) * (d + 1) times per
extraction.

The points and weights depend only on (field, e, d), never on the oracle,
so they are built once per key and shared: an LRU cache of 1024 query
sets, each of at most ``QUERY_CACHE_POINTS`` points, so at most 2^18
points in all; a larger extraction builds its own.  ``EXTRACTION_GUARD``
refuses an extraction whose points or weight rows would not fit in memory.

Interpolation nodes are always 0 .. m-1, so the weight rows have a closed
form, :func:`interpolation_row`, cached per (field, m, target);
:func:`vandermonde_row` solves for arbitrary nodes by elimination and is
its twin.
"""

from __future__ import annotations

import functools
import itertools
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ArityMismatch, DuplicateNodes, TooLarge
from .fields import Field, Scalar
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


@functools.lru_cache(maxsize=256)
def interpolation_nodes(field: Field, m: int) -> tuple[Scalar, ...]:
    """The interpolation nodes 0 .. m-1 as field elements, cached."""
    return tuple(field.of(j) for j in range(m))


@functools.lru_cache(maxsize=4096)
def interpolation_row(field: Field, m: int, target: int) -> tuple[Scalar, ...]:
    """:func:`vandermonde_row` on the nodes 0 .. m-1, in closed form and
    cached.  With P(x) = prod_{i<m} (x - i), the weight of node j is the
    coefficient of x^target in the Lagrange basis polynomial
    P(x) / ((x - j) P'(j)), where P'(j) = (-1)^(m-1-j) j! (m-1-j)!:
    O(m^2) operations."""
    F = field
    p = F.p
    if p is not None and m > p:
        raise DuplicateNodes(f"interpolation nodes 0..{m - 1} not distinct in F_{p}")
    if not 0 <= target < m:
        raise ValueError(f"target power {target} outside 0..{m - 1}")
    # c[k] is the coefficient of x^k in P, built one factor (x - i) at a time.
    c = np.zeros(m + 1, dtype=object)
    c[0] = 1
    for i in range(m):
        c[1 : i + 2] = c[: i + 1] - i * c[1 : i + 2]
        c[0] = -i * c[0]
        if p is not None:
            c[: i + 2] %= p
    # Synthetic division by (x - j) for every node j at once, from the top
    # coefficient down to x^target.
    js = np.arange(m).astype(object)
    q = np.ones(m, dtype=object)
    for k in range(m - 1, target, -1):
        q = c[k] + js * q
        if p is not None:
            q %= p
    # P'(j) is nonzero in F_p because p >= m
    fact = [1]
    for j in range(1, m):
        fact.append(F.mul(fact[-1], j))
    return tuple(F.mul(F.of(q[j]), F.inv(F.of((-1) ** (m - 1 - j) * fact[j] * fact[m - 1 - j]))) for j in range(m))


def _build_query_set(field: Field, e: ExpVec, degree: int) -> tuple[tuple[tuple[Scalar, ...], ...], np.ndarray]:
    """:meth:`FilteredOracle.queries` of the extraction of x^e at degree
    bound d over ``field``."""
    F = field
    points: list[tuple[Scalar, ...]] = []
    weights: list[Scalar] = []
    if sum(e) <= degree:
        # Zero-exponent coordinates use the single node 1 with weight 1: the
        # stage is the identity and contributes factor 1 to the cost.
        t_nodes = interpolation_nodes(F, degree + 1)
        stage_nodes = [(F.one(),) if ei == 0 else t_nodes[: ei + 1] for ei in e]
        # itertools.product order over the stages: x1's node slowest
        combo = [F.one()]
        for ei in e:
            if ei:
                combo = [F.mul(w, x) for w in combo for x in interpolation_row(F, ei + 1, ei)]
        for tau, tw in zip(t_nodes, interpolation_row(F, degree + 1, sum(e))):
            points.extend(itertools.product(*([F.mul(a, tau) for a in ns] for ns in stage_nodes)))
            weights.extend([F.mul(tw, w) for w in combo])
    out = np.array(weights, dtype=object)
    out.flags.writeable = False
    return tuple(points), out


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
        self._queries = build(F, self.e, d)

    def queries(self) -> tuple[tuple[tuple[Scalar, ...], ...], np.ndarray]:
        """The base points of this extraction, tau-major, and the weight of
        each point's value in the coefficient, as a read-only object array:
        cone_size(e) * (d + 1) of each, or none when |e| exceeds the degree
        bound.  Shared with every extraction of the same (field, e, d) when
        there are at most ``QUERY_CACHE_POINTS`` points."""
        return self._queries

    def combine(self, values: Sequence[Scalar]) -> Scalar:
        """The coefficient of x^e from the base values at the points of
        :meth:`queries`, in the same order."""
        weights = self._queries[1]
        F = self.field
        if not len(weights):
            return F.zero()
        acc = np.dot(weights, np.array(values, dtype=object))
        return acc if F.p is None else acc % F.p

    def coefficient(self) -> Scalar:
        """The coefficient of x^e in the base oracle's polynomial."""
        return self.combine(self.base.eval_many(self._queries[0]))


def extract_coefficient(oracle: Oracle, e: ExpVec) -> Scalar:
    """Coefficient of x^e in the polynomial behind the oracle, using exactly
    cone_size(e) * (degree + 1) base evaluations."""
    return FilteredOracle(oracle, e).coefficient()
