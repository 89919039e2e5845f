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
(the weighted sum of the values there), so a caller that extracts many
coefficients can evaluate the union of their points once.  The base oracle
is queried exactly cone_size(e) * (d + 1) times per extraction.

Interpolation nodes are always 0 .. m-1, so the weight rows are cached per
(field, m, target) by :func:`interpolation_row`.
"""

from __future__ import annotations

import functools
import itertools
from typing import TYPE_CHECKING, Sequence

from .errors import ArityMismatch, DuplicateNodes
from .fields import Field, Scalar
from .polys import ExpVec, cone_size

if TYPE_CHECKING:
    from .circuits import Oracle


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
    """:func:`vandermonde_row` on the nodes 0 .. m-1, cached."""
    return tuple(vandermonde_row(interpolation_nodes(field, m), target, field))


class FilteredOracle:
    """The per-variable filtered view of a base oracle for one target
    exponent: stage i holds the nodes and combination weights that isolate
    x_i-degree e_i, and the final stage holds the tau interpolation data."""

    def __init__(self, base: Oracle, e: ExpVec):
        if len(e) != base.arity:
            raise ArityMismatch(f"exponent arity {len(e)}, oracle arity {base.arity}")
        F = base.field
        F.require_size_over(base.degree, "coefficient extraction")
        self.base = base
        self.e = tuple(e)
        self.field = F
        self.stage_nodes: list[Sequence[Scalar]] = []
        self.stage_weights: list[Sequence[Scalar]] = []
        self._queries: tuple[list[tuple[Scalar, ...]], list[Scalar]] | None = None
        if sum(self.e) > base.degree:
            # The coefficient is zero by the degree bound; no stages needed.
            self.t_nodes: Sequence[Scalar] = ()
            self.t_weights = None
            return
        # Zero-exponent coordinates use the single node 1 with weight 1:
        # the stage is the identity and contributes factor 1 to the cost.
        self.t_nodes = interpolation_nodes(F, base.degree + 1)
        for ei in self.e:
            if ei == 0:
                self.stage_nodes.append([F.one()])
                self.stage_weights.append([F.one()])
            else:
                self.stage_nodes.append(self.t_nodes[: ei + 1])
                self.stage_weights.append(interpolation_row(F, ei + 1, ei))
        self.t_weights = interpolation_row(F, base.degree + 1, sum(self.e))

    def filtered_eval(self, point: Sequence[Scalar]) -> Scalar:
        """Value at ``point`` of the fully filtered polynomial, whose terms
        are the target coefficient times x^e plus proper supermonomials of
        x^e only."""
        F = self.field
        acc = F.zero()
        for combo in itertools.product(*(range(len(ns)) for ns in self.stage_nodes)):
            w = F.one()
            for i, j in enumerate(combo):
                w = F.mul(w, self.stage_weights[i][j])
            scaled = [F.mul(self.stage_nodes[i][j], point[i]) for i, j in enumerate(combo)]
            acc = F.add(acc, F.mul(w, self.base.eval_point(scaled)))
        return acc

    def queries(self) -> tuple[list[tuple[Scalar, ...]], list[Scalar]]:
        """The base points of this extraction, tau-major, and the weight of
        each point's value in the coefficient: cone_size(e) * (d + 1) of
        each, or none when |e| exceeds the degree bound."""
        if self._queries is None:
            F = self.field
            points: list[tuple[Scalar, ...]] = []
            weights: list[Scalar] = []
            if self.t_weights is not None:
                # itertools.product order over the stages: x1's node slowest
                combo_weights = [F.one()]
                for ws in self.stage_weights:
                    combo_weights = [F.mul(w, x) for w in combo_weights for x in ws]
                for tau, tw in zip(self.t_nodes, self.t_weights):
                    points.extend(itertools.product(*([F.mul(a, tau) for a in ns] for ns in self.stage_nodes)))
                    weights.extend([F.mul(tw, w) for w in combo_weights])
            self._queries = (points, weights)
        return self._queries

    def combine(self, values: Sequence[Scalar]) -> Scalar:
        """The coefficient of x^e from the base values at the points of
        :meth:`queries`, in the same order."""
        F = self.field
        acc = F.zero()
        for w, v in zip(self.queries()[1], values):
            if v != 0:
                acc = F.add(acc, F.mul(w, v))
        return acc

    def coefficient(self) -> Scalar:
        """The coefficient of x^e in the base oracle's polynomial."""
        points, _ = self.queries()
        return self.combine(self.base.eval_many(points))


def extract_coefficient(oracle: Oracle, e: ExpVec) -> Scalar:
    """Coefficient of x^e in the polynomial behind the oracle, using exactly
    cone_size(e) * (degree + 1) base evaluations."""
    return FilteredOracle(oracle, e).coefficient()


def extraction_cost(e: ExpVec, degree: int) -> int:
    """Base-oracle call count of one extraction."""
    return cone_size(e) * (degree + 1)
