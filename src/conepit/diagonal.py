"""Depth-3 diagonal circuits: sums of powers of affine forms.

A :class:`DiagonalCircuit` stores terms (c_i, affine form, d_i) and computes
sum c_i * (const_i + <coeffs_i, x>)^(d_i): its program is three array steps
built straight from the terms, L = A.[1; x], P = L^d row by row and c.P,
and its gate view serves only the scalar twin ``evaluate``.  Its rank is
the linear rank of the non-constant parts; when that rank r is small the
circuit can be compressed to r variables by a coordinate-selection
substitution that keeps nonzeroness, which is what makes the low-cone
identity test effective here: the partial-derivative space of a k-term
diagonal circuit has dimension at most sum (d_i + 1).

JSON document format::

    {"field": "p:...", "arity": n,
     "terms": [{"c": "3", "const": "1", "coeffs": ["1", "0"], "d": 2}, ...]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Sequence

from .circuits import Circuit, CircuitBuilder, Oracle, Program, weight_matrix
from .documents import json_list, load_document, natural, scalar, scalar_list
from .errors import RankZero, ValidationError
from .fields import Field, Scalar
from .linalg import RowReducer
from .pit import NONZERO, ZERO, PitVerdict, low_cone_pit
from .polys import ExpVec, VectorPoly, exponents_of_degree


@dataclass(frozen=True)
class DiagonalTerm:
    c: Scalar
    const: Scalar
    coeffs: tuple[Scalar, ...]
    d: int


@dataclass(frozen=True)
class DiagonalCircuit:
    field: Field
    arity: int
    terms: tuple[DiagonalTerm, ...]

    @staticmethod
    def make(field: Field, arity: int, terms: Sequence[tuple]) -> "DiagonalCircuit":
        rows = []
        for c, const, coeffs, d in terms:
            coeffs = tuple(field.of(x) for x in coeffs)
            if len(coeffs) != arity:
                raise ValidationError(f"affine form has {len(coeffs)} coefficients, arity is {arity}")
            if d < 0:
                raise ValidationError("exponent must be a natural number")
            rows.append(DiagonalTerm(field.of(c), field.of(const), coeffs, d))
        return DiagonalCircuit(field, arity, tuple(rows))

    def degree(self) -> int:
        return max((t.d for t in self.terms), default=0)

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        """The scalar twin: the gate view's ``Circuit.evaluate``."""
        return self.to_circuit().evaluate(point)

    def evaluate_many(self, points: Sequence[Sequence[Scalar]], scalars: bool = True) -> list[Scalar]:
        return self.program.evaluate_many(points, scalars)

    @cached_property
    def program(self) -> Program:
        """Three steps, built from the terms on first use, with no gate:
        L = A.[1; x] for A = [const | coeffs], P = L^d row by row, then
        c.P.  The terms are taken in ascending d, which is the order in
        which ``pow`` raises rows most cheaply."""
        F, whole = self.field, slice(None)
        zero = DiagonalTerm(F.zero(), F.zero(), (F.zero(),) * self.arity, 0)  # no terms: the sum 0
        terms = sorted(self.terms, key=lambda t: t.d) or [zero]
        A = weight_matrix(F, [(t.const,) + t.coeffs for t in terms])
        c = weight_matrix(F, [[t.c for t in terms]])
        steps = [("lincomb", ((0, whole),), A), ("pow", ((1, whole),), tuple(t.d for t in terms))]
        return Program(F, self.arity, steps + [("lincomb", ((2, whole),), c)])

    def as_oracle(self) -> Oracle:
        return Oracle(self, self.degree())

    def to_circuit(self) -> Circuit:
        """Equivalent gate-level circuit (weighted add -> pow -> weighted add),
        built once per circuit, on first use: the scalar twin's view."""
        return self._gates

    @cached_property
    def _gates(self) -> Circuit:
        b = CircuitBuilder(self.field, self.arity)
        tops = []
        for t in self.terms:
            parts = [(1, b.const(t.const))] + [(a, b.input(i)) for i, a in enumerate(t.coeffs) if a != 0]
            tops.append((t.c, b.pow(b.add(parts), t.d)))
        return b.build(b.add(tops) if tops else b.const(0))


# ----------------------------------------------------------------------
# Rank and arity reduction
# ----------------------------------------------------------------------


def rank_of_forms(circuit: DiagonalCircuit) -> tuple[int, tuple[int, ...]]:
    """Rank of the matrix of non-constant parts, plus the 1-based indices of
    the first-encountered independent rows (matching the f_1..f_k naming)."""
    red = RowReducer(circuit.field)
    basis_rows = []
    for i, t in enumerate(circuit.terms):
        if red.insert(list(t.coeffs)):
            basis_rows.append(i + 1)
    return red.rank, tuple(basis_rows)


@dataclass(frozen=True)
class PsiMap:
    """Coordinate-selection substitution: x_j -> y_(pos(j)) for j in the
    pivot column set, x_j -> 0 otherwise."""

    arity: int
    columns: tuple[int, ...]  # 0-based pivot columns, ascending

    @property
    def rank(self) -> int:
        return len(self.columns)

    def apply(self, circuit: DiagonalCircuit) -> DiagonalCircuit:
        """The r-variate circuit C(Psi(x)); constants are untouched."""
        sel = list(self.columns)
        terms = [
            DiagonalTerm(t.c, t.const, tuple(t.coeffs[j] for j in sel), t.d)
            for t in circuit.terms
        ]
        return DiagonalCircuit(circuit.field, len(sel), tuple(terms))


def build_psi(circuit: DiagonalCircuit) -> PsiMap:
    """Pivot-column selection: greedy elimination on the basis rows yields a
    column set J with the basis rows restricted to J invertible, so the
    images of the basis forms stay linearly independent."""
    red = RowReducer(circuit.field)
    for t in circuit.terms:
        red.insert(list(t.coeffs))
    if red.rank == 0:
        raise RankZero("all forms are constant")
    return PsiMap(circuit.arity, tuple(sorted(red.pivots)))


def pd_dim_bound(circuit: DiagonalCircuit) -> int:
    """sum (d_i + 1): the partial-derivative-space dimension bound for sums
    of powers of affine forms."""
    return sum(t.d + 1 for t in circuit.terms)


def diag_pit(circuit: DiagonalCircuit) -> PitVerdict:
    """Deterministic blackbox identity test for a diagonal circuit.

    Compresses the circuit to its rank via the coordinate selection (which
    preserves nonzeroness), then runs the low-cone test with the
    sum-of-(d_i + 1) promise on the reduced oracle.  A Nonzero witness is an
    exponent vector of the reduced, r-variate polynomial.
    """
    circuit.field.require_size_over(circuit.degree(), "diagonal identity test")
    try:
        psi = build_psi(circuit)
    except RankZero:
        # Constant polynomial: evaluate once at the origin.
        v = circuit.evaluate_many([[circuit.field.zero()] * circuit.arity])[0]
        if v == 0:
            return PitVerdict(ZERO, None, None, 1, 1)
        return PitVerdict(NONZERO, (), v, 1, 1)
    return low_cone_pit(psi.apply(circuit).as_oracle(), pd_dim_bound(circuit))


# ----------------------------------------------------------------------
# Componentwise powers of one affine form over F^k
# ----------------------------------------------------------------------


def diag_power_vectorpoly(field: Field, rows: Sequence[Sequence[Scalar]], d: int) -> VectorPoly:
    """The vector-valued polynomial (1 + a_t1 x_1 + ... + a_tn x_n)^d, one
    coordinate per row of ``rows``, with F^k multiplied componentwise: the
    coefficient of x^e has t-th entry multinomial(d; e) * prod_j a_tj^e_j.
    Requires characteristic 0 or > d."""
    field.require_size_over(d, "componentwise affine power")
    mat = [[field.of(x) for x in row] for row in rows]
    k = len(mat)
    n = len(mat[0]) if k else 0
    for row in mat:
        if len(row) != n:
            raise ValidationError("rows must share one length")

    items: list[tuple[ExpVec, list[Scalar]]] = []

    def multinomial(e: ExpVec) -> int:
        out = 1
        left = d
        for x in e:
            out *= comb(left, x)
            left -= x
        return out

    for total in range(d + 1):
        for e in exponents_of_degree([d] * n, total):
            m = field.of(multinomial(e))
            vec = []
            for t in range(k):
                v = m
                for j, x in enumerate(e):
                    if x:
                        v = field.mul(v, field.pow(mat[t][j], x))
                vec.append(v)
            items.append((e, vec))
    return VectorPoly.make(field, n, k, items)


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------


def diagonal_to_json(circuit: DiagonalCircuit) -> str:
    doc = {
        "field": circuit.field.spec,
        "arity": circuit.arity,
        "terms": [
            {
                "c": circuit.field.render(t.c),
                "const": circuit.field.render(t.const),
                "coeffs": [circuit.field.render(a) for a in t.coeffs],
                "d": t.d,
            }
            for t in circuit.terms
        ],
    }
    return json.dumps(doc, separators=(", ", ": "))


def diagonal_from_json(text: str) -> DiagonalCircuit:
    def build(doc) -> DiagonalCircuit:
        field = Field.from_spec(doc["field"])
        arity = natural(doc["arity"], "arity")
        terms = []
        for row in json_list(doc["terms"], "terms"):
            c, const = scalar(row["c"], "c"), scalar(row["const"], "const")
            terms.append((c, const, scalar_list(row["coeffs"], "coeffs"), natural(row["d"], "d")))
        return DiagonalCircuit.make(field, arity, terms)

    return load_document(text, build)
