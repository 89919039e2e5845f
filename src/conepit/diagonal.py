"""Depth-3 diagonal circuits: sums of powers of affine forms.

A :class:`DiagonalCircuit` stores terms (c_i, affine form, d_i) and computes
sum c_i * (const_i + <coeffs_i, x>)^(d_i): its program is three array steps
over the collected terms, L = A.[1; x], P = L^d row by row and c.P, with
like terms (one form, one power) summed and those that cancel dropped; its
gate view keeps every term and serves only the scalar twin ``evaluate``.
Its rank r is the linear rank of the non-constant parts.  ``diag_pit``
selects the pivot columns of an inverse-free elimination, which keeps
nonzeroness, and runs the low-cone test on the r-variate image under that
selection, ``PsiMap.apply``, whose like terms are collected as it is built:
effective here since the partial-derivative space of a k-term diagonal
circuit has dimension at most sum (d_i + 1).

JSON document format::

    {"field": "p:...", "arity": n,
     "terms": [{"c": "3", "const": "1", "coeffs": ["1", "0"], "d": 2}, ...]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import NamedTuple, Sequence

from .circuits import Circuit, CircuitBuilder, Oracle, Program, weight_matrix
from .documents import json_list, load_document, scalar, scalar_list
from .errors import RankZero, ValidationError, natural
from .fields import Field, Scalar
from .pit import NONZERO, ZERO, PitVerdict, low_cone_pit
from .polys import ExpVec, VectorPoly, exponents_of_degree


class DiagonalTerm(NamedTuple):
    """One term c * (const + <coeffs, x>)^d."""

    c: Scalar
    const: Scalar
    coeffs: tuple[Scalar, ...]
    d: int


@dataclass(frozen=True)
class DiagonalCircuit:
    field: Field
    arity: int
    terms: tuple[DiagonalTerm, ...]

    def __post_init__(self) -> None:
        """Reads the arity and each term (c, const, coeffs, d), here only:
        the arity and each d by ``errors.natural`` (else ValidationError),
        each scalar by ``Field.of`` and the coefficient count against the
        arity (else ValidationError)."""
        F, arity = self.field, natural(self.arity, "arity", ValidationError)
        rows = []
        for c, const, coeffs, d in self.terms:
            coeffs = tuple([F.of(x) for x in coeffs])
            if len(coeffs) != arity:
                raise ValidationError(f"affine form has {len(coeffs)} coefficients, arity is {arity}")
            rows.append(DiagonalTerm(F.of(c), F.of(const), coeffs, natural(d, "exponent", ValidationError)))
        self.__dict__.update(arity=arity, terms=tuple(rows))

    @staticmethod
    def make(field: Field, arity: int, terms: Sequence[tuple]) -> "DiagonalCircuit":
        """The circuit of the terms (c, const, coeffs, d), read as the
        constructor reads them."""
        return DiagonalCircuit(field, arity, tuple(terms))

    def degree(self) -> int:
        return max((t.d for t in self.terms), default=0)

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        """The scalar twin: the gate view's ``Circuit.evaluate``."""
        return self.to_circuit().evaluate(point)

    def evaluate_many(self, points: Sequence[Sequence[Scalar]], scalars: bool = True) -> list[Scalar]:
        return self.program.evaluate_many(points, scalars)

    @cached_property
    def program(self) -> Program:
        """The program of the collected terms, built on first use: like
        terms summed, since c.l^d + c'.l^d = (c + c').l^d, one row per
        (const, coeffs, d) whose c is the field sum of its terms', those
        that sum to 0 dropped, in ascending d, the order in which ``pow``
        raises rows most cheaply.  Three steps with no gate: L = A.[1; x]
        for A = [const | coeffs], P = L^d row by row and c.P.  The gate
        view keeps every term, so ``evaluate`` stays an independent twin."""
        F, like = self.field, {}
        for t in self.terms:
            key = (t.d, t.const, t.coeffs)
            like[key] = F.add(like.get(key, F.zero()), t.c)
        rows = sorted((key + (c,) for key, c in like.items() if c != 0), key=lambda row: row[0])
        if not rows:  # nothing left: the sum 0
            rows = [(0, F.zero(), (F.zero(),) * self.arity, F.zero())]
        A = weight_matrix(F, [(const,) + coeffs for _, const, coeffs, _ in rows])
        c = weight_matrix(F, [[c for *_, c in rows]])
        steps = [("lincomb", ((0, slice(None)),), A), ("pow", ((1, slice(None)),), tuple(d for d, *_ in rows))]
        return Program(F, self.arity, steps + [("lincomb", ((2, slice(None)),), c)])

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


def _eliminate_forms(circuit: DiagonalCircuit) -> tuple[tuple[int, ...], list[int]]:
    """The 1-based indices of the first-encountered independent non-constant
    parts and their pivot columns (first nonzero entries).  Each distinct
    form, in order of first use, is reduced against each kept row r with
    pivot j by v <- r[j].v - v[j].r, which needs no inverse; over Q the kept
    rows are scaled to 1 at the pivot.  A nonzero scaling moves no zero, so
    the kept indices and pivots are ``linalg.RowReducer``'s: the pivots are
    the leading positions of the row space.  It stops at rank = arity."""
    p = circuit.field.p
    first: dict[tuple[Scalar, ...], int] = {}
    for i, t in enumerate(circuit.terms):
        first.setdefault(t.coeffs, i + 1)
    rows: list[tuple[Sequence[Scalar], int, int]] = []  # (kept row, its pivot, its 1-based index)
    for coeffs, i in first.items():
        if len(rows) == circuit.arity:
            break
        v = coeffs
        for r, j, _ in rows:
            a, b = r[j], v[j]
            if b:
                v = [x - b * y for x, y in zip(v, r)] if p is None else [(a * x - b * y) % p for x, y in zip(v, r)]
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is not None:
            rows.append((v if p is not None else [x / v[piv] for x in v], piv, i))
    return tuple(i for _, _, i in rows), [j for _, j, _ in rows]


def rank_of_forms(circuit: DiagonalCircuit) -> tuple[int, tuple[int, ...]]:
    """Rank of the matrix of non-constant parts, plus the 1-based indices of
    the first-encountered independent rows (matching the f_1..f_k naming)."""
    basis_rows = _eliminate_forms(circuit)[0]
    return len(basis_rows), basis_rows


@dataclass(frozen=True)
class PsiMap:
    """Coordinate-selection substitution: x_j -> y_(pos(j)) for j in the
    pivot column set, x_j -> 0 otherwise."""

    arity: int
    columns: tuple[int, ...]  # 0-based pivot columns, ascending

    def apply(self, circuit: DiagonalCircuit) -> DiagonalCircuit:
        """The r-variate circuit C(Psi(x)), its like terms collected as its
        program collects them: one term per (const, coeffs at the columns,
        d) in order of first use, c the field sum of its terms', those that
        sum to 0 dropped; constants are untouched.  The terms were read by
        ``circuit``'s constructor, so the image is built without reading
        them again."""
        F, like = circuit.field, {}
        for c, const, coeffs, d in circuit.terms:
            key = (const, tuple([coeffs[j] for j in self.columns]), d)
            like[key] = F.add(like[key], c) if key in like else c
        image = object.__new__(DiagonalCircuit)
        image.__dict__.update(field=F, arity=len(self.columns), terms=tuple([DiagonalTerm(c, *key) for key, c in like.items() if c != 0]))
        return image


def build_psi(circuit: DiagonalCircuit) -> PsiMap:
    """Selection of the pivot columns J of :func:`rank_of_forms`'s
    elimination: the basis rows restricted to J are invertible, so the
    images of the basis forms stay linearly independent."""
    pivots = _eliminate_forms(circuit)[1]
    if not pivots:
        raise RankZero("all forms are constant")
    return PsiMap(circuit.arity, tuple(sorted(pivots)))


def pd_dim_bound(circuit: DiagonalCircuit) -> int:
    """sum (d_i + 1): the partial-derivative-space dimension bound for sums
    of powers of affine forms."""
    return sum(t.d + 1 for t in circuit.terms)


def diag_pit(circuit: DiagonalCircuit) -> PitVerdict:
    """Deterministic blackbox identity test for a diagonal circuit.

    Compresses the circuit to its rank by the coordinate selection of
    :func:`build_psi` (which preserves nonzeroness): the reduced circuit is
    its :meth:`PsiMap.apply` image, one term per (const, coeffs at the
    pivots, d), built with no term read again.  The
    low-cone test with the sum-of-(d_i + 1) promise runs on it under the
    input's degree bound, which stays when top terms cancel.  A Nonzero
    witness is a monomial of the reduced circuit.  A circuit of rank 0 is
    its constant, read once at the origin.
    """
    F = circuit.field
    F.require_size_over(circuit.degree(), "diagonal identity test")
    cols = sorted(_eliminate_forms(circuit)[1])
    if not cols:  # a constant polynomial: evaluate once at the origin
        v = circuit.evaluate_many([[F.zero()] * circuit.arity])[0]
        return PitVerdict(ZERO, None, None, 1, 1) if v == 0 else PitVerdict(NONZERO, (), v, 1, 1)
    reduced = PsiMap(circuit.arity, tuple(cols)).apply(circuit)
    return low_cone_pit(Oracle(reduced, circuit.degree()), pd_dim_bound(circuit))


# ----------------------------------------------------------------------
# Componentwise powers of one affine form over F^k
# ----------------------------------------------------------------------


def diag_power_vectorpoly(field: Field, rows: Sequence[Sequence[Scalar]], d: int) -> VectorPoly:
    """The vector-valued polynomial (1 + a_t1 x_1 + ... + a_tn x_n)^d, one
    coordinate per row of ``rows``, with F^k multiplied componentwise: the
    coefficient of x^e has t-th entry multinomial(d; e) * prod_j a_tj^e_j.
    Requires characteristic 0 or > d; d is read by ``errors.natural`` (else
    ValidationError)."""
    d = natural(d, "power", ValidationError)
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
    r = circuit.field.render
    terms = [{"c": r(t.c), "const": r(t.const), "coeffs": list(map(r, t.coeffs)), "d": t.d} for t in circuit.terms]
    return json.dumps({"field": circuit.field.spec, "arity": circuit.arity, "terms": terms}, separators=(", ", ": "))


def diagonal_from_json(text: str) -> DiagonalCircuit:
    def build(doc) -> DiagonalCircuit:
        field = Field.from_spec(doc["field"])
        terms = []
        for row in json_list(doc["terms"], "terms"):
            c, const = scalar(row["c"], "c"), scalar(row["const"], "const")
            terms.append((c, const, scalar_list(row["coeffs"], "coeffs"), row["d"]))
        return DiagonalCircuit.make(field, doc["arity"], terms)

    return load_document(text, build)
