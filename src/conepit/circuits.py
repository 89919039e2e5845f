"""Arithmetic-circuit DAG, exact evaluation, substitution, and the blackbox oracle.

A circuit is a list of gates in topological order (ids are the list
positions, strictly increasing, children always precede parents):

* ``input``: reads one of the n variables;
* ``const``: a field constant;
* ``add``: weighted sum of child gates (edge weights are field scalars);
* ``mul``: product of child gates;
* ``pow``: a child gate raised to a fixed natural exponent.

``pow`` is first-class so that sums of powers keep their size accounting
honest, and ``add`` carries edge weights so linear combinations stay one
gate.  Size is gate count plus edge count.

The JSON document format (UTF-8 text) is::

    {"field": "q" | "p:<prime>", "arity": n,
     "gates": [{"id": 0, "kind": "input", "var": 0},
               {"id": 1, "kind": "const", "value": "5"},
               {"id": 2, "kind": "add", "children": [0, 1], "weights": ["1", "2"]},
               {"id": 3, "kind": "pow", "children": [2], "exp": 3},
               {"id": 4, "kind": "mul", "children": [0, 3]}],
     "output": 4}

Scalars travel as decimal strings so rationals stay exact.  ``parse`` and
``serialize`` are mutually inverse on valid documents.

:class:`Oracle` is the evaluation-only view of a polynomial: a circuit and a
degree bound, which testers may only evaluate, pointwise, in batches or on
a grid.  :func:`dense_expand` recovers the full sparse polynomial of an
oracle by grid interpolation; it is the brute-force ground truth the rest
of the package is tested against.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .documents import load_document
from .errors import (
    ArityMismatch,
    FieldMismatch,
    ParseError,
    TooLarge,
    ValidationError,
)
from .extraction import interpolation_rows
from .fastmod import kernel_for
from .fields import Field, Scalar
from .polys import ExpVec, MultiPoly

DENSE_EXPAND_GUARD = 10_000_000

#: Grids are evaluated this many points at a time, so the column engine's
#: live arrays stay bounded whatever the grid size.
GRID_CHUNK = 4096

GATE_KINDS = ("input", "const", "add", "mul", "pow")


@dataclass(frozen=True)
class Gate:
    id: int
    kind: str
    var: int | None = None
    value: Scalar | None = None
    children: tuple[int, ...] = ()
    weights: tuple[Scalar, ...] | None = None
    exp: int | None = None


@dataclass(frozen=True)
class Circuit:
    field: Field
    arity: int
    gates: tuple[Gate, ...]
    output: int

    def __post_init__(self) -> None:
        seen: set[int] = set()
        last = -1
        for g in self.gates:
            if g.kind not in GATE_KINDS:
                raise ValidationError(f"gate {g.id}: unknown kind {g.kind!r}")
            if g.id <= last:
                raise ValidationError(f"gate ids must be strictly increasing (saw {g.id} after {last})")
            last = g.id
            for c in g.children:
                if c not in seen:
                    raise ValidationError(f"gate {g.id}: child {c} does not precede it")
            if g.kind == "input":
                if g.var is None or not 0 <= g.var < self.arity:
                    raise ValidationError(f"gate {g.id}: variable index {g.var} out of range")
            elif g.kind == "const":
                if g.value is None:
                    raise ValidationError(f"gate {g.id}: const without value")
            elif g.kind in ("add", "mul"):
                if not g.children:
                    raise ValidationError(f"gate {g.id}: {g.kind} needs at least one child")
                if g.kind == "add" and g.weights is not None and len(g.weights) != len(g.children):
                    raise ValidationError(f"gate {g.id}: {len(g.weights)} weights for {len(g.children)} children")
            elif g.kind == "pow":
                if len(g.children) != 1 or g.exp is None or g.exp < 0:
                    raise ValidationError(f"gate {g.id}: pow needs one child and exp >= 0")
            seen.add(g.id)
        if self.output not in seen:
            raise ValidationError(f"output gate {self.output} does not exist")

    @property
    def size(self) -> int:
        """Gate count plus edge count."""
        return len(self.gates) + sum(len(g.children) for g in self.gates)

    # -- evaluation ----------------------------------------------------

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        if len(point) != self.arity:
            raise ArityMismatch(f"point has {len(point)} coordinates, arity is {self.arity}")
        F = self.field
        # canonical field scalars, equal to what the vector path's kernel
        # entry makes of the coordinates
        point = [F.of(x) for x in point]
        vals: dict[int, Scalar] = {}
        for g in self.gates:
            if g.kind == "input":
                v = point[g.var]
            elif g.kind == "const":
                v = g.value
            elif g.kind == "add":
                ws = g.weights or (F.one(),) * len(g.children)
                v = F.zero()
                for w, c in zip(ws, g.children):
                    v = F.add(v, F.mul(w, vals[c]))
            elif g.kind == "mul":
                v = F.one()
                for c in g.children:
                    v = F.mul(v, vals[c])
            else:  # pow
                v = F.pow(vals[g.children[0]], g.exp)
            vals[g.id] = v
        return vals[self.output]

    def evaluate_many(self, points: Sequence[Sequence[Scalar]]) -> list[Scalar]:
        return evaluate_points(self, points)

    def _evaluate_columns(self, kern, cols: list[np.ndarray], n_points: int) -> np.ndarray:
        """The column engine: each gate's values on all points as one kernel
        array, dropped after the gate's last use."""
        last_use = {c: g.id for g in self.gates for c in g.children}
        vals: dict[int, np.ndarray] = {}
        for g in self.gates:
            if g.kind == "input":
                v = cols[g.var]
            elif g.kind == "const":
                v = kern.full(n_points, g.value)
            elif g.kind == "add":
                v = None
                for w, c in zip(g.weights or itertools.repeat(1), g.children):
                    term = vals[c] if w == 1 else kern.mul(kern.scalar(w), vals[c])
                    v = term if v is None else kern.add(v, term)
            elif g.kind == "mul":
                v = vals[g.children[0]]
                for c in g.children[1:]:
                    v = kern.mul(v, vals[c])
            else:
                v = kern.pow(vals[g.children[0]], g.exp)
            vals[g.id] = v
            for c in g.children:
                if last_use[c] == g.id and c != self.output:
                    vals.pop(c, None)
        return vals[self.output]

    def to_circuit(self) -> "Circuit":
        """The gate circuit itself: every circuit kind offers this gate view."""
        return self

    # -- structure -----------------------------------------------------

    def syntactic_degree(self) -> int:
        """Bottom-up degree: input 1, const 0, add max, mul sum, pow child*exp."""
        deg: dict[int, int] = {}
        for g in self.gates:
            if g.kind == "input":
                deg[g.id] = 1
            elif g.kind == "const":
                deg[g.id] = 0
            elif g.kind == "add":
                deg[g.id] = max(deg[c] for c in g.children)
            elif g.kind == "mul":
                deg[g.id] = sum(deg[c] for c in g.children)
            else:
                deg[g.id] = deg[g.children[0]] * g.exp
        return deg[self.output]

    def substitute(self, sigma: Mapping[int, MultiPoly]) -> "Circuit":
        """Replace variable i by sigma[i]; variables not in sigma map to
        themselves inside the images' variable space.

        All images must share one field (the circuit's) and one arity m;
        the result is an arity-m circuit built by splicing one sub-DAG per
        substituted variable.
        """
        images = list(sigma.values())
        for img in images:
            if img.field != self.field:
                raise FieldMismatch(f"image over {img.field.spec}, circuit over {self.field.spec}")
        arities = {img.arity for img in images}
        if len(arities) > 1:
            raise ArityMismatch(f"images have mixed arities {sorted(arities)}")
        m = arities.pop() if arities else self.arity
        for i in range(self.arity):
            if i not in sigma and i >= m:
                raise ArityMismatch(f"variable {i} is not substituted and does not exist in arity {m}")

        builder = CircuitBuilder(self.field, m)
        var_entry: dict[int, int] = {}
        for i in sorted(sigma):
            var_entry[i] = builder.poly(sigma[i])

        remap: dict[int, int] = {}
        for g in self.gates:
            if g.kind == "input":
                remap[g.id] = var_entry[g.var] if g.var in var_entry else builder.input(g.var)
            elif g.kind == "const":
                remap[g.id] = builder.const(g.value)
            elif g.kind == "add":
                ws = g.weights or (self.field.one(),) * len(g.children)
                remap[g.id] = builder.add([(w, remap[c]) for w, c in zip(ws, g.children)])
            elif g.kind == "mul":
                remap[g.id] = builder.mul([remap[c] for c in g.children])
            else:
                remap[g.id] = builder.pow(remap[g.children[0]], g.exp)
        return builder.build(remap[self.output])

    def with_field(self, field: Field) -> "Circuit":
        """Reinterpret the circuit over another field (constants are coerced)."""
        if field == self.field:
            return self
        gates = []
        for g in self.gates:
            value = field.of(g.value) if g.value is not None else None
            weights = tuple(field.of(w) for w in g.weights) if g.weights is not None else None
            gates.append(Gate(g.id, g.kind, g.var, value, g.children, weights, g.exp))
        return Circuit(field, self.arity, tuple(gates), self.output)

    @staticmethod
    def from_multipoly(poly: MultiPoly) -> "Circuit":
        builder = CircuitBuilder(poly.field, poly.arity)
        return builder.build(builder.poly(poly))


class CircuitBuilder:
    """Append-only gate list with memoized input gates."""

    def __init__(self, field: Field, arity: int):
        self.field = field
        self.arity = arity
        self.gates: list[Gate] = []
        self._inputs: dict[int, int] = {}

    def _push(self, gate: Gate) -> int:
        self.gates.append(gate)
        return gate.id

    def input(self, var: int) -> int:
        if var not in self._inputs:
            self._inputs[var] = self._push(Gate(len(self.gates), "input", var=var))
        return self._inputs[var]

    def const(self, value: int | Fraction | str) -> int:
        return self._push(Gate(len(self.gates), "const", value=self.field.of(value)))

    def add(self, weighted_children: Sequence[tuple[Scalar, int]]) -> int:
        ws = tuple(self.field.of(w) for w, _ in weighted_children)
        cs = tuple(c for _, c in weighted_children)
        return self._push(Gate(len(self.gates), "add", children=cs, weights=ws))

    def mul(self, children: Sequence[int]) -> int:
        return self._push(Gate(len(self.gates), "mul", children=tuple(children)))

    def pow(self, child: int, exp: int) -> int:
        return self._push(Gate(len(self.gates), "pow", children=(child,), exp=exp))

    def poly(self, p: MultiPoly) -> int:
        """Splice gates computing a sparse polynomial; returns its gate id."""
        if p.arity != self.arity:
            raise ArityMismatch(f"polynomial arity {p.arity}, builder arity {self.arity}")
        if p.is_zero:
            return self.const(0)
        summands: list[tuple[Scalar, int]] = []
        for e in p.support():
            factors = []
            for i, x in enumerate(e):
                if x == 1:
                    factors.append(self.input(i))
                elif x > 1:
                    factors.append(self.pow(self.input(i), x))
            if not factors:
                gid = self.const(1)
            elif len(factors) == 1:
                gid = factors[0]
            else:
                gid = self.mul(factors)
            summands.append((p.terms[e], gid))
        if len(summands) == 1 and summands[0][0] == self.field.one():
            return summands[0][1]
        return self.add(summands)

    def build(self, output: int) -> Circuit:
        return Circuit(self.field, self.arity, tuple(self.gates), output)


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------


class Oracle:
    """Blackbox view of a polynomial: a circuit plus a degree bound d.

    The circuit is a gate circuit, or another circuit kind through its gate
    view ``to_circuit()``.  A point goes through the circuit's scalar
    ``evaluate``, a batch through its ``evaluate_many`` and a grid through
    the column engine.  ``calls`` counts every evaluated point.
    """

    def __init__(self, circuit, degree: int | None = None):
        self.circuit = circuit
        self.arity = circuit.arity
        self.field = circuit.field
        self.degree = circuit.syntactic_degree() if degree is None else degree
        self.calls = 0

    @staticmethod
    def from_circuit(circuit: Circuit, degree: int | None = None) -> "Oracle":
        return Oracle(circuit, degree)

    def eval_point(self, point: Sequence[Scalar]) -> Scalar:
        self.calls += 1
        return self.circuit.evaluate(point)

    def eval_many(self, points: Sequence[Sequence[Scalar]]) -> list[Scalar]:
        self.calls += len(points)
        return self.circuit.evaluate_many(points)

    def eval_grid(self, nodes_per_var: int) -> np.ndarray:
        """Values on the grid {0..m-1}^n in row-major order (x1 slowest), by
        the column engine, ``GRID_CHUNK`` points at a time, every chunk in
        the whole grid's kernel layout.  The result is the kernel array:
        over Q it holds an ``int`` for every integral value."""
        n = self.arity
        count = nodes_per_var ** n
        self.calls += count
        kern = kernel_for(self.field, count)
        circuit = self.circuit.to_circuit()
        m = np.uint64(nodes_per_var)
        strides = [np.uint64(nodes_per_var ** (n - 1 - i)) for i in range(n)]
        out = kern.full(count, 0)
        for start in range(0, count, GRID_CHUNK):
            idx = np.arange(start, min(start + GRID_CHUNK, count), dtype=np.uint64)
            cols = [kern.array(idx // s % m) for s in strides]
            out[start : start + idx.size] = circuit._evaluate_columns(kern, cols, idx.size)
        return out


CircuitOracle = Oracle  # the earlier name, which code outside the package still uses


def evaluate_points(circuit: Circuit, points: Sequence[Sequence[Scalar]]) -> list[Scalar]:
    """The circuit's values at the points, by one pass of the column engine,
    as field scalars."""
    F = circuit.field
    kern = kernel_for(F, len(points))
    cols = [kern.array([pt[i] for pt in points]) for i in range(circuit.arity)]
    values = circuit._evaluate_columns(kern, cols, len(points)).tolist()
    return values if F.p is not None else [F.of(v) for v in values]


# ----------------------------------------------------------------------
# Dense expansion (grid interpolation)
# ----------------------------------------------------------------------


def dense_expand(oracle: Oracle) -> MultiPoly:
    """The unique polynomial of individual degree <= d agreeing with the
    oracle on the grid {0..d}^n, by per-variable interpolation.  Exact.

    Requires the (d+1)^n grid and the (d+1)^2 interpolation table within
    the enumeration guard, and a field with more than d elements.
    """
    n, d, F = oracle.arity, oracle.degree, oracle.field
    width = d + 1
    count = width ** n
    if max(count, width * width) > DENSE_EXPAND_GUARD:
        raise TooLarge(f"dense expansion grid {width}^{n} or table {width}^2 exceeds {DENSE_EXPAND_GUARD}")
    F.require_size_over(d, "dense_expand interpolation grid")

    kern = kernel_for(F, count)
    # Row t maps the values at the nodes 0..d to the coefficient of x^t.
    coeff_rows = [[kern.scalar(w) for w in row] for row in interpolation_rows(F, width)]
    arr = oracle.eval_grid(width)  # already in the layout of kern, for count points
    for axis in range(n):
        stride = width ** (n - 1 - axis)
        shaped = arr.reshape(-1, width, stride)
        out = np.zeros_like(shaped)
        for t, row in enumerate(coeff_rows):
            acc = out[:, t, :]
            for j, w in enumerate(row):
                if w != 0:
                    acc = kern.add(acc, kern.mul(w, shaped[:, j, :]))
            out[:, t, :] = acc
        arr = out.reshape(-1)
    nz = np.flatnonzero(arr)
    terms: dict[ExpVec, Scalar] = {
        tuple(pos // width ** (n - 1 - i) % width for i in range(n)): F.of(c)
        for pos, c in zip(nz.tolist(), arr[nz].tolist())
    }
    return MultiPoly(F, n, terms)


# ----------------------------------------------------------------------
# JSON serialization
# ----------------------------------------------------------------------


def serialize(circuit: Circuit) -> str:
    gates = []
    for g in circuit.gates:
        row: dict = {"id": g.id, "kind": g.kind}
        if g.kind == "input":
            row["var"] = g.var
        elif g.kind == "const":
            row["value"] = circuit.field.render(g.value)
        elif g.kind == "add":
            row["children"] = list(g.children)
            if g.weights is not None:
                row["weights"] = [circuit.field.render(w) for w in g.weights]
        elif g.kind == "mul":
            row["children"] = list(g.children)
        else:
            row["children"] = list(g.children)
            row["exp"] = g.exp
        gates.append(row)
    doc = {"field": circuit.field.spec, "arity": circuit.arity, "gates": gates, "output": circuit.output}
    return json.dumps(doc, separators=(", ", ": "))


def parse(text: str) -> Circuit:
    return load_document(text, circuit_from_document)


def circuit_from_document(doc) -> Circuit:
    if not isinstance(doc, dict):
        raise ParseError("circuit document must be a JSON object")
    field = Field.from_spec(doc["field"])
    arity = int(doc["arity"])
    raw_gates = doc["gates"]
    output = int(doc["output"])
    gates = []
    for row in raw_gates:
        try:
            kind = row["kind"]
            gid = int(row["id"])
        except KeyError as exc:
            raise ParseError(f"gate missing key {exc.args[0]!r}") from exc
        if kind not in GATE_KINDS:
            raise ParseError(f"gate {gid}: unknown kind {kind!r}")
        var = int(row["var"]) if "var" in row else None
        value = field.of(row["value"]) if "value" in row else None
        children = tuple(int(c) for c in row.get("children", ()))
        weights = tuple(field.of(w) for w in row["weights"]) if "weights" in row else None
        exp = int(row["exp"]) if "exp" in row else None
        gates.append(Gate(gid, kind, var, value, children, weights, exp))
    return Circuit(field, arity, tuple(gates), output)


def load_circuit(path: str) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def save_circuit(circuit: Circuit, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(circuit))
        fh.write("\n")
