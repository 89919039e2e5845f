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

There is one vector evaluator: every circuit kind compiles itself, once,
on first use, into a :class:`Program` of array steps (``lincomb``, ``mul``
and ``pow`` kernel calls on blocks of rows, one point per column), which
batches and grids run.  ``Circuit.evaluate`` walks the gates one scalar at
a time and is the program's brute-force twin.

:class:`Oracle` is the evaluation-only view of a polynomial: a circuit and a
degree bound, which testers may only evaluate, pointwise, in batches or on
a grid.  :func:`dense_expand` recovers the full sparse polynomial of an
oracle by grid interpolation, one ``lincomb`` with the interpolation rows
per variable; it is the brute-force ground truth the rest of the package is
tested against.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .documents import json_list, load_document, natural, scalar, scalar_list
from .errors import (
    ArityMismatch,
    FieldMismatch,
    ParseError,
    TooLarge,
    ValidationError,
)
from .extraction import interpolation_rows
from .fastmod import kernel_for
from .fields import Field, Scalar, clear_denominators
from .polys import ExpVec, MultiPoly

DENSE_EXPAND_GUARD = 10_000_000

#: Grids are evaluated in chunks whose blocks hold at most this many
#: entries, so a program's live arrays stay bounded whatever the grid size.
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

    def evaluate_many(self, points: Sequence[Sequence[Scalar]], scalars: bool = True) -> list[Scalar]:
        return self.program.evaluate_many(points, scalars)

    @cached_property
    def program(self) -> "Program":
        """The circuit compiled for the engine, once, on first use (see
        :func:`compile_gates`)."""
        return compile_gates(self)

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
# The engine: compiled programs
# ----------------------------------------------------------------------

def weight_matrix(field: Field, rows: Sequence[Sequence[Scalar]]) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Field scalars as a weight matrix for ``lincomb``: an object array of
    residues or integers, or over Q, when a weight is not integral, the pair
    (numerators, denominators), one denominator per row in an object column."""
    if field.p is None:
        rows, dens = zip(*map(clear_denominators, rows))
        if set(dens) != {1}:
            return np.array(rows, dtype=object), np.array(dens, dtype=object)[:, None]
    return np.array(rows, dtype=object)


class Program:
    """A circuit compiled for the vector kernels: steps over blocks, 2-D
    kernel arrays with one value per row and one point per column.

    Block 0 is [1; x_1; ...; x_n] and step i writes block i + 1; the last
    block's first row is the output.  A step ``(op, sources, arg)`` reads
    rows ``(block, slice)`` of earlier blocks: ``lincomb`` multiplies them
    by the weights ``arg`` of :func:`weight_matrix`, ``mul`` multiplies them
    together and ``pow`` raises them to ``arg``, one exponent or a tuple of
    one per row.  The last uses are found once, here: a run drops each block
    after the step that reads it last."""

    def __init__(self, field: Field, arity: int, steps: Sequence[tuple]):
        self.field, self.arity = field, arity
        rows = [arity + 1]  # per block
        self.width = arity + 1  # a run on N points holds arrays of up to width * N entries
        for op, srcs, arg in steps:
            read = [len(range(rows[b])[r]) for b, r in srcs]
            W = arg[0] if type(arg) is tuple else arg  # a lincomb's weights may be (numerators, denominators)
            rows.append(len(W) if op == "lincomb" else read[0] if op == "mul" else sum(read))
            self.width = max(self.width, rows[-1], sum(read))
        last = {b: i for i, (_, srcs, _) in enumerate(steps) for b, _ in srcs}
        self.steps = tuple(
            (op, srcs, arg, tuple(b for b in {b for b, _ in srcs} if last[b] == i))
            for i, (op, srcs, arg) in enumerate(steps)
        )

    def run(self, kern, x: np.ndarray) -> np.ndarray:
        """The output's values from the block 0 ``x`` in the layout of ``kern``."""
        vals = [x]
        for op, srcs, arg, dead in self.steps:
            if op == "mul":
                (b, r), *rest = srcs
                v = vals[b][r]
                for b, r in rest:
                    v = kern.mul(v, vals[b][r])
            else:
                v = vals[srcs[0][0]][srcs[0][1]] if len(srcs) == 1 else np.concatenate([vals[b][r] for b, r in srcs])
                v = kern.lincomb(arg, v) if op == "lincomb" else kern.pow(v, arg)
            vals.append(v)
            for b in dead:
                vals[b] = None
        return vals[-1][0]

    def evaluate_many(self, points: Sequence[Sequence[Scalar]], scalars: bool = True) -> list[Scalar]:
        """The values at the points, by one run, as field scalars, or with
        ``scalars=False`` as the kernel holds them (over Q ints if integral)."""
        F, n, count = self.field, self.arity, len(points)
        if any(len(pt) != n for pt in points):
            raise ArityMismatch(f"points must have {n} coordinates")
        kern = kernel_for(F, count)
        coords = kern.array([v for pt in points for v in pt]).reshape(count, n).T
        values = self.run(kern, np.concatenate([kern.full(count, 1)[None], coords])).tolist()
        return values if F.p is not None or not scalars else [F.of(v) for v in values]


def compile_gates(circuit: Circuit) -> Program:
    """The program of a gate circuit: one step for each gate the output
    depends on, in gate order, except inputs, which are rows of block 0."""
    F = circuit.field
    live = {circuit.output}
    for g in reversed(circuit.gates):
        if g.id in live:
            live.update(g.children)
    ref: dict[int, tuple[int, slice]] = {}
    steps: list[tuple] = []
    for g in circuit.gates:
        if g.id not in live:
            continue
        if g.kind == "input":
            ref[g.id] = (0, slice(g.var + 1, g.var + 2))
            continue
        if g.kind == "const":
            steps.append(("lincomb", ((0, slice(0, 1)),), weight_matrix(F, [[F.of(g.value)]])))
        elif g.kind == "add":
            weights: dict[int, Scalar] = {}
            for w, c in zip(g.weights or itertools.repeat(F.one()), g.children):
                weights[c] = F.add(weights.get(c, F.zero()), F.of(w))
            steps.append(("lincomb", tuple(ref[c] for c in weights), weight_matrix(F, [list(weights.values())])))
        else:
            steps.append((g.kind, tuple(ref[c] for c in g.children), g.exp))
        ref[g.id] = (len(steps), slice(0, 1))
    if ref[circuit.output][0] == 0:  # the output is an input
        steps.append(("lincomb", (ref[circuit.output],), weight_matrix(F, [[F.one()]])))
    return Program(F, circuit.arity, steps)


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------


class Oracle:
    """Blackbox view of a polynomial: a circuit plus a degree bound d.

    The circuit is a gate circuit or another circuit kind with a
    ``program``.  A point goes through the circuit's scalar ``evaluate``,
    a batch through its ``evaluate_many`` and a grid through its program.
    ``calls`` counts every evaluated point.
    """

    def __init__(self, circuit, degree: int | None = None):
        self.circuit = circuit
        self.arity = circuit.arity
        self.field = circuit.field
        self.degree = circuit.syntactic_degree() if degree is None else degree
        self.calls = 0

    @staticmethod
    def from_circuit(circuit: Circuit, degree: int | None = None) -> "Oracle":
        """The constructor under its earlier name, which the benchmark
        workloads in ``perfbench/`` still call."""
        return Oracle(circuit, degree)

    def eval_point(self, point: Sequence[Scalar]) -> Scalar:
        self.calls += 1
        return self.circuit.evaluate(point)

    def eval_many(self, points: Sequence[Sequence[Scalar]]) -> list[Scalar]:
        """The values at the points as the kernel holds them: over Q an
        ``int`` for every integral value."""
        self.calls += len(points)
        return self.circuit.evaluate_many(points, scalars=False)

    def eval_grid(self, nodes_per_var: int) -> np.ndarray:
        """Values on the grid {0..m-1}^n in row-major order (x1 slowest), by
        the circuit's program, in chunks that keep every block within
        ``GRID_CHUNK`` entries, every chunk in the whole grid's kernel
        layout.  The result is the kernel array: over Q it holds an ``int``
        for every integral value."""
        n = self.arity
        count = nodes_per_var ** n
        self.calls += count
        kern = kernel_for(self.field, count)
        program = self.circuit.program
        chunk = max(1, GRID_CHUNK // program.width)
        m = np.uint64(nodes_per_var)
        strides = [np.uint64(nodes_per_var ** (n - 1 - i)) for i in range(n)]
        out = kern.full(count, 0)
        for start in range(0, count, chunk):
            idx = np.arange(start, min(start + chunk, count), dtype=np.uint64)
            x = np.stack([kern.full(idx.size, 1)] + [kern.array(idx // s % m) for s in strides])
            out[start : start + idx.size] = program.run(kern, x)
        return out


CircuitOracle = Oracle  # the earlier name, which code outside the package still uses


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
    # Row t maps the values at the nodes 0..d to the coefficient of x^t;
    # over Q the rows are ints over d!, divided out once at the end.
    rows = np.array(interpolation_rows(F, width, integral=F.p is None), dtype=object)
    den = math.factorial(d) if F.p is None else 1
    arr = oracle.eval_grid(width)  # already in the layout of kern, for count points
    for axis in range(n):
        # the axis first, then one lincomb with the rows per chunk of lines,
        # each within GRID_CHUNK entries
        lines = arr.reshape(-1, width, width ** (n - 1 - axis)).transpose(1, 0, 2)
        flat = lines.reshape(width, -1)
        out = np.empty_like(flat)
        step = max(1, GRID_CHUNK // width)
        for s in range(0, flat.shape[1], step):
            out[:, s : s + step] = kern.lincomb(rows, flat[:, s : s + step])
        arr = out.reshape(lines.shape).transpose(1, 0, 2).reshape(-1)
    nz = np.flatnonzero(arr)
    terms: dict[ExpVec, Scalar] = {
        tuple(pos // width ** (n - 1 - i) % width for i in range(n)): Fraction(c, den**n) if F.p is None else F.of(c)
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
    arity = natural(doc["arity"], "arity")
    output = natural(doc["output"], "output")
    gates = []
    for row in json_list(doc["gates"], "gates"):
        try:
            kind = row["kind"]
            gid = natural(row["id"], "gate id")
        except KeyError as exc:
            raise ParseError(f"gate missing key {exc.args[0]!r}") from exc
        if kind not in GATE_KINDS:
            raise ParseError(f"gate {gid}: unknown kind {kind!r}")
        var = natural(row["var"], "var") if "var" in row else None
        value = field.of(scalar(row["value"], "value")) if "value" in row else None
        children = tuple(natural(c, "child id") for c in json_list(row.get("children", []), "children"))
        weights = tuple(map(field.of, scalar_list(row["weights"], "weights"))) if "weights" in row else None
        exp = natural(row["exp"], "exp") if "exp" in row else None
        gates.append(Gate(gid, kind, var, value, children, weights, exp))
    return Circuit(field, arity, tuple(gates), output)


def load_circuit(path: str) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def save_circuit(circuit: Circuit, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(circuit))
        fh.write("\n")
