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
batches and grids run; a batch's input block is a ``fastmod.PointBatch``.
The other readers of gates by kind share one walk, ``Circuit._fold``: the
scalar ``evaluate``, the program's brute-force twin, ``syntactic_degree``,
and ``substitute`` and ``with_field``, which replay the gates through a
:class:`CircuitBuilder`.

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
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .documents import json_list, load_document, scalar, scalar_list
from .errors import (
    ArityMismatch,
    FieldMismatch,
    ParseError,
    TooLarge,
    ValidationError,
    natural,
)
from .extraction import interpolation_rows
from .fastmod import PointBatch, SparseRows, kernel_for
from .fields import Field, Scalar, clear_denominators
from .polys import ExpVec, MultiPoly

DENSE_EXPAND_GUARD = 10_000_000

#: Grids are evaluated in chunks whose blocks hold at most this many
#: entries, so a program's live arrays stay bounded whatever the grid size.
GRID_CHUNK = 4096

#: every gate kind and the fields it takes, in the order ``serialize`` writes them
GATE_KINDS = {"input": ("var",), "const": ("value",), "add": ("children", "weights"), "mul": ("children",), "pow": ("children", "exp")}


@dataclass(frozen=True)
class Gate:
    id: int
    kind: str
    var: int | None = None
    value: Scalar | None = None
    children: tuple[int, ...] = ()
    weights: tuple[Scalar, ...] | None = None
    exp: int | None = None

    def __post_init__(self) -> None:
        if self.var is not None and type(self.var) is not int:  # an int is range-checked by the circuit
            object.__setattr__(self, "var", natural(self.var, f"gate {self.id}: var", ValidationError))
        if self.exp is not None:
            object.__setattr__(self, "exp", natural(self.exp, f"gate {self.id}: exp", ValidationError))


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
            stray = [f for f in ("var", "value", "children", "weights", "exp")
                     if getattr(g, f) not in (None, ()) and f not in GATE_KINDS[g.kind]]
            if stray:
                raise ValidationError(f"gate {g.id}: {g.kind} takes no {', '.join(stray)}")
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
                if len(g.children) != 1 or g.exp is None:
                    raise ValidationError(f"gate {g.id}: pow needs one child and an exp")
            seen.add(g.id)
        if self.output not in seen:
            raise ValidationError(f"output gate {self.output} does not exist")

    @property
    def size(self) -> int:
        """Gate count plus edge count."""
        return len(self.gates) + sum(len(g.children) for g in self.gates)

    def _fold(self, on_input, on_const, on_add, on_mul, on_pow):
        """The output's value, each gate's made in gate order by the callback
        of its kind: ``on_input(var)``, ``on_const(value)``, ``on_add`` of the
        (weight, child value) pairs, weight 1 where ``weights`` is unset,
        ``on_mul`` of the child values and ``on_pow(child value, exp)``."""
        vals: dict[int, object] = {}
        for g in self.gates:
            kids = [vals[c] for c in g.children]
            if g.kind == "input":
                v = on_input(g.var)
            elif g.kind == "const":
                v = on_const(g.value)
            elif g.kind == "add":
                v = on_add(list(zip(g.weights or itertools.repeat(1), kids)))
            elif g.kind == "mul":
                v = on_mul(kids)
            else:  # pow
                v = on_pow(kids[0], g.exp)
            vals[g.id] = v
        return vals[self.output]

    # -- evaluation ----------------------------------------------------

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        """The value at a point by field arithmetic, gate by gate: the
        brute-force twin of the program, which it never runs."""
        if len(point) != self.arity:
            raise ArityMismatch(f"point has {len(point)} coordinates, arity is {self.arity}")
        F = self.field
        # canonical field scalars, equal to what the vector path's kernel
        # entry makes of the coordinates
        point = [F.of(x) for x in point]
        return self._fold(
            point.__getitem__,
            lambda value: value,
            lambda terms: reduce(F.add, (F.mul(w, v) for w, v in terms), F.zero()),
            lambda vals: reduce(F.mul, vals, F.one()),
            F.pow,
        )

    def evaluate_many(self, points: Sequence[Sequence[Scalar]] | PointBatch, scalars: bool = True) -> list[Scalar]:
        return self.program.evaluate_many(points, scalars)

    @cached_property
    def program(self) -> "Program":
        """The circuit compiled for the engine, once, on first use (see
        :func:`compile_gates`)."""
        return compile_gates(self)

    # -- structure -----------------------------------------------------

    def syntactic_degree(self) -> int:
        """Bottom-up degree: input 1, const 0, add max, mul sum, pow child*exp."""
        return self._fold(lambda var: 1, lambda value: 0, lambda terms: max(d for _, d in terms), sum, operator.mul)

    def substitute(self, sigma: Mapping[int, MultiPoly]) -> "Circuit":
        """Replace variable i by sigma[i]; variables not in sigma map to
        themselves inside the images' variable space.

        All images must share one field (the circuit's) and one arity m;
        the result is an arity-m circuit built by splicing one sub-DAG per
        substituted variable.
        """
        for img in sigma.values():
            if img.field != self.field:
                raise FieldMismatch(f"image over {img.field.spec}, circuit over {self.field.spec}")
        arities = {img.arity for img in sigma.values()}
        if len(arities) > 1:
            raise ArityMismatch(f"images have mixed arities {sorted(arities)}")
        m = arities.pop() if arities else self.arity
        for i in range(self.arity):
            if i not in sigma and i >= m:
                raise ArityMismatch(f"variable {i} is not substituted and does not exist in arity {m}")
        builder = CircuitBuilder(self.field, m)
        var_entry = {i: builder.poly(sigma[i]) for i in sorted(sigma)}
        return self._rebuild(builder, lambda i: var_entry[i] if i in var_entry else builder.input(i))

    def with_field(self, field: Field) -> "Circuit":
        """The same polynomial over another field (constants and weights are
        coerced), replayed through a builder: consecutive ids, one input gate
        per variable, explicit ``add`` weights.  Over its own field, itself."""
        if field == self.field:
            return self
        builder = CircuitBuilder(field, self.arity)
        return self._rebuild(builder, builder.input)

    def _rebuild(self, builder: "CircuitBuilder", on_input: Callable[[int], int]) -> "Circuit":
        """The gates replayed through ``builder``, variable i as the gate ``on_input(i)``."""
        return builder.build(self._fold(on_input, builder.const, builder.add, builder.mul, builder.pow))


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
        gate = Gate(len(self.gates), "input", var=var)  # reads var before the lookup: True == 1 as a key
        if gate.var not in self._inputs:
            self._inputs[gate.var] = self._push(gate)
        return self._inputs[gate.var]

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

def weight_matrix(field: Field, rows: Sequence[Sequence[Scalar]], cols: Sequence[Sequence[int]] | None = None):
    """Field scalars as weights for ``lincomb``, in the dtype of the field's
    kernel: a dense matrix of residues or integers, or, given the column of
    every weight, the same ragged rows as :class:`SparseRows`.  Over Q, when
    a weight is not integral, the pair (integer numerators in either form,
    one denominator per row as an object column)."""
    den = None
    if field.p is None:
        rows, dens = zip(*map(clear_denominators, rows))
        if set(dens) != {1}:
            den = np.array(dens, dtype=object)[:, None]
    dtype = kernel_for(field).dtype
    W = np.array(rows, dtype=dtype) if cols is None else SparseRows(cols, rows, dtype)
    return W if den is None else (W, den)


class Program:
    """A circuit compiled for the vector kernels: steps over blocks, 2-D
    kernel arrays with one value per row and one point per column.

    Block 0 is [1; x_1; ...; x_n] and step i writes block i + 1; the last
    block's first row is the output.  A step ``(op, sources, arg)`` reads
    V, the rows ``(block, slice or index array)`` of earlier blocks one
    after the other: ``lincomb`` multiplies V by the weights ``arg`` of
    :func:`weight_matrix`, ``pow`` raises V to ``arg``, one exponent or a
    tuple of one per row, and ``mul`` multiplies the planes of V[arg], for
    ``arg`` an index array of shape (fan-in, rows).  A run on N points holds
    arrays of at most ``width`` * N entries, read, gathered or written.  The
    last uses are found once, here: a run drops each block after the step
    that reads it last.  Here too a tuple of equal exponents becomes one, and
    an index array of consecutive rows a slice, which a run reads as a view,
    not a copy; every block a run stores is read-only, as a batch's block 0
    is, so a step that wrote into its input would raise."""

    def __init__(self, field: Field, arity: int, steps: Sequence[tuple]):
        self.field, self.arity = field, arity
        rows = [arity + 1]  # per block
        self.width = arity + 1
        steps = [(op, tuple((b, _as_slice(r)) for b, r in srcs),
                  arg[0] if op == "pow" and type(arg) is tuple and len(set(arg)) == 1 else arg)  # equal exponents: one
                 for op, srcs, arg in steps]
        for op, srcs, arg in steps:
            read = sum(len(range(rows[b])[r]) if type(r) is slice else len(r) for b, r in srcs)
            W = arg[0] if type(arg) is tuple else arg  # a lincomb's weights may be (numerators, denominators)
            rows.append(len(W) if op == "lincomb" else len(arg[0]) if op == "mul" else read)
            gathered = arg.size if op == "mul" else W.cols.size if type(W) is SparseRows else 0
            self.width = max(self.width, rows[-1], read, gathered)
        last = {b: i for i, (_, srcs, _) in enumerate(steps) for b, _ in srcs}
        self.steps = tuple(
            (op, srcs, arg, tuple(b for b in {b for b, _ in srcs} if last[b] == i))
            for i, (op, srcs, arg) in enumerate(steps)
        )

    def run(self, kern, x: np.ndarray) -> np.ndarray:
        """The output's values from the block 0 ``x`` in the layout of ``kern``."""
        vals = [x]
        for op, srcs, arg, dead in self.steps:
            v = vals[srcs[0][0]][srcs[0][1]] if len(srcs) == 1 else np.concatenate([vals[b][r] for b, r in srcs])
            v = reduce(kern.mul, v[arg]) if op == "mul" else kern.lincomb(arg, v) if op == "lincomb" else kern.pow(v, arg)
            v.setflags(write=False)
            vals.append(v)
            for b in dead:
                vals[b] = None
        return vals[-1][0]

    def evaluate_many(self, points: Sequence[Sequence[Scalar]] | PointBatch, scalars: bool = True) -> list[Scalar]:
        """The values at the points, a ``fastmod.PointBatch`` or a sequence
        made into one, by one run, as field scalars, or with ``scalars=False``
        as the kernel holds them (over Q ints if integral)."""
        F = self.field
        batch = points if type(points) is PointBatch else PointBatch(F, self.arity, points)
        if batch.field != F:
            raise FieldMismatch(f"points over {batch.field.spec}, program over {F.spec}")
        if batch.arity != self.arity:
            raise ArityMismatch(f"points must have {self.arity} coordinates, got {batch.arity}")
        values = self.run(batch.kernel, batch.block).tolist()
        return values if F.p is not None or not scalars else [F.of(v) for v in values]


_ONES = (0, 0)  # the row of ones, block 0's first


def _as_slice(rows):
    """An index array of consecutive rows as the slice of them; anything else as it is."""
    if type(rows) is np.ndarray and rows.size and rows.tolist() == list(range(rows[0], rows[0] + rows.size)):
        return slice(int(rows[0]), int(rows[0]) + rows.size)
    return rows


def _sources(refs: Sequence[tuple[int, int]]) -> tuple:
    """The sources that read the rows ``refs``, (block, row) pairs grouped by block, in this order."""
    return tuple((b, np.array([r for _, r in run], dtype=np.intp)) for b, run in itertools.groupby(refs, lambda ref: ref[0]))


def compile_gates(circuit: Circuit) -> Program:
    """The program of a gate circuit: one step for each depth and kind of
    the gates the output depends on.  The ``add`` and ``const`` gates of a
    depth are one ``lincomb`` with sparse weights, its ``pow`` gates one
    ``pow`` with an exponent per row, and its ``mul`` gates of one fan-in
    one ``mul``.  An input is a row of block 0, a ``const`` child of an
    ``add`` a weight on the row of ones, and equal gates of a step share a
    row.  The output is the one gate of the greatest depth.  Grouping live
    gates by depth is no fold in gate order, so this walk is not ``Circuit._fold``."""
    F = circuit.field
    gates = {g.id: g for g in circuit.gates}
    folded = lambda g, c: g.kind == "add" and gates[c].kind == "const"
    live = {circuit.output}
    for g in reversed(circuit.gates):
        if g.id in live:
            live.update(c for c in g.children if not folded(g, c))
    depth, levels = {}, {}  # levels: (depth, op, fan-in) -> gates
    for g in circuit.gates:
        if g.id in live:
            depth[g.id] = 0 if g.kind == "input" else 1 + max((depth[c] for c in g.children if not folded(g, c)), default=0)
            if g.kind != "input":
                op = "lincomb" if g.kind in ("add", "const") else g.kind
                levels.setdefault((depth[g.id], op, len(g.children) if op == "mul" else 0), []).append(g)
    ref = {g.id: (0, g.var + 1) for g in circuit.gates if g.kind == "input"}
    steps: list[tuple] = []
    for (_, op, _), level in sorted(levels.items()):
        rows: dict[tuple, list[int]] = {}  # a row's key: its (source, exponent), factors or entries
        for g in level:
            if g.kind == "pow":
                key = (ref[g.children[0]], g.exp)
            elif g.kind == "mul":
                key = tuple(ref[c] for c in g.children)
            else:
                entries: dict[tuple[int, int], Scalar] = {}
                for w, c in [(1, g.id)] if g.kind == "const" else zip(g.weights or itertools.repeat(1), g.children):
                    w, r = (F.mul(F.of(w), F.of(gates[c].value)), _ONES) if gates[c].kind == "const" else (F.of(w), ref[c])
                    entries[r] = F.add(entries.get(r, F.zero()), w)
                key = tuple((r, w) for r, w in entries.items() if w) or ((_ONES, F.zero()),)
            rows.setdefault(key, []).append(g.id)
        keys = list(rows)
        if op == "pow":  # read in the order of the rows, ascending exponents within a block
            keys.sort(key=lambda k: (k[0][0], k[1], k[0][1]))
            srcs, arg = _sources([k[0] for k in keys]), tuple(k[1] for k in keys)
        else:
            read = sorted({r for k in keys for r in (k if op == "mul" else dict(k))})
            srcs, pos = _sources(read), {r: i for i, r in enumerate(read)}
            if op == "mul":
                arg = np.array([[pos[r] for r in k] for k in keys], dtype=np.intp).T
            else:
                arg = weight_matrix(F, [[w for _, w in k] for k in keys], [[pos[r] for r, _ in k] for k in keys])
        steps.append((op, srcs, arg))
        for i, k in enumerate(keys):
            for gid in rows[k]:
                ref[gid] = (len(steps), i)
    if ref[circuit.output][0] == 0:  # the output is an input
        steps.append(("lincomb", _sources([ref[circuit.output]]), weight_matrix(F, [[F.one()]])))
    return Program(F, circuit.arity, steps)


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------


class Oracle:
    """Blackbox view of a polynomial: a circuit plus a degree bound d.

    The circuit is a gate circuit or another circuit kind with a
    ``program``.  A point goes through the circuit's scalar ``evaluate``,
    a batch through its ``evaluate_many`` and a grid through its program.
    ``calls`` counts every evaluated point.  An explicit degree bound must
    be a natural number (a numpy integer too), else ``ValidationError``.
    """

    def __init__(self, circuit, degree: int | None = None):
        self.circuit = circuit
        self.arity = circuit.arity
        self.field = circuit.field
        self.degree = circuit.syntactic_degree() if degree is None else natural(degree, "degree bound", ValidationError)
        self.calls = 0

    @staticmethod
    def from_circuit(circuit: Circuit, degree: int | None = None) -> "Oracle":
        """The constructor under its earlier name, which the benchmark
        workloads in ``perfbench/`` still call."""
        return Oracle(circuit, degree)

    def eval_point(self, point: Sequence[Scalar]) -> Scalar:
        self.calls += 1
        return self.circuit.evaluate(point)

    def eval_many(self, points: Sequence[Sequence[Scalar]] | PointBatch) -> list[Scalar]:
        """The values at the points as the kernel holds them: over Q an
        ``int`` for every integral value."""
        self.calls += len(points)
        return self.circuit.evaluate_many(points, scalars=False)

    def eval_grid(self, nodes_per_var: int) -> np.ndarray:
        """Values on the grid {0..m-1}^n in row-major order (x1 slowest), by
        the circuit's program, in chunks that keep every block within
        ``GRID_CHUNK`` entries.  The result is the kernel array: over Q it
        holds an ``int`` for every integral value.  ``nodes_per_var`` is read
        by ``errors.natural``, else ValidationError."""
        n = self.arity
        nodes_per_var = natural(nodes_per_var, "nodes per variable", ValidationError)
        count = nodes_per_var ** n
        self.calls += count
        kern = kernel_for(self.field)
        program = self.circuit.program
        chunk = max(1, GRID_CHUNK // program.width)
        m = np.uint64(nodes_per_var)
        strides = [np.uint64(nodes_per_var ** (n - 1 - i)) for i in range(n)]
        nodes = kern.array(range(nodes_per_var))  # reduced once, then gathered
        out = kern.full(count, 0)
        for start in range(0, count, chunk):
            idx = np.arange(start, min(start + chunk, count), dtype=np.uint64)
            x = np.stack([kern.full(idx.size, 1)] + [nodes[idx // s % m] for s in strides])
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
    the enumeration guard, and a field with more than d elements.  A grid
    of zeros, still evaluated whole, is the zero polynomial uninterpolated.
    """
    n, d, F = oracle.arity, oracle.degree, oracle.field
    width = d + 1
    # width^n past the guard already at n = the guard's bit length, if width > 1
    count = width ** min(n, DENSE_EXPAND_GUARD.bit_length())
    if max(count, width * width) > DENSE_EXPAND_GUARD:
        raise TooLarge(f"dense expansion grid {width}^{n} or table {width}^2 exceeds {DENSE_EXPAND_GUARD}")
    F.require_size_over(d, "dense_expand interpolation grid")

    arr = oracle.eval_grid(width)
    if not np.any(arr):
        return MultiPoly.zero(F, n)
    kern = kernel_for(F)
    # Row t maps the values at the nodes 0..d to the coefficient of x^t;
    # over Q the rows are ints over d!, divided out once at the end.
    rows = np.array(interpolation_rows(F, width), dtype=kern.dtype)
    den = math.factorial(d) if F.p is None else 1
    step = max(1, GRID_CHUNK // width)
    for axis in range(n):
        # the axis first, then one lincomb with the rows per chunk of lines,
        # each within GRID_CHUNK entries and written back in place, so the
        # grid's old values are freed chunk by chunk
        shape = (width**axis, width, width ** (n - 1 - axis))
        flat = arr.reshape(shape).transpose(1, 0, 2).reshape(width, -1)
        del arr
        for s in range(0, flat.shape[1], step):
            flat[:, s : s + step] = kern.lincomb(rows, flat[:, s : s + step])
        arr = flat.reshape(width, shape[0], shape[2]).transpose(1, 0, 2).reshape(-1)
    nz = np.flatnonzero(arr)
    terms: dict[ExpVec, Scalar] = {
        tuple(pos // width ** (n - 1 - i) % width for i in range(n)): Fraction(c, den**n) if F.p is None else F.of(c)
        for pos, c in zip(nz.tolist(), arr[nz].tolist())
    }
    return MultiPoly(F, n, terms)


# ----------------------------------------------------------------------
# JSON serialization
# ----------------------------------------------------------------------


def circuit_to_document(circuit: Circuit) -> dict:
    """The circuit's JSON document as a dict, which :func:`serialize` writes."""
    render = circuit.field.render
    encode = {"var": int, "value": render, "children": list, "weights": lambda ws: list(map(render, ws)), "exp": int}
    gates = [
        {"id": g.id, "kind": g.kind, **{f: encode[f](getattr(g, f)) for f in GATE_KINDS[g.kind] if getattr(g, f) is not None}}
        for g in circuit.gates
    ]
    return {"field": circuit.field.spec, "arity": circuit.arity, "gates": gates, "output": circuit.output}


def serialize(circuit: Circuit) -> str:
    return json.dumps(circuit_to_document(circuit))


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
