"""Span tracing around the public functions of each ``conepit`` module.

The program has no instrumentation of its own, so the tracer wraps
functions and methods from outside.  A function that other modules import
by name (``extract_coefficient`` style) is replaced in every ``conepit``
module namespace that holds it; a method is replaced on its class.

Every wrapped call records one span: name, start, end, parent span, trace id
(one per op, -1 for set-up) and an amount of work (points, elements,
monomials, ... as the target defines it).  Spans live in flat arrays in
memory and are written out once, when the run ends.  Per-layer metrics are
computed from the spans alone: ``<name>.s`` is self time (span time minus
the time its child spans cover), counts are sums of amounts or span counts.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

from conepit import circuits, conebasis, diagonal, documents, extraction, fastmod, fields, hsg, linalg, pit, polys


def _points(args, out):
    return len(args[1])


def _elems(args, out):
    return out.size


def _grid(args, out):
    return args[1] ** args[0].arity


#: (span name, owner, attribute, amount of work or None)
TARGETS = [
    ("circuits.parse", circuits, "parse", None),
    ("diagonal.from_json", diagonal, "diagonal_from_json", None),
    ("hsg.from_json", hsg, "hsg_from_json", None),
    ("documents.vectorpoly_from_json", documents, "vectorpoly_from_json", None),
    ("diagonal.diag_pit", diagonal, "diag_pit", None),
    ("pit.low_cone_pit", pit, "low_cone_pit", lambda a, out: out.monomials_tested),
    ("pit.brute_force_pit", pit, "brute_force_pit", None),
    ("polys.enumerate_low_cone", polys, "enumerate_low_cone", lambda a, out: len(out)),
    ("extraction.coefficient", extraction.FilteredOracle, "coefficient", None),
    ("extraction.vandermonde_row", extraction, "vandermonde_row", None),
    ("diagonal.evaluate_many", diagonal.DiagonalCircuit, "evaluate_many", _points),
    ("circuits.evaluate_many", circuits.Circuit, "evaluate_many", _points),
    ("circuits.evaluate", circuits.Circuit, "evaluate", None),
    ("circuits.eval_grid", circuits.CircuitOracle, "eval_grid", _grid),
    ("circuits.dense_expand", circuits, "dense_expand", None),
    ("fastmod.m61.mul", fastmod.Mersenne61Kernel, "mul", _elems),
    ("fastmod.m61.add", fastmod.Mersenne61Kernel, "add", _elems),
    ("fastmod.m61.pow", fastmod.Mersenne61Kernel, "pow", _elems),
    ("fastmod.small.mul", fastmod.SmallPrimeKernel, "mul", _elems),
    ("fastmod.small.add", fastmod.SmallPrimeKernel, "add", _elems),
    ("fastmod.small.pow", fastmod.SmallPrimeKernel, "pow", _elems),
    ("hsg.build_annihilator", hsg, "build_annihilator", None),
    ("fields.DensePoly.mul", fields.DensePoly, "mul", None),
    ("linalg.integer_nullspace_canonical", linalg, "integer_nullspace_canonical", None),
    ("linalg.bareiss_echelon", linalg, "bareiss_echelon", None),
    ("linalg.nullspace_canonical", linalg, "nullspace_canonical", None),
    ("conebasis.is_basis_isolating", conebasis, "is_basis_isolating", None),
    ("conebasis.find_cone_closed", conebasis, "find_cone_closed", None),
    ("conebasis.shift_by_weight", conebasis, "shift_by_weight", None),
    ("fields.rank_over_ft", fields, "rank_over_ft", None),
    ("linalg.RowReducer.insert", linalg.RowReducer, "insert", None),
]

_EVALUATORS = ("diagonal.evaluate_many", "circuits.evaluate_many")


class Tracer:
    """Records spans while installed; ``install`` and ``uninstall`` patch
    and restore the targets."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("h")
        self.parent = array("l")
        self.trace = array("l")
        self.amount = array("q")
        self.trace_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # distinct base-oracle points requested by the extractions of the
        # current op, and the running total over finished ops
        self._op_points: set = set()
        self.points_distinct = 0
        self._coefficient_id = self.names.index("extraction.coefficient")

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "conepit" or name.startswith("conepit.")]
        for nid, (name, owner, attr, amount) in enumerate(TARGETS):
            orig = getattr(owner, attr)
            wrapper = self._wrap(nid, orig, amount)
            if isinstance(owner, type):
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._saved.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _wrap(self, nid: int, fn, amount):
        stack = self._stack
        start, end, name_id, parent, trace, amounts = (
            self.start, self.end, self.name_id, self.parent, self.trace, self.amount,
        )
        is_coefficient = nid == self._coefficient_id
        is_evaluator = self.names[nid] in _EVALUATORS

        def wrapper(*args, **kwargs):
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            trace.append(self.trace_id)
            amounts.append(0)
            if is_evaluator and stack and name_id[stack[-1]] == self._coefficient_id:
                self._op_points.update(map(tuple, args[1]))
            calls_before = args[0].base.calls if is_coefficient else 0
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            start[idx] = t0
            end[idx] = t1
            if is_coefficient:
                amounts[idx] = args[0].base.calls - calls_before
            elif amount is not None:
                amounts[idx] = amount(args, out)
            return out

        return wrapper

    # -- ops -----------------------------------------------------------

    def begin_op(self, trace_id: int) -> None:
        self.trace_id = trace_id
        self._op_points.clear()

    def end_op(self) -> None:
        self.points_distinct += len(self._op_points)
        self._op_points.clear()
        self.trace_id = -1

    # -- results -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name_id": np.frombuffer(self.name_id, dtype=np.int16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "trace": np.frombuffer(self.trace, dtype=np.int64),
            "amount": np.frombuffer(self.amount, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, time_scale: float) -> dict[str, float]:
        """Self seconds, call counts and work amounts per span name; span
        times are multiplied by ``time_scale`` (wall to reference seconds)."""
        a = self.arrays()
        k = len(self.names)
        dur = (a["end"] - a["start"]) * time_scale
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_s = np.bincount(a["name_id"], weights=dur - child, minlength=k)
        total_s = np.bincount(a["name_id"], weights=dur, minlength=k)
        calls = np.bincount(a["name_id"], minlength=k)
        work = np.bincount(a["name_id"], weights=a["amount"], minlength=k)
        by = {name: (float(self_s[i]), float(total_s[i]), int(calls[i]), int(work[i])) for i, name in enumerate(self.names)}

        m: dict[str, float] = {}
        for name in self.names:
            if not name.startswith("fastmod."):
                m[name + ".s"] = by[name][0]
        m["polys.enumerate_low_cone.monomials"] = by["polys.enumerate_low_cone"][3]
        requested = by["extraction.coefficient"][3]
        m["extraction.points_requested"] = requested
        m["extraction.points_distinct"] = self.points_distinct
        m["extraction.distinct_ratio"] = self.points_distinct / requested if requested else 0.0
        for name in ("diagonal.evaluate_many", "circuits.evaluate_many", "circuits.eval_grid"):
            m[name + ".points"] = by[name][3]
        m["circuits.evaluate.calls"] = by["circuits.evaluate"][2]
        m["pit.low_cone_pit.tested"] = by["pit.low_cone_pit"][3]
        m["fields.DensePoly.mul.calls"] = by["fields.DensePoly.mul"][2]
        m["linalg.RowReducer.insert.calls"] = by["linalg.RowReducer.insert"][2]
        # kernel cost is per element of inclusive time: pow's squarings
        # are its own work even though they run through mul
        for kern in ("m61", "small"):
            for op in ("mul", "add", "pow"):
                _, total, _, elems = by[f"fastmod.{kern}.{op}"]
                m[f"fastmod.{kern}.{op}.elems"] = elems
                m[f"fastmod.{kern}.{op}.ns_per_elem"] = total / elems * 1e9 if elems else 0.0
        return m
