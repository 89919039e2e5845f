"""Each argument is read once, at the boundary, checked statically and by counting.

The constructors read their own arguments: ``Gate`` and ``Circuit`` their
integers, ``Circuit`` each ``const`` value and ``add`` weight by
``Field.of``, and ``MultiPoly.make``, ``VectorPoly.make``,
``DiagonalCircuit.make`` and ``HsgTuple.make`` theirs by ``errors.natural``.
So the document readers that a constructor follows check the JSON shape
only, the builder and the compiler take the scalars as the circuit holds
them, and the engines call the unchecked ``polys._cone_size`` on vectors
that have been read, never the public ``cone_size``.  These tests parse the
modules with ``ast`` and name any function that reads again, and count the
calls of ``cone_size`` that the engines make.
"""

import ast
import sys
from pathlib import Path

import pytest

import conepit
from conepit import DiagonalCircuit, Oracle, cone_closed_basis_after_shift, diag_pit, low_cone_pit, polys
from conepit.circuits import CircuitBuilder
from conepit.fields import Field
from conepit.pit import NONZERO
from test_conebasis import example_f

SRC = Path(__file__).resolve().parents[1] / "src" / "conepit"


def definitions(module: str) -> dict[str, ast.AST]:
    """The module's top-level functions and classes, and its methods as
    ``Class.method``, by name."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        if isinstance(node, ast.ClassDef):
            out.update((f"{node.name}.{m.name}", m) for m in node.body if isinstance(m, ast.FunctionDef))
    return out


def reads_of(node: ast.AST) -> bool:
    """Does the code refer to a ``.of`` attribute, a call or a ``map(F.of, ...)``?"""
    return any(isinstance(n, ast.Attribute) and n.attr == "of" for n in ast.walk(node))


def calls_natural(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "natural" for n in ast.walk(node))


def test_field_of_is_called_only_where_values_enter_or_leave_a_circuit():
    defs = definitions("circuits")
    for name in ("compile_gates", "CircuitBuilder", "circuit_from_document"):
        assert not reads_of(defs[name]), f"{name} makes a scalar canonical that Circuit reads already"
    functions = {name for name, node in defs.items() if isinstance(node, ast.FunctionDef) and reads_of(node)}
    assert functions == {"Circuit.__post_init__", "Circuit.evaluate", "Program.evaluate_many", "dense_expand"}


# the readers that hand their values to a constructor, which reads them
READERS = [
    ("circuits", "circuit_from_document"),
    ("diagonal", "diagonal_from_json"),
    ("hsg", "hsg_from_json"),
    ("documents", "multipoly_from_json"),
    ("documents", "_poly_from_parts"),
    ("documents", "vectorpoly_from_json"),
]


@pytest.mark.parametrize("module, reader", READERS, ids=lambda x: x)
def test_a_reader_that_a_constructor_follows_reads_no_natural(module, reader):
    assert not calls_natural(definitions(module)[reader]), f"{module}.{reader} reads a natural that its constructor reads again"


def test_a_reader_with_no_constructor_after_it_reads_its_own_naturals():
    assert calls_natural(definitions("documents")["monomial_set_from_json"])


def test_the_engines_call_no_checked_cone_size(monkeypatch, fresh_cache):
    calls = []
    original = polys.cone_size

    def counted(e):
        calls.append(e)
        return original(e)

    # every name the function is bound to in the package, as a caller sees it
    for name, module in list(sys.modules.items()):
        if name == "conepit" or name.startswith("conepit."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    fresh_cache()
    F = Field.default_prime()
    b = CircuitBuilder(F, 2)
    x1x2_plus_1 = b.build(b.add([(1, b.mul([b.input(0), b.input(1)])), (1, b.const(1))]))
    assert low_cone_pit(Oracle(x1x2_plus_1), 4).outcome == NONZERO
    assert diag_pit(DiagonalCircuit.make(F, 3, [(1, 1, (1, 2, 0), 3), (2, 0, (0, 1, 1), 2)])).outcome == NONZERO
    assert cone_closed_basis_after_shift(example_f(), (1, 2))
    assert calls == []
    conepit.cone_size((1, 2))  # the count sees the public callers
    assert calls == [(1, 2)]
