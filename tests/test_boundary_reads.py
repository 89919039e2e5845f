"""Each argument is read once, at the boundary, checked statically and by counting.

The constructors read their own arguments: ``Gate`` and ``Circuit`` their
integers, ``Circuit`` each ``const`` value and ``add`` weight by
``Field.of``, ``DiagonalCircuit`` its terms, and ``MultiPoly.make``,
``VectorPoly.make`` and ``HsgTuple.make`` theirs by ``errors.natural``.
So the document readers that a constructor follows check the JSON shape
only, the builder and the compiler take the scalars as the circuit holds
them, and the engines call the unchecked ``polys._cone_size`` on vectors
that have been read, never the public ``cone_size``.  These tests parse the
modules with ``ast`` and name any function that reads again, and count the
calls of ``cone_size``, ``errors.integer`` and ``errors.natural`` that the
engines make and the reads of ``PsiMap.apply``, which builds its image
from terms already read.
"""

import ast
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import conepit
from conepit import DiagonalCircuit, Oracle, cone_closed_basis_after_shift, diag_pit, diagonal, errors, low_cone_pit, polys
from conepit.circuits import CircuitBuilder
from conepit.errors import ValidationError
from conepit.fields import Field
from conepit.pit import NONZERO, ZERO
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


def count_bindings(monkeypatch, originals, calls: Counter) -> None:
    """Count the calls of each function in ``originals`` by name, through
    every name it is bound to in the package, as a caller sees it."""

    def counting(f):
        def counted(*args, **kwargs):
            calls[f.__name__] += 1
            return f(*args, **kwargs)

        return counted

    wrappers = {id(f): counting(f) for f in originals}
    for name, module in list(sys.modules.items()):
        if name == "conepit" or name.startswith("conepit."):
            for key, value in list(vars(module).items()):
                if id(value) in wrappers:
                    monkeypatch.setattr(module, key, wrappers[id(value)])


def test_the_engines_call_no_checked_cone_size(monkeypatch, fresh_cache):
    calls = Counter()
    count_bindings(monkeypatch, [polys.cone_size], calls)
    fresh_cache()
    F = Field.default_prime()
    b = CircuitBuilder(F, 2)
    x1x2_plus_1 = b.build(b.add([(1, b.mul([b.input(0), b.input(1)])), (1, b.const(1))]))
    assert low_cone_pit(Oracle(x1x2_plus_1), 4).outcome == NONZERO
    assert diag_pit(DiagonalCircuit.make(F, 3, [(1, 1, (1, 2, 0), 3), (2, 0, (0, 1, 1), 2)])).outcome == NONZERO
    assert cone_closed_basis_after_shift(example_f(), (1, 2))
    assert calls == Counter()
    conepit.cone_size((1, 2))  # the count sees the public callers
    assert calls == Counter(cone_size=1)


def test_a_diagonal_circuit_built_directly_reads_its_terms():
    direct = DiagonalCircuit(Field.rationals(), np.int64(1), [("1/2", 1, [1], np.int64(2))])
    assert direct == DiagonalCircuit.make(Field.rationals(), 1, [(Fraction(1, 2), 1, (1,), 2)])
    assert direct.evaluate([2]) == direct.evaluate_many([[2]])[0] == Fraction(9, 2)
    for arity, term in ((2, (1, 0, (1,), 2)), (1, (1, 0, (1,), 1.5)), (1, (1, 0, (1,), -1)), (1.0, (1, 0, (1,), 2))):
        with pytest.raises(ValidationError):
            DiagonalCircuit(Field.rationals(), arity, [term])


def test_the_psi_image_reads_no_term_again(monkeypatch):
    F = Field.default_prime()
    D = DiagonalCircuit.make(F, 3, [(2, 1, (1, 0, 4), 2), (5, 0, (0, 1, 3), 1), (4, 1, (1, 0, 4), 2), (F.neg(5), 0, (0, 1, 3), 1)])
    psi = diagonal.build_psi(D)
    calls = Counter()
    count_bindings(monkeypatch, [errors.natural, errors.integer], calls)
    monkeypatch.setattr(Field, "of", lambda self, x, _of=Field.of: calls.update(["of"]) or _of(self, x))
    built = []
    monkeypatch.setattr(diagonal, "DiagonalTerm", lambda *row, _term=diagonal.DiagonalTerm: built.append(row) or _term(*row))
    image = psi.apply(D)
    assert image.terms == ((6, 1, (1, 0), 2),)
    # one term built per collected term, not per input term, and nothing read
    assert (len(built), calls) == (1, Counter())


def test_the_low_cone_walk_reads_no_integer_per_monomial(monkeypatch, fresh_cache):
    # one circuit at k = 4 and k = 32: degree 3 keeps the layers walked the
    # same, while k = 32 tests more monomials in each
    F = Field.default_prime()
    pairs = [(c, 1, form, 3) for form in ((1, 2, 3), (0, 1, 5), (4, 0, 1)) for c in (2, F.neg(2))]
    zero = DiagonalCircuit.make(F, 3, pairs)
    deep = DiagonalCircuit.make(F, 3, pairs + [(3, 0, (1, 5, 0), 3)])
    counts = {}
    for k in (4, 32):
        calls = Counter()
        with monkeypatch.context() as m:
            count_bindings(m, [errors.natural, errors.integer], calls)
            m.setattr(diagonal, "pd_dim_bound", lambda circuit: k)
            fresh_cache()
            verdicts = [low_cone_pit(zero.as_oracle(), k), diag_pit(zero), low_cone_pit(deep.as_oracle(), k), diag_pit(deep)]
        assert [v.outcome for v in verdicts] == [ZERO, ZERO, NONZERO, NONZERO]
        counts[k] = calls, [v.monomials_tested for v in verdicts]
    assert counts[4][0] == counts[32][0]
    assert all(a < b for a, b in zip(counts[4][1], counts[32][1]))
