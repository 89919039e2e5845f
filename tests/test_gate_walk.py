"""Where ``Circuit`` branches on a gate's kind, checked statically.

``Circuit._fold`` is the one walk of the gates by kind: the scalar
``evaluate``, ``syntactic_degree``, ``substitute`` and ``with_field`` all
go through it, and ``__post_init__`` validates each kind's fields.  This
test parses ``circuits.py`` with ``ast`` and names any other method of
``Circuit`` that reads ``.kind``, which would be a second walk to keep in
step with the first.
"""

import ast
from pathlib import Path

CIRCUITS = Path(__file__).resolve().parents[1] / "src" / "conepit" / "circuits.py"


def test_only_the_fold_and_validation_read_a_gates_kind():
    tree = ast.parse(CIRCUITS.read_text(encoding="utf-8"), filename=str(CIRCUITS))
    (circuit,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Circuit"]
    readers = {
        method.name
        for method in circuit.body
        if isinstance(method, ast.FunctionDef)
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute) and node.attr == "kind"
    }
    assert readers <= {"__post_init__", "_fold"}, f"Circuit methods that branch on a gate's kind: {sorted(readers - {'__post_init__', '_fold'})}"
    assert "_fold" in readers, "Circuit._fold no longer reads a gate's kind"
