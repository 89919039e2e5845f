"""Where the package writes to stdout, checked statically.

The CLI's commands return their results, and ``cli.run`` alone writes one:
JSON under ``--json``, else the text.  A ``print`` to stdout, or a use of
``sys.stdout``, anywhere else in ``src/conepit`` would give a command a
second way out; this test parses every module with ``ast`` and names it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "conepit"


def _writes_stdout(node) -> bool:
    """A ``print`` with no ``file=`` or with ``file=sys.stdout``, or any
    ``sys.stdout`` attribute."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
        target = next((k.value for k in node.keywords if k.arg == "file"), None)
        return target is None or ast.unparse(target) == "sys.stdout"
    return isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stdout"


def test_only_cli_run_writes_to_stdout():
    outside, in_run = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        run = set()
        if path.name == "cli.py":
            (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "run"]
            run = {id(n) for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if _writes_stdout(node):
                (in_run if id(node) in run else outside).append((path.name, node.lineno))
    assert not outside, f"stdout written outside cli.run at {', '.join(f'{f}:{n}' for f, n in sorted(outside))}"
    assert len(in_run) == 1, f"cli.run should write stdout in one place, found {in_run}"
