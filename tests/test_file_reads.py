"""Where the package opens files, checked statically.

The library takes documents as text; the CLI alone reads files, all through
``cli._read``.  A call to ``open`` (or to an ``open`` attribute, as in
``io.open``) anywhere else in ``src/conepit`` would give it a second file
reader; this test parses every module with ``ast`` and names it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "conepit"


def _opens(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return isinstance(f, ast.Name) and f.id == "open" or isinstance(f, ast.Attribute) and f.attr == "open"


def test_only_cli_read_opens_files():
    outside, in_read = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = set()
        if path.name == "cli.py":
            (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_read"]
            read = {id(n) for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if _opens(node):
                (in_read if id(node) in read else outside).append((path.name, node.lineno))
    assert not outside, f"a file opened outside cli._read at {', '.join(f'{f}:{n}' for f, n in sorted(outside))}"
    assert len(in_read) == 1, f"cli._read should open a file in one place, found {in_read}"
