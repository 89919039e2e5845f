"""The benchmark's traced names, checked in process.

``perfbench/tracing.py`` wraps the functions and methods its ``TARGETS``
list names, by owner and attribute.  A refactor that drops or renames one
would otherwise fail only inside the smoke test's benchmark subprocesses;
here it fails at once, naming the missing target.  The tracer module is
loaded from its file and nothing of it is installed.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_names_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{name} ({getattr(owner, '__name__', owner)}.{attr})"
        for name, owner, attr, _ in tracing.TARGETS
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, f"traced targets with no callable attribute: {', '.join(missing)}"
