"""Rewrite pinned.json: the hash of every instance's rendered output on the
reference seed, for each workload.

    python3 perfbench/pin.py

Run from the root of a checkout.  Outputs are checked by the workloads'
correctness gates first; nothing is pinned if any instance fails.  Re-pin
only when a change is meant to alter outputs, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import random
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads

    pinned = {}
    for name, (w, full, _) in workloads.WORKLOADS.items():
        docs = w.generate(random.Random(run.REFERENCE_SEED), full)
        insts, _ = run.setup(w, docs)
        p = run.warm_pass(w, docs, insts, None)
        if p.bad:
            print(f"{name}: {p.errors}", file=sys.stderr)
            return 1
        pinned[name] = [run.short_hash(text) for _, text in p.first]
        print(f"{name}: {len(pinned[name])} instances, digest {p.digest()}")
    lines = ",\n".join(f"  {json.dumps(name)}: {json.dumps(hashes)}" for name, hashes in pinned.items())
    (run.HERE / "pinned.json").write_text("{\n" + lines + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
