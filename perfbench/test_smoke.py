"""Smoke-size run of every workload, untraced and traced, on the reference
seed (so the pinned output hashes are checked too).

    python3 -m pytest perfbench/test_smoke.py     # from the checkout root

Checks that every metric BENCHMARK.json names is emitted, that no op fails,
that the traced pass renders the same outputs as the untraced runs, and that
the per-layer metrics follow interactions.json: zero on every workload that
bypasses a layer, nonzero work on every workload it is meant to move.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "interactions.json").read_text())["layers"]
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
REFERENCE_SEED = 1


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(REFERENCE_SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    return {w: (bench(w, 0), bench(w, 1)) for w in WORKLOADS}


def test_map_covers_every_layer_metric():
    mapped = [m for layer in LAYERS for m in layer["metrics"]]
    assert len(mapped) == len(set(mapped))
    named = {m["name"] for m in BENCH["per_layer"]}
    assert set(mapped) | {"trace.overhead_s"} == named
    for layer in LAYERS:
        assert set(layer["moves"]) | set(layer["bypass"]) <= set(WORKLOADS)
        assert not set(layer["moves"]) & set(layer["bypass"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run(runs, workload):
    report, result = runs[workload][0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["failed_ratio"] == 0, report["errors"]
    for m in BENCH["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(runs, workload):
    plain, _ = runs[workload][0]
    report, result = runs[workload][1]
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert result["correct"] and result["failed"] == 0, report["errors"]
    assert report["traced_digest"] == report["digest"] == plain["digest"]
    assert report["queries_per_pass"] == plain["queries_per_pass"] == result["metrics"]["queries"]["value"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for layer in LAYERS:
        if workload in layer["bypass"]:
            assert all(metrics[m] == 0 for m in layer["metrics"]), layer["metrics"]
        if workload in layer["moves"]:
            assert metrics[layer["metrics"][0]] > 0, layer["metrics"][0]
