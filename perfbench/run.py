"""conepit benchmark: one closed-loop client, one thread, one workload.

    python3 perfbench/run.py --workload diag-pit --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Instances are generated from ``--seed`` before anything is timed,
then:

* set-up (import ``conepit`` in a fresh interpreter with numpy loaded,
  parse every instance document with the program's parsers, build the
  oracles) runs ``SETUP_REPEATS`` times and ``setup_s`` is the median;
* an untimed warm-up pass records each instance's first output and checks
  it (the correctness gate, outside any timed region);
* with ``--trace 0`` whole passes over the instances, in order, run until
  ``--seconds`` have elapsed; each op is timed on its own and the
  end-to-end metrics are printed;
* with ``--trace 1`` one untraced pass and one traced pass run over the
  same instances, and the per-layer metrics of the traced pass are printed
  together with the tracing overhead (traced minus untraced pass time).

Times are reference seconds (see ``hostclock.py``): wall time corrected by
a calibration kernel timed between ops.

Every op after the first of an instance must render identically.  On
``REFERENCE_SEED`` the renderings must also match the hashes pinned in
``pinned.json``.  An instance that raises, fails its check or changes its
rendering is bad, and every op on it counts as failed.

The last line of stdout is the result object; the line before it is a
report with the environment, sample counts, failures, queries and output
digest.  ``--smoke`` runs a short prefix of each workload's instances.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostclock import REFERENCE_S, HostClock

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_REPEATS = 7
REFERENCE_SEED = 1

# numpy is loaded before the clock starts: its import is mostly file
# loading, which the calibration kernel does not track, and no change to
# conepit can make it cheaper.  The child may run on the other core, so it
# calibrates itself, just before and just after the import.
_IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import hostclock; "
    "c = hostclock.calibrate(); t = time.perf_counter(); import conepit; "
    "t = time.perf_counter() - t; print(t, (c + hostclock.calibrate()) / 2)"
)


def import_seconds() -> tuple[float, float]:
    """Wall time of ``import conepit`` in a fresh interpreter that has
    numpy loaded, and the same in reference seconds."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    wall, cal = (float(x) for x in out.stdout.split())
    return wall, wall * REFERENCE_S / cal


def setup(workload, docs):
    """Parse every document and build its oracle; returns (instances, seconds)."""
    t0 = time.perf_counter()
    insts = [workload.load(doc) for doc, _ in docs]
    return insts, time.perf_counter() - t0


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = got.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "conepit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "commit": commit,
        "source_sha256": src.hexdigest(),
    }


def short_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Outcomes:
    """What the ops of a run produced: the first output of each instance,
    later renderings compared against it, and the bad instances with the
    reason each went bad."""

    def __init__(self, workload, docs, insts, pins):
        self.w = workload
        self.docs = docs
        self.insts = insts
        self.pins = pins
        self.first: list = [None] * len(docs)
        self.bad: set[int] = set()
        self.errors: list[str] = []

    def run_op(self, i: int, tracer=None):
        """One timed op on instance i; returns its latency in seconds."""
        inst = self.insts[i]
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            out = self.w.op(inst)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out = exc
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_op()
        text = f"error: {type(out).__name__}: {out}" if isinstance(out, Exception) else self.w.render(out)
        if self.first[i] is None:
            self.first[i] = (out, text)
        elif text != self.first[i][1]:
            self.mark_bad(i, "output changed between ops")
        return t1 - t0

    def mark_bad(self, i: int, reason: str) -> None:
        if i not in self.bad:
            self.bad.add(i)
            self.errors.append(f"instance {i}: {reason}")

    def check(self) -> None:
        """Correctness gate on each instance's first output, outside timing."""
        for i, (out, text) in enumerate(self.first):
            if isinstance(out, Exception):
                reason = text
            else:
                reason = self.w.check(self.docs[i][1], self.insts[i], out)
            if reason is None and self.pins is not None and self.pins[i] != short_hash(text):
                reason = "rendering differs from the pinned reference"
            if reason is not None:
                self.mark_bad(i, reason)

    def digest(self) -> str:
        h = hashlib.sha256()
        for _, text in self.first:
            h.update(text.encode() + b"\n")
        return h.hexdigest()

    def queries(self) -> int:
        return sum(self.w.queries(out) for out, _ in self.first if not isinstance(out, Exception))


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending list, q in [0, 100]."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run a short prefix of the instances")
    args = ap.parse_args(argv)

    if not (SRC / "conepit" / "__init__.py").is_file():
        print(f"no conepit sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import conepit

    if Path(conepit.__file__).resolve().parent != (SRC / "conepit").resolve():
        print(f"imported conepit from {conepit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w, full, smoke = workloads.WORKLOADS[args.workload]
    count = smoke if args.smoke else full

    docs = w.generate(random.Random(args.seed), count)
    pins = None
    if args.seed == REFERENCE_SEED:
        pins = json.loads((HERE / "pinned.json").read_text())[w.name][:count]

    clock = HostClock()
    imports = []
    insts = None
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        insts, parse_s = setup(w, docs)
        clock.add(parse_s)
    setups = [imp + parse for (_, imp), parse in zip(imports, clock.scaled())]
    setups_raw = [imp + parse for (imp, _), parse in zip(imports, clock.raw())]

    report = {"workload": w.name, "instances": count, "env": environment(args.seed)}
    if args.trace:
        metrics, failed, attempted = traced_run(w, docs, insts, pins, report)
    else:
        metrics, failed, attempted = timed_run(w, docs, insts, pins, args.seconds, report)
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
    report["setup_s"] = setups
    report["setup_raw_s"] = setups_raw
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def warm_pass(w, docs, insts, pins) -> Outcomes:
    """One untimed pass: fills lazy state in numpy and the interpreter,
    records each instance's first output and checks it."""
    p = Outcomes(w, docs, insts, pins)
    for i in range(len(docs)):
        p.run_op(i)
    p.check()
    return p


def timed_pass(p: Outcomes, clock: HostClock, tracer=None) -> None:
    for i in range(len(p.docs)):
        clock.add(p.run_op(i, tracer))


def latency_metrics(lat: list[float]) -> dict:
    lat = sorted(lat)
    return {
        "latency_p50_ms": {"value": percentile(lat, 50) * 1e3, "unit": "ms"},
        "latency_p95_ms": {"value": percentile(lat, 95) * 1e3, "unit": "ms"},
    }


def timed_run(w, docs, insts, pins, seconds, report):
    p = warm_pass(w, docs, insts, pins)
    n = len(docs)
    clock = HostClock()
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        timed_pass(p, clock)
        passes += 1
    lat = clock.scaled()
    raw = clock.raw()
    pass_s = [sum(lat[j:j + n]) for j in range(0, len(lat), n)]
    raw_pass_s = [sum(raw[j:j + n]) for j in range(0, len(raw), n)]
    # every timed op of a bad instance counts as failed
    failed = len(p.bad) * passes
    metrics = {
        # median over passes, so one pass hit by a burst moves nothing
        "ops_per_s": {"value": n / statistics.median(pass_s), "unit": "1/s"},
        **latency_metrics(lat),
    }
    p95 = metrics["latency_p95_ms"]["value"] / 1e3
    report.update(
        {
            "ops": len(lat),
            "passes": passes,
            "samples_beyond_p95": sum(1 for x in lat if x > p95),
            "failed_ratio": failed / len(lat),
            "errors": p.errors[:20],
            "queries_per_pass": p.queries(),
            "digest": p.digest(),
            "host_slowdown": clock.slowdown(),
            "raw": {
                "ops_per_s": n / statistics.median(raw_pass_s),
                **{k: v["value"] for k, v in latency_metrics(raw).items()},
            },
        }
    )
    return metrics, failed, len(lat)


def traced_run(w, docs, insts, pins, report):
    import tracing

    n = len(docs)
    plain = warm_pass(w, docs, insts, pins)
    clock = HostClock()
    timed_pass(plain, clock)
    untraced_s = sum(clock.scaled())

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_insts, _ = setup(w, docs)
        traced = Outcomes(w, docs, traced_insts, None)
        traced_clock = HostClock()
        timed_pass(traced, traced_clock, tracer)
    finally:
        tracer.uninstall()
    traced_s = sum(traced_clock.scaled())
    time_scale = traced_s / sum(traced_clock.raw())
    for i in range(n):
        if traced.first[i][1] != plain.first[i][1]:
            plain.mark_bad(i, "traced output differs from untraced output")

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"spans-{w.name}-{report['env']['seed']}.npz")

    failed = len(plain.bad) * 2
    report.update(
        {
            "spans": len(tracer.start),
            "untraced_pass_s": untraced_s,
            "traced_pass_s": traced_s,
            "failed_ratio": failed / (2 * n),
            "errors": plain.errors[:20],
            "queries_per_pass": plain.queries(),
            "digest": plain.digest(),
            "traced_digest": traced.digest(),
        }
    )
    layer = tracer.layer_metrics(time_scale)
    layer["queries"] = traced.queries()
    layer["trace.overhead_s"] = traced_s - untraced_s
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}
    return metrics, failed, 2 * n


if __name__ == "__main__":
    sys.exit(main())
