"""Self-test of the benchmark.

    python3 perfbench/selftest.py [WORKLOAD ...]

Run from the root of a checkout; with no workload named it covers all four
and takes a few minutes. It checks that

1. two traced runs at the same seed report identical counts, ratios and
   cache sizes, and every per-layer metric (the tracer's list and, when
   present, BENCHMARK.json's);
2. digests.json has a reference for the default and the held-out seed of
   every workload, and a digest that disagrees with its reference, and an
   item that raises, are reported as failed items, not as a crash;
3. run.py refuses, with a nonzero exit and no result, to run in a directory
   that holds only BENCHMARK.json and the benchmark's own files.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _traced(workload):
    proc = _run(["--workload", workload, "--seed", str(run.DEFAULT_SEED),
                 "--trace", "1"])
    if proc.returncode != 0:
        raise AssertionError(f"traced {workload} exited {proc.returncode}: "
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _exact(metrics):
    """Metrics that must repeat exactly: all but times and the overhead."""
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] != "s" and k != "trace.overhead"}


def check_traced_runs(workload):
    first, second = _traced(workload), _traced(workload)
    expected = {name for name, _ in tracing.metric_units()}
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        listed = {m["name"] for m in json.loads(bench.read_text())["per_layer"]}
        assert listed == expected, f"BENCHMARK.json per_layer differs: {listed ^ expected}"
    for result in (first, second):
        assert result["correct"], f"{workload}: traced run not correct"
        missing = expected - set(result["metrics"])
        assert not missing, f"{workload}: missing per-layer metrics {missing}"
    a, b = _exact(first["metrics"]), _exact(second["metrics"])
    diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
    assert not diff, f"{workload}: counts differ between traced runs: {diff}"
    print(f"ok traced {workload}: {len(a)} exact metrics repeat")


def check_failures_are_reported():
    import worker
    import workloads
    for name in run.WORKLOADS:
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            assert worker.reference_digest(name, seed), (name, seed)
    wl = workloads.MetricTriples(run.DEFAULT_SEED)
    triples = wl.inputs
    wl.inputs = triples[:200]
    out = worker.measure(wl, 0, reference="0" * 64)
    assert out["failed"] == out["attempted"] > 0, out
    assert any("reference" in p for p in out["problems"]), out["problems"]

    wl.inputs = triples[:20] + [("not", "a", "point")]
    out = worker.measure(wl, 0, reference=None)
    assert 0 < out["failed"] < out["attempted"], out
    assert any("Error" in p for p in out["problems"]), out["problems"]
    print("ok failures: references recorded; digest mismatch and raising "
          "item are counted")


def check_bare_directory():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").is_file():
        shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(["--workload", run.WORKLOADS[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and "correct" not in proc.stdout, proc
    print(f"ok bare directory: exit {proc.returncode}, no result")


def main(names):
    for name in names or run.WORKLOADS:
        check_traced_runs(name)
    check_failures_are_reported()
    check_bare_directory()
    print("selftest passed")


if __name__ == "__main__":
    main(sys.argv[1:])
