#!/usr/bin/env python3
"""Tests of the benchmark itself, on the minimal-size mode of each workload.

    python3 perfbench/test_bench.py

For every workload, with tracing off and on: the run exits 0, all checks
pass with 0 failed jobs, and the result line names exactly the metrics
BENCHMARK.json declares, with their units. Also checks that a directory
holding only BENCHMARK.json and perfbench/ fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--size", "min"],
        cwd=cwd, capture_output=True, text=True, env=env, timeout=900)


def check_workload(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"metrics differ: {sorted(set(got) ^ set(want))}"
    # Every per-layer metric is printed with its sample count.
    if trace:
        table = {line.split()[0] for line in proc.stdout.splitlines()
                 if line.startswith("  ") and len(line.split()) == 4}
        assert set(want) <= table, sorted(set(want) - table)


def check_stripped_checkout_fails():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-test-") as d:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
        shutil.copytree(HERE, os.path.join(d, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(d, "build"))
        proc = run(d, "small_sweep", 0, env)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_workload(spec, w["name"], trace)
            print(f"ok {w['name']} trace={trace}")
    check_stripped_checkout_fails()
    print("ok stripped checkout fails")


if __name__ == "__main__":
    main()
