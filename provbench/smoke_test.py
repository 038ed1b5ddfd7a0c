#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 provbench/smoke_test.py

Runs every workload of BENCHMARK.json at smoke size (one-second windows,
small starting states), untraced and traced, and asserts that each run
exits 0, passes its output checks, and prints as its last line a result
holding exactly the BENCHMARK.json metrics of its mode, each with its unit.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", trace, "--smoke"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError("%s trace=%s exited %d\n%s%s" % (
            workload, trace, proc.returncode, proc.stdout[-2000:],
            proc.stderr[-2000:]))
    return json.loads(lines[-1])


def check(result, specs, workload, trace, nonzero):
    where = "%s trace=%s" % (workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert result["failed"] == 0, where
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in specs}, (
        where, sorted(set(metrics) ^ {m["name"] for m in specs}))
    for m in specs:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (where, m["name"], got["unit"])
        assert isinstance(got["value"], (int, float)), (where, m["name"])
        assert math.isfinite(got["value"]), (where, m["name"])
        if nonzero:
            assert got["value"] != 0, (where, m["name"], "is 0")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        check(run(w["name"], "0"), spec["end_to_end"], w["name"], "0", True)
        check(run(w["name"], "1"), spec["per_layer"], w["name"], "1", False)
        print("ok %s" % w["name"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
