#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Run from the root of a checkout. Runs every workload at a tiny size, once
timed and once traced, and asserts that every correctness check passed
and that every metric BENCHMARK.json names is printed with its unit, both
in the table and in the final JSON line. Exits non-zero on the first
failure.
"""
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def check(workload, trace, bench):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=600)
    label = "%s --trace %d" % (workload, trace)
    assert out.returncode == 0, "%s exited %d:\n%s" % (
        label, out.returncode, out.stderr[-3000:])
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0, \
        "%s: checks failed:\n%s" % (label, out.stdout[-3000:])
    table = {line.split()[0]: line.split() for line in lines[:-1]
             if line and not line.startswith(("context:", "metric "))}
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, label
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (label, m["name"])
        assert isinstance(got["value"], (int, float)), (label, m["name"])
        row = table.get(m["name"])
        assert row is not None and row[2] == m["unit"], (label, m["name"])
        if not trace:
            assert got["value"] > 0, (label, m["name"], got)
    assert "failed_share" in table, label
    print("ok  %-24s %d metrics, %d checks" % (
        label, len(wanted), result["attempted"]))


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            check(workload, trace, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
