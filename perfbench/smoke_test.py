#!/usr/bin/env python3
"""Smoke test of the replay benchmark at tiny scale.

    python3 perfbench/smoke_test.py

Run from the root of a checkout.  For every workload in BENCHMARK.json it
checks that an untraced run prints every end-to-end metric with its unit and
passes the correctness gate, that a traced run prints every per-layer metric
and writes trace-event JSON that parses, and that the gate fails a run whose
sequential reference is deliberately wrong.  Exits non-zero on the first
failed check.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY_OPS = 20000
SEED = 1


def run(workload, trace, wrong_reference=False):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--ops", str(TINY_OPS)]
    if wrong_reference:
        cmd.append("--wrong-reference")
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise AssertionError("%s: no output (exit %d): %s" %
                             (workload, p.returncode, p.stderr[-2000:]))
    return p.returncode, lines, json.loads(lines[-1])


def check_metrics(workload, result, specs):
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None:
            raise AssertionError("%s: metric %s missing" %
                                 (workload, spec["name"]))
        if got["unit"] != spec["unit"]:
            raise AssertionError("%s: metric %s has unit %s, want %s" %
                                 (workload, spec["name"], got["unit"],
                                  spec["unit"]))
        if not isinstance(got["value"], (int, float)):
            raise AssertionError("%s: metric %s is not a number" %
                                 (workload, spec["name"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]

        code, _, r = run(name, 0)
        assert code == 0 and r["correct"] and r["failed"] == 0, (name, r)
        assert set(r) == {"correct", "attempted", "failed", "metrics"}, r
        check_metrics(name, r, bench["end_to_end"])

        code, _, r = run(name, 1)
        assert code == 0 and r["correct"] and r["failed"] == 0, (name, r)
        check_metrics(name, r, bench["per_layer"])
        trace = os.path.join(ROOT, ".bench_build", "out",
                             name + ".trace.json")
        with open(trace) as f:
            events = json.load(f)["traceEvents"]
        assert events and all(
            {"name", "ts", "dur", "args"} <= set(e) for e in events), name

        code, lines, r = run(name, 0, wrong_reference=True)
        assert code != 0 and not r["correct"] and r["failed"] > 0, (name, r)
        assert any(l.startswith("gate tripped:") for l in lines), name
        print("ok  %s" % name)
    print("smoke test passed")


if __name__ == "__main__":
    main()
