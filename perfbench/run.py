#!/usr/bin/env python3
"""Trace-file-to-report replay benchmark of the P4LRU library.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/ (which compiles the
library from src/) into .bench_build/, writes the workload's input for the
seed once into .bench_build/inputs/, then replays it with the perfbench
binary.  The binary's last line of standard output is the result object:
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
INPUT_DIR = os.path.join(ROOT, ".bench_build", "inputs")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")

# Workload -> input family.  cache-caida and lrumon-caida replay one file.
WORKLOADS = {
    "cache-caida": "caida",
    "cache-churn": "churn",
    "lruindex-ycsb": "ycsb",
    "lrumon-caida": "caida",
}
# Inputs kept per family; older seeds are deleted to bound disk use.
KEEP_INPUTS = 2
# Each run stays well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no library sources at src/; run from a full checkout")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    # Build output goes to stderr: standard output carries only the result.
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def ensure_input(binary, kind, seed, ops):
    os.makedirs(INPUT_DIR, exist_ok=True)
    suffix = "-n%d" % ops if ops else ""
    name = "%s-s%d%s.bin" % (kind, seed, suffix)
    path = os.path.join(INPUT_DIR, name)
    if not os.path.isfile(path):
        tmp = path + ".tmp"
        cmd = [binary, "gen", "--kind", kind, "--seed", str(seed),
               "--out", tmp]
        if ops:
            cmd += ["--ops", str(ops)]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
        os.replace(tmp, path)
    os.utime(path)  # most recently used
    others = sorted(
        (os.path.join(INPUT_DIR, f) for f in os.listdir(INPUT_DIR)
         if f.startswith(kind + "-") and f != name),
        key=os.path.getmtime, reverse=True)
    for old in others[KEEP_INPUTS - 1:]:
        os.remove(old)
    return path


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Smoke-test knobs: a smaller input, and a deliberately wrong reference
    # that the correctness gate must catch.
    p.add_argument("--ops", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--wrong-reference", action="store_true",
                   help=argparse.SUPPRESS)
    a = p.parse_args()

    try:
        binary = build()
        path = ensure_input(binary, WORKLOADS[a.workload], a.seed, a.ops)
    except (subprocess.CalledProcessError, OSError) as e:
        die("set-up failed: %s" % e)

    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "run", "--workload", a.workload, "--seed", str(a.seed),
           "--input", path, "--seconds", str(a.seconds),
           "--trace", str(a.trace),
           "--trace-out", os.path.join(OUT_DIR, a.workload + ".trace.json")]
    if a.wrong_reference:
        cmd.append("--wrong-reference")
    sys.stdout.flush()
    with subprocess.Popen(cmd) as proc:
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            die("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
