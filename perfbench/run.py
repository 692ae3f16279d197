#!/usr/bin/env python3
"""Build the repository from source and run one benchmark workload.

    python3 perfbench/run.py --workload airfoil_seq --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The OCaml program perfbench/main.ml is
built with dune (dune-project at the root); its output is passed through,
and its last line, one JSON object with the keys correct, attempted,
failed and metrics, is checked against BENCHMARK.json before it is printed
as this script's last line.  With --trace 0 the metrics are the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run, whose
Chrome traces go to perfbench/out/.  Exits non-zero without a result line
when the build, the run or the check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def run(cmd, timeout):
    """Run to completion; a timed-out child is killed and reaped."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))


def check_result(line, expected):
    try:
        res = json.loads(line)
    except ValueError:
        fail("last output line is not JSON: %r" % line[:200])
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail("result must have exactly correct, attempted, failed, metrics")
    if not isinstance(res["correct"], bool):
        fail("correct is not a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or isinstance(res[k], bool) or res[k] < 0:
            fail("%s is not a whole number" % k)
    if res["attempted"] < 1:
        fail("no step was attempted")
    metrics = res["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        fail("metric names differ from BENCHMARK.json: missing %s, extra %s" % (missing, extra))
    for name, m in metrics.items():
        if not isinstance(m.get("value"), (int, float)) or isinstance(m.get("value"), bool):
            fail("metric %s has no numeric value" % name)
        if m.get("unit") != expected[name]:
            fail("metric %s has unit %r, expected %r" % (name, m.get("unit"), expected[name]))
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: the benchmark builds the repository from source" % ROOT)

    build = run(dune_command() + ["build", "--root", ROOT, "./perfbench/main.exe"],
                BUILD_TIMEOUT_S)
    sys.stderr.write(build.stdout)
    if build.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed (exit %d)" % build.returncode)

    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    proc = run([EXE, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out-dir", out_dir], RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with %d" % proc.returncode)
    res = check_result(lines[-1], expected)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(res))


if __name__ == "__main__":
    main()
