#!/usr/bin/env python3
"""Repository benchmark: builds dfp from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-dense --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  train-dense    repeated Train() on the chess shape; MMRFS dominates
  train-wide     repeated Train() on the letter shape; transform/learn dominate
  serve-steady   closed-loop TCP predicts, 2 connections
  serve-retrain  the same reads while a ContinuousTrainer retrains every 1024
                 rows of a paced stream

The build (CMake, Release, this directory's CMakeLists.txt over ../src) goes
to $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. The workload
runs in its own process (for serve-*, after a separate process has trained
and saved the served model); its last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; run.py refuses to print a result whose names or
units differ. The line before it carries host shape and provenance. The exit
code is 0 only when every correctness check passed.

Extra options:
  --tiny                small inputs (the smoke test; no recorded digests)
  --expect-digest HEX   override the recorded train-* selection digest
  --expect-accuracy A   override the recorded train-* held-out accuracy
  --record              recompute expected.json for the train-* workloads
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-dense", "train-wide", "serve-steady", "serve-retrain")
EXPECTED = os.path.join(HERE, "expected.json")
# A run must end within 180 s of its start (a first build may take longer).
RUN_DEADLINE_S = 170.0


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "dfp_perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "dfp_perfbench")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(result, trace):
    """Returns a list of contract violations in the result line."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    table = load_benchmark()["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in table}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if want != got:
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra %s, units %s" % (
                            sorted(set(want) - set(got)),
                            sorted(set(got) - set(want)),
                            sorted(n for n in want if n in got
                                   and want[n] != got[n])))
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append("metric %s has no numeric value" % name)
    return problems


def prepare(binary, args, workdir, timeout_s):
    """serve-*: trains and saves the served model in a process of its own,
    so the measured process only loads it. Returns True on success."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--prepare"] + (["--tiny"] if args.tiny else [])
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log("prepare timed out after %.0f s" % timeout_s)
        return False
    return proc.returncode == 0


def run_workload(binary, args, workdir, timeout_s):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.tiny:
        cmd.append("--tiny")
    digest, accuracy = args.expect_digest, args.expect_accuracy
    if not args.tiny and args.workload in ("train-dense", "train-wide"):
        with open(EXPECTED) as f:
            recorded = json.load(f).get(args.workload, {})
        digest = digest if digest is not None else recorded.get("digest")
        accuracy = (accuracy if accuracy is not None
                    else recorded.get("accuracy"))
    if digest is not None:
        cmd += ["--expect-digest", digest,
                "--expect-accuracy", str(accuracy if accuracy is not None
                                         else -1)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log("workload timed out after %.0f s" % timeout_s)
        return None, []
    return proc.returncode, proc.stdout.strip().splitlines()


def record(binary, seed):
    expected = {}
    workdir = os.path.join(build_dir(), "record")
    os.makedirs(workdir, exist_ok=True)
    for workload in ("train-dense", "train-wide"):
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed), "--seconds",
             "1", "--trace", "0", "--workdir", workdir, "--record"],
            stdout=subprocess.PIPE, text=True, timeout=RUN_DEADLINE_S)
        if proc.returncode != 0:
            log("record failed for " + workload)
            return 1
        prov = json.loads(proc.stdout.strip().splitlines()[-1])["provenance"]
        expected[workload] = {"digest": prov["digest"],
                              "accuracy": prov["accuracy"],
                              "candidates": prov["candidates"],
                              "selected": prov["selected"]}
    shutil.rmtree(workdir, ignore_errors=True)
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=2, sort_keys=True)
        f.write("\n")
    log("wrote " + EXPECTED)
    return 0


def main():
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--expect-digest")
    parser.add_argument("--expect-accuracy", type=float)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not args.record and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 2
    if args.record:
        return record(binary, args.seed)

    workdir = os.path.join(build_dir(), "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        code, lines = None, []
        if (args.workload.startswith("serve-")
                and not prepare(binary, args, workdir, 60)):
            log("could not prepare the served model")
        else:
            remaining = RUN_DEADLINE_S - (time.monotonic() - started)
            # After a first build the run still gets its full length.
            code, lines = run_workload(binary, args, workdir,
                                       max(remaining, args.seconds + 60))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if code is None or not lines:
        log("workload printed no result (exit %s)" % code)
        return 3
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("last line is not JSON: " + lines[-1][:200])
        return 3
    problems = check_result(result, args.trace)
    for line in lines[:-1]:
        print(line)
    if problems:
        for p in problems:
            log(p)
        return 3
    print(json.dumps(result), flush=True)
    if code != 0 or not result["correct"]:
        log("correctness check failed (exit %d)" % code)
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
