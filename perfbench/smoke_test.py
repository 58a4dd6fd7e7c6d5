#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke_test.py

For every workload it runs run.py with --tiny at --trace 0 and --trace 1 and
checks that the run passes its correctness checks and prints exactly
BENCHMARK.json's metric names and units. Then it runs train-dense against a
wrong expected digest and checks that the correctness gate fires: a result
with correct=false and failed >= 1, and a non-zero exit code.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, table in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = run(workload, trace)
            label = "%s --trace %d" % (workload, trace)
            if code != 0 or result is None or not result["correct"]:
                failures.append("%s: exit %d\n%s" % (label, code, err[-2000:]))
                continue
            want = {m["name"]: m["unit"] for m in bench[table]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if want != got:
                failures.append("%s: metrics %s != %s" % (label, got, want))
            if result["attempted"] < 1 or result["failed"] != 0:
                failures.append("%s: attempted %d failed %d" % (
                    label, result["attempted"], result["failed"]))
            if trace == 0 and any(m["value"] <= 0
                                  for m in result["metrics"].values()):
                failures.append("%s: an end-to-end metric is not positive"
                                % label)
            print("ok   %s (%d ops)" % (label, result["attempted"]))

    code, result, _ = run("train-dense", 0, "--expect-digest",
                          "0000000000000000", "--expect-accuracy", "0.5")
    if code == 0 or result is None or result["correct"] or result["failed"] < 1:
        failures.append("correctness gate did not fire on a wrong digest "
                        "(exit %d, result %s)" % (code, result))
    else:
        print("ok   correctness gate fires on a wrong digest (exit %d)" % code)

    for failure in failures:
        print("FAIL " + failure)
    print("smoke: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
