#!/usr/bin/env python3
"""Small-size self-test of the serving benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at --small size for one second, with
and without tracing, and checks that the result line names exactly the
benchmark's metrics with their units and that every correctness check
passed. Then runs once with a corrupted and once with a dropped reply and
checks that the correctness check trips: correct is false and the exit code
is non-zero. Exits non-zero on the first unmet expectation.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, inject="none"):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--small", "--inject", inject]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result = run(workload, trace)
            label = "%s --trace %d" % (workload, trace)
            if code != 0 or result is None or not result["correct"]:
                problems.append("%s: exit %d, result %s" % (label, code, result))
                continue
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: attempted %d failed %d" % (
                    label, result["attempted"], result["failed"]))
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(n for n in got
                               if n in expected[trace] and got[n] != expected[trace][n])
                problems.append("%s: missing %s extra %s wrong unit %s" % (
                    label, missing, extra, wrong))
            print("ok   %s: %d metrics" % (label, len(got)), flush=True)
    for inject in ("corrupt", "drop"):
        code, result = run("global_batch", 0, inject)
        if code == 0 or result is None or result["correct"]:
            problems.append("--inject %s was not caught: exit %d, result %s" % (
                inject, code, result))
        else:
            print("ok   --inject %s trips the correctness check" % inject,
                  flush=True)
    for problem in problems:
        print("FAIL " + problem)
    print("selftest: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
