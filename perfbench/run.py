#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark.

    python3 perfbench/run.py --workload fleet_churn --seed 1 --seconds 40 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (CMake, Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls rebuild incrementally. The benchmark then
runs the workload with the offered rate and closed-loop depth fixed in
perfbench/workloads.json. Build output goes to stderr. Stdout carries a
provenance line, the benchmark's report, and as its last line one JSON object
with the keys correct, attempted, failed and metrics. The exit code is the
benchmark's: non-zero when a correctness check failed or nothing could be
built or run.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out_dir):
    """Configures (once) and builds; returns the binary path or None."""
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(out_dir, "stage_perfbench")
    return binary if os.path.exists(binary) else None


def cmake_cache(out_dir, key):
    try:
        with open(os.path.join(out_dir, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_revision():
    """The git sha when the tree is a git checkout, else a digest of the
    sources the benchmark builds."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()


def compiler(out_dir):
    path = cmake_cache(out_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([path, "--version"], capture_output=True,
                                 text=True, timeout=10)
        return version.stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true",
                        help="shrink every workload (self-test)")
    parser.add_argument("--inject", choices=("none", "corrupt", "drop"),
                        default="none",
                        help="tamper with one reply (self-test)")
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        print("unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    workload = workloads[args.workload]

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    scratch = os.path.join(out_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)

    provenance = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": cmake_cache(out_dir, "CMAKE_BUILD_TYPE"),
        "compiler": compiler(out_dir),
        "revision": source_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "offered_rate_ops_per_s": workload["rate"],
        "closed_loop_in_flight": workload["depth"],
    }
    print("provenance: " + json.dumps(provenance, sort_keys=True), flush=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--rate", str(workload["rate"]),
               "--depth", str(workload["depth"]),
               "--inject", args.inject, "--scratch", scratch]
    if args.small:
        command.append("--small")
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = result.stdout.rstrip("\n").splitlines()
    try:
        final = json.loads(lines[-1])
        valid = set(final) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, TypeError):
        valid = False
    if not valid:
        sys.stdout.write(result.stdout)
        print("perfbench: no result line", file=sys.stderr)
        return result.returncode or 1
    print("\n".join(lines), flush=True)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
