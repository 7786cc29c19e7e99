#!/usr/bin/env python3
"""The repository's benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench (a CMake package of its own that compiles the library
sources under src/) in Release mode, runs one workload and relays its
output. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
provenance and the detail figures. Build output goes to stderr.

The build directory is $CARGO_TARGET_DIR when set (relative paths are taken
from the repository root), else .bench_build. Exits non-zero without a
result when the library sources are missing or the build or run fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hh_dense", "flood_sampled", "hhh2d_poll")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "util", "normal.cpp")):
        fail("library sources (src/) not found next to perfbench/")
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "3"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the library and benchmark sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".hpp", ".cpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--corrupt", choices=("count", "estimate", "image", "hhh"),
                    help="corrupt one output before its check (smoke tests only)")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace, "--source", source_id()]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with status {proc.returncode}", proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the benchmark printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
