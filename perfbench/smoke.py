#!/usr/bin/env python3
"""Smoke tests of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload briefly (one second of passes) with --trace 0 and
--trace 1 and asserts that the result line names exactly the metrics
BENCHMARK.json lists, each with a valid name, its unit and a finite value,
and that every correctness check passed. Then corrupts one output at a time
(--corrupt) and asserts that the check guarding it fires: the run reports
correct=false with failed > 0. Exits non-zero on the first violation.
"""
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
CORRUPTIONS = [
    ("hh_dense", "count"),      # ingested == offered
    ("hh_dense", "estimate"),   # one-sided estimates against exact_window
    ("hh_dense", "image"),      # restore + byte-identical re-save
    ("hhh2d_poll", "hhh"),      # HHH coverage against exact_hhh
    ("hhh2d_poll", "image"),
]


def run(workload, trace, corrupt=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(cond, what):
    if not cond:
        sys.exit("FAIL " + what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for wl in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            res = run(wl, trace)
            tag = f"{wl} trace={trace}"
            expect(set(res) == {"correct", "attempted", "failed", "metrics"}, tag + ": keys")
            expect(res["correct"] is True and res["failed"] == 0, tag + ": a check failed")
            expect(isinstance(res["attempted"], int) and res["attempted"] >= 1, tag + ": attempted")
            got = res["metrics"]
            expect(set(got) == set(wanted[trace]),
                   f"{tag}: metrics differ from BENCHMARK.json: "
                   f"{sorted(set(got) ^ set(wanted[trace]))}")
            for name, m in got.items():
                expect(NAME.match(name) is not None, f"{tag}: bad metric name {name!r}")
                expect(UNIT.match(m["unit"]) is not None, f"{tag}: bad unit for {name}")
                expect(m["unit"] == wanted[trace][name], f"{tag}: {name} unit {m['unit']}")
                expect(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
                       f"{tag}: {name} value {m['value']!r}")
            print(f"ok   {tag}: {len(got)} metrics, {res['attempted']} checks")
    for wl, corrupt in CORRUPTIONS:
        res = run(wl, 0, corrupt)
        expect(res["correct"] is False and res["failed"] > 0,
               f"{wl} --corrupt {corrupt}: the check did not fire")
        print(f"ok   {wl} --corrupt {corrupt}: {res['failed']} of {res['attempted']} checks failed")
    print("smoke: all passed")


if __name__ == "__main__":
    main()
