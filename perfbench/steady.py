#!/usr/bin/env python3
"""Steadiness proof for the benchmark.

    python3 perfbench/steady.py [--workloads hh_dense,...] [--seeds 1-10]
                                [--seconds 10] [--json OUT]

Runs the benchmark once per seed and workload, each in a fresh process, and
reports for every end-to-end metric the spread the acceptance rule uses:
the distance between the first and third quartile of its values (Python's
statistics.quantiles(values, n=4)) as a share of their median, next to the
metric's bound from BENCHMARK.json. For the figures the benchmark can
calibrate it also reports the raw and the calibrated spread, which is how
the choice to calibrate a workload is made.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CALIBRATABLE = ("mpps", "query_ms", "checkpoint_ms", "restore_ms")


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="hh_dense,flood_sampled,hhh2d_poll")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--json", help="write every run's figures here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)

    runs = {}
    ok = True
    for wl in args.workloads.split(","):
        runs[wl] = []
        for seed in seeds:
            detail, result = run_once(wl, seed, seconds)
            runs[wl].append({"seed": seed, "result": result, "detail": detail["detail"]})
            ok &= result["correct"]
            print(f"{wl} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  file=sys.stderr)
        print(f"\n{wl} ({len(seeds)} seeds)")
        print(f"  {'metric':<15}{'median':>12}{'spread':>9}{'bound/3':>9}"
              f"{'raw':>9}{'calib':>9}")
        for name, bound in bounds.items():
            vals = [r["result"]["metrics"][name]["value"] for r in runs[wl]]
            line = (f"  {name:<15}{statistics.median(vals):>12.5g}{spread(vals):>9.3f}"
                    f"{bound / 3:>9.3f}")
            if name in CALIBRATABLE:
                raw = [r["detail"][name + "_raw"] for r in runs[wl]]
                cal = [r["detail"][name + "_cal"] for r in runs[wl]]
                line += f"{spread(raw):>9.3f}{spread(cal):>9.3f}"
            if name != "setup_s" and spread(vals) > bound / 3:
                line += "  WIDE"
            print(line)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    print("\nall runs correct" if ok else "\nSOME RUNS FAILED A CHECK")


if __name__ == "__main__":
    main()
