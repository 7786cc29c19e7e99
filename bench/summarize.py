#!/usr/bin/env python3
"""Reduce Google Benchmark JSON into the committed perf-trajectory artifact.

Usage:
    ./build/bench/fig5_hh_speed --benchmark_format=json > fig5.raw.json
    ./build/bench/netwide_bytes --json > netwide.raw.json
    python3 bench/summarize.py fig5.raw.json --netwide netwide.raw.json -o BENCH_fig5.json

The input may also be an ALREADY-REDUCED artifact (a previous summarize.py
output): its entries/pairs/scaling sections are carried through unchanged,
which lets `--netwide` refresh the control-channel section without
re-measuring the throughput benches.

`--netwide` folds the netwide_bytes bench's error-per-byte rows (sample vs
summary control channels) into a `netwide_bytes` section of the artifact,
plus its delta-vs-full summary-channel comparison as `summary_delta`.
`--snapshot` folds a snapshot_speed --json report into the `snapshot`
section (save/restore seconds per checkpoint and MB/s, bytes per counter,
bounded-memory evidence); a report without the per-checkpoint seconds is
rejected.
`--hhh` folds an HHH raw Google Benchmark JSON (fig6_hhh_speed or
fig7_vs_rhhh) into the `hhh_speed` section - the same entries/pairs/scaling
reduction as the main input, so the batched-over-scalar HHH speedup and the
prefix-sharded scaling curve ride the artifact next to the flat numbers;
fig6's `_output` rows carry `output_ms` (time per HHH output) instead of a
throughput.
Folds MERGE by figure prefix (`family.split('/', 1)[0]`): folding a fig7
run replaces prior fig7 rows but leaves the fig6 rows standing, so the two
figures accumulate in one section across runs. `--hhh-error`
folds a fig8_hhh_error --json report into the `hhh_error` section (RMSE per
algorithm with the batch-differential row, HHH recall vs the exact set).
`--rebalance` folds a `fig5/hh_speed_rebalanced` measurement (raw Google
Benchmark JSON) into the `rebalance` section without touching the other
sections; the same section is also produced directly when the main input
contains `_rebalanced` rows. `--appliance` folds a memento_appliance --json
soak report into the `appliance` section the same way. `--controller` folds
a memento_appliance --controller --json report into the `controller`
section (automatic rebalances, time-to-recover after the skew shift, drop
accounting under block backpressure).

The reducer keeps one record per benchmark config (name, label, Mpps) and,
whenever a family has both a scalar and a `_batch` variant with the same
args (e.g. `fig5/hh_speed/0/512/1` and `fig5/hh_speed_batch/0/512/1`), emits
a pair entry with the batch-over-scalar speedup. `_sharded` rows (args
`kind/counters/inv_tau/shards`) are additionally folded into a `scaling`
section: one record per (kind, counters, inv_tau) with the per-N Mpps, the
speedup of each N over the N=1 sharded row, the speedup of each N over
the single-instance `_batch` baseline at the same args, and whether N
exceeds the host's CPU count (`oversubscribed`) - the multicore scaling
curve. The output is stable-sorted and pretty-printed so diffs
across PRs read as a throughput trajectory. A run with
`--benchmark_repetitions` has one iteration row per repetition; the reducer
folds them into one record per config whose every number is the median over
the repetitions (Google Benchmark's own aggregate rows are ignored), so a
speedup pairs two medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

# Per-checkpoint wall time each way, which the `snapshot` section must carry
# next to MB/s: MB/s divides by the image's own size, so it cannot compare
# formats or images of different sizes.
SNAPSHOT_SECONDS = ("v2_save_s", "v2_restore_s")

# Counters of an HHH output-cost row: milliseconds per output(theta), and the
# candidates it walked and prefixes it admitted.
OUTPUT_COUNTERS = ("output_ms", "candidates", "admitted")


def split_name(name: str) -> tuple[str, str]:
    """'fig5/hh_speed_batch/0/512/1/min_time:0.1' -> ('fig5/hh_speed_batch', '0/512/1').

    Google Benchmark appends modifier tokens ('min_time:0.1', 'real_time',
    'process_time', 'threads:4') after the args; drop them so scalar, batch
    and sharded rows key on comparable arg strings.
    """
    modifiers = {"real_time", "process_time"}
    parts = [
        p
        for p in name.split("/")
        if p not in modifiers and not p.startswith("min_time:") and not p.startswith("threads:")
    ]
    family = "/".join(parts[:2]) if len(parts) >= 2 else parts[0]
    args = "/".join(parts[2:])
    return family, args


def fold_repetitions(raw: dict) -> list:
    """Iteration rows -> one row per benchmark name, in first-seen order.

    Each numeric field is the median over the name's repetitions (a single
    run is its own median); other fields come from the first repetition.
    Aggregate rows are dropped.
    """
    runs = {}
    for b in raw.get("benchmarks", []):
        if b.get("run_type") != "aggregate":
            runs.setdefault(b["name"], []).append(b)
    rows = []
    for reps in runs.values():
        row = dict(reps[0])
        for key, value in reps[0].items():
            numbers = [r.get(key) for r in reps]
            if isinstance(value, (int, float)) and not isinstance(value, bool) and all(
                isinstance(n, (int, float)) for n in numbers
            ):
                row[key] = statistics.median(numbers)
        rows.append(row)
    return rows


def reduce_rebalance(raw: dict) -> list:
    """`fig5/hh_speed_rebalanced` rows -> the artifact's `rebalance` section.

    Each bench row scores one Zipf-alpha elephant mix twice - static hashing
    vs the coverage_rebalancer's weighted table - and reports the comparison
    as custom counters (load ratio, window-coverage spread, recall vs an
    exact oracle, migration latency). Carry those counters through verbatim,
    one record per config, so the artifact reads as the skew-recovery
    trajectory PR over PR.
    """
    keep_prefixes = ("static_", "rebalanced_", "rebalance_ms")
    rows = []
    for b in fold_repetitions(raw):
        family, args = split_name(b["name"])
        if not family.endswith("_rebalanced"):
            continue
        row = {
            "config": f"{family}/{args}",
            "label": b.get("label", ""),
            "mpps": round(b["Mpps"], 3) if b.get("Mpps") is not None else None,
        }
        for key, value in sorted(b.items()):
            if key.startswith(keep_prefixes) and isinstance(value, (int, float)):
                row[key] = round(value, 3)
        rows.append(row)
    rows.sort(key=lambda r: r["config"])
    return rows


def reduce_benchmarks(raw: dict) -> dict:
    entries = []
    for b in fold_repetitions(raw):
        family, args = split_name(b["name"])
        mpps = b.get("Mpps")
        if mpps is None:  # fall back to items/s when the counter is absent
            items = b.get("items_per_second")
            mpps = items / 1e6 if items else None
        entry = {
            "family": family,
            "args": args,
            "label": b.get("label", ""),
            "mpps": round(mpps, 3) if mpps is not None else None,
        }
        # Probe-behavior introspection counters (flat_hash stats surfaced by
        # the bench): carried so probing is observable in the committed
        # trajectory, not inferred from Mpps alone. Output-cost
        # rows (fig6 `_output`) carry their time per poll and its workload.
        for key, value in sorted(b.items()):
            if not isinstance(value, (int, float)):
                continue
            if key.startswith(("index_", "overflow_")) or key in OUTPUT_COUNTERS:
                entry[key] = round(value, 4)
        entries.append(entry)
    entries.sort(key=lambda e: (e["family"], e["args"]))

    by_key = {(e["family"], e["args"]): e for e in entries}
    pairs = []
    for e in entries:
        if e["family"].endswith("_batch"):
            continue
        batch = by_key.get((e["family"] + "_batch", e["args"]))
        if not batch or e["mpps"] is None or batch["mpps"] is None or e["mpps"] == 0:
            continue
        pairs.append(
            {
                "config": f"{e['family']}/{e['args']}",
                "label": e["label"],
                "scalar_mpps": e["mpps"],
                "batch_mpps": batch["mpps"],
                "batch_speedup": round(batch["mpps"] / e["mpps"], 3),
            }
        )

    # Multicore scaling: group `_sharded` rows by base config - the shard
    # count N is always the LAST arg (fig5: kind/counters/inv_tau/N, fig6:
    # counters/inv_tau/N); report per-N throughput, speedup vs the N=1
    # sharded row and vs the single-instance batch baseline, same base args.
    # A point with more shards (worker threads) than the host has CPUs is
    # marked oversubscribed: it shows time-slicing, not scaling (None when
    # the run did not record num_cpus).
    context = raw.get("context", {})
    num_cpus = context.get("num_cpus")
    sharded = {}
    for e in entries:
        if not e["family"].endswith("_sharded") or e["mpps"] is None:
            continue
        parts = e["args"].split("/")
        if len(parts) < 2:
            continue
        base = "/".join(parts[:-1])
        sharded.setdefault((e["family"], base), {})[int(parts[-1])] = e
    scaling = []
    for (family, base), by_n in sorted(sharded.items()):
        one = by_n.get(1)
        batch = by_key.get((family.replace("_sharded", "_batch"), base))
        points = []
        for n in sorted(by_n):
            e = by_n[n]
            point = {
                "shards": n,
                "mpps": e["mpps"],
                "oversubscribed": None if num_cpus is None else n > num_cpus,
            }
            if one and one["mpps"]:
                point["speedup_vs_1shard"] = round(e["mpps"] / one["mpps"], 3)
            if batch and batch["mpps"]:
                point["speedup_vs_batch_baseline"] = round(e["mpps"] / batch["mpps"], 3)
            points.append(point)
        scaling.append(
            {
                "config": f"{family}/{base}",
                # One label for the whole N-sweep: drop the per-row shard count.
                "label": by_n[min(by_n)]["label"].rsplit("/shards=", 1)[0],
                "points": points,
            }
        )

    summary = {
        "generated_by": "bench/summarize.py",
        "host": {
            "num_cpus": context.get("num_cpus"),
            "mhz_per_cpu": context.get("mhz_per_cpu"),
            "library_build_type": context.get("library_build_type"),
            # Self-reported by the bench binary (AddCustomContext): the
            # authoritative codegen provenance (bench targets always pin
            # -O3 -DNDEBUG, so library_build_type describing the distro's
            # libbenchmark says nothing about OUR code).
            "memento_build_type": context.get("memento_build_type"),
        },
        "entries": entries,
        "pairs": pairs,
        "scaling": scaling,
    }
    rebalance = reduce_rebalance(raw)
    if rebalance:
        summary["rebalance"] = rebalance
    return summary


def merge_hhh(existing: dict, incoming: dict) -> dict:
    """Merge an --hhh fold into the standing hhh_speed section by figure.

    Rows are owned per figure prefix (the `figN` before the first slash):
    the incoming run replaces every row of the figures it measured and
    leaves the other figures' rows untouched, so fig6 and fig7 folds
    accumulate in one section instead of clobbering each other.
    """
    figures = {e["family"].split("/", 1)[0] for e in incoming["entries"]}

    def survives(row: dict, key: str) -> bool:
        return row[key].split("/", 1)[0] not in figures

    merged = {
        "entries": [e for e in existing.get("entries", []) if survives(e, "family")]
        + incoming["entries"],
        "pairs": [p for p in existing.get("pairs", []) if survives(p, "config")]
        + incoming["pairs"],
        "scaling": [s for s in existing.get("scaling", []) if survives(s, "config")]
        + incoming["scaling"],
    }
    merged["entries"].sort(key=lambda e: (e["family"], e["args"]))
    merged["pairs"].sort(key=lambda p: p["config"])
    merged["scaling"].sort(key=lambda s: s["config"])
    return merged


def check_provenance(summary: dict, allow_debug: bool) -> bool:
    """Refuse debug-codegen inputs; warn loudly when provenance is murky.

    The committed artifact is a perf trajectory - a debug-built bench binary
    would poison every later diff against it. `memento_build_type` is the
    bench binary's own NDEBUG/-O report (authoritative); `library_build_type`
    only describes how the distro compiled libbenchmark, so a debug value
    there is a warning, not an error. The two can legitimately disagree
    (release-built benches against a distro debug libbenchmark); what may
    NOT disagree is memento_build_type across the folded inputs - that is a
    real mismatch and check_fold_provenance fails closed on it.
    """
    host = summary.get("host", {})
    build = host.get("memento_build_type")
    if build == "debug":
        if not allow_debug:
            sys.stderr.write(
                "summarize.py: REFUSING debug-built bench input "
                "(host.memento_build_type == 'debug'). Re-run the bench from a "
                "-O3 -DNDEBUG build, or pass --allow-debug to override.\n"
            )
            return False
        sys.stderr.write(
            "summarize.py: WARNING: summarizing a DEBUG bench run "
            "(--allow-debug); do not commit this artifact.\n"
        )
    elif build is None:
        sys.stderr.write(
            "summarize.py: WARNING: input carries no memento_build_type "
            "context (old bench binary?); codegen provenance is unverified.\n"
        )
    if host.get("library_build_type") == "debug":
        sys.stderr.write(
            "summarize.py: WARNING: libbenchmark itself is a debug build "
            "(library_build_type == 'debug'); timing overhead inside the "
            "benchmark harness may be inflated.\n"
        )
    return True


def check_fold_provenance(summary: dict, section: str, doc: dict, allow_debug: bool) -> bool:
    """Reconcile a folded input's self-reported build type with the artifact.

    Every folded section records the build type of the binary that produced
    it (`build_types` in the artifact, keyed by section), so a reader can
    tell exactly which codegen produced each number. A GENUINE mismatch -
    one input's memento_build_type differing from another's - fails closed:
    mixing debug and release numbers in one artifact would silently corrupt
    the trajectory. Inputs without a self-report (older binaries) warn, like
    the main input does.
    """
    build = doc.get("memento_build_type")
    recorded = summary.setdefault("build_types", {})
    if build is None:
        sys.stderr.write(
            f"summarize.py: WARNING: --{section} input carries no "
            "memento_build_type; provenance for that section is unverified.\n"
        )
        return True
    if build == "debug" and not allow_debug:
        sys.stderr.write(
            f"summarize.py: REFUSING debug-built --{section} input "
            "(memento_build_type == 'debug'); pass --allow-debug to override.\n"
        )
        return False
    main_build = summary.get("host", {}).get("memento_build_type")
    if main_build is not None and build != main_build:
        sys.stderr.write(
            f"summarize.py: REFUSING --{section} input: its memento_build_type "
            f"({build!r}) does not match the artifact's ({main_build!r}); "
            "re-run both benches from the same build.\n"
        )
        return False
    recorded[section] = build
    return True


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "input",
        help="Google Benchmark --benchmark_format=json output, or a prior summarize.py artifact",
    )
    ap.add_argument("-o", "--output", default=None, help="write here instead of stdout")
    ap.add_argument(
        "--allow-debug",
        action="store_true",
        help="summarize a debug-built bench run anyway (never commit the result)",
    )
    ap.add_argument(
        "--netwide",
        default=None,
        help="netwide_bytes --json output to fold in as the `netwide_bytes` section",
    )
    ap.add_argument(
        "--rebalance",
        default=None,
        help="fig5 raw JSON with hh_speed_rebalanced rows to fold in as the `rebalance` section",
    )
    ap.add_argument(
        "--appliance",
        default=None,
        help="memento_appliance --json output to fold in as the `appliance` section",
    )
    ap.add_argument(
        "--snapshot",
        default=None,
        help="snapshot_speed --json output to fold in as the `snapshot` section",
    )
    ap.add_argument(
        "--hhh",
        default=None,
        help="fig6_hhh_speed raw Google Benchmark JSON to fold in as the `hhh_speed` section",
    )
    ap.add_argument(
        "--controller",
        default=None,
        help="memento_appliance --controller --json output to fold in as the `controller` section",
    )
    ap.add_argument(
        "--hhh-error",
        default=None,
        help="fig8_hhh_error --json output to fold in as the `hhh_error` section",
    )
    args = ap.parse_args()

    with open(args.input, encoding="utf-8") as f:
        raw = json.load(f)
    if raw.get("generated_by") == "bench/summarize.py":
        summary = raw  # already reduced: carry the perf sections through
    else:
        summary = reduce_benchmarks(raw)
    if not check_provenance(summary, args.allow_debug):
        return 1
    if args.netwide:
        with open(args.netwide, encoding="utf-8") as f:
            doc = json.load(f)
        if not check_fold_provenance(summary, "netwide", doc, args.allow_debug):
            return 1
        summary["netwide_bytes"] = doc["netwide_bytes"]
        if "summary_delta" in doc:
            summary["summary_delta"] = doc["summary_delta"]
    if args.rebalance:
        with open(args.rebalance, encoding="utf-8") as f:
            rows = reduce_rebalance(json.load(f))
        if not rows:
            sys.stderr.write("summarize.py: --rebalance input has no _rebalanced rows\n")
            return 1
        summary["rebalance"] = rows
    if args.appliance:
        with open(args.appliance, encoding="utf-8") as f:
            doc = json.load(f)
        if "appliance" not in doc:
            sys.stderr.write("summarize.py: --appliance input has no appliance section\n")
            return 1
        if not check_fold_provenance(summary, "appliance", doc, args.allow_debug):
            return 1
        summary["appliance"] = doc["appliance"]
    if args.snapshot:
        with open(args.snapshot, encoding="utf-8") as f:
            doc = json.load(f)
        if "snapshot" not in doc:
            sys.stderr.write("summarize.py: --snapshot input has no snapshot section\n")
            return 1
        if not check_fold_provenance(summary, "snapshot", doc, args.allow_debug):
            return 1
        missing = [k for k in SNAPSHOT_SECONDS if k not in doc["snapshot"]]
        if missing:
            sys.stderr.write(
                f"summarize.py: --snapshot input lacks per-checkpoint seconds {missing}\n"
            )
            return 1
        summary["snapshot"] = doc["snapshot"]
    if args.hhh:
        with open(args.hhh, encoding="utf-8") as f:
            raw_hhh = json.load(f)
        reduced = reduce_benchmarks(raw_hhh)
        if not reduced["entries"]:
            sys.stderr.write("summarize.py: --hhh input has no benchmark rows\n")
            return 1
        doc = {"memento_build_type": reduced["host"].get("memento_build_type")}
        if not check_fold_provenance(summary, "hhh_speed", doc, args.allow_debug):
            return 1
        summary["hhh_speed"] = merge_hhh(
            summary.get("hhh_speed") or {},
            {
                "entries": reduced["entries"],
                "pairs": reduced["pairs"],
                "scaling": reduced["scaling"],
            },
        )
    if args.controller:
        with open(args.controller, encoding="utf-8") as f:
            doc = json.load(f)
        if "controller" not in doc:
            sys.stderr.write("summarize.py: --controller input has no controller section\n")
            return 1
        if not check_fold_provenance(summary, "controller", doc, args.allow_debug):
            return 1
        summary["controller"] = doc["controller"]
    if args.hhh_error:
        with open(args.hhh_error, encoding="utf-8") as f:
            doc = json.load(f)
        if "hhh_error" not in doc:
            sys.stderr.write("summarize.py: --hhh-error input has no hhh_error section\n")
            return 1
        if not check_fold_provenance(summary, "hhh_error", doc, args.allow_debug):
            return 1
        summary["hhh_error"] = doc["hhh_error"]
    text = json.dumps(summary, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
