#!/usr/bin/env python3
"""The prodsyn benchmark: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (and through it the library) in .bench_build/ as a Release
build; later calls only re-check the build. The workload then runs in
its own process (prodsyn_perfbench) as a closed loop of one caller.

Workloads (sizes in perfbench/perfbench.cc):
  wide-taxonomy     296 leaf categories, uncategorized incoming offers:
                    every offer goes through the naive-Bayes title
                    classifier, which scans every class.
  categorized-feed  37 leaves, feeds carry categories (0 classifications),
                    4-10 junk rows per page: extraction + reconciliation.
  merchant-feeds    74 leaves, one Synthesize call per merchant (about
                    190 calls of about 19 offers): per-call costs dominate.

Each run repeats rounds of a cold LearnOffline (publishing a snapshot), a
warm LearnOffline restoring it, and full Synthesize passes, all at 1
thread, until --seconds would be overrun; each time metric is the median
of its samples, and single-threaded samples run on the CPUs of the
affinity mask in turn. The 4-thread phases are checked for identical
output on every run but timed in the traced run (pool.* metrics): on a
shared machine they swing with the neighbours' load far more than any
bound allows.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a single-threaded replay of each phase through the layers' public
functions (spans written to .bench_build/runs/<run>/trace.json as Chrome
trace events; tools/trace_summary.py reads them). Every run checks the
outputs (1- vs 4-thread products, warm vs cold, replay vs program) and the
workload's shape; any failure prints "correct": false and exits 1.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. The line before it records the environment (CPUs, affinity,
cgroup cpu.max, load average, compiler, build type and flags). The full
record of each run, raw samples and their quartiles included, is written
to .bench_build/results/. perfbench/test_stats.py checks the arithmetic.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "prodsyn_perfbench"
WORKLOADS = ("wide-taxonomy", "categorized-feed", "merchant-feeds")
CHILD_TIMEOUT_S = 170

# name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "learn_s_1t": "s",
    "restore_s": "s",
    "synth_offers_per_s_1t": "offers/s",
    "peak_rss_mb": "MB",
    "snapshot_mb": "MB",
    "synthesized_attributes": "count",
    "attribute_precision": "ratio",
    "product_precision": "ratio",
    "completed_offer_share": "ratio",
}

RUNTIME_LAYERS = ("classification", "extraction", "reconciliation",
                  "clustering", "fusion")
# Offline layer span -> its per-layer time metric.
OFFLINE_LAYERS = {
    "bag_index.build": "bag_index.build_ms",
    "training_set.build": "training_set.build_ms",
    "lr.train": "lr.train_ms",
    "classifier.score": "classifier.score_ms",
    "title_classifier.train": "title_classifier.train_ms",
    "reconciler.build": "reconciler.build_ms",
    "snapshot.save": "snapshot.save_ms",
    "snapshot.load": "snapshot.load_ms",
}
# Replay counters reported as they are, with their units.
COUNTERS = {
    "extraction.pairs_out": "count",
    "extraction.pages_missing": "count",
    "reconciliation.pairs_in": "count",
    "reconciliation.pairs_kept": "count",
    "bag_index.candidates": "count",
    "bag_index.rss_delta_mb": "MB",
    "training_set.examples": "count",
    "training_set.positives": "count",
    "lr.iterations": "count",
    "classifier.candidates": "count",
    "classifier.predicted_valid": "count",
    "reconciler.mappings": "count",
    "snapshot.bytes": "bytes",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in RUNTIME_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_ms"] = "ms"
        units[f"{layer}.p50_us"] = "us"
        units[f"{layer}.p99_us"] = "us"
        units[f"{layer}.tail_pct"] = "%"
    units.update({
        "synthesize.calls": "count",
        "synthesize.call_p50_ms": "ms",
        "synthesize.call_p99_ms": "ms",
        "synthesize.call_tail_pct": "%",
        "synthesize.residual_ms": "ms",
    })
    units.update({metric: "ms" for metric in OFFLINE_LAYERS.values()})
    units.update(COUNTERS)
    units["offline.residual_ms"] = "ms"
    units["trace.overhead_pct"] = "%"
    units.update({
        "pool.learn_s_4t": "s",
        "pool.learn_speedup_4_over_1": "x",
        "pool.synth_offers_per_s_4t": "offers/s",
        "pool.synth_speedup_4_over_1": "x",
    })
    return units


PER_LAYER = per_layer_units()


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------

def build() -> dict:
    """Configures (once) and builds the benchmark binary; returns the
    compiler/build-type/flags record CMake wrote."""
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        info = BUILD / "build_info.json"
        if not info.exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release", *generator],
                stdout=sys.stderr, stderr=sys.stderr)
            if configure.returncode != 0:
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                info.unlink(missing_ok=True)
                raise SystemExit("perfbench: configure failed")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        made = subprocess.run(
            ["cmake", "--build", str(BUILD), "--target", "prodsyn_perfbench",
             "-j", jobs], stdout=sys.stderr, stderr=sys.stderr)
        if made.returncode != 0 or not BINARY.exists():
            raise SystemExit("perfbench: build failed")
        return json.loads(info.read_text())


# --------------------------------------------------------------------------
# Environment
# --------------------------------------------------------------------------

def read_text(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return None


def optimized(build_info: dict) -> bool:
    flags = build_info.get("cxx_flags", "").split()
    levels = [f for f in flags if f.startswith("-O")]
    return (build_info.get("build_type") in ("Release", "RelWithDebInfo",
                                             "MinSizeRel")
            and bool(levels) and levels[-1] != "-O0")


def environment(build_info: dict, load_start: tuple) -> dict:
    env = {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cgroup_cpu_max": read_text("/sys/fs/cgroup/cpu.max") or "absent",
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "compiler": build_info.get("compiler"),
        "build_type": build_info.get("build_type"),
        "cxx_flags": build_info.get("cxx_flags"),
        "optimized": optimized(build_info),
    }
    if not env["optimized"]:
        log("WARNING: timings below come from an unoptimized build")
    return env


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def shape_failures(workload: str, raw: dict) -> list[str]:
    """Counts that define each workload, checked on every run."""
    failures = []
    classified = raw["classification_calls_per_pass"]
    if workload == "wide-taxonomy" and classified != raw["incoming_offers"]:
        failures.append(f"wide-taxonomy classified {classified} of "
                        f"{raw['incoming_offers']} offers")
    if workload == "categorized-feed" and classified != 0:
        failures.append(f"categorized-feed classified {classified} offers")
    if workload == "merchant-feeds" and raw["synthesize_calls"] < 150:
        failures.append(f"merchant-feeds made {raw['synthesize_calls']} "
                        "Synthesize calls, want >= 150")
    return failures


def end_to_end(raw: dict) -> dict[str, float]:
    offers = raw["incoming_offers"]
    return {
        "setup_s": stats.median(raw["setup_s"]),
        "learn_s_1t": stats.median(raw["learn_s_1t"]),
        "restore_s": stats.median(raw["restore_s"]),
        "synth_offers_per_s_1t": offers / stats.median(raw["synth_pass_s_1t"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "snapshot_mb": raw["snapshot_bytes"] / (1024.0 * 1024.0),
        "synthesized_attributes": raw["synthesized_attributes"],
        "attribute_precision": raw["attribute_precision"],
        "product_precision": raw["product_precision"],
        "completed_offer_share": stats.completed_share(
            int(raw["offers_submitted"]), int(raw["offers_failed"])),
    }


def per_layer(raw: dict) -> tuple[dict[str, float], list[str]]:
    with open(raw["trace_file"], encoding="utf-8") as f:
        spans = stats.spans_from_trace(json.load(f))
    self_us = stats.self_times(spans)
    failures = []
    metrics: dict[str, float] = {}
    rounds = len(raw["synth_pass_s_1t"])

    runtime_busy_us = [0.0] * rounds
    for layer in RUNTIME_LAYERS:
        s = stats.layer_summary(spans, self_us, layer)
        metrics[f"{layer}.calls"] = s["calls"]
        metrics[f"{layer}.busy_ms"] = s["busy_us"] / 1e3
        metrics[f"{layer}.p50_us"] = s["p50_us"]
        metrics[f"{layer}.p99_us"] = s["tail_us"]
        metrics[f"{layer}.tail_pct"] = s["tail_pct"]
        for r, busy in enumerate(s["busy_us_by_round"]):
            runtime_busy_us[r] += busy

    call = stats.layer_summary(spans, self_us, "synthesize.call")
    metrics["synthesize.calls"] = call["calls"]
    metrics["synthesize.call_p50_ms"] = call["p50_us"] / 1e3
    metrics["synthesize.call_p99_ms"] = call["tail_us"] / 1e3
    metrics["synthesize.call_tail_pct"] = call["tail_pct"]
    metrics["synthesize.residual_ms"] = stats.median([
        wall * 1e3 - busy / 1e3
        for wall, busy in zip(raw["synth_pass_s_1t"], runtime_busy_us)])

    offline_busy_us = [0.0] * rounds
    for span_name, metric in OFFLINE_LAYERS.items():
        s = stats.layer_summary(spans, self_us, span_name)
        metrics[metric] = s["busy_us"] / 1e3
        if span_name != "snapshot.load":  # not part of a cold learn
            for r, busy in enumerate(s["busy_us_by_round"]):
                offline_busy_us[r] += busy
    metrics["offline.residual_ms"] = stats.median([
        wall * 1e3 - busy / 1e3
        for wall, busy in zip(raw["learn_s_1t"], offline_busy_us)])

    for name in COUNTERS:
        metrics[name] = raw["counters"][name]
    metrics["trace.overhead_pct"] = stats.median([
        (replay / wall - 1.0) * 100.0
        for replay, wall in zip(raw["runtime_replay_s"],
                                raw["synth_pass_s_1t"])])

    learn_1t = stats.median(raw["learn_s_1t"])
    learn_4t = stats.median(raw["learn_s_4t"])
    synth_1t = stats.median(raw["synth_pass_s_1t"])
    synth_4t = stats.median(raw["synth_pass_s_4t"])
    metrics["pool.learn_s_4t"] = learn_4t
    metrics["pool.learn_speedup_4_over_1"] = learn_1t / learn_4t
    metrics["pool.synth_offers_per_s_4t"] = raw["incoming_offers"] / synth_4t
    metrics["pool.synth_speedup_4_over_1"] = synth_1t / synth_4t

    # The replay's counts must repeat the program's.
    if metrics["classification.calls"] != raw["classification_calls_per_pass"]:
        failures.append("replay classification calls differ from Synthesize")
    if metrics["synthesize.calls"] != raw["synthesize_calls"]:
        failures.append("replay made a different number of Synthesize calls")
    return metrics, failures


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------

def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv[1:])

    build_info = build()
    load_start = os.getloadavg()
    run_dir = BUILD / "runs" / (f"{args.workload}-seed{args.seed}-"
                                f"trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    started = time.monotonic()
    try:
        child = subprocess.run(
            [str(BINARY), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace), "--out", str(run_dir)],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish in {CHILD_TIMEOUT_S} s")
        return 1
    if child.returncode != 0 or not child.stdout.strip():
        log(f"prodsyn_perfbench exited with {child.returncode}")
        return 1
    raw = json.loads(child.stdout.strip().splitlines()[-1])
    log(f"{args.workload} seed {args.seed}: child ran "
        f"{time.monotonic() - started:.1f} s")

    failures = [f"output check failed ({raw['failures']} failures, "
                "see stderr)"] if raw["failures"] else []
    failures += shape_failures(args.workload, raw)
    try:
        if args.trace:
            values, replay_failures = per_layer(raw)
            failures += replay_failures
            units = PER_LAYER
        else:
            values = end_to_end(raw)
            units = END_TO_END
    except (ValueError, KeyError, OSError, ZeroDivisionError) as err:
        # A run cut short by a failed check has no samples to report.
        log(f"no metrics ({err!r}); failures: {failures}")
        return 1

    env = environment(build_info, load_start)
    attempted = int(raw.get("offers_submitted", raw["incoming_offers"]))
    failed = int(raw.get("offers_failed", 0))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    results_dir = BUILD / "results"
    results_dir.mkdir(exist_ok=True)
    samples = {key: stats.summary(value) for key, value in raw.items()
               if isinstance(value, list) and value}
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": env, "samples": samples,
              "raw": raw, "failures": failures, "result": result}
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    for name, unit in units.items():
        print(f"{args.workload:<17} {name:<30} {values[name]:>16.6g} {unit}")
    for failure in failures:
        log(f"FAILED: {failure}")
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
