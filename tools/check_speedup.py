#!/usr/bin/env python3
"""CI perf gate over the BENCH_*.json thread-sweep artifacts.

Reads one or more sweep files (bench_perf_pipeline / bench_offline_matching
emit them; see docs/BENCHMARKING.md) and fails when any reports a
speedup_4_over_1 below the threshold. Sweeps that carry the LR-training
sub-stage headline (lr_train_speedup_4_over_1, emitted by
bench_offline_matching) are additionally gated at --lr-min; sweeps without
the field are unaffected. The gate only means something on a machine that
can actually run 4 threads in parallel, so it SKIPS (exit 0, with a
report) when the sweep's hardware default resolved to fewer than
--require-threads workers — e.g. a 1-core laptop, where a 4-thread run is
pure timesharing overhead and the headline is physically capped at 1.0.

Exit codes: 0 pass/skip, 1 gate failure, 2 unreadable/malformed input.

Usage:
  tools/check_speedup.py BENCH_perf_pipeline.paper.json \
      BENCH_offline_matching.paper.json --min 2.5 --lr-min 2.5
"""

import argparse
import json
import sys


def hardware_threads(doc):
    """What threads=0 resolved to: the sweep machine's pool width."""
    for run in doc.get("runs", []):
        if run.get("threads") == 0:
            return run.get("effective_threads", 0)
    return 0


def describe_environment(doc):
    """One-line echo of the sweep's "environment" block (hardware + knob
    context emitted by the benches); empty string for pre-block sweeps."""
    env = doc.get("environment")
    if not isinstance(env, dict):
        return ""
    parts = [f"{key}={env[key]}" for key in sorted(env)]
    return "environment: " + " ".join(parts)


def describe(doc):
    world = doc.get("world", {})
    offers = world.get("incoming_offers", world.get("historical_offers", "?"))
    return (
        f"bench={doc.get('bench', '?')} scale={doc.get('scale', '?')} "
        f"offers={offers} merchants={world.get('merchants', '?')} "
        f"categories={world.get('categories', '?')}"
    )


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("files", nargs="+", help="BENCH_*.json sweep files")
    parser.add_argument(
        "--min",
        type=float,
        default=2.5,
        help="minimum acceptable speedup_4_over_1 (default: 2.5)",
    )
    parser.add_argument(
        "--lr-min",
        type=float,
        default=2.5,
        help="minimum acceptable lr_train_speedup_4_over_1 for sweeps "
        "that report it (default: 2.5)",
    )
    parser.add_argument(
        "--require-threads",
        type=int,
        default=4,
        help="skip the gate when the sweep machine's hardware default "
        "resolved below this many workers (default: 4)",
    )
    args = parser.parse_args()

    failures = 0
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, ValueError) as err:
            print(f"check_speedup: ERROR {path}: {err}")
            return 2
        speedup = doc.get("speedup_4_over_1")
        if not isinstance(speedup, (int, float)):
            print(f"check_speedup: ERROR {path}: no speedup_4_over_1 field")
            return 2
        lr_speedup = doc.get("lr_train_speedup_4_over_1")
        env_line = describe_environment(doc)
        if env_line:
            print(f"check_speedup: {path}: {env_line}")
        hw = hardware_threads(doc)
        if hw < args.require_threads:
            print(
                f"check_speedup: SKIP {path}: machine has {hw} hardware "
                f"thread(s) < {args.require_threads}; speedup_4_over_1="
                f"{speedup:.3f} not gated ({describe(doc)})"
            )
            continue
        verdict = "PASS" if speedup >= args.min else "FAIL"
        print(
            f"check_speedup: {verdict} {path}: speedup_4_over_1="
            f"{speedup:.3f} (min {args.min}) ({describe(doc)})"
        )
        if verdict == "FAIL":
            failures += 1
        if isinstance(lr_speedup, (int, float)):
            lr_verdict = "PASS" if lr_speedup >= args.lr_min else "FAIL"
            print(
                f"check_speedup: {lr_verdict} {path}: "
                f"lr_train_speedup_4_over_1={lr_speedup:.3f} "
                f"(min {args.lr_min}) ({describe(doc)})"
            )
            if lr_verdict == "FAIL":
                failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
