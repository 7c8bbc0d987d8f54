#!/usr/bin/env python3
"""Automated Amdahl attribution report over BENCH_*.json thread sweeps.

Reads the sweep artifacts written by bench_perf_pipeline /
bench_offline_matching (with their per-run "sched" blocks — the
scheduler-observability gauges of src/util/sched_stats.h) and explains
*why* the observed speedup is what it is:

  * per-stage serial fraction measured from the region accounting (the
    sequential merge wall vs the parallel region wall), and the Amdahl
    ceiling it implies at each swept thread count;
  * per-region load-balance factor (slowest chunk vs mean chunk) and
    effective parallelism (chunk-work sum / region wall);
  * scheduling-overhead culprits: chunk grains so fine the per-chunk
    dispatch cost matters, and chunk-cursor claim contention;
  * a diagnosis line per region naming the dominant culprit and, where
    the numbers point somewhere actionable, a grain suggestion (each
    ParallelFor site's grain is a named constant next to its call).

The report is advisory — it never fails the build on a perf number; the
only nonzero exits are for unreadable or schema-less input. Sweeps
written before the "sched" block exists (or with PRODSYN_SCHED_STATS=0)
produce a header-only report.

Usage:
  tools/scaling_report.py BENCH_perf_pipeline.json [BENCH_offline...json]
      [--json out.json]

Exit codes: 0 report produced, 2 unreadable/malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

# The per-region gauge fields PublishSchedStats emits, i.e. the suffixes
# of "region.<label>.<field>" keys. Ordered longest-first so suffix
# matching never mistakes chunk_sum_ns for wall_ns.
REGION_FIELDS = (
    "imbalance_permille",
    "claim_attempts",
    "chunk_sum_ns",
    "chunk_min_ns",
    "chunk_max_ns",
    "invocations",
    "merge_ns",
    "wall_ns",
    "chunks",
)

# Heuristic thresholds for the diagnosis lines.
IMBALANCE_WARN = 1.5  # slowest chunk > 1.5x the mean chunk
FINE_GRAIN_US = 50.0  # mean chunk under 50 us: dispatch cost territory
CLAIM_EXCESS_WARN = 0.5  # >50% more claim attempts than executed chunks
SERIAL_WARN = 0.25  # stage spends >25% of its time in the serial tail


def parse_regions(sched):
    """Region gauge map {label: {field: value}} from a flat "sched" dict.

    Keys look like "region.runtime.offer_chain.wall_ns" — labels contain
    dots, so fields are matched as suffixes.
    """
    regions = {}
    for key, value in sched.items():
        if not key.startswith("region."):
            continue
        rest = key[len("region."):]
        for field in REGION_FIELDS:
            suffix = "." + field
            if rest.endswith(suffix):
                label = rest[: -len(suffix)]
                if label:
                    regions.setdefault(label, {})[field] = value
                break
    return regions


def region_metrics(region):
    """Derived per-region metrics from the raw gauge fields."""
    chunks = region.get("chunks", 0)
    wall_ns = region.get("wall_ns", 0)
    chunk_sum_ns = region.get("chunk_sum_ns", 0)
    merge_ns = region.get("merge_ns", 0)
    claim_attempts = region.get("claim_attempts", 0)
    metrics = {
        "chunks": chunks,
        "invocations": region.get("invocations", 0),
        "wall_ms": wall_ns / 1e6,
        "merge_ms": merge_ns / 1e6,
        # Work-sum over wall: how many workers the region actually kept
        # busy on average (<= pool width; 1.0 means no overlap at all).
        "effective_parallelism": chunk_sum_ns / wall_ns if wall_ns else 0.0,
        # Slowest chunk vs mean chunk in the region's worst invocation
        # (>= 1.0; 1.0 = perfectly balanced).
        "imbalance": region.get("imbalance_permille", 0) / 1000.0,
        "mean_chunk_us": chunk_sum_ns / chunks / 1e3 if chunks else 0.0,
        # Claim-cursor fetch_adds beyond the chunks actually executed, as
        # a fraction of executed chunks (inline single-chunk regions: 0).
        "claim_excess": (claim_attempts - chunks) / chunks if chunks else 0.0,
        # The region's own Amdahl split: sequential merge tail over
        # (merge + parallel wall). Matches stage.serial_fraction.<label>.
        "serial_fraction": (
            merge_ns / (merge_ns + wall_ns) if merge_ns + wall_ns else 0.0
        ),
    }
    return metrics


def amdahl_ceiling(serial_fraction, threads):
    """Max speedup at `threads` workers given the serial fraction."""
    if threads <= 0:
        return 1.0
    s = min(max(serial_fraction, 0.0), 1.0)
    return 1.0 / (s + (1.0 - s) / threads)


def diagnose(metrics):
    """Culprit lines for one region's derived metrics (may be empty)."""
    notes = []
    if metrics["serial_fraction"] > SERIAL_WARN:
        notes.append(
            f"Amdahl-bound: sequential merge is "
            f"{metrics['serial_fraction'] * 100:.0f}% of the stage; "
            f"parallelizing the region further cannot repay it"
        )
    if metrics["imbalance"] > IMBALANCE_WARN and metrics["chunks"] > 1:
        notes.append(
            f"load imbalance: slowest chunk {metrics['imbalance']:.2f}x "
            f"the mean in the worst invocation; lower the call site's grain constant "
            f"(k*Grain next to its ParallelFor) for finer chunks"
        )
    if 0.0 < metrics["mean_chunk_us"] < FINE_GRAIN_US:
        notes.append(
            f"grain too fine: mean chunk {metrics['mean_chunk_us']:.1f} us; "
            f"raise the call site's grain constant (k*Grain) to amortize "
            f"dispatch"
        )
    if metrics["claim_excess"] > CLAIM_EXCESS_WARN:
        notes.append(
            f"cursor contention: {metrics['claim_excess'] * 100:.0f}% "
            f"excess claim attempts on the chunk cursor"
        )
    return notes


def run_sections(doc):
    """(section name, wall_ms key, sched key) triples for one sweep doc.

    bench_perf_pipeline reports one runtime wall per run;
    bench_offline_matching reports per-phase walls with two registries
    (the generate pool and the title-match pool).
    """
    runs = doc.get("runs", [])
    if not runs:
        return []
    probe = runs[0]
    sections = []
    if "wall_ms" in probe:
        sections.append(("runtime", "wall_ms", "sched"))
    if "generate_ms" in probe:
        sections.append(("generate", "generate_ms", "sched"))
    if "title_match_ms" in probe and "title_sched" in probe:
        sections.append(("title_match", "title_match_ms", "title_sched"))
    return sections


def analyze_section(runs, wall_key, sched_key):
    """One section's scaling analysis across the swept thread counts."""
    baseline = next((r for r in runs if r.get("threads") == 1), None)
    if baseline is None:
        return None
    wall_1 = baseline.get(wall_key, 0.0)
    base_sched = baseline.get(sched_key, {}) or {}
    base_regions = parse_regions(base_sched)
    # Serial fraction measured on the 1-thread run: everything outside
    # the instrumented parallel regions is serial by construction.
    region_wall_1 = sum(r.get("wall_ns", 0) for r in base_regions.values())
    serial_basis = "measured"
    if region_wall_1 == 0:
        # Single-chunk plans run inline without a pool, so the 1-thread
        # run usually carries no region accounting at all. Estimate the
        # parallel work from the widest run instead: chunk_sum_ns is the
        # summed per-chunk wall across workers, i.e. approximately what
        # the regions would cost executed back-to-back on one thread
        # (biased high by contention, so the serial fraction — and the
        # Amdahl ceiling — err conservative).
        widest = max(
            runs,
            key=lambda r: sum(
                f.get("chunk_sum_ns", 0)
                for f in parse_regions(r.get(sched_key, {}) or {}).values()
            ),
        )
        region_wall_1 = sum(
            f.get("chunk_sum_ns", 0)
            for f in parse_regions(widest.get(sched_key, {}) or {}).values()
        )
        if region_wall_1:
            serial_basis = "estimated"
    serial_ms_1 = max(0.0, wall_1 - region_wall_1 / 1e6)
    serial_fraction = serial_ms_1 / wall_1 if wall_1 else 0.0

    threads_rows = []
    for run in runs:
        threads = run.get("threads")
        wall_t = run.get(wall_key, 0.0)
        effective = run.get("effective_threads", threads)
        sched = run.get(sched_key, {}) or {}
        regions = {
            label: region_metrics(fields)
            for label, fields in parse_regions(sched).items()
        }
        row = {
            "threads": threads,
            "effective_threads": effective,
            "wall_ms": wall_t,
            "observed_speedup": wall_1 / wall_t if wall_t else 0.0,
            "amdahl_ceiling": amdahl_ceiling(serial_fraction, effective),
            "regions": regions,
        }
        for label in sorted(regions):
            regions[label]["diagnosis"] = diagnose(regions[label])
        threads_rows.append(row)
    return {
        "serial_fraction": serial_fraction,
        "serial_basis": serial_basis,
        "serial_ms_1": serial_ms_1,
        "wall_ms_1": wall_1,
        "runs": threads_rows,
    }


def analyze(doc):
    """Full report structure for one sweep document."""
    report = {
        "bench": doc.get("bench", "?"),
        "scale": doc.get("scale", "?"),
        "environment": doc.get("environment"),
        "sections": {},
    }
    runs = doc.get("runs", [])
    for name, wall_key, sched_key in run_sections(doc):
        section = analyze_section(runs, wall_key, sched_key)
        if section is not None:
            report["sections"][name] = section
    return report


def render_text(report, out=sys.stdout):
    head = f"== scaling report: {report['bench']} ({report['scale']} scale) =="
    print(head, file=out)
    env = report.get("environment")
    if isinstance(env, dict):
        print(
            "   "
            + " ".join(f"{k}={env[k]}" for k in sorted(env)),
            file=out,
        )
    if not report["sections"]:
        print(
            "   no sched blocks in the sweep (old artifact or "
            "PRODSYN_SCHED_STATS=0): nothing to attribute",
            file=out,
        )
        return
    for name, section in report["sections"].items():
        basis = (
            ""
            if section.get("serial_basis", "measured") == "measured"
            else ", parallel work estimated from the widest run"
        )
        print(
            f"\n-- {name}: serial fraction "
            f"{section['serial_fraction'] * 100:.1f}% "
            f"({section['serial_ms_1']:.2f} of {section['wall_ms_1']:.2f} ms "
            f"outside parallel regions at 1 thread{basis}) --",
            file=out,
        )
        print(
            f"   {'threads':>7} {'wall_ms':>10} {'speedup':>8} "
            f"{'amdahl_max':>10}",
            file=out,
        )
        for row in section["runs"]:
            print(
                f"   {row['threads']:>7} {row['wall_ms']:>10.2f} "
                f"{row['observed_speedup']:>8.2f} "
                f"{row['amdahl_ceiling']:>10.2f}",
                file=out,
            )
        # Region detail from the widest run (the most interesting one).
        widest = max(
            section["runs"],
            key=lambda r: r.get("effective_threads") or 0,
        )
        if widest["regions"]:
            print(
                f"   regions at {widest['threads']} thread(s) "
                f"(effective {widest['effective_threads']}):",
                file=out,
            )
        for label in sorted(widest["regions"]):
            m = widest["regions"][label]
            print(
                f"     {label:<24} wall {m['wall_ms']:>9.2f} ms  "
                f"eff-par {m['effective_parallelism']:>5.2f}  "
                f"imbalance {m['imbalance']:>5.2f}  "
                f"serial {m['serial_fraction'] * 100:>5.1f}%  "
                f"chunks {m['chunks']}",
                file=out,
            )
            for note in m["diagnosis"]:
                print(f"       ! {note}", file=out)


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("files", nargs="+", help="BENCH_*.json sweep files")
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write the reports as a JSON array to PATH ('-' = stdout)",
    )
    args = parser.parse_args(argv[1:])

    reports = []
    for path in args.files:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, ValueError) as err:
            print(f"scaling_report: ERROR {path}: {err}", file=sys.stderr)
            return 2
        if not isinstance(doc.get("runs"), list):
            print(
                f"scaling_report: ERROR {path}: no runs array "
                f"(not a sweep artifact?)",
                file=sys.stderr,
            )
            return 2
        report = analyze(doc)
        report["path"] = path
        render_text(report)
        print()
        reports.append(report)
    if args.json:
        payload = json.dumps(reports, indent=2)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as f:
                f.write(payload + "\n")
            print(f"scaling_report: wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
