#!/usr/bin/env python3
"""Summarize a prodsyn Chrome trace (and optional metrics-registry dump).

Reads the *.trace.json written by the benches (or any code that calls
Tracer::WriteChromeJson) and prints the spans ranked by total self time —
the time inside a span minus the time spent in its child spans, computed
per thread from the complete-event (ph "X") ts/dur/depth fields.

With --metrics it also prints the per-stage wall/p50/p99 table from the
matching *.metrics.json telemetry-registry dump.

Every chunk a ParallelFor executes is wrapped in a `pool.chunk` span, so
that row's count is the number of scheduled chunks and its self-time
spread shows per-chunk imbalance — wide variance inside one stage is
the skew signature that dynamic chunk claiming (docs/PERFORMANCE.md)
absorbs.

Usage:
  tools/trace_summary.py BENCH_perf_pipeline.trace.json \
      [--metrics BENCH_perf_pipeline.metrics.json] [--top N]

Exit status: 0 on success (even for an empty trace), 2 on unreadable or
non-trace input.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict


def load_events(path: str) -> list[dict]:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"trace_summary: cannot read {path}: {err}", file=sys.stderr)
        raise SystemExit(2)
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        print(f"trace_summary: {path} has no traceEvents array", file=sys.stderr)
        raise SystemExit(2)
    return [e for e in events if e.get("ph") == "X"]


def self_times(events: list[dict]) -> dict[str, dict[str, float]]:
    """Per-span-name totals: count, total wall us, total self us.

    Self time is computed per thread with a depth-based stack walk: events
    are sorted by start time; a child's duration is subtracted from the
    nearest enclosing span still open on that thread's stack.
    """
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"count": 0, "total_us": 0.0, "self_us": 0.0})
    child_us: dict[str, float] = defaultdict(float)
    by_tid: dict[int, list[dict]] = defaultdict(list)
    for e in events:
        by_tid[e.get("tid", 0)].append(e)
    for tid_events in by_tid.values():
        tid_events.sort(key=lambda e: (e.get("ts", 0.0),
                                       e.get("args", {}).get("depth", 0)))
        # Stack of (name, end_ts) for currently-open spans; a new event
        # whose start passes the top's end closes that span.
        stack: list[tuple[str, float]] = []
        for e in tid_events:
            ts = float(e.get("ts", 0.0))
            dur = float(e.get("dur", 0.0))
            name = e.get("name", "?")
            while stack and ts >= stack[-1][1]:
                stack.pop()
            if stack:
                # This event is nested in the top-of-stack span: its full
                # duration counts as the parent's child time.
                child_us[stack[-1][0]] += dur
            stack.append((name, ts + dur))
            s = stats[name]
            s["count"] += 1
            s["total_us"] += dur
    for name, s in stats.items():
        s["self_us"] = s["total_us"] - child_us.get(name, 0.0)
    return stats


def print_span_table(stats: dict[str, dict[str, float]], top: int) -> None:
    if not stats:
        print("no spans recorded (was PRODSYN_TRACE set?)")
        return
    rows = sorted(stats.items(), key=lambda kv: -kv[1]["self_us"])[:top]
    print(f"{'span':<28} {'count':>8} {'total_ms':>10} {'self_ms':>10} "
          f"{'avg_us':>9}")
    for name, s in rows:
        avg = s["total_us"] / s["count"] if s["count"] else 0.0
        print(f"{name:<28} {int(s['count']):>8} {s['total_us'] / 1e3:>10.2f} "
              f"{s['self_us'] / 1e3:>10.2f} {avg:>9.1f}")


def print_metrics(path: str) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"trace_summary: cannot read {path}: {err}", file=sys.stderr)
        raise SystemExit(2)
    # The dump is {"<section>": <registry snapshot>, ...}; each snapshot
    # has stages/histograms/gauges (see docs/OBSERVABILITY.md).
    dropped_by_section: dict[str, int] = {}
    for section, snap in doc.items():
        gauges = snap.get("gauges", []) if isinstance(snap, dict) else []
        for g in gauges:
            if g.get("name") == "trace.dropped_spans" and g.get("value", 0):
                dropped_by_section[section] = g["value"]
        stages = snap.get("stages", []) if isinstance(snap, dict) else []
        if not stages:
            continue
        print(f"\n[{section}] stages:")
        print(f"  {'stage':<22} {'items':>10} {'wall_ms':>10} "
              f"{'p50_ms':>10} {'p99_ms':>10}")
        for stage in stages:
            lat = stage.get("latency", {})
            print(f"  {stage.get('name', '?'):<22} "
                  f"{stage.get('items', 0):>10} "
                  f"{stage.get('wall_ms', 0.0):>10.2f} "
                  f"{lat.get('p50', 0.0) / 1e6:>10.4f} "
                  f"{lat.get('p99', 0.0) / 1e6:>10.4f}")
        if gauges:
            print(f"  gauges: " + ", ".join(
                f"{g.get('name', '?')}={g.get('value', 0)}" for g in gauges))
    for section, dropped in dropped_by_section.items():
        # Nonzero drops mean the span table above under-counts: the ring
        # buffer overflowed and the trace is incomplete.
        print(f"trace_summary: WARNING [{section}] trace.dropped_spans="
              f"{dropped}: ring buffer overflowed, span counts above are "
              f"incomplete", file=sys.stderr)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="*.trace.json (Chrome trace-event file)")
    parser.add_argument("--metrics", help="*.metrics.json registry dump")
    parser.add_argument("--top", type=int, default=20,
                        help="rows in the span table (default 20)")
    args = parser.parse_args(argv[1:])

    events = load_events(args.trace)
    print(f"{args.trace}: {len(events)} complete events, "
          f"{len({e.get('tid', 0) for e in events})} threads")
    print_span_table(self_times(events), args.top)
    if args.metrics:
        print_metrics(args.metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
