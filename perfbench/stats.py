"""Arithmetic of the benchmark: medians, quartiles, tail percentiles,
failure shares and span self time. Pure functions; test_stats.py checks
them on hand-computed inputs."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

# Candidate tail percentiles, highest first. A percentile is reported only
# when at least TAIL_MIN_BEYOND samples lie beyond it.
TAIL_PERCENTILES = (99.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float | None:
    """The highest of TAIL_PERCENTILES whose nearest-rank sample has at
    least TAIL_MIN_BEYOND of the n samples beyond it, or None."""
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return pct
    return None


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the supported tail; with too few samples for
    any, (100, max)."""
    pct = tail_percentile(len(values))
    if pct is None:
        return 100.0, max(values)
    return pct, percentile(values, pct)


def completed_share(submitted: int, failed: int) -> float:
    """1 - failed_offer_share: the share of submitted offers whose call
    neither errored nor came back incomplete. Nothing submitted counts as
    nothing completed."""
    if submitted <= 0:
        return 0.0
    return (submitted - failed) / submitted


def summary(values: list[float]) -> dict:
    """Sample count, quartiles and supported tail of a list of samples."""
    result = {"n": len(values), "median": median(values)}
    if len(values) >= 2:
        result["q1"], _, result["q3"] = quartiles(values)
    result["tail_pct"], result["tail"] = tail(values)
    return result


def self_times(spans: list[dict]) -> list[float]:
    """Per span, its duration minus the part of it its children cover.

    Each span is a dict with "start", "end" and "parent" (index into
    `spans`, or -1). Overlapping children are counted once; a child
    sticking out of its parent is clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]].append((span["start"], span["end"]))
    result = []
    for i, span in enumerate(spans):
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, [])):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result.append((end - start) - covered)
    return result


def spans_from_trace(doc: dict) -> list[dict]:
    """Spans of a Chrome trace written by prodsyn_perfbench, in span-index
    order, with start/end in microseconds."""
    spans = []
    for event in doc["traceEvents"]:
        if event.get("ph") != "X":
            continue
        args = event["args"]
        spans.append({
            "index": args["span"],
            "name": event["name"],
            "start": float(event["ts"]),
            "end": float(event["ts"]) + float(event["dur"]),
            "parent": args["parent"],
            "round": args["round"],
        })
    spans.sort(key=lambda s: s["index"])
    if [s["index"] for s in spans] != list(range(len(spans))):
        raise ValueError("trace span indices are not 0..n-1")
    return spans


def layer_summary(spans: list[dict], self_us: list[float],
                  name: str) -> dict:
    """Per-round calls and busy (self) time of the spans called `name`,
    plus the duration distribution over every round, in microseconds.
    `self_us` is self_times(spans)."""
    rounds = sorted({s["round"] for s in spans})
    busy = {r: 0.0 for r in rounds}
    calls = {r: 0 for r in rounds}
    durations = []
    for span, own in zip(spans, self_us):
        if span["name"] != name:
            continue
        busy[span["round"]] += own
        calls[span["round"]] += 1
        durations.append(span["end"] - span["start"])
    summary = {
        "calls": median(list(calls.values())) if rounds else 0,
        "busy_us": median(list(busy.values())) if rounds else 0.0,
        "busy_us_by_round": [busy[r] for r in rounds],
        "samples": len(durations),
        "p50_us": 0.0,
        "tail_pct": 0.0,
        "tail_us": 0.0,
    }
    if durations:
        summary["p50_us"] = percentile(durations, 50.0)
        summary["tail_pct"], summary["tail_us"] = tail(durations)
    return summary
