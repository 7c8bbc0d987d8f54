#!/usr/bin/env python3
"""Unit tests for the scaling_report.py attribution math.

Runs against a synthetic sweep fixture with hand-computable numbers:
a 100 ms single-thread run whose one instrumented region covers 80 ms
(serial fraction 0.2 -> Amdahl ceiling 2.5 at 4 threads), and a 4-thread
run constructed to trip every diagnosis heuristic. Registered as the
ctest target `scaling_report_math`; exits non-zero on any expectation
failure, printing one FAIL line per miss.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import scaling_report  # noqa: E402

FAILURES: list[str] = []


def check(name: str, got, want, tol: float = 0.0) -> None:
    if isinstance(want, float) or tol:
        ok = abs(got - want) <= tol
    else:
        ok = got == want
    if not ok:
        FAILURES.append(f"FAIL {name}: got {got!r}, want {want!r}")


def synthetic_doc() -> dict:
    """A perf_pipeline-shaped sweep with hand-computable attribution.

    1 thread: 100 ms wall, the "runtime.fuse" region spans 80 ms ->
    20 ms (20%) serial. 4 threads: 40 ms wall -> observed speedup 2.5,
    exactly the Amdahl ceiling 1 / (0.2 + 0.8/4).
    """
    sched_1 = {
        "pool.workers": 1,
        "region.runtime.fuse.invocations": 1,
        "region.runtime.fuse.chunks": 1,
        "region.runtime.fuse.wall_ns": 80_000_000,
        "region.runtime.fuse.chunk_sum_ns": 80_000_000,
        "region.runtime.fuse.chunk_min_ns": 80_000_000,
        "region.runtime.fuse.chunk_max_ns": 80_000_000,
        "region.runtime.fuse.claim_attempts": 1,
        "region.runtime.fuse.merge_ns": 0,
        "region.runtime.fuse.imbalance_permille": 1000,
    }
    # 4 threads: two invocations of 2 chunks (40 + 10 ms, then 10 + 20
    # ms) summing to 80 ms inside a 25 ms region wall (effective
    # parallelism 3.2). The gauge is the worst invocation's max/mean,
    # 40 / 25 = 1.6, not the whole run's 40 / 20 = 2.0; 8 claim attempts
    # for 4 chunks (100% excess); 20 ms merge tail (region serial
    # fraction 20/45).
    sched_4 = {
        "pool.workers": 4,
        "region.runtime.fuse.invocations": 2,
        "region.runtime.fuse.chunks": 4,
        "region.runtime.fuse.wall_ns": 25_000_000,
        "region.runtime.fuse.chunk_sum_ns": 80_000_000,
        "region.runtime.fuse.chunk_min_ns": 10_000_000,
        "region.runtime.fuse.chunk_max_ns": 40_000_000,
        "region.runtime.fuse.claim_attempts": 8,
        "region.runtime.fuse.merge_ns": 20_000_000,
        "region.runtime.fuse.imbalance_permille": 1600,
    }
    return {
        "bench": "perf_pipeline",
        "scale": "synthetic",
        "environment": {"hardware_threads": 4, "scale": "synthetic"},
        "runs": [
            {
                "threads": 1,
                "effective_threads": 1,
                "wall_ms": 100.0,
                "sched": sched_1,
            },
            {
                "threads": 4,
                "effective_threads": 4,
                "wall_ms": 40.0,
                "sched": sched_4,
            },
        ],
    }


def test_parse_regions() -> None:
    regions = scaling_report.parse_regions(synthetic_doc()["runs"][1]["sched"])
    check("parse_regions.labels", sorted(regions), ["runtime.fuse"])
    fields = regions["runtime.fuse"]
    # Dotted labels must not swallow field suffixes: every field parses.
    for field in scaling_report.REGION_FIELDS:
        check(f"parse_regions.{field}-present", field in fields, True)
    check("parse_regions.wall_ns", fields["wall_ns"], 25_000_000)
    check("parse_regions.chunks", fields["chunks"], 4)
    # Non-region keys are ignored.
    check(
        "parse_regions.skips-pool",
        scaling_report.parse_regions({"pool.workers": 4}),
        {},
    )


def test_region_metrics() -> None:
    regions = scaling_report.parse_regions(synthetic_doc()["runs"][1]["sched"])
    m = scaling_report.region_metrics(regions["runtime.fuse"])
    check("metrics.effective_parallelism", m["effective_parallelism"], 3.2,
          tol=1e-9)
    check("metrics.imbalance", m["imbalance"], 1.6, tol=1e-9)
    check("metrics.mean_chunk_us", m["mean_chunk_us"], 20_000.0, tol=1e-6)
    check("metrics.claim_excess", m["claim_excess"], 1.0, tol=1e-9)
    check("metrics.serial_fraction", m["serial_fraction"], 20.0 / 45.0,
          tol=1e-9)
    check("metrics.wall_ms", m["wall_ms"], 25.0, tol=1e-9)
    check("metrics.merge_ms", m["merge_ms"], 20.0, tol=1e-9)
    # Degenerate region (nothing executed) must not divide by zero.
    empty = scaling_report.region_metrics({})
    check("metrics.empty.effective_parallelism",
          empty["effective_parallelism"], 0.0)
    check("metrics.empty.serial_fraction", empty["serial_fraction"], 0.0)


def test_amdahl_ceiling() -> None:
    check("amdahl.s0.t4", scaling_report.amdahl_ceiling(0.0, 4), 4.0,
          tol=1e-9)
    check("amdahl.s1.t8", scaling_report.amdahl_ceiling(1.0, 8), 1.0,
          tol=1e-9)
    check("amdahl.s02.t4", scaling_report.amdahl_ceiling(0.2, 4), 2.5,
          tol=1e-9)
    # 1/(0.5 + 0.5/2) = 4/3.
    check("amdahl.s05.t2", scaling_report.amdahl_ceiling(0.5, 2), 4.0 / 3.0,
          tol=1e-9)
    check("amdahl.clamped", scaling_report.amdahl_ceiling(-0.5, 4), 4.0,
          tol=1e-9)
    check("amdahl.t0", scaling_report.amdahl_ceiling(0.2, 0), 1.0)


def test_diagnose() -> None:
    regions = scaling_report.parse_regions(synthetic_doc()["runs"][1]["sched"])
    m = scaling_report.region_metrics(regions["runtime.fuse"])
    notes = "\n".join(scaling_report.diagnose(m))
    check("diagnose.amdahl", "Amdahl-bound" in notes, True)
    check("diagnose.imbalance", "load imbalance" in notes, True)
    # The remedy names the call site's grain constant, the only knob.
    check("diagnose.imbalance-remedy",
          "lower the call site's grain constant" in notes, True)
    check("diagnose.contention", "cursor contention" in notes, True)
    # 20 ms mean chunks are not "too fine".
    check("diagnose.no-fine-grain", "grain too fine" in notes, False)
    # A balanced, contention-free, merge-free region diagnoses clean.
    clean = scaling_report.region_metrics({
        "chunks": 4,
        "wall_ns": 25_000_000,
        "chunk_sum_ns": 80_000_000,
        "chunk_max_ns": 20_000_000,
        "claim_attempts": 4,
        "merge_ns": 0,
        "imbalance_permille": 1000,
    })
    check("diagnose.clean", scaling_report.diagnose(clean), [])


def test_analyze() -> None:
    report = scaling_report.analyze(synthetic_doc())
    check("analyze.sections", sorted(report["sections"]), ["runtime"])
    section = report["sections"]["runtime"]
    check("analyze.serial_fraction", section["serial_fraction"], 0.2,
          tol=1e-9)
    check("analyze.serial_ms_1", section["serial_ms_1"], 20.0, tol=1e-9)
    row4 = next(r for r in section["runs"] if r["threads"] == 4)
    check("analyze.observed_speedup", row4["observed_speedup"], 2.5,
          tol=1e-9)
    check("analyze.amdahl_ceiling", row4["amdahl_ceiling"], 2.5, tol=1e-9)
    check("analyze.region-present", "runtime.fuse" in row4["regions"], True)
    # A sched-less sweep (old artifact / stats disabled) still reports:
    # a parallel-region sum of zero makes the whole run serial.
    bare = {
        "bench": "perf_pipeline",
        "scale": "tiny",
        "runs": [
            {"threads": 1, "effective_threads": 1, "wall_ms": 10.0},
            {"threads": 4, "effective_threads": 4, "wall_ms": 9.0},
        ],
    }
    bare_report = scaling_report.analyze(bare)
    check("analyze.bare.serial_fraction",
          bare_report["sections"]["runtime"]["serial_fraction"], 1.0,
          tol=1e-9)
    check("analyze.bare.basis",
          bare_report["sections"]["runtime"]["serial_basis"], "measured")
    # When the 1-thread run ran inline (no pool, no regions) the serial
    # fraction falls back to the widest run's chunk_sum_ns: 80 ms of
    # parallel work inside a 100 ms single-thread wall -> 0.2, flagged
    # as estimated.
    inline_1 = synthetic_doc()
    inline_1["runs"][0]["sched"] = {"trace.dropped_spans": 0}
    inline_report = scaling_report.analyze(inline_1)
    inline_section = inline_report["sections"]["runtime"]
    check("analyze.inline.serial_fraction",
          inline_section["serial_fraction"], 0.2, tol=1e-9)
    check("analyze.inline.basis", inline_section["serial_basis"],
          "estimated")


def test_render_and_main() -> None:
    # render_text must not throw on the synthetic report and must name
    # the culprits.
    buf = io.StringIO()
    scaling_report.render_text(scaling_report.analyze(synthetic_doc()), buf)
    text = buf.getvalue()
    check("render.has-section", "serial fraction 20.0%" in text, True)
    check("render.has-region", "runtime.fuse" in text, True)
    check("render.has-culprit", "load imbalance" in text, True)
    # End-to-end: main() over the fixture file exits 0 and honors --json.
    with tempfile.TemporaryDirectory(prefix="prodsyn_scaling_") as tmp:
        fixture = Path(tmp) / "sweep.json"
        fixture.write_text(json.dumps(synthetic_doc()))
        out_json = Path(tmp) / "report.json"
        rc = scaling_report.main(
            ["scaling_report", str(fixture), "--json", str(out_json)])
        check("main.exit", rc, 0)
        reports = json.loads(out_json.read_text())
        check("main.json-count", len(reports), 1)
        check("main.json-serial",
              reports[0]["sections"]["runtime"]["serial_fraction"], 0.2,
              tol=1e-9)
        # Malformed input is a schema error, not a crash.
        bad = Path(tmp) / "bad.json"
        bad.write_text("{}")
        check("main.malformed",
              scaling_report.main(["scaling_report", str(bad)]), 2)


def main() -> int:
    for test in (
        test_parse_regions,
        test_region_metrics,
        test_amdahl_ceiling,
        test_diagnose,
        test_analyze,
        test_render_and_main,
    ):
        test()
    for failure in FAILURES:
        print(failure)
    print(
        f"test_scaling_report: {len(FAILURES)} failures",
        file=sys.stderr,
    )
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
