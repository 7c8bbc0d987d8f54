// Shared bench-tier plumbing for the thread-sweep benches
// (bench_perf_pipeline, bench_offline_matching): the three world scales,
// the PRODSYN_BENCH_SCALE environment knob, and the JSON fragments that
// report the run's context. See docs/BENCHMARKING.md for the tier guide.

#ifndef PRODSYN_BENCH_BENCH_SCALE_H_
#define PRODSYN_BENCH_BENCH_SCALE_H_

#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <string>

#include "src/datagen/config.h"
#include "src/datagen/world.h"
#include "src/util/metrics_registry.h"
#include "src/util/thread_pool.h"

namespace prodsyn {
namespace bench {

/// \brief The three bench world tiers (docs/BENCHMARKING.md):
/// tiny = CI smoke (seconds), seed = the default trend tier the tracked
/// BENCH_*.json trajectories use, paper = the §1 Bing-scale corpus
/// (~856K offers / 1,143 merchants / 498 leaf categories; minutes).
enum class BenchScale { kTiny, kSeed, kPaper };

inline const char* BenchScaleName(BenchScale scale) {
  switch (scale) {
    case BenchScale::kTiny:
      return "tiny";
    case BenchScale::kPaper:
      return "paper";
    case BenchScale::kSeed:
      break;
  }
  return "seed";
}

/// \brief Reads PRODSYN_BENCH_SCALE={tiny,seed,paper}; the legacy
/// PRODSYN_BENCH_TINY=1 knob still means tiny when the new variable is
/// unset. Anything unrecognized falls back to seed.
inline BenchScale ParseBenchScale() {
  if (const char* scale = std::getenv("PRODSYN_BENCH_SCALE")) {
    const std::string name = scale;
    if (name == "tiny") return BenchScale::kTiny;
    if (name == "paper") return BenchScale::kPaper;
    return BenchScale::kSeed;
  }
  return std::getenv("PRODSYN_BENCH_TINY") != nullptr ? BenchScale::kTiny
                                                      : BenchScale::kSeed;
}

/// \brief The world of a tier. Tiny and seed are the historical bench
/// worlds (seed 99, one instance per archetype); paper is
/// PaperScaleWorldConfig() — the only tier big enough for the chunked
/// scheduler's speedup to clear the CI gate (tools/check_speedup.py).
inline WorldConfig ScaledWorldConfig(BenchScale scale) {
  if (scale == BenchScale::kPaper) return PaperScaleWorldConfig();
  WorldConfig config;
  config.seed = 99;
  config.categories_per_archetype = 1;
  config.merchants = scale == BenchScale::kTiny ? 10 : 50;
  config.products_per_category = scale == BenchScale::kTiny ? 8 : 25;
  return config;
}

/// \brief Best-of-N repetitions per thread count: 3 at seed (the trend
/// tier wants low noise), 1 at tiny (smoke) and paper (each run is long
/// enough to be stable).
inline size_t ScaleRepetitions(BenchScale scale) {
  return scale == BenchScale::kSeed ? 3 : 1;
}

/// \brief Default JSON path: the historical BENCH_<name>.json at seed
/// scale (the name the tracked trend files use), BENCH_<name>.<scale>.json
/// otherwise so tiers never clobber each other.
inline std::string DefaultJsonPath(const char* name, BenchScale scale) {
  std::string path = std::string("BENCH_") + name;
  if (scale != BenchScale::kSeed) {
    path += std::string(".") + BenchScaleName(scale);
  }
  return path + ".json";
}

/// \brief The "environment" JSON object the sweep files embed: the
/// hardware the run measured and the scale that shaped it, so a
/// regression in a tracked trend file is attributable to the machine
/// without re-running. Peak RSS is read at call time — emit it after the
/// sweep so it covers the measured runs.
inline std::string EnvironmentJson(BenchScale scale) {
  long page_size = sysconf(_SC_PAGESIZE);
  if (page_size < 0) page_size = 0;
  long peak_rss_kb = 0;
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) peak_rss_kb = usage.ru_maxrss;
  std::string json = "{";
  json += "\"hardware_threads\": " +
          std::to_string(ThreadPool::HardwareThreads());
  // The quoted string is built by appending: gcc 12 at -O3 reports a
  // false -Wrestrict on `"\"" + std::string(...)` temporaries.
  json += ", \"scale\": \"";
  json += BenchScaleName(scale);
  json += '"';
  json += ", \"page_size\": " + std::to_string(page_size);
  json += ", \"peak_rss_kb\": " + std::to_string(peak_rss_kb);
  json += "}";
  return json;
}

/// \brief True for the gauge names the scheduler-observability layer
/// publishes (src/util/sched_stats.h): per-worker pool accounting,
/// per-region ParallelFor stats, stage serial fractions, and the trace
/// drop counter.
inline bool IsSchedGauge(const std::string& name) {
  return name.rfind("pool.", 0) == 0 || name.rfind("region.", 0) == 0 ||
         name.rfind("stage.serial_fraction.", 0) == 0 ||
         name == "trace.dropped_spans";
}

/// \brief The flat "sched" JSON object of one sweep run: every
/// scheduler-observability gauge of the run's registry snapshot, keyed by
/// gauge name. tools/scaling_report.py consumes this.
inline std::string SchedJson(const RegistrySnapshot& snapshot) {
  std::string json = "{";
  bool first = true;
  for (const auto& gauge : snapshot.gauges) {
    if (!IsSchedGauge(gauge.name)) continue;
    if (!first) json += ", ";
    first = false;
    json += "\"" + gauge.name + "\": " + std::to_string(gauge.value);
  }
  json += "}";
  return json;
}

}  // namespace bench
}  // namespace prodsyn

#endif  // PRODSYN_BENCH_BENCH_SCALE_H_
