// Unified telemetry registry: one place that owns the per-stage counters
// (StageCounters), standalone log2 histograms, and integer gauges of a
// pipeline run, and renders them as one machine-readable JSON document
// (the bench artifacts and tools/trace_summary.py consume it).
//
// Everything the registry records is observability-only: readings vary
// run to run and sit outside the pipeline's determinism contract.

#ifndef PRODSYN_UTIL_METRICS_REGISTRY_H_
#define PRODSYN_UTIL_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/util/histogram.h"
#include "src/util/mutex.h"
#include "src/util/stage_metrics.h"
#include "src/util/thread_annotations.h"

namespace prodsyn {

/// \brief Point-in-time copy of one gauge.
struct GaugeSnapshot {
  std::string name;
  int64_t value = 0;
};

/// \brief Point-in-time copy of a whole registry (plain data, safe to
/// store in run stats and render after the run).
struct RegistrySnapshot {
  std::vector<StageSnapshot> stages;        ///< registration order
  std::vector<HistogramSnapshot> histograms;  ///< standalone histograms
  std::vector<GaugeSnapshot> gauges;        ///< registration order
};

/// \brief Registry of the telemetry instruments of one pipeline run.
///
/// Thread safety: Get*/Set*/Add* are mutex-guarded lookups returning
/// pointers that stay valid for the registry's lifetime; the instruments
/// themselves are thread-safe (relaxed atomics). Snapshot() is safe from
/// any thread but is only a consistent total once the contributing
/// threads have joined — the StageMetrics contract.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// \brief The stage named `name`, created on first use (delegates to
  /// the embedded StageMetrics; registration order is preserved).
  StageCounters* GetStage(const std::string& name) {
    return stages_.GetStage(name);
  }

  /// \brief The standalone histogram named `name`, created on first use.
  /// `unit` ("ns", "bytes", "count", ...) is fixed at creation.
  LogHistogram* GetHistogram(const std::string& name,
                             const std::string& unit = "ns")
      PRODSYN_EXCLUDES(mu_);

  /// \brief Sets gauge `name` to `value`, creating it on first use.
  void SetGauge(const std::string& name, int64_t value)
      PRODSYN_EXCLUDES(mu_);

  /// \brief Adds `delta` to gauge `name`, creating it (at 0) on first use.
  void AddGauge(const std::string& name, int64_t delta)
      PRODSYN_EXCLUDES(mu_);

  /// \brief The embedded per-stage metrics (for code that predates the
  /// registry and takes a StageMetrics&).
  StageMetrics& stages() { return stages_; }

  /// \brief Copies of every instrument's current values.
  RegistrySnapshot Snapshot() const PRODSYN_EXCLUDES(mu_);

  /// \brief JSON exposition: {"stages": [...], "histograms": [...],
  /// "gauges": [...]} with per-stage latency quantiles — see
  /// docs/OBSERVABILITY.md for the schema.
  static std::string RenderJson(const RegistrySnapshot& snapshot);

 private:
  struct NamedHistogram {
    std::string name;
    std::string unit;
    LogHistogram histogram;
  };
  struct Gauge {
    std::string name;
    std::atomic<int64_t> value{0};
  };

  std::atomic<int64_t>* GaugeCell(const std::string& name)
      PRODSYN_EXCLUDES(mu_);

  StageMetrics stages_;
  mutable Mutex mu_;
  // The registries (layout) are guarded; the pointed-to instruments are
  // handed out unlocked on purpose — their state is relaxed atomics.
  std::vector<std::unique_ptr<NamedHistogram>> histograms_
      PRODSYN_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Gauge>> gauges_ PRODSYN_GUARDED_BY(mu_);
};

}  // namespace prodsyn

#endif  // PRODSYN_UTIL_METRICS_REGISTRY_H_
