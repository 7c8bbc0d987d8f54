#include "src/util/metrics_registry.h"

#include <cstdarg>
#include <cstdio>

#include "src/util/string_util.h"

namespace prodsyn {

namespace {

void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

// {"count": ..., "sum": ..., "min": ..., "max": ..., "p50": ..., ...,
//  "buckets": [{"le": ..., "count": ...}, ...]} — `le` is the exclusive
// upper bound of the log2 bucket, in the histogram's unit; zero-count
// buckets are omitted.
void AppendHistogramBodyJson(std::string* out, const HistogramSnapshot& h) {
  AppendF(out,
          "{\"unit\": \"%s\", \"count\": %llu, \"sum\": %llu, "
          "\"min\": %llu, \"max\": %llu, "
          "\"p50\": %.1f, \"p90\": %.1f, \"p99\": %.1f, \"buckets\": [",
          JsonEscape(h.unit).c_str(),
          static_cast<unsigned long long>(h.count),
          static_cast<unsigned long long>(h.sum),
          static_cast<unsigned long long>(h.min),
          static_cast<unsigned long long>(h.max), h.p50(), h.p90(), h.p99());
  bool first = true;
  for (size_t i = 0; i < HistogramSnapshot::kBucketCount; ++i) {
    if (h.buckets[i] == 0) continue;
    if (!first) *out += ", ";
    first = false;
    AppendF(out, "{\"le\": %llu, \"count\": %llu}",
            static_cast<unsigned long long>(LogHistogram::BucketUpperBound(i)),
            static_cast<unsigned long long>(h.buckets[i]));
  }
  *out += "]}";
}

}  // namespace

LogHistogram* MetricsRegistry::GetHistogram(const std::string& name,
                                            const std::string& unit) {
  MutexLock lock(&mu_);
  for (const auto& h : histograms_) {
    if (h->name == name) return &h->histogram;
  }
  auto h = std::make_unique<NamedHistogram>();
  h->name = name;
  h->unit = unit;
  histograms_.push_back(std::move(h));
  return &histograms_.back()->histogram;
}

std::atomic<int64_t>* MetricsRegistry::GaugeCell(const std::string& name) {
  MutexLock lock(&mu_);
  for (const auto& g : gauges_) {
    if (g->name == name) return &g->value;
  }
  auto g = std::make_unique<Gauge>();
  g->name = name;
  gauges_.push_back(std::move(g));
  return &gauges_.back()->value;
}

void MetricsRegistry::SetGauge(const std::string& name, int64_t value) {
  GaugeCell(name)->store(value, std::memory_order_relaxed);
}

void MetricsRegistry::AddGauge(const std::string& name, int64_t delta) {
  GaugeCell(name)->fetch_add(delta, std::memory_order_relaxed);
}

RegistrySnapshot MetricsRegistry::Snapshot() const {
  RegistrySnapshot snap;
  snap.stages = stages_.Snapshot();
  MutexLock lock(&mu_);
  snap.histograms.reserve(histograms_.size());
  for (const auto& h : histograms_) {
    HistogramSnapshot hs = h->histogram.snapshot();
    hs.name = h->name;
    hs.unit = h->unit;
    snap.histograms.push_back(std::move(hs));
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& g : gauges_) {
    snap.gauges.push_back(
        GaugeSnapshot{g->name, g->value.load(std::memory_order_relaxed)});
  }
  return snap;
}

std::string MetricsRegistry::RenderJson(const RegistrySnapshot& snapshot) {
  std::string json = "{\n  \"stages\": [\n";
  for (size_t i = 0; i < snapshot.stages.size(); ++i) {
    const StageSnapshot& s = snapshot.stages[i];
    AppendF(&json,
            "    {\"name\": \"%s\", \"wall_ms\": %.3f, \"cpu_ms\": %.3f, "
            "\"items\": %llu,\n     \"latency\": ",
            JsonEscape(s.name).c_str(), s.wall_ns / 1e6, s.cpu_ns / 1e6,
            static_cast<unsigned long long>(s.items));
    AppendHistogramBodyJson(&json, s.latency);
    json += "}";
    json += (i + 1 == snapshot.stages.size()) ? "\n" : ",\n";
  }
  json += "  ],\n  \"histograms\": [\n";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramSnapshot& h = snapshot.histograms[i];
    AppendF(&json, "    {\"name\": \"%s\", \"data\": ",
            JsonEscape(h.name).c_str());
    AppendHistogramBodyJson(&json, h);
    json += "}";
    json += (i + 1 == snapshot.histograms.size()) ? "\n" : ",\n";
  }
  json += "  ],\n  \"gauges\": [\n";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const GaugeSnapshot& g = snapshot.gauges[i];
    AppendF(&json, "    {\"name\": \"%s\", \"value\": %lld}",
            JsonEscape(g.name).c_str(), static_cast<long long>(g.value));
    json += (i + 1 == snapshot.gauges.size()) ? "\n" : ",\n";
  }
  json += "  ]\n}\n";
  return json;
}

}  // namespace prodsyn
