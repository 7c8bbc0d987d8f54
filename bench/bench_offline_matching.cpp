// Offline-learning-path benchmark: a thread sweep (offline_threads =
// 1, 2, 4, hardware) over the three parallelized offline stages —
// the matched-bag-index build, the full ClassifierMatcher::Generate run
// (index + training set + LR + scoring sweep), and the title-match
// bootstrap — with a determinism cross-check against the 1-thread run.
//
// Writes the machine-readable BENCH_offline_matching[.<scale>].json
// (wall ms per phase per thread count, per-stage wall/CPU breakdown from
// the StageMetrics snapshots) so the offline perf trajectory is
// trackable across PRs — see docs/PERFORMANCE.md for the format and
// docs/BENCHMARKING.md for the tier guide.
//
// Environment knobs (mirroring bench_perf_pipeline):
//   PRODSYN_BENCH_SCALE={tiny,seed,paper}  world tier (default seed)
//   PRODSYN_BENCH_TINY=1     legacy alias for PRODSYN_BENCH_SCALE=tiny
//   PRODSYN_BENCH_JSON=path  output path (default per DefaultJsonPath)
//   PRODSYN_TRACE=1          enable span tracing and write
//                            <json_path minus .json>.trace.json plus
//                            .metrics.json (telemetry-registry dump)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_scale.h"
#include "src/datagen/world.h"
#include "src/matching/bag_index.h"
#include "src/matching/classifier_matcher.h"
#include "src/matching/title_matcher.h"
#include "src/snapshot/offline_snapshot.h"
#include "src/snapshot/reader.h"
#include "src/snapshot/writer.h"
#include "src/util/file.h"
#include "src/util/metrics_registry.h"
#include "src/util/sched_stats.h"
#include "src/util/thread_pool.h"
#include "src/util/trace.h"

namespace prodsyn {
namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// One thread count's measurements: best-of-N wall per phase plus the
// stage snapshots and determinism-relevant outputs of the best runs.
struct OfflineRun {
  size_t requested_threads = 0;
  size_t effective_threads = 0;
  double bag_build_ms = 0.0;
  double generate_ms = 0.0;
  // LR training sub-stage of the best generate run: the wall of its
  // "lr.train" stage snapshot plus the trainer's iteration gauge.
  double lr_train_ms = 0.0;
  size_t lr_iterations = 0;
  double title_ms = 0.0;
  // Cold-start economics of the snapshot subsystem (docs/PERSISTENCE.md):
  // publishing the learned state, mapping + validating + decoding it
  // back, and the rebuild cost a warm load avoids (generate + title).
  double snapshot_save_ms = 0.0;
  double snapshot_load_ms = 0.0;
  double rebuild_ms = 0.0;
  size_t snapshot_bytes = 0;
  size_t candidates = 0;
  size_t correspondences = 0;
  size_t title_matches = 0;
  std::vector<StageSnapshot> classifier_stages;
  std::vector<StageSnapshot> title_stages;
  RegistrySnapshot classifier_registry;
  RegistrySnapshot title_registry;
  // Determinism payloads, compared against the 1-thread reference.
  std::vector<AttributeCorrespondence> scored;
  std::vector<std::pair<OfferId, ProductId>> matches;
};

void AppendJsonStages(std::string* out, const char* key,
                      const std::vector<StageSnapshot>& stages, bool last) {
  *out += std::string("     \"") + key + "\": [\n";
  char buf[320];
  for (size_t s = 0; s < stages.size(); ++s) {
    const StageSnapshot& stage = stages[s];
    std::snprintf(buf, sizeof(buf),
                  "        {\"name\": \"%s\", \"wall_ms\": %.3f, "
                  "\"cpu_ms\": %.3f, \"items\": %llu, "
                  "\"p50_ms\": %.6f, \"p99_ms\": %.6f}%s\n",
                  stage.name.c_str(), stage.wall_ns / 1e6, stage.cpu_ns / 1e6,
                  static_cast<unsigned long long>(stage.items),
                  stage.latency.p50() / 1e6, stage.latency.p99() / 1e6,
                  s + 1 == stages.size() ? "" : ",");
    *out += buf;
  }
  *out += "     ]";
  *out += last ? "\n" : ",\n";
}

bool WriteSweepJson(const std::string& path, const World& world,
                    const std::string& scale,
                    const std::vector<OfflineRun>& runs) {
  std::string json = "{\n";
  json += "  \"bench\": \"offline_matching\",\n";
  json += "  \"scale\": \"" + scale + "\",\n";
  // Hardware + knob context (satellite of the scaling reports): read last
  // so peak RSS covers the measured runs.
  json += "  \"environment\": " +
          bench::EnvironmentJson(bench::ParseBenchScale()) + ",\n";
  // "categories" counts leaf categories (the paper's §1 granularity);
  // top-level domains are excluded.
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "  \"world\": {\"historical_offers\": %llu, \"merchants\": %llu, "
      "\"categories\": %llu},\n",
      static_cast<unsigned long long>(world.historical_offers.size()),
      static_cast<unsigned long long>(world.merchants.size()),
      static_cast<unsigned long long>(world.category_instances.size()));
  json += buf;
  // Headlines: offline-learning and LR-training speedups of 4 threads
  // over 1 thread (the latter gated by tools/check_speedup.py --lr-min).
  double generate_1 = 0.0, generate_4 = 0.0;
  double lr_1 = 0.0, lr_4 = 0.0;
  for (const auto& run : runs) {
    if (run.requested_threads == 1) {
      generate_1 = run.generate_ms;
      lr_1 = run.lr_train_ms;
    }
    if (run.requested_threads == 4) {
      generate_4 = run.generate_ms;
      lr_4 = run.lr_train_ms;
    }
  }
  std::snprintf(buf, sizeof(buf), "  \"speedup_4_over_1\": %.3f,\n",
                generate_4 > 0.0 ? generate_1 / generate_4 : 0.0);
  json += buf;
  std::snprintf(buf, sizeof(buf), "  \"lr_train_speedup_4_over_1\": %.3f,\n",
                lr_4 > 0.0 ? lr_1 / lr_4 : 0.0);
  json += buf;
  json += "  \"runs\": [\n";
  for (size_t r = 0; r < runs.size(); ++r) {
    const OfflineRun& run = runs[r];
    std::snprintf(buf, sizeof(buf),
                  "    {\"threads\": %llu, \"effective_threads\": %llu,\n",
                  static_cast<unsigned long long>(run.requested_threads),
                  static_cast<unsigned long long>(run.effective_threads));
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "     \"bag_build_ms\": %.3f, \"generate_ms\": %.3f, "
                  "\"title_match_ms\": %.3f,\n",
                  run.bag_build_ms, run.generate_ms, run.title_ms);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "     \"candidates\": %llu, \"correspondences\": %llu, "
                  "\"title_matches\": %llu,\n",
                  static_cast<unsigned long long>(run.candidates),
                  static_cast<unsigned long long>(run.correspondences),
                  static_cast<unsigned long long>(run.title_matches));
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "     \"lr_train_ms\": %.3f, \"lr_iterations\": %llu,\n",
                  run.lr_train_ms,
                  static_cast<unsigned long long>(run.lr_iterations));
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "     \"snapshot_save_ms\": %.3f, "
                  "\"snapshot_load_ms\": %.3f, \"rebuild_ms\": %.3f, "
                  "\"snapshot_bytes\": %llu,\n",
                  run.snapshot_save_ms, run.snapshot_load_ms, run.rebuild_ms,
                  static_cast<unsigned long long>(run.snapshot_bytes));
    json += buf;
    // Scheduler-observability gauges: the generate run's registry covers
    // the classifier.score/lr.epoch regions, the title run's covers
    // title_match. Separate keys because each has its own pool.* block.
    json += "     \"sched\": " + bench::SchedJson(run.classifier_registry) +
            ",\n";
    json += "     \"title_sched\": " + bench::SchedJson(run.title_registry) +
            ",\n";
    AppendJsonStages(&json, "classifier_stages", run.classifier_stages,
                     /*last=*/false);
    AppendJsonStages(&json, "title_stages", run.title_stages, /*last=*/true);
    json += "    }";
    json += (r + 1 == runs.size()) ? "\n" : ",\n";
  }
  json += "  ]\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return true;
}

// Exact comparison: the offline path promises bit-identical outputs for
// any thread count, so any difference at all is a violation.
bool SameOutputs(const OfflineRun& run, const OfflineRun& reference) {
  if (run.scored.size() != reference.scored.size()) return false;
  for (size_t i = 0; i < run.scored.size(); ++i) {
    if (!(run.scored[i].tuple == reference.scored[i].tuple) ||
        run.scored[i].score != reference.scored[i].score) {
      return false;
    }
  }
  return run.matches == reference.matches;
}

// "foo.json" -> "foo"; paths without the suffix pass through unchanged.
std::string StripJsonSuffix(const std::string& path) {
  constexpr const char kSuffix[] = ".json";
  constexpr size_t kSuffixLen = sizeof(kSuffix) - 1;
  if (path.size() > kSuffixLen &&
      path.compare(path.size() - kSuffixLen, kSuffixLen, kSuffix) == 0) {
    return path.substr(0, path.size() - kSuffixLen);
  }
  return path;
}

int RunOfflineSweep() {
  const bench::BenchScale scale = bench::ParseBenchScale();
  const bool tracing = std::getenv("PRODSYN_TRACE") != nullptr;
  const char* json_env = std::getenv("PRODSYN_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env
                          : bench::DefaultJsonPath("offline_matching", scale);

  const size_t repetitions = bench::ScaleRepetitions(scale);
  auto world_or = World::Generate(bench::ScaledWorldConfig(scale));
  if (!world_or.ok()) {
    std::printf("offline sweep: world generation failed\n");
    return 1;
  }
  const World& world = *world_or;
  MatchingContext ctx;
  ctx.catalog = &world.catalog;
  ctx.offers = &world.historical_offers;
  ctx.matches = &world.historical_matches;

  std::printf("-- offline learning thread sweep (%s scale, best of %llu) --\n",
              bench::BenchScaleName(scale),
              static_cast<unsigned long long>(repetitions));
  if (tracing) Tracer::Global().Enable();
  // Scheduler accounting on by default for the sweep (the whole point of
  // the artifact's "sched" blocks); PRODSYN_SCHED_STATS=0 turns it off to
  // measure the accounting's own cost.
  SchedulerStats::EnableFromEnv(/*default_on=*/true);
  std::vector<OfflineRun> runs;
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{0}}) {
    OfflineRun run;
    OfflineSnapshot snap;
    run.requested_threads = threads;
    run.effective_threads =
        threads == 0 ? ThreadPool::HardwareThreads() : threads;

    // Phase 1: bag-index build alone.
    for (size_t rep = 0; rep < repetitions; ++rep) {
      BagIndexOptions options;
      options.build_threads = threads;
      const auto start = std::chrono::steady_clock::now();
      auto index = MatchedBagIndex::Build(ctx, options);
      const double wall_ms = MillisSince(start);
      if (!index.ok()) {
        std::printf("offline sweep: bag-index build failed\n");
        return 1;
      }
      if (rep == 0 || wall_ms < run.bag_build_ms) run.bag_build_ms = wall_ms;
      run.candidates = index->candidates().size();
    }

    // Phase 2: the full offline learning run.
    for (size_t rep = 0; rep < repetitions; ++rep) {
      ClassifierMatcherOptions options;
      options.offline_threads = threads;
      ClassifierMatcher matcher(options);
      const auto start = std::chrono::steady_clock::now();
      auto scored = matcher.Generate(ctx);
      const double wall_ms = MillisSince(start);
      if (!scored.ok()) {
        std::printf("offline sweep: Generate failed\n");
        return 1;
      }
      if (rep == 0 || wall_ms < run.generate_ms) {
        run.generate_ms = wall_ms;
        run.classifier_stages = matcher.stats().stage_metrics;
        run.classifier_registry = matcher.stats().registry;
        run.scored = std::move(*scored);
        // The best rep's learned state feeds the snapshot phase below
        // (the same artifacts LearnOffline persists).
        snap.lr_weights = matcher.model().weights();
        snap.lr_intercept = matcher.model().intercept();
        snap.lr_iterations = matcher.stats().lr_iterations;
        snap.scaler_means = matcher.scaler().means();
        snap.scaler_stds = matcher.scaler().stds();
      }
    }
    run.correspondences = run.scored.size();
    // LR training sub-stage of the best generate run: stage wall for the
    // latency, the registry gauge for iterations.
    for (const StageSnapshot& stage : run.classifier_stages) {
      if (stage.name == "lr.train") run.lr_train_ms = stage.wall_ns / 1e6;
    }
    for (const auto& gauge : run.classifier_registry.gauges) {
      if (gauge.name == "lr.iterations_used") {
        run.lr_iterations = static_cast<size_t>(gauge.value);
      }
    }

    // Phase 3: the title-match bootstrap.
    for (size_t rep = 0; rep < repetitions; ++rep) {
      TitleMatcherOptions options;
      options.threads = threads;
      TitleMatcherStats stats;
      const auto start = std::chrono::steady_clock::now();
      auto matches = TitleOfferProductMatcher(options).Match(
          world.catalog, world.historical_offers, &stats);
      const double wall_ms = MillisSince(start);
      if (!matches.ok()) {
        std::printf("offline sweep: title match failed\n");
        return 1;
      }
      if (rep == 0 || wall_ms < run.title_ms) {
        run.title_ms = wall_ms;
        run.title_stages = stats.stage_metrics;
        run.title_registry = stats.registry;
        run.matches.clear();
        run.matches.reserve(matches->matches().size());
        for (const auto& [offer, product] : matches->matches()) {
          run.matches.emplace_back(offer, product);
        }
      }
    }
    run.title_matches = run.matches.size();

    // Phase 4: snapshot cold-start cost. Save the learned state of the
    // best generate run, load it back, and report both against the
    // rebuild wall (generate + title bootstrap) a warm load avoids. The
    // .snap artifact is left next to the JSON for tools/snapshot_inspect.
    snap.correspondences = run.scored;
    const std::string snap_path = StripJsonSuffix(json_path) + ".snap";
    for (size_t rep = 0; rep < repetitions; ++rep) {
      auto start = std::chrono::steady_clock::now();
      if (!SaveOfflineSnapshot(snap, snap_path).ok()) {
        std::printf("offline sweep: snapshot save failed\n");
        return 1;
      }
      const double save_ms = MillisSince(start);
      start = std::chrono::steady_clock::now();
      auto loaded = LoadOfflineSnapshot(snap_path);
      const double load_ms = MillisSince(start);
      if (!loaded.ok()) {
        std::printf("offline sweep: snapshot load failed\n");
        return 1;
      }
      if (rep == 0 || save_ms < run.snapshot_save_ms) {
        run.snapshot_save_ms = save_ms;
      }
      if (rep == 0 || load_ms < run.snapshot_load_ms) {
        run.snapshot_load_ms = load_ms;
      }
    }
    {
      std::FILE* f = std::fopen(snap_path.c_str(), "rb");
      if (f != nullptr) {
        std::fseek(f, 0, SEEK_END);
        run.snapshot_bytes = static_cast<size_t>(std::ftell(f));
        std::fclose(f);
      }
    }
    run.rebuild_ms = run.generate_ms + run.title_ms;

    if (!runs.empty() && !SameOutputs(run, runs.front())) {
      std::printf("offline sweep: DETERMINISM VIOLATION at %llu threads\n",
                  static_cast<unsigned long long>(threads));
      return 1;
    }
    std::printf("  offline_threads=%llu (effective %llu): bag %8.2f ms, "
                "generate %8.2f ms (lr %8.2f ms, %llu iterations), "
                "title %8.2f ms, %llu correspondences\n",
                static_cast<unsigned long long>(run.requested_threads),
                static_cast<unsigned long long>(run.effective_threads),
                run.bag_build_ms, run.generate_ms, run.lr_train_ms,
                static_cast<unsigned long long>(run.lr_iterations),
                run.title_ms,
                static_cast<unsigned long long>(run.correspondences));
    std::printf("      snapshot: save %8.2f ms, load %8.2f ms vs rebuild "
                "%8.2f ms (%llu bytes)\n",
                run.snapshot_save_ms, run.snapshot_load_ms, run.rebuild_ms,
                static_cast<unsigned long long>(run.snapshot_bytes));
    runs.push_back(std::move(run));
  }
  if (!WriteSweepJson(json_path, world, bench::BenchScaleName(scale),
                      runs)) {
    std::printf("offline sweep: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("  wrote %s\n", json_path.c_str());
  if (tracing) {
    Tracer::Global().Disable();
    const std::string base = StripJsonSuffix(json_path);
    const std::string trace_path = base + ".trace.json";
    if (!Tracer::Global().WriteChromeJson(trace_path).ok()) {
      std::printf("offline sweep: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("  wrote %s (%llu trace threads, %llu events dropped)\n",
                trace_path.c_str(),
                static_cast<unsigned long long>(
                    Tracer::Global().thread_count()),
                static_cast<unsigned long long>(
                    Tracer::Global().dropped_events()));
    // Telemetry-registry dump from the hardware-threads run.
    std::string metrics = "{\n\"classifier\": ";
    metrics += MetricsRegistry::RenderJson(runs.back().classifier_registry);
    metrics += ",\n\"title_match\": ";
    metrics += MetricsRegistry::RenderJson(runs.back().title_registry);
    metrics += "}\n";
    const std::string metrics_path = base + ".metrics.json";
    if (!WriteStringToFile(metrics_path, metrics).ok()) {
      std::printf("offline sweep: cannot write %s\n", metrics_path.c_str());
      return 1;
    }
    std::printf("  wrote %s\n", metrics_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace prodsyn

int main() { return prodsyn::RunOfflineSweep(); }
