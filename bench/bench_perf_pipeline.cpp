// Performance micro/meso benchmarks (google-benchmark): not in the paper,
// but they substantiate the "scalable" claim — per-stage throughput of the
// substrates and of the end-to-end pipeline.
//
// Besides the google-benchmark suite, the binary runs a run-time-phase
// thread sweep (offline learning once, then Synthesize at
// runtime_threads = 1, 2, 4, hardware on the same learned state) and
// writes the machine-readable BENCH_perf_pipeline[.<scale>].json
// (offers/s per thread count, per-stage wall/CPU breakdown) so the perf
// trajectory is trackable across PRs — see docs/PERFORMANCE.md for the
// format and docs/BENCHMARKING.md for the tier guide.
//
// Environment knobs (env vars, so google-benchmark flags stay usable):
//   PRODSYN_BENCH_SCALE={tiny,seed,paper}  world tier (default seed;
//                            tiny = CI smoke, paper = §1 Bing scale —
//                            the tier the CI perf gate measures)
//   PRODSYN_BENCH_TINY=1     legacy alias for PRODSYN_BENCH_SCALE=tiny
//   PRODSYN_BENCH_JSON=path  output path (default per DefaultJsonPath)
//   PRODSYN_TRACE=1          enable span tracing for the thread sweep and
//                            write <json_path minus .json>.trace.json
//                            (chrome://tracing / Perfetto) plus
//                            .metrics.json (telemetry-registry dump)

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_scale.h"
#include "src/datagen/page_gen.h"
#include "src/datagen/world.h"
#include "src/html/table_extractor.h"
#include "src/matching/bag_index.h"
#include "src/matching/classifier_matcher.h"
#include "src/matching/features.h"
#include "src/matching/hungarian.h"
#include "src/pipeline/synthesizer.h"
#include "src/pipeline/value_fusion.h"
#include "src/text/divergence.h"
#include "src/text/jaro_winkler.h"
#include "src/util/file.h"
#include "src/util/metrics_registry.h"
#include "src/util/sched_stats.h"
#include "src/util/thread_pool.h"
#include "src/util/trace.h"

namespace prodsyn {
namespace {

WorldConfig SmallWorld() {
  WorldConfig config;
  config.seed = 99;
  config.categories_per_archetype = 1;
  config.merchants = 50;
  config.products_per_category = 25;
  return config;
}

const World& SharedWorld() {
  static const World* world = new World(*World::Generate(SmallWorld()));
  return *world;
}

void BM_Tokenize(benchmark::State& state) {
  const std::string text =
      "Hitachi Deskstar T7K500 hard drive 500 GB SATA-300 7200rpm 16MB";
  for (auto _ : state) {
    benchmark::DoNotOptimize(Tokenize(text));
  }
}
BENCHMARK(BM_Tokenize);

void BM_JensenShannon(benchmark::State& state) {
  BagOfWords a, b;
  Rng rng(1);
  // Built up with += — `const char* + string&&` trips a gcc-12 -O3
  // -Werror=restrict false positive.
  for (int i = 0; i < state.range(0); ++i) {
    std::string ta = "t";
    ta += std::to_string(rng.NextBelow(64));
    a.Add(ta);
    std::string tb = "t";
    tb += std::to_string(rng.NextBelow(64));
    b.Add(tb);
  }
  const TermDistribution pa{a}, pb{b};
  for (auto _ : state) {
    benchmark::DoNotOptimize(JensenShannonDivergence(pa, pb));
  }
}
BENCHMARK(BM_JensenShannon)->Arg(16)->Arg(128)->Arg(1024);

void BM_JaroWinkler(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        JaroWinklerSimilarity("manufacturer part number", "mfr part no"));
  }
}
BENCHMARK(BM_JaroWinkler);

void BM_HtmlExtraction(benchmark::State& state) {
  Rng rng(2);
  MerchantProfile merchant;
  merchant.page_template = PageTemplate::kNestedTable;
  merchant.name = "BenchShop";
  OfferContent content;
  content.title = "Benchmark Product 500GB";
  for (int i = 0; i < 12; ++i) {
    content.merchant_spec.push_back(
        {"Attribute " + std::to_string(i), "value " + std::to_string(i)});
  }
  const std::string html =
      RenderLandingPage(content, merchant, SmallWorld(), &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExtractPairsFromHtml(html));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(html.size()));
}
BENCHMARK(BM_HtmlExtraction);

void BM_Hungarian(benchmark::State& state) {
  Rng rng(3);
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::vector<double>> weights(n, std::vector<double>(n));
  for (auto& row : weights) {
    for (double& w : row) w = rng.NextDouble();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxWeightBipartiteMatching(weights));
  }
}
BENCHMARK(BM_Hungarian)->Arg(8)->Arg(32)->Arg(128);

void BM_ValueFusion(benchmark::State& state) {
  std::vector<std::string> values;
  for (int i = 0; i < state.range(0); ++i) {
    values.push_back(i % 3 == 0 ? "Microsoft Windows Vista"
                    : i % 3 == 1 ? "Windows Vista"
                                 : "Microsoft Vista");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(FuseValues(values));
  }
}
BENCHMARK(BM_ValueFusion)->Arg(3)->Arg(10)->Arg(50);

void BM_BagIndexBuild(benchmark::State& state) {
  const World& world = SharedWorld();
  MatchingContext ctx;
  ctx.catalog = &world.catalog;
  ctx.offers = &world.historical_offers;
  ctx.matches = &world.historical_matches;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatchedBagIndex::Build(ctx));
  }
}
BENCHMARK(BM_BagIndexBuild);

void BM_FeatureComputation(benchmark::State& state) {
  const World& world = SharedWorld();
  MatchingContext ctx;
  ctx.catalog = &world.catalog;
  ctx.offers = &world.historical_offers;
  ctx.matches = &world.historical_matches;
  static const MatchedBagIndex* index =
      new MatchedBagIndex(*MatchedBagIndex::Build(ctx));
  FeatureComputer computer(index);
  size_t i = 0;
  const auto& candidates = index->candidates();
  for (auto _ : state) {
    benchmark::DoNotOptimize(computer.Compute(candidates[i]));
    i = (i + 1) % candidates.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FeatureComputation);

void BM_OfflineLearning(benchmark::State& state) {
  const World& world = SharedWorld();
  MatchingContext ctx;
  ctx.catalog = &world.catalog;
  ctx.offers = &world.historical_offers;
  ctx.matches = &world.historical_matches;
  for (auto _ : state) {
    ClassifierMatcher matcher;
    benchmark::DoNotOptimize(matcher.Generate(ctx));
  }
}
BENCHMARK(BM_OfflineLearning)->Unit(benchmark::kMillisecond);

void BM_EndToEndSynthesis(benchmark::State& state) {
  const World& world = SharedWorld();
  ProductSynthesizer synthesizer(&world.catalog);
  if (!synthesizer
           .LearnOffline(world.historical_offers, world.historical_matches)
           .ok()) {
    state.SkipWithError("offline learning failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        synthesizer.Synthesize(world.incoming_offers, world.pages));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(world.incoming_offers.size()));
  state.SetLabel("items = offers");
}
BENCHMARK(BM_EndToEndSynthesis)->Unit(benchmark::kMillisecond);

void BM_WorldGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(World::Generate(SmallWorld()));
  }
}
BENCHMARK(BM_WorldGeneration)->Unit(benchmark::kMillisecond);

void BM_RuntimeSynthesis(benchmark::State& state) {
  // The run-time phase alone (offline learning excluded), at the thread
  // count of the benchmark argument; 0 = hardware default.
  const World& world = SharedWorld();
  SynthesizerOptions options;
  options.runtime_threads = static_cast<size_t>(state.range(0));
  ProductSynthesizer synthesizer(&world.catalog, options);
  if (!synthesizer
           .LearnOffline(world.historical_offers, world.historical_matches)
           .ok()) {
    state.SkipWithError("offline learning failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        synthesizer.Synthesize(world.incoming_offers, world.pages));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(world.incoming_offers.size()));
  state.SetLabel("items = offers; arg = runtime_threads (0=hw)");
}
BENCHMARK(BM_RuntimeSynthesis)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Thread sweep + BENCH_perf_pipeline.json emission (see file comment).
// ---------------------------------------------------------------------------

struct SweepRun {
  size_t requested_threads = 0;  // the runtime_threads option value
  size_t effective_threads = 0;  // what 0 resolved to
  double best_wall_ms = 0.0;     // best of `repetitions` Synthesize calls
  double offers_per_sec = 0.0;
  SynthesisStats stats;  // counters + stage metrics of the best run
};

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void AppendJsonStage(std::string* out, const StageSnapshot& stage,
                     bool last) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "        {\"name\": \"%s\", \"wall_ms\": %.3f, "
                "\"cpu_ms\": %.3f, \"items\": %llu, "
                "\"p50_ms\": %.6f, \"p99_ms\": %.6f}%s\n",
                stage.name.c_str(), stage.wall_ns / 1e6, stage.cpu_ns / 1e6,
                static_cast<unsigned long long>(stage.items),
                stage.latency.p50() / 1e6, stage.latency.p99() / 1e6,
                last ? "" : ",");
  *out += buf;
}

bool WriteSweepJson(const std::string& path, const World& world,
                    const std::string& scale,
                    const std::vector<SweepRun>& runs) {
  std::string json = "{\n";
  json += "  \"bench\": \"perf_pipeline\",\n";
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
      "  \"world\": {\"incoming_offers\": %llu, \"merchants\": "
      "%llu, \"categories\": %llu},\n",
      static_cast<unsigned long long>(world.incoming_offers.size()),
      static_cast<unsigned long long>(world.merchants.size()),
      static_cast<unsigned long long>(world.category_instances.size()));
  json += buf;
  // Headline: run-time-phase speedup of 4 threads over 1 thread.
  double wall_1 = 0.0, wall_4 = 0.0;
  for (const auto& run : runs) {
    if (run.requested_threads == 1) wall_1 = run.best_wall_ms;
    if (run.requested_threads == 4) wall_4 = run.best_wall_ms;
  }
  std::snprintf(buf, sizeof(buf), "  \"speedup_4_over_1\": %.3f,\n",
                wall_4 > 0.0 ? wall_1 / wall_4 : 0.0);
  json += buf;
  json += "  \"runs\": [\n";
  for (size_t r = 0; r < runs.size(); ++r) {
    const SweepRun& run = runs[r];
    std::snprintf(buf, sizeof(buf),
                  "    {\"threads\": %llu, \"effective_threads\": %llu, "
                  "\"wall_ms\": %.3f, \"offers_per_sec\": %.1f,\n",
                  static_cast<unsigned long long>(run.requested_threads),
                  static_cast<unsigned long long>(run.effective_threads),
                  run.best_wall_ms, run.offers_per_sec);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "     \"products\": %llu, \"clusters\": %llu, "
                  "\"reconciled_pairs\": %llu,\n",
                  static_cast<unsigned long long>(
                      run.stats.synthesized_products),
                  static_cast<unsigned long long>(run.stats.clusters),
                  static_cast<unsigned long long>(run.stats.reconciled_pairs));
    json += buf;
    // Scheduler-observability gauges of the run (pool.*, region.*,
    // stage.serial_fraction.*): tools/scaling_report.py's input.
    json += "     \"sched\": " + bench::SchedJson(run.stats.registry) + ",\n";
    json += "     \"stages\": [\n";
    for (size_t s = 0; s < run.stats.stage_metrics.size(); ++s) {
      AppendJsonStage(&json, run.stats.stage_metrics[s],
                      s + 1 == run.stats.stage_metrics.size());
    }
    json += "     ]}";
    json += (r + 1 == runs.size()) ? "\n" : ",\n";
  }
  json += "  ]\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return true;
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

int RunThreadSweep() {
  const bench::BenchScale scale = bench::ParseBenchScale();
  const bool tracing = std::getenv("PRODSYN_TRACE") != nullptr;
  const char* json_env = std::getenv("PRODSYN_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env
                          : bench::DefaultJsonPath("perf_pipeline", scale);

  const size_t repetitions = bench::ScaleRepetitions(scale);
  auto world_or = World::Generate(bench::ScaledWorldConfig(scale));
  if (!world_or.ok()) {
    std::printf("thread sweep: world generation failed\n");
    return 1;
  }
  const World& world = *world_or;

  SynthesizerOptions base_options;
  std::printf("\n-- run-time phase thread sweep (%s scale, best of %llu) --\n",
              bench::BenchScaleName(scale),
              static_cast<unsigned long long>(repetitions));
  if (tracing) Tracer::Global().Enable();
  // Scheduler accounting on by default for the sweep (the whole point of
  // the artifact's "sched" blocks); PRODSYN_SCHED_STATS=0 turns it off to
  // measure the accounting's own cost.
  SchedulerStats::EnableFromEnv(/*default_on=*/true);

  // Offline learning is independent of runtime_threads, so learn once
  // and sweep set_runtime_threads over the same learned state — at paper
  // scale relearning per thread count would dominate the sweep.
  ProductSynthesizer synthesizer(&world.catalog, base_options);
  if (!synthesizer
           .LearnOffline(world.historical_offers, world.historical_matches)
           .ok()) {
    std::printf("thread sweep: offline learning failed\n");
    return 1;
  }
  const RegistrySnapshot offline_registry =
      synthesizer.learning_stats().registry;
  std::vector<SweepRun> runs;
  const std::vector<SynthesizedProduct>* reference_products = nullptr;
  std::vector<std::vector<SynthesizedProduct>> keep_alive;
  keep_alive.reserve(4);  // stable addresses for reference_products
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{0}}) {
    synthesizer.set_runtime_threads(threads);
    SweepRun run;
    run.requested_threads = threads;
    run.effective_threads =
        threads == 0 ? ThreadPool::HardwareThreads() : threads;
    run.best_wall_ms = 0.0;
    SynthesisResult best;
    for (size_t rep = 0; rep < repetitions; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      auto result = synthesizer.Synthesize(world.incoming_offers, world.pages);
      const double wall_ms = MillisSince(start);
      if (!result.ok()) {
        std::printf("thread sweep: Synthesize failed\n");
        return 1;
      }
      if (rep == 0 || wall_ms < run.best_wall_ms) {
        run.best_wall_ms = wall_ms;
        best = std::move(*result);
      }
    }
    run.offers_per_sec = run.best_wall_ms > 0.0
                             ? world.incoming_offers.size() /
                                   (run.best_wall_ms / 1000.0)
                             : 0.0;
    run.stats = best.stats;
    // Determinism spot check: every thread count must produce the exact
    // product list of the 1-thread run.
    keep_alive.push_back(std::move(best.products));
    const auto& products = keep_alive.back();
    if (reference_products == nullptr) {
      reference_products = &products;
    } else if (products.size() != reference_products->size()) {
      std::printf("thread sweep: DETERMINISM VIOLATION at %llu threads\n",
                  static_cast<unsigned long long>(threads));
      return 1;
    } else {
      for (size_t i = 0; i < products.size(); ++i) {
        if (products[i].key != (*reference_products)[i].key ||
            products[i].spec != (*reference_products)[i].spec) {
          std::printf("thread sweep: DETERMINISM VIOLATION at %llu threads\n",
                      static_cast<unsigned long long>(threads));
          return 1;
        }
      }
    }
    std::printf("  runtime_threads=%llu (effective %llu): %8.2f ms, "
                "%9.1f offers/s, %llu products\n",
                static_cast<unsigned long long>(run.requested_threads),
                static_cast<unsigned long long>(run.effective_threads),
                run.best_wall_ms, run.offers_per_sec,
                static_cast<unsigned long long>(
                    run.stats.synthesized_products));
    runs.push_back(std::move(run));
  }
  if (!WriteSweepJson(json_path, world, bench::BenchScaleName(scale),
                      runs)) {
    std::printf("thread sweep: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("  wrote %s\n", json_path.c_str());
  if (tracing) {
    Tracer::Global().Disable();
    const std::string base = StripJsonSuffix(json_path);
    const std::string trace_path = base + ".trace.json";
    if (!Tracer::Global().WriteChromeJson(trace_path).ok()) {
      std::printf("thread sweep: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("  wrote %s (%llu trace threads, %llu events dropped)\n",
                trace_path.c_str(),
                static_cast<unsigned long long>(
                    Tracer::Global().thread_count()),
                static_cast<unsigned long long>(
                    Tracer::Global().dropped_events()));
    // Telemetry-registry dump: the hardware-threads run-time snapshot plus
    // the offline-learning snapshot from the last LearnOffline.
    std::string metrics = "{\n\"runtime\": ";
    metrics += MetricsRegistry::RenderJson(runs.back().stats.registry);
    metrics += ",\n\"offline\": ";
    metrics += MetricsRegistry::RenderJson(offline_registry);
    metrics += "}\n";
    const std::string metrics_path = base + ".metrics.json";
    if (!WriteStringToFile(metrics_path, metrics).ok()) {
      std::printf("thread sweep: cannot write %s\n", metrics_path.c_str());
      return 1;
    }
    std::printf("  wrote %s\n", metrics_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace prodsyn

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return prodsyn::RunThreadSweep();
}
