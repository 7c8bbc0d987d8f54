// Benchmark binary: runs one workload in this process as a closed loop of
// one caller (each call starts after the previous one returned) and
// prints one JSON object of raw samples, counts and output checks as the
// last line of stdout. perfbench/run.py builds this binary, runs it, and
// turns the samples into the metrics named in BENCHMARK.json.
//
//   prodsyn_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> --out <dir>
//
// --trace 0 times the two phases of Fig. 4 with tracing off: world
// generation, cold LearnOffline (publishing a snapshot) at
// offline_threads 1 and 4, a warm LearnOffline restoring that snapshot,
// and full Synthesize passes at runtime_threads 1 and 4.
//
// --trace 1 replays each phase single-threaded through the layers'
// public functions (MatchedBagIndex::Build, BuildTrainingSet, ...,
// TitleClassifier::Classify, ExtractOfferSpecification, ...) with a span
// around every call, checks that the replay reproduces the program's
// correspondences and products exactly, and writes the spans to
// <out>/trace.json as Chrome trace events. No span is recorded inside
// the library: every timestamp is taken here.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/datagen/world.h"
#include "src/eval/oracle.h"
#include "src/eval/synthesis_eval.h"
#include "src/matching/bag_index.h"
#include "src/matching/features.h"
#include "src/matching/training_set.h"
#include "src/ml/dense_matrix.h"
#include "src/pipeline/attribute_extraction.h"
#include "src/pipeline/clustering.h"
#include "src/pipeline/schema_reconciliation.h"
#include "src/pipeline/synthesizer.h"
#include "src/pipeline/title_classifier.h"
#include "src/pipeline/value_fusion.h"
#include "src/snapshot/reader.h"
#include "src/snapshot/writer.h"
#include "src/util/logging.h"

namespace prodsyn::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Workloads. The sizes are frozen here (not borrowed from other harnesses)
// so the benchmark's inputs change only when this file does.
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  WorldConfig config;
  /// One Synthesize call per merchant instead of one call for all offers.
  bool per_merchant_calls = false;
  /// Synthesize passes per thread count in each measured round.
  size_t synth_reps = 1;
};

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  w.config.seed = seed;
  // Many merchants, each in few categories, and a short tail of offers
  // per product: the world's size then varies little from seed to seed.
  w.config.max_offers_per_product = 8;
  if (name == "wide-taxonomy") {
    // Many leaves, uncategorized incoming offers: every offer goes
    // through the title classifier, whose cost grows with the classes.
    w.config.categories_per_archetype = 8;
    w.config.merchants = 200;
    w.config.merchant_category_coverage = 0.025;
    w.config.products_per_category = 10;
    w.synth_reps = 2;
  } else if (name == "categorized-feed") {
    // Feeds carry categories (no classification), long junk-laden pages:
    // extraction and reconciliation dominate.
    w.config.categories_per_archetype = 1;
    w.config.merchants = 200;
    w.config.merchant_category_coverage = 0.08;
    w.config.products_per_category = 100;
    w.config.incoming_offers_have_category = true;
    w.config.junk_rows_min = 4;
    w.config.junk_rows_max = 10;
    w.synth_reps = 3;
  } else if (name == "merchant-feeds") {
    // The Table 2 taxonomy (74 leaves, 220 merchants), each merchant
    // submitting its own feed as one Synthesize call: per-call costs
    // dominate.
    w.config.categories_per_archetype = 2;
    w.config.merchants = 220;
    w.config.merchant_category_coverage = 0.05;
    w.config.products_per_category = 40;
    w.per_merchant_calls = true;
    w.synth_reps = 3;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

// ---------------------------------------------------------------------------
// The incoming offers as the Synthesize calls that submit them.
// ---------------------------------------------------------------------------

struct Calls {
  std::vector<OfferStore> owned;          // per-merchant stores, if split
  std::vector<const OfferStore*> stores;  // one per Synthesize call
  /// Per call, batch-local offer id -> world offer id (empty = identity).
  std::vector<std::vector<OfferId>> world_ids;
  size_t offers = 0;
};

Calls SplitCalls(const World& world, bool per_merchant) {
  Calls calls;
  calls.offers = world.incoming_offers.size();
  if (!per_merchant) {
    calls.stores.push_back(&world.incoming_offers);
    calls.world_ids.emplace_back();
    return calls;
  }
  std::map<MerchantId, size_t> slot_of;  // merchant-id order
  for (const Offer& offer : world.incoming_offers.offers()) {
    slot_of.emplace(offer.merchant, 0);
  }
  size_t next = 0;
  for (auto& [merchant, slot] : slot_of) slot = next++;
  calls.owned.resize(slot_of.size());
  calls.world_ids.resize(slot_of.size());
  for (const Offer& offer : world.incoming_offers.offers()) {
    const size_t slot = slot_of[offer.merchant];
    (void)calls.owned[slot].AddOffer(offer);
    calls.world_ids[slot].push_back(offer.id);
  }
  for (const OfferStore& store : calls.owned) calls.stores.push_back(&store);
  return calls;
}

// ---------------------------------------------------------------------------
// Output comparison.
// ---------------------------------------------------------------------------

bool SameProducts(const std::vector<SynthesizedProduct>& a,
                  const std::vector<SynthesizedProduct>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].category != b[i].category || a[i].key != b[i].key ||
        a[i].spec != b[i].spec || a[i].source_offers != b[i].source_offers) {
      return false;
    }
  }
  return true;
}

bool SameCorrespondences(const std::vector<AttributeCorrespondence>& a,
                         const std::vector<AttributeCorrespondence>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].tuple == b[i].tuple) ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

using PassProducts = std::vector<std::vector<SynthesizedProduct>>;

bool SamePass(const PassProducts& a, const PassProducts& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameProducts(a[i], b[i])) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Checks and raw results, emitted as JSON.
// ---------------------------------------------------------------------------

struct Report {
  std::vector<std::string> failures;  // every failed output/shape check
  std::ostringstream json;            // body fields, comma-prefixed

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    }
  }
  void Num(const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    json << ", \"" << key << "\": " << buf;
  }
  void Samples(const char* key, const std::vector<double>& values) {
    json << ", \"" << key << "\": [";
    for (size_t i = 0; i < values.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%.17g", i ? ", " : "", values[i]);
      json << buf;
    }
    json << "]";
  }
};

// ---------------------------------------------------------------------------
// Memory.
// ---------------------------------------------------------------------------

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  if (!(statm >> pages >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// ---------------------------------------------------------------------------
// CPU placement of single-threaded samples.
// ---------------------------------------------------------------------------

/// Hands out the CPUs of the process's affinity mask in turn. On a shared
/// machine one CPU can run slow for seconds at a time (a busy hyperthread
/// sibling); pinning successive single-threaded samples to successive
/// CPUs keeps one CPU's slow spell from covering every sample of a run.
/// Multi-threaded samples run under the full mask.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&full_);
    if (sched_getaffinity(0, sizeof(full_), &full_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &full_)) cpus_.push_back(cpu);
    }
  }
  /// Pins the calling thread to the next CPU.
  void PinNext() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
  }
  /// Gives the calling thread the full mask back.
  void Release() {
    if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof(full_), &full_);
  }

 private:
  cpu_set_t full_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Pins for its scope when `pin` (and `rotation` is non-null).
class ScopedPin {
 public:
  ScopedPin(CpuRotation* rotation, bool pin)
      : rotation_(pin ? rotation : nullptr) {
    if (rotation_ != nullptr) rotation_->PinNext();
  }
  ~ScopedPin() {
    if (rotation_ != nullptr) rotation_->Release();
  }
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  CpuRotation* rotation_;
};

// ---------------------------------------------------------------------------
// The program's phases, driven exactly as a user drives them.
// ---------------------------------------------------------------------------

bool HasGauge(const RegistrySnapshot& registry, const char* name) {
  for (const GaugeSnapshot& gauge : registry.gauges) {
    if (gauge.name == name && gauge.value != 0) return true;
  }
  return false;
}

struct Learned {
  std::unique_ptr<ProductSynthesizer> synthesizer;
  Status status = Status::OK();
  double wall_s = 0.0;
};

/// Cold LearnOffline that publishes a snapshot at `snapshot_path` (warm
/// == false), or warm LearnOffline that restores it. Single-threaded runs
/// take the next CPU of `rotation` (null = no pinning).
Learned Learn(const World& world, size_t offline_threads,
              const std::string& snapshot_path, bool warm,
              CpuRotation* rotation) {
  ScopedPin pin(rotation, offline_threads == 1);
  SynthesizerOptions options;
  options.offline_threads = offline_threads;
  options.runtime_threads = 1;
  options.snapshot.path = snapshot_path;
  options.snapshot.load_if_present = warm;
  options.snapshot.save_after_learn = !warm;
  Learned learned;
  learned.synthesizer =
      std::make_unique<ProductSynthesizer>(&world.catalog, options);
  const auto start = Clock::now();
  learned.status = learned.synthesizer->LearnOffline(
      world.historical_offers, world.historical_matches);
  learned.wall_s = SecondsSince(start);
  if (learned.status.ok()) {
    const char* gauge = warm ? "snapshot.loaded" : "snapshot.saved";
    if (!HasGauge(learned.synthesizer->learning_stats().registry, gauge)) {
      learned.status = Status::Internal(std::string("no ") + gauge);
    }
  }
  return learned;
}

struct Pass {
  double wall_s = 0.0;
  size_t failed_offers = 0;  // offers of calls that errored or truncated
  size_t classified = 0;     // classification stage items
  PassProducts products;     // per call, batch-local offer ids
};

Pass RunPass(ProductSynthesizer* synthesizer, size_t threads,
             const Calls& calls, const LandingPageProvider& pages,
             CpuRotation* rotation) {
  ScopedPin pin(rotation, threads == 1);
  synthesizer->set_runtime_threads(threads);
  Pass pass;
  pass.products.resize(calls.stores.size());
  const auto start = Clock::now();
  for (size_t c = 0; c < calls.stores.size(); ++c) {
    auto result = synthesizer->Synthesize(*calls.stores[c], pages);
    if (!result.ok() || !result->complete) {
      pass.failed_offers += calls.stores[c]->size();
      continue;
    }
    for (const StageSnapshot& stage : result->stats.stage_metrics) {
      if (stage.name == "classification") pass.classified += stage.items;
    }
    pass.products[c] = std::move(result->products);
  }
  pass.wall_s = SecondsSince(start);
  return pass;
}

/// All products of a pass with world offer ids, for the oracle.
SynthesisResult Combine(const PassProducts& products, const Calls& calls) {
  SynthesisResult combined;
  combined.stats.input_offers = calls.offers;
  for (size_t c = 0; c < products.size(); ++c) {
    for (SynthesizedProduct product : products[c]) {
      if (!calls.world_ids[c].empty()) {
        for (OfferId& id : product.source_offers) {
          id = calls.world_ids[c][static_cast<size_t>(id)];
        }
      }
      combined.products.push_back(std::move(product));
    }
  }
  return combined;
}

struct Setup {
  std::unique_ptr<World> world;
  Calls calls;
};

/// World generation plus the per-merchant split; appends its wall to
/// `setup_s`.
bool RunSetup(const Workload& workload, Setup* setup,
              std::vector<double>* setup_s) {
  const auto start = Clock::now();
  auto world = World::Generate(workload.config);
  if (!world.ok()) {
    std::fprintf(stderr, "perfbench: world generation failed: %s\n",
                 world.status().ToString().c_str());
    return false;
  }
  setup->world = std::make_unique<World>(std::move(world).ValueOrDie());
  setup->calls = SplitCalls(*setup->world, workload.per_merchant_calls);
  setup_s->push_back(SecondsSince(start));
  return true;
}

void EmitWorld(const Setup& setup, Report* report) {
  const World& world = *setup.world;
  report->Num("leaf_categories",
              static_cast<double>(world.category_instances.size()));
  report->Num("merchants", static_cast<double>(world.merchants.size()));
  report->Num("historical_offers",
              static_cast<double>(world.historical_offers.size()));
  report->Num("incoming_offers",
              static_cast<double>(world.incoming_offers.size()));
  report->Num("synthesize_calls",
              static_cast<double>(setup.calls.stores.size()));
}

// ---------------------------------------------------------------------------
// --trace 0: the end-to-end measurement.
// ---------------------------------------------------------------------------

int RunTimed(const Workload& workload, double seconds,
             const std::string& out_dir, Report* report) {
  std::vector<double> setup_s;
  Setup setup;
  if (!RunSetup(workload, &setup, &setup_s)) return 1;
  const World& world = *setup.world;
  const Calls& calls = setup.calls;
  EmitWorld(setup, report);

  CpuRotation rotation;
  const std::string snap_1t = out_dir + "/cold_1t.snap";
  const std::string snap_4t = out_dir + "/cold_4t.snap";
  std::vector<double> learn_1t, restore, synth_1t;
  size_t submitted = 0, failed = 0;
  double snapshot_bytes = 0.0;
  PassProducts reference;
  size_t classified_per_pass = 0;

  // Rounds until the next one would overrun `seconds`, at least four.
  const auto loop_start = Clock::now();
  double round_s = 0.0;
  for (size_t round = 0;
       round < 4 ||
       (SecondsSince(loop_start) + round_s <= seconds && round < 50);
       ++round) {
    const auto round_start = Clock::now();
    if (round > 0) {
      // One more set-up sample per round, spread over the run like the
      // other samples; the copy is dropped before learning starts.
      Setup again;
      if (!RunSetup(workload, &again, &setup_s)) return 1;
    }
    Learned cold = Learn(world, 1, snap_1t, /*warm=*/false, &rotation);
    if (!cold.status.ok()) {
      report->Check(false, "LearnOffline succeeds: " + cold.status.ToString());
      submitted += calls.offers;
      failed += calls.offers;
      break;
    }
    learn_1t.push_back(cold.wall_s);
    snapshot_bytes =
        static_cast<double>(std::filesystem::file_size(snap_1t));

    Learned warm = Learn(world, 1, snap_1t, /*warm=*/true, &rotation);
    if (!warm.status.ok()) {
      report->Check(false, "warm LearnOffline restores the snapshot: " +
                               warm.status.ToString());
      break;
    }
    restore.push_back(warm.wall_s);
    report->Check(SameCorrespondences(cold.synthesizer->correspondences(),
                                      warm.synthesizer->correspondences()),
                  "restored correspondences equal cold correspondences");

    for (size_t rep = 0; rep < workload.synth_reps; ++rep) {
      Pass pass = RunPass(cold.synthesizer.get(), 1, calls, world.pages,
                          &rotation);
      submitted += calls.offers;
      failed += pass.failed_offers;
      synth_1t.push_back(pass.wall_s);
      if (round == 0 && rep == 0) {
        reference = std::move(pass.products);
        classified_per_pass = pass.classified;
        continue;
      }
      report->Check(pass.classified == classified_per_pass,
                    "classification count repeats");
      report->Check(SamePass(pass.products, reference),
                    "1-thread products repeat");
    }
    if (round == 0) {
      // The outputs of the other paths, checked once per run: 4 threads
      // (timed in the traced run, where no bound applies) and warm.
      {
        Learned cold4 = Learn(world, 4, snap_4t, /*warm=*/false, &rotation);
        report->Check(cold4.status.ok() &&
                          SameCorrespondences(
                              cold.synthesizer->correspondences(),
                              cold4.synthesizer->correspondences()),
                      "4-thread correspondences equal 1-thread");
      }
      Pass pass4 = RunPass(cold.synthesizer.get(), 4, calls, world.pages,
                           nullptr);
      Pass warm_pass =
          RunPass(warm.synthesizer.get(), 1, calls, world.pages, nullptr);
      submitted += 2 * calls.offers;
      failed += pass4.failed_offers + warm_pass.failed_offers;
      report->Check(SamePass(pass4.products, reference),
                    "4-thread products equal 1-thread");
      report->Check(SamePass(warm_pass.products, reference),
                    "warm-restored products equal cold products");
    }
    round_s = SecondsSince(round_start);
  }
  std::filesystem::remove(snap_1t);
  std::filesystem::remove(snap_4t);

  report->Samples("setup_s", setup_s);
  report->Samples("learn_s_1t", learn_1t);
  report->Samples("restore_s", restore);
  report->Samples("synth_pass_s_1t", synth_1t);
  report->Num("offers_submitted", static_cast<double>(submitted));
  report->Num("offers_failed", static_cast<double>(failed));
  report->Num("snapshot_bytes", snapshot_bytes);
  report->Num("classification_calls_per_pass",
              static_cast<double>(classified_per_pass));

  if (!synth_1t.empty()) {
    const EvaluationOracle oracle(&world);
    const SynthesisQuality quality =
        EvaluateSynthesis(Combine(reference, calls), oracle);
    report->Num("synthesized_products",
                static_cast<double>(quality.synthesized_products));
    report->Num("synthesized_attributes",
                static_cast<double>(quality.synthesized_attributes));
    report->Num("attribute_precision", quality.attribute_precision);
    report->Num("product_precision", quality.product_precision);
  }
  report->Num("peak_rss_mb", PeakRssMb());
  return 0;
}

// ---------------------------------------------------------------------------
// --trace 1: spans kept in memory, written as Chrome trace events at the end.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;  // index into spans_, -1 for a root
    int64_t id;      // offer id, call index or cluster index; -1 if none
    int64_t depth;
    int64_t round;
  };

  SpanLog() : origin_(Clock::now()) {}

  int64_t Begin(const char* name, int64_t id) {
    const int64_t parent = open_.empty() ? -1 : open_.back();
    const int64_t depth = static_cast<int64_t>(open_.size());
    spans_.push_back({name, Now(), 0, parent, id, depth, round_});
    open_.push_back(static_cast<int64_t>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int64_t index) {
    spans_[static_cast<size_t>(index)].end_ns = Now();
    open_.pop_back();
  }
  double Seconds(int64_t index) const {
    const Span& s = spans_[static_cast<size_t>(index)];
    return static_cast<double>(s.end_ns - s.start_ns) / 1e9;
  }
  void set_round(int64_t round) { round_ = round; }

  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"depth\": %" PRId64 ", \"span\": %zu, "
                   "\"parent\": %" PRId64 ", \"id\": %" PRId64
                   ", \"round\": %" PRId64 "}}%s\n",
                   s.name, static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.depth,
                   i, s.parent, s.id, s.round,
                   i + 1 == spans_.size() ? "" : ",");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
  int64_t round_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t id = -1)
      : log_(log), index_(log->Begin(name, id)) {}
  ~ScopedSpan() { log_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t index() const { return index_; }

 private:
  SpanLog* log_;
  int64_t index_;
};

/// Counts of the replay, named as run.py reports them.
using Counters = std::map<std::string, double>;

/// The trained state the run-time replay needs.
struct ReplayModel {
  TitleClassifier title_classifier;
  std::unique_ptr<SchemaReconciler> reconciler;
};

/// ClassifierMatcher::Generate at offline_threads 1, layer by layer. Like
/// Generate, it frees the index and the training set when it returns.
Result<std::vector<AttributeCorrespondence>> ReplayGenerate(
    const World& world, const ProductSynthesizer& program, SpanLog* log,
    Counters* counters, Report* report) {
  const ClassifierMatcherOptions matcher = SynthesizerOptions().matcher;
  MatchingContext ctx;
  ctx.catalog = &world.catalog;
  ctx.offers = &world.historical_offers;
  ctx.matches = &world.historical_matches;

  BagIndexOptions bag_options = matcher.bag_index;
  bag_options.build_threads = 1;
  // Hand freed heap back first, so the delta is the index's own pages.
  malloc_trim(0);
  const double rss_before = CurrentRssMb();
  Result<MatchedBagIndex> index_or = Status::Internal("not built");
  {
    ScopedSpan span(log, "bag_index.build");
    index_or = MatchedBagIndex::Build(ctx, bag_options);
  }
  PRODSYN_RETURN_NOT_OK(index_or.status());
  const MatchedBagIndex& index = *index_or;
  (*counters)["bag_index.rss_delta_mb"] = CurrentRssMb() - rss_before;
  const auto& candidates = index.candidates();
  (*counters)["bag_index.candidates"] = static_cast<double>(candidates.size());

  Result<CorrespondenceTrainingSet> training_or = Status::Internal("unbuilt");
  {
    ScopedSpan span(log, "training_set.build");
    FeatureComputer computer(&index, matcher.features);
    training_or = BuildTrainingSet(index, &computer, matcher.training);
  }
  PRODSYN_RETURN_NOT_OK(training_or.status());
  const CorrespondenceTrainingSet& training = *training_or;
  (*counters)["training_set.examples"] =
      static_cast<double>(training.dataset.size());
  (*counters)["training_set.positives"] =
      static_cast<double>(training.positives);

  StandardScaler scaler;
  LogisticRegression lr;
  {
    ScopedSpan span(log, "lr.train");
    PRODSYN_ASSIGN_OR_RETURN(DenseMatrix matrix,
                             DenseMatrix::FromDataset(training.dataset));
    PRODSYN_RETURN_NOT_OK(scaler.Fit(matrix));
    PRODSYN_RETURN_NOT_OK(scaler.TransformInPlace(&matrix));
    LogisticRegressionOptions lr_options = matcher.regression;
    lr_options.threads = 1;
    PRODSYN_RETURN_NOT_OK(lr.Fit(matrix, lr_options));
  }
  (*counters)["lr.iterations"] = static_cast<double>(lr.iterations_used());

  std::vector<AttributeCorrespondence> scored(candidates.size());
  size_t predicted_valid = 0;
  {
    ScopedSpan span(log, "classifier.score");
    FeatureComputer computer(&index, matcher.features);
    for (size_t i = 0; i < candidates.size(); ++i) {
      std::vector<double> features = computer.Compute(candidates[i]);
      PRODSYN_RETURN_NOT_OK(scaler.Transform(&features));
      PRODSYN_ASSIGN_OR_RETURN(double score, lr.PredictProbability(features));
      if (score > 0.5) ++predicted_valid;
      if (matcher.force_name_identity_score &&
          IsNameIdentity(candidates[i], matcher.training)) {
        score = 1.0;
      }
      scored[i] = AttributeCorrespondence{candidates[i], score};
    }
    SortByScoreDescending(&scored);
  }
  (*counters)["classifier.candidates"] =
      static_cast<double>(candidates.size());
  (*counters)["classifier.predicted_valid"] =
      static_cast<double>(predicted_valid);
  report->Check(SameCorrespondences(scored, program.correspondences()),
                "replayed scored correspondences equal LearnOffline's");
  report->Check(
      predicted_valid == program.learning_stats().predicted_valid &&
          lr.iterations_used() == program.learning_stats().lr_iterations,
      "replayed learning stats equal LearnOffline's");
  return scored;
}

/// The rest of ProductSynthesizer::LearnOffline after Generate, plus the
/// snapshot round trip.
Status ReplayOffline(const World& world, const ProductSynthesizer& program,
                     const std::string& program_snapshot,
                     const std::string& replay_snapshot, SpanLog* log,
                     Counters* counters, ReplayModel* model,
                     Report* report) {
  const SynthesizerOptions defaults;
  PRODSYN_ASSIGN_OR_RETURN(
      std::vector<AttributeCorrespondence> scored,
      ReplayGenerate(world, program, log, counters, report));
  {
    ScopedSpan span(log, "title_classifier.train");
    model->title_classifier = TitleClassifier();
    model->title_classifier.TrainOnStore(world.historical_offers);
  }
  {
    ScopedSpan span(log, "reconciler.build");
    model->reconciler = std::make_unique<SchemaReconciler>(
        scored, defaults.correspondence_threshold, defaults.record_provenance);
  }
  (*counters)["reconciler.mappings"] =
      static_cast<double>(model->reconciler->mapping_count());

  // Snapshot I/O: load the program's snapshot, write it back; the bytes
  // must be identical (the format is canonical).
  Result<OfflineSnapshot> loaded = Status::Internal("not loaded");
  {
    ScopedSpan span(log, "snapshot.load");
    loaded = LoadOfflineSnapshot(program_snapshot);
  }
  PRODSYN_RETURN_NOT_OK(loaded.status());
  Status saved = Status::OK();
  {
    ScopedSpan span(log, "snapshot.save");
    saved = SaveOfflineSnapshot(*loaded, replay_snapshot);
  }
  PRODSYN_RETURN_NOT_OK(saved);
  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string original = slurp(program_snapshot);
  report->Check(!original.empty() && original == slurp(replay_snapshot),
                "re-saved snapshot is byte-identical");
  (*counters)["snapshot.bytes"] = static_cast<double>(original.size());
  std::filesystem::remove(replay_snapshot);
  return Status::OK();
}

/// Run-time processing at runtime_threads 1, layer by layer, mirroring
/// ProductSynthesizer::Synthesize: classification → extraction →
/// reconciliation per offer, then clustering and fusion per call.
Status ReplayRuntime(const World& world, const Calls& calls,
                     const ReplayModel& model, SpanLog* log,
                     Counters* counters, PassProducts* products) {
  const SynthesizerOptions defaults;
  const bool have_classifier = model.title_classifier.category_count() > 0;
  size_t pairs_out = 0, pairs_in = 0, pairs_kept = 0;
  products->assign(calls.stores.size(), {});
  for (size_t c = 0; c < calls.stores.size(); ++c) {
    ScopedSpan call_span(log, "synthesize.call", static_cast<int64_t>(c));
    std::vector<ReconciledOffer> reconciled;
    for (const Offer& offer : calls.stores[c]->offers()) {
      CategoryId category = offer.category;
      if ((defaults.always_classify_titles ||
           category == kInvalidCategory) &&
          have_classifier) {
        ScopedSpan span(log, "classification", offer.id);
        auto classified = model.title_classifier.Classify(offer.title);
        if (classified.ok()) category = *classified;
      }
      if (category == kInvalidCategory) continue;
      Result<Specification> extracted = Status::Internal("not extracted");
      {
        ScopedSpan span(log, "extraction", offer.id);
        extracted =
            ExtractOfferSpecification(offer, world.pages, defaults.extractor);
      }
      PRODSYN_RETURN_NOT_OK(extracted.status());
      pairs_out += extracted->size();
      ReconciledOffer r;
      r.offer_id = offer.id;
      r.merchant = offer.merchant;
      r.category = category;
      {
        ScopedSpan span(log, "reconciliation", offer.id);
        r.spec = model.reconciler->Reconcile(offer.merchant, category,
                                             *extracted);
      }
      pairs_in += extracted->size();
      pairs_kept += r.spec.size();
      reconciled.push_back(std::move(r));
    }
    Result<std::vector<OfferCluster>> clusters_or = Status::Internal("none");
    {
      ScopedSpan span(log, "clustering", static_cast<int64_t>(c));
      size_t dropped = 0;
      clusters_or = ClusterByKey(reconciled, world.catalog.schemas(),
                                 defaults.clustering, &dropped);
    }
    PRODSYN_RETURN_NOT_OK(clusters_or.status());
    std::vector<OfferCluster>& clusters = *clusters_or;
    for (size_t k = 0; k < clusters.size(); ++k) {
      auto schema = world.catalog.schemas().Get(clusters[k].category);
      if (!schema.ok()) continue;
      Result<Specification> spec = Status::Internal("not fused");
      {
        ScopedSpan span(log, "fusion", static_cast<int64_t>(k));
        spec = FuseCluster(clusters[k], **schema);
      }
      PRODSYN_RETURN_NOT_OK(spec.status());
      if (spec->empty()) continue;
      SynthesizedProduct product;
      product.category = clusters[k].category;
      product.key = std::move(clusters[k].key);
      product.spec = std::move(*spec);
      for (const ReconciledOffer& member : clusters[k].members) {
        product.source_offers.push_back(member.offer_id);
      }
      (*products)[c].push_back(std::move(product));
    }
  }
  (*counters)["extraction.pairs_out"] = static_cast<double>(pairs_out);
  (*counters)["reconciliation.pairs_in"] = static_cast<double>(pairs_in);
  (*counters)["reconciliation.pairs_kept"] = static_cast<double>(pairs_kept);
  return Status::OK();
}

int RunTraced(const Workload& workload, double seconds,
              const std::string& out_dir, Report* report) {
  std::vector<double> setup_s;
  Setup setup;
  if (!RunSetup(workload, &setup, &setup_s)) return 1;
  const World& world = *setup.world;
  const Calls& calls = setup.calls;
  EmitWorld(setup, report);

  // Dead links, counted outside every timed region.
  size_t pages_missing = 0;
  for (const OfferStore* store : calls.stores) {
    for (const Offer& offer : store->offers()) {
      if (!world.pages.Fetch(offer.url).ok()) ++pages_missing;
    }
  }

  CpuRotation rotation;
  const std::string snap = out_dir + "/cold_1t.snap";
  const std::string snap_4t = out_dir + "/cold_4t.snap";
  const std::string replay_snap = out_dir + "/replay.snap";
  SpanLog log;
  Counters counters;
  std::vector<double> learn_1t, synth_1t, learn_4t, synth_4t, offline_replay,
      runtime_replay;
  size_t classified_per_pass = 0;
  const auto loop_start = Clock::now();
  double round_s = 0.0;
  for (size_t round = 0;
       round < 2 ||
       (SecondsSince(loop_start) + round_s <= seconds && round < 20);
       ++round) {
    const auto round_start = Clock::now();
    log.set_round(static_cast<int64_t>(round));
    // Both phases at 4 threads, untraced: the thread pool's scaling. On a
    // shared machine these swing with the neighbours' load, so they are
    // reported here, without a bound, and not as end-to-end metrics.
    Pass pass4;
    {
      Learned cold4 = Learn(world, 4, snap_4t, /*warm=*/false, nullptr);
      if (!cold4.status.ok()) {
        report->Check(false, "LearnOffline at 4 threads succeeds: " +
                                 cold4.status.ToString());
        return 0;
      }
      learn_4t.push_back(cold4.wall_s);
      pass4 = RunPass(cold4.synthesizer.get(), 4, calls, world.pages, nullptr);
      synth_4t.push_back(pass4.wall_s);
      report->Check(pass4.failed_offers == 0,
                    "4-thread Synthesize completes");
    }

    // The rest of the round on one CPU, so the untraced and the replayed
    // walls it compares share their CPU.
    ScopedPin pin(&rotation, true);
    Learned cold = Learn(world, 1, snap, /*warm=*/false, nullptr);
    if (!cold.status.ok()) {
      report->Check(false, "LearnOffline succeeds: " + cold.status.ToString());
      return 0;
    }
    learn_1t.push_back(cold.wall_s);
    Pass pass =
        RunPass(cold.synthesizer.get(), 1, calls, world.pages, nullptr);
    synth_1t.push_back(pass.wall_s);
    classified_per_pass = pass.classified;
    report->Check(pass.failed_offers == 0, "untraced Synthesize completes");
    report->Check(SamePass(pass4.products, pass.products),
                  "4-thread products equal 1-thread");

    ReplayModel model;
    Status status = Status::OK();
    int64_t offline_span = -1, runtime_span = -1;
    {
      ScopedSpan span(&log, "offline.replay");
      offline_span = span.index();
      status = ReplayOffline(world, *cold.synthesizer, snap, replay_snap,
                             &log, &counters, &model, report);
    }
    offline_replay.push_back(log.Seconds(offline_span));
    if (!status.ok()) {
      report->Check(false, "offline replay runs: " + status.ToString());
      return 0;
    }
    PassProducts replayed;
    {
      ScopedSpan span(&log, "runtime.replay");
      runtime_span = span.index();
      status = ReplayRuntime(world, calls, model, &log, &counters, &replayed);
    }
    runtime_replay.push_back(log.Seconds(runtime_span));
    if (!status.ok()) {
      report->Check(false, "run-time replay runs: " + status.ToString());
      return 0;
    }
    report->Check(SamePass(replayed, pass.products),
                  "replayed products equal Synthesize's");
    round_s = SecondsSince(round_start);
  }
  std::filesystem::remove(snap);
  std::filesystem::remove(snap_4t);
  counters["extraction.pages_missing"] = static_cast<double>(pages_missing);

  const std::string trace_path = out_dir + "/trace.json";
  report->Check(log.WriteChromeJson(trace_path), "trace written");
  report->json << ", \"trace_file\": \"" << trace_path << "\"";
  report->Samples("learn_s_1t", learn_1t);
  report->Samples("synth_pass_s_1t", synth_1t);
  report->Samples("learn_s_4t", learn_4t);
  report->Samples("synth_pass_s_4t", synth_4t);
  report->Samples("offline_replay_s", offline_replay);
  report->Samples("runtime_replay_s", runtime_replay);
  report->Num("classification_calls_per_pass",
              static_cast<double>(classified_per_pass));
  report->json << ", \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    report->json << (first ? "" : ", ") << "\"" << name << "\": " << buf;
    first = false;
  }
  report->json << "}";
  return 0;
}

}  // namespace
}  // namespace prodsyn::perfbench

int main(int argc, char** argv) {
  using namespace prodsyn::perfbench;
  std::string workload_name, out_dir = ".";
  uint64_t seed = 2011;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--out") {
      out_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  Workload workload;
  if (!MakeWorkload(workload_name, seed, &workload)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 workload_name.c_str());
    return 2;
  }
  prodsyn::SetLogLevel(prodsyn::LogLevel::kWarning);
  Report report;
  const int rc = trace != 0 ? RunTraced(workload, seconds, out_dir, &report)
                            : RunTimed(workload, seconds, out_dir, &report);
  if (rc != 0) return rc;
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"failures\": %zu%s}\n",
              workload.name.c_str(), static_cast<unsigned long long>(seed),
              trace, report.failures.size(), report.json.str().c_str());
  return 0;
}
