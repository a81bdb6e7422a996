// fmbench — one run of one benchmark workload, timed from outside the library.
//
// Usage:
//   fmbench --info
//       JSON: workload names, worker threads, detected and planning cache
//       geometry.
//   fmbench --generate --workload=W --seed=N --csr=FILE
//       Writes the workload's generated graph. Run it with FM_THREADS=1: the
//       generator seeds one RNG per pool worker, so only a single worker makes
//       the file a pure function of the seed.
//   fmbench --workload=W --seed=N --csr=FILE --out=FILE [--trace=FILE]
//       Loads FILE, walks, writes the workload's output to --out, and prints
//       one JSON line of phase times and check inputs. --out is deleted once
//       its size is taken. With --trace the run also records spans around each
//       public call and the engine's per-step stage records, and writes them to
//       the trace file at exit.
//
// The walk is configured the way fmwalk configures it: EngineOptions{}
// defaults (CacheInfo{} planning geometry, analytic cost model), with only the
// DRAM budget set, and only for the workload that needs several episodes.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/apps/embedding_corpus.h"
#include "src/core/cost_model.h"
#include "src/core/engine.h"
#include "src/gen/powerlaw_graph.h"
#include "src/graph/degree_sort.h"
#include "src/graph/edge_io.h"
#include "src/graph/graph_stats.h"
#include "src/util/cache_info.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace {

using namespace fm;
using Clock = std::chrono::steady_clock;

// Why each workload exists is recorded in benchmark/README.md.
struct Workload {
  const char* name;
  // Graph: power-law stand-in (dataset_registry.cc shapes).
  Vid vertices;
  double avg_degree;
  double alpha;
  double locality;
  bool weighted;  // weighted graphs keep generator labels (no shuffle support)
  // Walk.
  WalkAlgorithm algorithm;
  double walkers_per_vertex;
  uint32_t steps;
  Node2VecParams node2vec;
  double stop_probability;
  bool keep_paths;  // paths -> skip-gram pair file; else visit-count file
  uint64_t dram_budget_bytes;  // 0 = engine default
};

constexpr Workload kWorkloads[] = {
    {"corpus-yt", 570000, 4.34, 0.80, 0.0, false, WalkAlgorithm::kDeepWalk,
     0.2, 40, {}, 0.0, true, 0},
    {"deepwalk-yh", 2000000, 9.22, 0.834, 0.3, false,
     WalkAlgorithm::kDeepWalk, 1.0, 20, {}, 0.0, false, 0},
    {"node2vec-fs", 720000, 27.6, 0.64, 0.0, false, WalkAlgorithm::kNode2Vec,
     1.0, 20, {2.0, 0.5}, 0.0, false, 0},
    {"ppr-weighted-fs", 720000, 27.6, 0.64, 0.0, true,
     WalkAlgorithm::kDeepWalk, 2.0, 40, {}, 0.15, false, 6ull << 20},
};

constexpr uint32_t kCorpusWindow = 5;

const Workload& FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return w;
    }
  }
  throw std::invalid_argument("unknown workload: " + name);
}

// FNV-1a over bytes: workload names (for seeds) and visit vectors (for the
// cross-run hash).
uint64_t Fnv1a(const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xCBF29CE484222325ULL;
  for (size_t i = 0; i < bytes; ++i) {
    h = (h ^ p[i]) * 0x100000001B3ULL;
  }
  return h;
}

// Graph and walk seeds both derive from --seed.
uint64_t GraphSeed(const Workload& w, uint64_t seed) {
  return DeriveSeed(seed, Fnv1a(w.name, std::strlen(w.name)));
}

uint64_t WalkSeed(const Workload& w, uint64_t seed) {
  return DeriveSeed(GraphSeed(w, seed), 1);
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Spans kept in memory and written once at exit. Times are seconds since the
// run began; parent is the enclosing span's id (-1 for the root).
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  std::string args;  // preformatted JSON members, may be empty
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int Begin(const std::string& name, int parent) {
    spans_.push_back({name, Now(), 0, parent, ""});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int id, std::string args = "") {
    spans_[id].end = Now();
    spans_[id].args = std::move(args);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double Now() const { return Seconds(origin_, Clock::now()); }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Opens a span when a log is present; a no-op otherwise, so the untraced run
// executes the same calls in the same order.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, int parent = 0)
      : log_(log), id_(log != nullptr ? log->Begin(name, parent) : -1) {}
  void End(std::string args = "") {
    if (log_ != nullptr && !ended_) {
      log_->End(id_, std::move(args));
    }
    ended_ = true;
  }
  ~Scope() { End(); }
  int id() const { return id_; }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int id_;
  bool ended_ = false;
};

std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* format, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof(buf), format, ap);
  va_end(ap);
  return buf;
}

void WriteTrace(const std::string& path, const std::string& run_id,
                const SpanLog& log, int engine_span, const WalkStats& stats,
                Wid episode_walkers, Wid total_walkers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot write trace: " + path);
  }
  std::fprintf(f, "{\"run_id\": \"%s\", \"spans\": [", run_id.c_str());
  const auto& spans = log.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %d, \"run_id\": \"%s\"%s%s}",
                 i == 0 ? "" : ",", i, s.name.c_str(), s.start, s.end, s.parent,
                 run_id.c_str(), s.args.empty() ? "" : ", ", s.args.c_str());
  }
  // Step records carry durations, not timestamps: the engine reports them
  // after Run returns. Their parent is the engine.run span.
  std::fprintf(f, "],\n\"steps\": [");
  for (size_t i = 0; i < stats.step_records.size(); ++i) {
    const StepStageRecord& r = stats.step_records[i];
    const Wid scanned = std::min(episode_walkers,
                                 total_walkers - r.episode * episode_walkers);
    std::fprintf(f,
                 "%s\n{\"parent\": %d, \"episode\": %llu, \"step\": %u, "
                 "\"scatter_s\": %.9f, \"sample_s\": %.9f, \"gather_s\": %.9f, "
                 "\"live\": %llu, \"scanned\": %llu, \"vp_walkers\": [",
                 i == 0 ? "" : ",", engine_span,
                 static_cast<unsigned long long>(r.episode), r.step,
                 r.scatter_s, r.sample_s, r.gather_s,
                 static_cast<unsigned long long>(r.live_walkers),
                 static_cast<unsigned long long>(scanned));
    for (size_t v = 0; v < r.vp_walkers.size(); ++v) {
      std::fprintf(f, "%s%llu", v == 0 ? "" : ",",
                   static_cast<unsigned long long>(r.vp_walkers[v]));
    }
    std::fprintf(f, "]}");
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) {
    throw std::runtime_error("cannot write trace: " + path);
  }
}

// Visit counts indexed by original vertex id, as consecutive uint64 values.
void WriteVisits(const std::vector<uint64_t>& visits,
                 const std::vector<Vid>& new_to_old, const std::string& path) {
  std::vector<uint64_t> by_old(visits.size());
  for (size_t v = 0; v < visits.size(); ++v) {
    by_old[new_to_old[v]] = visits[v];
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("cannot open visit output: " + path);
  }
  const size_t written =
      std::fwrite(by_old.data(), sizeof(uint64_t), by_old.size(), f);
  if (std::fclose(f) != 0 || written != by_old.size()) {
    throw std::runtime_error("visit write failed: " + path);
  }
}

std::string JsonArray(const std::array<double, kDegreeBuckets>& a) {
  std::string s = "[";
  for (size_t i = 0; i < a.size(); ++i) {
    s += Fmt("%s%.9f", i == 0 ? "" : ", ", a[i]);
  }
  return s + "]";
}

std::string CacheJson(const CacheInfo& c) {
  return Fmt(
      "{\"l1_bytes\": %llu, \"l2_bytes\": %llu, \"l3_bytes\": %llu, "
      "\"line_bytes\": %u, \"l3_exclusive\": %s}",
      static_cast<unsigned long long>(c.l1_bytes),
      static_cast<unsigned long long>(c.l2_bytes),
      static_cast<unsigned long long>(c.l3_bytes), c.line_bytes,
      c.l3_exclusive ? "true" : "false");
}

int Info() {
  std::string names;
  for (const Workload& w : kWorkloads) {
    names += Fmt("%s\"%s\"", names.empty() ? "" : ", ", w.name);
  }
  std::printf(
      "{\"workloads\": [%s], \"threads\": %u, \"detected_cache\": %s, "
      "\"planning_cache\": %s}\n",
      names.c_str(), ThreadPool::Global().thread_count(),
      CacheJson(DetectCacheInfo()).c_str(),
      CacheJson(PartitionPlan::Config{}.cache).c_str());
  return 0;
}

int Generate(const Workload& w, uint64_t seed, const std::string& csr_path) {
  PowerLawConfig config;
  config.degrees.num_vertices = w.vertices;
  config.degrees.avg_degree = w.avg_degree;
  config.degrees.alpha = w.alpha;
  config.degrees.min_degree = 1;
  config.degrees.max_degree = static_cast<Degree>(w.vertices / 16);
  config.seed = GraphSeed(w, seed);
  config.locality = w.locality;
  config.shuffle_labels = !w.weighted;
  config.random_weights = w.weighted;
  const std::string tmp = csr_path + ".tmp";
  SaveCsrBinary(GeneratePowerLawGraph(config), tmp);
  std::filesystem::rename(tmp, csr_path);
  return 0;
}

int Walk(const Workload& w, uint64_t seed, const std::string& csr_path,
         const std::string& out_path, const std::string& trace_path) {
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<SpanLog> log;
  if (!trace_path.empty()) {
    log = std::make_unique<SpanLog>(t0);
  }
  Scope run_span(log.get(), "run", -1);

  Scope load_span(log.get(), "graph.load");
  CsrGraph raw = LoadCsrBinary(csr_path);
  load_span.End(Fmt("\"bytes\": %llu", static_cast<unsigned long long>(
                                           std::filesystem::file_size(csr_path))));
  const double load_s = Seconds(t0, Clock::now());

  const Clock::time_point sort_t0 = Clock::now();
  Scope sort_span(log.get(), "graph.sort");
  DegreeSortedGraph sorted = DegreeSort(raw);
  raw = CsrGraph();  // only the sorted copy is walked; free the other
  sort_span.End();
  const double sort_s = Seconds(sort_t0, Clock::now());
  const CsrGraph& graph = sorted.graph;

  WalkSpec spec;
  spec.algorithm = w.algorithm;
  spec.num_walkers = static_cast<Wid>(w.walkers_per_vertex *
                                      static_cast<double>(graph.num_vertices()));
  spec.steps = w.steps;
  spec.node2vec = w.node2vec;
  spec.use_edge_weights = w.weighted;
  spec.stop_probability = w.stop_probability;
  spec.seed = WalkSeed(w, seed);
  spec.keep_paths = w.keep_paths;

  EngineOptions options;
  options.dram_budget_bytes = w.dram_budget_bytes;
  options.record_step_stats = log != nullptr;
  FlashMobEngine engine(graph, options);
  const Wid episode_walkers =
      std::min(spec.num_walkers, engine.EpisodeWalkers(spec));

  if (log != nullptr) {
    // The same arguments the engine would pass on its first Run; injecting
    // the result keeps the walk identical to the untraced one.
    Scope plan_span(log.get(), "plan.build");
    PartitionPlan::Config config;
    config.threads_sharing_l3 = ThreadPool::Global().thread_count();
    AnalyticCostModel model(config.cache, LatencyModel{},
                            config.threads_sharing_l3);
    PartitionPlan plan =
        PartitionPlan::BuildOptimized(graph, episode_walkers, model, config);
    uint32_t ps_vps = 0;
    for (const VertexPartition& vp : plan.vps()) {
      ps_vps += vp.policy == SamplePolicy::kPS ? 1 : 0;
    }
    plan_span.End(Fmt("\"vps\": %u, \"ps_vps\": %u", plan.num_vps(), ps_vps));
    engine.SetPlan(std::move(plan));
  }

  Scope engine_span(log.get(), "engine.run");
  WalkResult result = engine.Run(spec);
  const WalkStats& stats = result.stats;
  {
    uint64_t ps_steps = 0;
    for (uint32_t i = 0; i < engine.plan().num_vps(); ++i) {
      if (engine.plan().vp(i).policy == SamplePolicy::kPS) {
        ps_steps += stats.vp_walker_steps[i];
      }
    }
    engine_span.End(Fmt(
        "\"walk_s\": %.9f, \"other_s\": %.9f, \"total_steps\": %llu, "
        "\"episodes\": %u, \"ps_steps\": %llu",
        stats.times.Total(), stats.times.other_s,
        static_cast<unsigned long long>(stats.total_steps), stats.episodes,
        static_cast<unsigned long long>(ps_steps)));
  }

  const Clock::time_point out_t0 = Clock::now();
  Scope out_span(log.get(), "output.write");
  uint64_t pairs = 0;
  if (w.keep_paths) {
    CorpusOptions corpus;
    corpus.window = kCorpusWindow;
    corpus.id_map = &sorted.new_to_old;
    pairs = WriteSkipGramPairs(result.paths, corpus, out_path);
  } else {
    WriteVisits(result.visit_counts, sorted.new_to_old, out_path);
  }
  const Clock::time_point t_end = Clock::now();
  const uint64_t out_bytes = std::filesystem::file_size(out_path);
  out_span.End(Fmt("\"bytes\": %llu", static_cast<unsigned long long>(out_bytes)));
  run_span.End();
  std::filesystem::remove(out_path);

  const double e2e_s = Seconds(t0, t_end);
  const double output_s = Seconds(out_t0, t_end);
  const double walk_s = stats.times.Total();

  // ---- check inputs (outside the timed region) ---------------------------
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  uint64_t visit_sum = 0;
  for (uint64_t v : result.visit_counts) {
    visit_sum += v;
  }
  const DegreeBucketStats buckets =
      ComputeDegreeBucketStats(graph, result.visit_counts);
  const char* paths_valid =
      w.keep_paths ? (result.paths.ValidAgainst(graph) ? "true" : "false")
                   : "null";

  if (log != nullptr) {
    WriteTrace(trace_path, Fmt("%s-%llu-%d", w.name,
                               static_cast<unsigned long long>(seed), getpid()),
               *log, engine_span.id(), stats, episode_walkers,
               spec.num_walkers);
  }

  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"threads\": %u, "
      "\"vertices\": %u, \"edges\": %llu, \"walkers\": %llu, \"steps\": %u, "
      "\"stop_probability\": %.9g, \"window\": %u, "
      "\"e2e_s\": %.9f, \"load_s\": %.9f, \"sort_s\": %.9f, "
      "\"walk_s\": %.9f, \"output_s\": %.9f, \"setup_s\": %.9f, "
      "\"total_steps\": %llu, \"walk_ns_per_step\": %.9f, "
      "\"peak_rss_mb\": %.3f, \"visit_sum\": %llu, "
      "\"visit_hash\": \"%016llx\", \"edge_share\": %s, "
      "\"visit_share\": %s, \"pairs\": %llu, \"output_bytes\": %llu, "
      "\"paths_valid\": %s}\n",
      w.name, static_cast<unsigned long long>(seed),
      ThreadPool::Global().thread_count(), graph.num_vertices(),
      static_cast<unsigned long long>(graph.num_edges()),
      static_cast<unsigned long long>(spec.num_walkers), spec.steps,
      spec.stop_probability, kCorpusWindow, e2e_s, load_s, sort_s, walk_s,
      output_s, e2e_s - walk_s - output_s,
      static_cast<unsigned long long>(stats.total_steps), stats.PerStepNs(),
      static_cast<double>(usage.ru_maxrss) / 1024.0,
      static_cast<unsigned long long>(visit_sum),
      static_cast<unsigned long long>(
          Fnv1a(result.visit_counts.data(),
                result.visit_counts.size() * sizeof(uint64_t))),
      JsonArray(buckets.edge_share).c_str(),
      JsonArray(buckets.visit_share).c_str(),
      static_cast<unsigned long long>(pairs),
      static_cast<unsigned long long>(out_bytes), paths_valid);
  return 0;
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

int Usage() {
  std::fprintf(stderr,
               "usage: fmbench --info\n"
               "       fmbench --generate --workload=W --seed=N --csr=FILE\n"
               "       fmbench --workload=W --seed=N --csr=FILE --out=FILE "
               "[--trace=FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool info = false;
  bool generate = false;
  std::string workload, seed, csr, out, trace;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--info") == 0) {
      info = true;
    } else if (std::strcmp(a, "--generate") == 0) {
      generate = true;
    } else if (!ParseFlag(a, "--workload", &workload) &&
               !ParseFlag(a, "--seed", &seed) && !ParseFlag(a, "--csr", &csr) &&
               !ParseFlag(a, "--out", &out) && !ParseFlag(a, "--trace", &trace)) {
      std::fprintf(stderr, "unknown argument: %s\n", a);
      return Usage();
    }
  }
  try {
    if (info) {
      return Info();
    }
    if (workload.empty() || seed.empty() || csr.empty() ||
        (!generate && out.empty())) {
      return Usage();
    }
    const Workload& w = FindWorkload(workload);
    const uint64_t s = std::stoull(seed);
    return generate ? Generate(w, s, csr) : Walk(w, s, csr, out, trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
