#include "tools/fmlint/analysis.h"

#include <regex>
#include <set>
#include <string>
#include <utility>

#include "tools/fmlint/callgraph.h"

namespace fmlint {
namespace {

// --- layer-dag ---------------------------------------------------------------

// The layer manifest. Higher ranks may include lower ranks; same-module is
// always fine; same-rank cross-module edges need an explicit allowance below.
// src/fm.h (the umbrella header) sits between the src layers and the
// tool/bench layer: it may include everything in src/, and only non-src code
// may include it (header-discipline enforces the latter).
struct Module {
  std::string name;
  int rank;
};

Module ModuleOf(const std::string& path) {
  static constexpr struct {
    const char* prefix;
    int rank;
  } kLayers[] = {
      {"src/util/", 0},     {"src/graph/", 10},   {"src/gen/", 10},
      {"src/sampling/", 10}, {"src/mem/", 10},    {"src/core/", 20},
      {"src/cachesim/", 20}, {"src/apps/", 30},   {"src/baseline/", 30},
      {"bench/", 40},        {"tools/", 40},      {"examples/", 40},
      {"tests/", 50},
  };
  if (path == "src/fm.h") {
    return {"src/fm.h", 35};
  }
  for (const auto& layer : kLayers) {
    if (path.rfind(layer.prefix, 0) == 0) {
      std::string name(layer.prefix);
      name.pop_back();  // drop trailing '/'
      return {std::move(name), layer.rank};
    }
  }
  return {"", -1};  // not part of the manifest (external / unknown)
}

// Sibling edges sanctioned inside a band.
bool AllowedSameRank(const std::string& from, const std::string& to) {
  static constexpr struct {
    const char* from;
    const char* to;
  } kAllowed[] = {
      {"src/gen", "src/graph"},
      {"src/sampling", "src/graph"},
      {"src/core", "src/cachesim"},
  };
  for (const auto& edge : kAllowed) {
    if (from == edge.from && to == edge.to) {
      return true;
    }
  }
  return false;
}

class LayerDagRule : public Rule {
 public:
  std::string_view name() const override { return "layer-dag"; }
  std::string_view description() const override {
    return "#include edges must follow the layer manifest: util -> "
           "graph/gen/sampling/mem -> core/cachesim -> apps/baseline -> "
           "bench/tools -> tests";
  }

  void CheckFile(const SourceFile& file, DiagSink& sink) override {
    Module from = ModuleOf(file.rel_path);
    if (from.rank < 0) {
      return;
    }
    for (const Include& inc : QuotedIncludes(file)) {
      Module to = ModuleOf(inc.path);
      if (to.rank < 0 || from.name == to.name) {
        continue;
      }
      bool ok = to.rank < from.rank ||
                (to.rank == from.rank && AllowedSameRank(from.name, to.name));
      if (!ok) {
        sink.Add({file.rel_path, inc.line, std::string(name()),
                  "layer violation: " + from.name + " may not include " +
                      to.name + " (" + inc.path +
                      "); dependencies flow util -> graph/gen/sampling/mem -> "
                      "core/cachesim -> apps/baseline -> bench/tools -> tests",
                  "move the shared code down a layer or invert the "
                  "dependency"});
      }
    }
  }
};

// --- header-discipline -------------------------------------------------------

class HeaderDisciplineRule : public Rule {
 public:
  std::string_view name() const override { return "header-discipline"; }
  std::string_view description() const override {
    return "no including .cc files; src/<dir>/internal/ headers are private "
           "to their directory; the src/fm.h umbrella is never included from "
           "src/";
  }

  void CheckFile(const SourceFile& file, DiagSink& sink) override {
    for (const Include& inc : QuotedIncludes(file)) {
      if (inc.path.size() > 3 &&
          inc.path.compare(inc.path.size() - 3, 3, ".cc") == 0) {
        sink.Add({file.rel_path, inc.line, std::string(name()),
                  "never #include an implementation file (" + inc.path + ")",
                  "link the object file or extract a header"});
        continue;
      }
      // src/<d>/internal/... is private to src/<d>/.
      static const std::regex internal_re(R"(^(src/[^/]+/)internal/)");
      std::smatch m;
      if (std::regex_search(inc.path, m, internal_re) &&
          file.rel_path.rfind(m[1].str(), 0) != 0) {
        sink.Add({file.rel_path, inc.line, std::string(name()),
                  "private header " + inc.path + " is internal to " +
                      m[1].str() + " and may not be included from " +
                      file.rel_path,
                  "use the public header of that module"});
        continue;
      }
      if (inc.path == "src/fm.h" && file.rel_path.rfind("src/", 0) == 0) {
        sink.Add({file.rel_path, inc.line, std::string(name()),
                  "the src/fm.h umbrella is for external consumers; inside "
                  "src/ include the specific headers",
                  "include the specific src/<module> headers"});
      }
    }
  }
};

// --- hot-path family ---------------------------------------------------------

// Base for the hot-path rules: feeds every file to the shared WholeProgram,
// then scans each function of the hot closure, deduplicating per line.
class HotPathRule : public Rule {
 public:
  explicit HotPathRule(std::shared_ptr<WholeProgram> wp) : wp_(std::move(wp)) {}

  void CheckFile(const SourceFile& file, DiagSink& /*sink*/) override {
    wp_->AddFile(file);
  }

  void Finish(DiagSink& sink) override {
    wp_->EnsureAnalyzed();
    reported_.clear();
    const std::vector<FunctionInfo>& fns = wp_->functions();
    for (size_t i = 0; i < fns.size(); ++i) {
      if (wp_->IsHot(i)) {
        ScanHot(fns[i], wp_->HotChain(i), sink);
      }
    }
    wp_->Release();
  }

 protected:
  virtual void ScanHot(const FunctionInfo& fn, const std::string& chain,
                       DiagSink& sink) = 0;

  void AddOnce(const std::string& file, size_t line, const std::string& what,
               const std::string& chain, const char* fixit, DiagSink& sink) {
    if (!reported_.emplace(file, line).second) {
      return;
    }
    sink.Add({file, line, std::string(name()),
              what + " [hot path: " + chain + "]", fixit});
  }

  std::shared_ptr<WholeProgram> wp_;

 private:
  std::set<std::pair<std::string, size_t>> reported_;
};

class HotPathAllocRule : public HotPathRule {
 public:
  using HotPathRule::HotPathRule;

  std::string_view name() const override { return "hot-path-alloc"; }
  std::string_view description() const override {
    return "no heap allocation inside FM_HOT_PATH functions or anything they "
           "transitively call";
  }

 protected:
  void ScanHot(const FunctionInfo& fn, const std::string& chain,
               DiagSink& sink) override {
    static const std::set<std::string> kAllocFns = {
        "malloc",      "calloc",          "realloc",    "free",
        "aligned_alloc", "posix_memalign", "strdup",     "make_unique",
        "make_shared"};
    static const std::set<std::string> kContainers = {
        "vector",        "string",       "deque",         "map",
        "unordered_map", "set",          "unordered_set", "list",
        "multimap",      "basic_string", "stringstream",  "ostringstream",
        "istringstream"};
    static const std::set<std::string> kGrowth = {
        "push_back", "emplace_back", "emplace", "resize",
        "reserve",   "insert",       "append",  "assign"};

    for (size_t i = 0; i < fn.body.size(); ++i) {
      const Token& t = fn.body[i];
      if (t.kind != Token::Kind::kIdent) {
        continue;
      }
      if (t.text == "new" || t.text == "delete") {
        AddOnce(fn.file, t.line, "'" + t.text + "' in hot path", chain,
                "preallocate outside the hot loop", sink);
        continue;
      }
      bool called = i + 1 < fn.body.size() && (fn.body[i + 1].text == "(" ||
                                               fn.body[i + 1].text == "<");
      if (called && kAllocFns.count(t.text) != 0) {
        AddOnce(fn.file, t.line, "heap allocation '" + t.text + "' in hot path",
                chain, "preallocate outside the hot loop", sink);
      }
    }
    for (const DeclSite& d : fn.decls) {
      if (kContainers.count(d.type) != 0) {
        AddOnce(fn.file, d.line,
                "allocating container '" + d.type + " " + d.var +
                    "' constructed in hot path",
                chain, "hoist the buffer out of the hot loop and reuse it",
                sink);
      }
    }
    for (const CallSite& c : fn.calls) {
      if (kGrowth.count(c.name) != 0) {
        AddOnce(fn.file, c.line,
                "container growth '" + c.name + "' in hot path", chain,
                "size the buffer up front; write through indices", sink);
      }
    }
  }
};

class HotPathLockRule : public HotPathRule {
 public:
  using HotPathRule::HotPathRule;

  std::string_view name() const override { return "hot-path-lock"; }
  std::string_view description() const override {
    return "no mutex acquisition inside the FM_HOT_PATH closure";
  }

 protected:
  void ScanHot(const FunctionInfo& fn, const std::string& chain,
               DiagSink& sink) override {
    static const std::set<std::string> kGuards = {
        "MutexLock", "lock_guard", "unique_lock", "scoped_lock", "shared_lock"};
    for (const DeclSite& d : fn.decls) {
      if (kGuards.count(d.type) != 0) {
        AddOnce(fn.file, d.line,
                "lock guard '" + d.type + " " + d.var + "' in hot path", chain,
                "restructure so the hot loop works on thread-private state",
                sink);
      }
    }
    static const std::set<std::string> kLockCalls = {"Lock", "TryLock", "lock",
                                                     "try_lock"};
    for (const CallSite& c : fn.calls) {
      if (kLockCalls.count(c.name) != 0) {
        AddOnce(fn.file, c.line, "lock call '" + c.name + "' in hot path",
                chain,
                "restructure so the hot loop works on thread-private state",
                sink);
      }
    }
    if (fn.acquires) {
      AddOnce(fn.file, fn.line,
              "FM_ACQUIRE-annotated function in hot path", chain,
              "hot code must not take locks; move the locking to the "
              "enclosing stage boundary",
              sink);
    }
  }
};

class HotPathIoRule : public HotPathRule {
 public:
  using HotPathRule::HotPathRule;

  std::string_view name() const override { return "hot-path-io"; }
  std::string_view description() const override {
    return "no blocking syscalls, I/O, or logging inside the FM_HOT_PATH "
           "closure";
  }

 protected:
  void ScanHot(const FunctionInfo& fn, const std::string& chain,
               DiagSink& sink) override {
    static const std::set<std::string> kIoCalls = {
        "printf",  "fprintf", "puts",      "fputs",     "fwrite",
        "fread",   "fopen",   "fclose",    "getline",   "scanf",
        "fscanf",  "open",    "read",      "write",     "pread",
        "pwrite",  "mmap",    "munmap",    "msync",     "fsync",
        "syscall", "sleep",   "usleep",    "nanosleep", "sleep_for",
        "sleep_until", "FM_LOG"};
    static const std::set<std::string> kStreams = {"ofstream", "ifstream",
                                                   "fstream"};
    static const std::set<std::string> kStreamObjs = {"cout", "cerr", "clog"};
    for (const CallSite& c : fn.calls) {
      if (kIoCalls.count(c.name) != 0) {
        AddOnce(fn.file, c.line,
                "blocking I/O or syscall '" + c.name + "' in hot path", chain,
                "buffer results and emit them outside the hot loop", sink);
      }
    }
    for (const DeclSite& d : fn.decls) {
      if (kStreams.count(d.type) != 0) {
        AddOnce(fn.file, d.line, "file stream opened in hot path", chain,
                "open files at stage boundaries, not per element", sink);
      }
    }
    for (const Token& t : fn.body) {
      if (t.kind == Token::Kind::kIdent && kStreamObjs.count(t.text) != 0) {
        AddOnce(fn.file, t.line, "console stream '" + t.text + "' in hot path",
                chain, "buffer results and emit them outside the hot loop",
                sink);
      }
    }
  }
};

class HotPathDivRule : public HotPathRule {
 public:
  using HotPathRule::HotPathRule;

  std::string_view name() const override { return "hot-path-div"; }
  std::string_view description() const override {
    return "per-element / or % inside the FM_HOT_PATH closure needs an "
           "adjacent `div:` justification comment";
  }

 protected:
  void ScanHot(const FunctionInfo& fn, const std::string& chain,
               DiagSink& sink) override {
    const SourceFile* file = wp_->file(fn.file);
    for (const Token& t : fn.body) {
      if (t.kind != Token::Kind::kPunct) {
        continue;
      }
      if (t.text != "/" && t.text != "%" && t.text != "/=" && t.text != "%=") {
        continue;
      }
      if (file != nullptr && HasAdjacentTag(*file, t.line, "div:")) {
        continue;
      }
      AddOnce(fn.file, t.line,
              "division '" + t.text + "' in hot path without a `div:` "
              "justification; hardware divide stalls the sample loop",
              chain,
              "// div: <why this cannot be a shift/mask or hoisted "
              "reciprocal>",
              sink);
    }
  }
};

class TelemetryHotPathRule : public HotPathRule {
 public:
  using HotPathRule::HotPathRule;

  std::string_view name() const override { return "telemetry-hot-path"; }
  std::string_view description() const override {
    return "no shared-atomic RMW inside the FM_HOT_PATH closure; hot metric "
           "updates accumulate per worker and fold at the stage barrier";
  }

 protected:
  void ScanHot(const FunctionInfo& fn, const std::string& chain,
               DiagSink& sink) override {
    // Shared-cell RMWs ping-pong the cache line between workers — exactly the
    // contention per-worker slots folded at the stage barrier (the engine's
    // Node2VecShard) exist to avoid. Single-writer relaxed store/load pairs
    // stay legal.
    static const std::set<std::string> kAtomicRmw = {
        "fetch_add",  "fetch_sub",
        "fetch_and",  "fetch_or",
        "fetch_xor",  "exchange",
        "compare_exchange_weak", "compare_exchange_strong"};
    for (const CallSite& c : fn.calls) {
      if (kAtomicRmw.count(c.name) != 0) {
        AddOnce(fn.file, c.line,
                "shared-atomic RMW '" + c.name + "' in hot path", chain,
                "accumulate into this worker's own slot (indexed by the "
                "worker id, as the engine's Node2VecShard is) and fold the "
                "slots at the stage barrier",
                sink);
      }
    }
  }
};

class RngStreamRule : public HotPathRule {
 public:
  using HotPathRule::HotPathRule;

  std::string_view name() const override { return "rng-stream-discipline"; }
  std::string_view description() const override {
    return "RNG constructions and Seed() calls in the FM_HOT_PATH closure "
           "must spell their seed as WalkerSeed(chunk_seed, walker_index); "
           "thread-id/slot/clock-derived seeds break walk determinism";
  }

 protected:
  void ScanHot(const FunctionInfo& fn, const std::string& chain,
               DiagSink& sink) override {
    const std::vector<Token>& body = fn.body;
    for (size_t i = 0; i + 2 < body.size(); ++i) {
      const std::string& t = body[i].text;
      // `XorShiftRng rng(seed)` / `Rng rng{seed}`: any type spelled ...Rng.
      bool rng_decl = body[i].kind == Token::Kind::kIdent && t.size() >= 3 &&
                      t.compare(t.size() - 3, 3, "Rng") == 0 &&
                      body[i + 1].kind == Token::Kind::kIdent &&
                      (body[i + 2].text == "(" || body[i + 2].text == "{");
      if (rng_decl) {
        CheckSeed(fn, i + 2, "RNG construction", chain, sink);
      } else if (t == "Seed" && body[i + 1].text == "(") {
        CheckSeed(fn, i + 1, "Seed() call", chain, sink);
      }
    }
  }

 private:
  // The seed must be spelled out at the construction: the balanced argument
  // list opening at body[open] names WalkerSeed and no thread, ring-slot or
  // clock source. A stream keyed by the pool size or a ring slot makes the
  // walks change with thread placement.
  void CheckSeed(const FunctionInfo& fn, size_t open, const char* what,
                 const std::string& chain, DiagSink& sink) {
    static const std::set<std::string> kSourceNames = {
        "thread_index", "thread_idx", "thread_id",   "worker_id",
        "worker_index", "worker",     "tid",         "num_threads",
        "thread_count", "nthreads",   "n_threads",   "num_workers",
        "slot",         "slot_index", "slot_idx",    "ring_slot",
        "slot_id",      "lane",       "lane_id"};
    static const std::set<std::string> kSourceCalls = {
        "hardware_concurrency", "get_id", "pthread_self", "gettid",
        "NowNs",                "now",    "Now",          "time",
        "clock_gettime",        "rdtsc",  "__rdtsc"};
    const std::vector<Token>& body = fn.body;
    size_t line = body[open].line;
    bool walker_seed = false;
    std::string source;
    int depth = 0;
    for (size_t j = open; j < body.size(); ++j) {
      const Token& t = body[j];
      if (t.text == "(" || t.text == "{") {
        ++depth;
      } else if ((t.text == ")" || t.text == "}") && --depth == 0) {
        break;
      }
      if (t.kind != Token::Kind::kIdent) {
        continue;
      }
      walker_seed = walker_seed || t.text == "WalkerSeed";
      bool called = j + 1 < body.size() && body[j + 1].text == "(";
      if (source.empty() && (kSourceNames.count(t.text) != 0 ||
                             (called && kSourceCalls.count(t.text) != 0))) {
        source = t.text;
      }
    }
    if (!source.empty()) {
      AddOnce(fn.file, line,
              std::string(what) + " seeded from '" + source +
                  "'; streams must be walker-indexed or walks change with "
                  "placement/pool size",
              chain,
              "seed with WalkerSeed(chunk_seed, walker_index) so each walker "
              "owns one deterministic stream",
              sink);
    } else if (!walker_seed) {
      AddOnce(fn.file, line,
              std::string(what) + " whose seed is not spelled "
                  "WalkerSeed(chunk_seed, walker_index) at the construction",
              chain,
              "derive the seed from WalkerSeed(chunk_seed, walker_index) "
              "(src/util/rng.h)",
              sink);
    }
  }
};

}  // namespace

std::unique_ptr<Rule> MakeLayerDagRule() {
  return std::make_unique<LayerDagRule>();
}
std::unique_ptr<Rule> MakeHeaderDisciplineRule() {
  return std::make_unique<HeaderDisciplineRule>();
}
std::vector<std::unique_ptr<Rule>> MakeWholeProgramRules() {
  auto wp = std::make_shared<WholeProgram>(6);
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<HotPathAllocRule>(wp));
  rules.push_back(std::make_unique<HotPathLockRule>(wp));
  rules.push_back(std::make_unique<HotPathIoRule>(wp));
  rules.push_back(std::make_unique<HotPathDivRule>(wp));
  rules.push_back(std::make_unique<TelemetryHotPathRule>(wp));
  rules.push_back(std::make_unique<RngStreamRule>(wp));
  return rules;
}

}  // namespace fmlint
