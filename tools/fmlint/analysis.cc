#include "tools/fmlint/analysis.h"

#include <algorithm>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <utility>

namespace fmlint {
namespace {

// --- shared helpers ----------------------------------------------------------

struct Include {
  std::string path;  // as written inside the quotes (repo-relative by policy)
  size_t line;       // 1-based
};

// Quoted project includes; the path is recovered from the raw line because
// string contents are blanked in prepared code.
std::vector<Include> QuotedIncludes(const SourceFile& file) {
  static const std::regex include_re(R"(^\s*#\s*include\s*\")");
  std::vector<Include> out;
  for (size_t i = 0; i < file.code.size(); ++i) {
    if (!std::regex_search(file.code[i], include_re)) {
      continue;
    }
    size_t open = file.raw[i].find('"');
    if (open == std::string::npos) {
      continue;
    }
    size_t close = file.raw[i].find('"', open + 1);
    if (close == std::string::npos) {
      continue;
    }
    out.push_back({file.raw[i].substr(open + 1, close - open - 1), i + 1});
  }
  return out;
}

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

// --- whole-program rule base -------------------------------------------------

class WholeProgramRule : public Rule {
 public:
  explicit WholeProgramRule(std::shared_ptr<WholeProgram> wp)
      : wp_(std::move(wp)) {}

  void CheckFile(const SourceFile& file, DiagSink& /*sink*/) override {
    wp_->AddFile(file);
  }

  void Finish(DiagSink& sink) override {
    wp_->EnsureAnalyzed();
    Report(sink);
    wp_->Release();
  }

 protected:
  virtual void Report(DiagSink& sink) = 0;

  std::shared_ptr<WholeProgram> wp_;
};

// --- lock-order --------------------------------------------------------------

class LockOrderRule : public WholeProgramRule {
 public:
  using WholeProgramRule::WholeProgramRule;

  std::string_view name() const override { return "lock-order"; }
  std::string_view description() const override {
    return "the lock acquired-before graph (MutexLock nesting + FM_REQUIRES/"
           "FM_ACQUIRE through the call graph) must stay acyclic";
  }

 protected:
  void Report(DiagSink& sink) override {
    for (const auto& cycle : wp_->lock_cycles()) {
      std::string order;
      std::string detail;
      for (const WholeProgram::LockEdge& e : cycle) {
        order += e.from + " -> ";
        detail += "; " + e.from + " -> " + e.to + " (" + e.note + " at " +
                  e.file + ":" + std::to_string(e.line) + ")";
      }
      const WholeProgram::LockEdge& first = cycle.front();
      sink.Add({first.file, first.line, std::string(name()),
                "potential deadlock: lock-order cycle " + order +
                    cycle.front().from + detail,
                "pick one global order for these locks (see the canonical "
                "order in src/util/sync.h) and acquire in that order "
                "everywhere"});
    }
  }
};

// --- hot-path family ---------------------------------------------------------

// Base for the hot-path rules: iterates the hot closure and lets subclasses
// scan each function, deduplicating per line.
class HotPathRule : public WholeProgramRule {
 public:
  using WholeProgramRule::WholeProgramRule;

 protected:
  void Report(DiagSink& sink) override {
    reported_.clear();
    const std::vector<FunctionInfo>& fns = wp_->functions();
    for (size_t i = 0; i < fns.size(); ++i) {
      if (wp_->IsHot(i)) {
        ScanHot(fns[i], wp_->HotChain(i), sink);
      }
    }
  }

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
    for (const LockSite& site : fn.locks) {
      AddOnce(fn.file, site.line,
              "acquires lock '" + site.lock + "' in hot path", chain,
              "restructure so the hot loop works on thread-private state",
              sink);
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
    if (!fn.acquires_locks.empty()) {
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
      if (file != nullptr && Justified(*file, t.line)) {
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

 private:
  // Same shape as the relaxed-order justification: tag on the same line or in
  // the contiguous //-comment block immediately above.
  static bool Justified(const SourceFile& file, size_t line_1based) {
    static constexpr const char* kTag = "div:";
    if (line_1based == 0 || line_1based > file.raw.size()) {
      return false;
    }
    size_t i = line_1based - 1;
    if (file.raw[i].find(kTag) != std::string::npos) {
      return true;
    }
    for (size_t j = i; j > 0; --j) {
      const std::string& above = file.raw[j - 1];
      size_t first = above.find_first_not_of(" \t");
      if (first == std::string::npos || above.compare(first, 2, "//") != 0) {
        break;
      }
      if (above.find(kTag, first) != std::string::npos) {
        return true;
      }
    }
    return false;
  }
};

class TelemetryHotPathRule : public HotPathRule {
 public:
  using HotPathRule::HotPathRule;

  std::string_view name() const override { return "telemetry-hot-path"; }
  std::string_view description() const override {
    return "no shared-atomic RMW or mutex-guarded metric updates inside the "
           "FM_HOT_PATH closure; hot metric updates use per-thread telemetry "
           "shard stores";
  }

 protected:
  void ScanHot(const FunctionInfo& fn, const std::string& chain,
               DiagSink& sink) override {
    // Shared-cell RMWs ping-pong the cache line between workers — exactly the
    // contention the per-thread shard design (src/util/telemetry.h) exists to
    // avoid. Single-writer relaxed store/load pairs stay legal.
    static const std::set<std::string> kAtomicRmw = {
        "fetch_add",  "fetch_sub",
        "fetch_and",  "fetch_or",
        "fetch_xor",  "exchange",
        "compare_exchange_weak", "compare_exchange_strong"};
    // Registry lookups and renders take TelemetryRegistry::mutex_; cache the
    // instrument reference at setup instead.
    static const std::set<std::string> kRegistryCalls = {
        "CounterRef", "GaugeRef", "HistogramRef", "RenderPrometheus",
        "RenderJsonLine"};
    for (const CallSite& c : fn.calls) {
      if (kAtomicRmw.count(c.name) != 0) {
        AddOnce(fn.file, c.line,
                "shared-atomic RMW '" + c.name + "' in hot path", chain,
                "update a per-thread telemetry shard (telemetry::Counter::Add "
                "/ Histogram::Observe) and fold at the stage barrier",
                sink);
      } else if (kRegistryCalls.count(c.name) != 0) {
        AddOnce(fn.file, c.line,
                "mutex-guarded telemetry call '" + c.name + "' in hot path",
                chain,
                "look the instrument up at setup and cache the reference; hot "
                "code touches only its own shard",
                sink);
      }
    }
  }
};

// --- data-flow rule family ---------------------------------------------------

// Same-line + contiguous //-comment-block-above raw text, for justification
// lookups (the div:/taint:/relaxed: comment conventions all share this shape).
std::string NearbyCommentText(const SourceFile& file, size_t line_1based) {
  std::string out;
  if (line_1based == 0 || line_1based > file.raw.size()) {
    return out;
  }
  size_t i = line_1based - 1;
  out += file.raw[i];
  for (size_t j = i; j > 0; --j) {
    const std::string& above = file.raw[j - 1];
    size_t first = above.find_first_not_of(" \t");
    if (first == std::string::npos || above.compare(first, 2, "//") != 0) {
      break;
    }
    out += '\n';
    out += above;
  }
  return out;
}

std::string SimpleCallName(const std::string& name) {
  size_t pos = name.rfind("::");
  return pos == std::string::npos ? name : name.substr(pos + 2);
}

// Base for the three data-flow rules: WholeProgram feeding plus a shared
// DataFlow built once per lint run, with per-line dedup.
class DataFlowRule : public Rule {
 public:
  DataFlowRule(std::shared_ptr<WholeProgram> wp,
               std::shared_ptr<DataFlowCache> cache)
      : wp_(std::move(wp)), cache_(std::move(cache)) {}

  void CheckFile(const SourceFile& file, DiagSink& /*sink*/) override {
    wp_->AddFile(file);
  }

  void Finish(DiagSink& sink) override {
    wp_->EnsureAnalyzed();
    reported_.clear();
    Report(cache_->Ensure(*wp_), sink);
    cache_->Release();
    wp_->Release();
  }

 protected:
  virtual void Report(const DataFlow& df, DiagSink& sink) = 0;

  void AddOnce(const std::string& file, size_t line, const std::string& what,
               const std::string& fixit, DiagSink& sink) {
    if (!reported_.emplace(file, line).second) {
      return;
    }
    sink.Add({file, line, std::string(name()), what, fixit});
  }

  bool JustifiedBy(const std::string& rel_path, size_t line,
                   const char* tag) const {
    const SourceFile* file = wp_->file(rel_path);
    return file != nullptr &&
           NearbyCommentText(*file, line).find(tag) != std::string::npos;
  }

  std::shared_ptr<WholeProgram> wp_;
  std::shared_ptr<DataFlowCache> cache_;

 private:
  std::set<std::pair<std::string, size_t>> reported_;
};

// First forbidden source bit set in `prov`, or 0.
Provenance FirstBadBit(Provenance prov) {
  for (Provenance bit : {kProvThreadId, kProvSlotIndex, kProvPointer,
                         kProvClock, kProvUntrusted}) {
    if ((prov & bit) != 0) {
      return bit;
    }
  }
  return 0;
}

class RngStreamRule : public DataFlowRule {
 public:
  using DataFlowRule::DataFlowRule;

  std::string_view name() const override { return "rng-stream-discipline"; }
  std::string_view description() const override {
    return "RNG constructions and Seed() calls in the FM_HOT_PATH closure "
           "must trace their seed to WalkerSeed(chunk_seed, walker_index); "
           "thread-id/slot/pointer/clock-derived seeds break walk "
           "determinism";
  }

 protected:
  void Report(const DataFlow& df, DiagSink& sink) override {
    const std::vector<FunctionInfo>& fns = wp_->functions();
    for (size_t i = 0; i < fns.size(); ++i) {
      if (!wp_->IsHot(i)) {
        continue;
      }
      const FunctionInfo& fn = fns[i];
      const std::string& chain = wp_->HotChain(i);
      df.Visit(
          i,
          [&](const Statement& stmt, const VarState& state) {
            // `Rng rng(seed_expr)` — any type spelled ...Rng.
            bool rng_decl =
                stmt.is_decl && !stmt.decl_type.empty() &&
                (stmt.decl_type == "Rng" ||
                 (stmt.decl_type.size() > 3 &&
                  stmt.decl_type.compare(stmt.decl_type.size() - 3, 3,
                                         "Rng") == 0));
            if (rng_decl) {
              CheckSeed(df.Eval(stmt.value, state), fn, stmt.line,
                        "RNG construction", chain, sink);
            }
            for (const StmtCall& call : stmt.calls) {
              if (SimpleCallName(call.name) == "Seed" && !call.args.empty()) {
                CheckSeed(df.Eval(call.args[0], state), fn, call.line,
                          "Seed() call", chain, sink);
              }
            }
          },
          nullptr);
    }
  }

 private:
  void CheckSeed(Provenance prov, const FunctionInfo& fn, size_t line,
                 const char* what, const std::string& chain, DiagSink& sink) {
    Provenance bad = FirstBadBit(prov);
    if (bad != 0) {
      AddOnce(fn.file, line,
              std::string(what) + " seeded from " +
                  ProvenanceSourceName(bad) +
                  "; streams must be walker-indexed or walks change with "
                  "placement/pool size [hot path: " +
                  chain + "]",
              "seed with WalkerSeed(chunk_seed, walker_index) so each walker "
              "owns one deterministic stream",
              sink);
      return;
    }
    if ((prov & kProvWalkerSeed) == 0) {
      AddOnce(fn.file, line,
              std::string(what) + " whose seed does not trace to "
                  "WalkerSeed(chunk_seed, walker_index) provenance [hot "
                  "path: " +
                  chain + "]",
              "derive the seed from WalkerSeed(chunk_seed, walker_index) "
              "(src/util/rng.h)",
              sink);
    }
  }
};

class UntrustedInputTaintRule : public DataFlowRule {
 public:
  using DataFlowRule::DataFlowRule;

  std::string_view name() const override { return "untrusted-input-taint"; }
  std::string_view description() const override {
    return "header-derived scalars (LoadScalar / MappedSpan) are tainted "
           "until bounds-checked; tainted allocation sizes, array indices, "
           "and loop bounds need a `taint:` justification";
  }

 protected:
  void Report(const DataFlow& df, DiagSink& sink) override {
    static const std::set<std::string> kAllocTypes = {"vector", "string",
                                                      "deque", "basic_string"};
    static const std::set<std::string> kSizeCalls = {
        "resize", "reserve", "malloc", "calloc", "realloc", "aligned_alloc"};
    const std::vector<FunctionInfo>& fns = wp_->functions();
    for (size_t i = 0; i < fns.size(); ++i) {
      const FunctionInfo& fn = fns[i];
      df.Visit(
          i,
          [&](const Statement& stmt, const VarState& state) {
            if (stmt.is_decl && kAllocTypes.count(stmt.decl_type) != 0 &&
                (df.Eval(stmt.value, state) & kProvUntrusted) != 0) {
              Finding(fn, stmt.line, "allocation size", sink);
            }
            for (const StmtCall& call : stmt.calls) {
              if (kSizeCalls.count(SimpleCallName(call.name)) == 0) {
                continue;
              }
              for (const auto& arg : call.args) {
                if ((df.Eval(arg, state) & kProvUntrusted) != 0) {
                  Finding(fn, call.line, "allocation size", sink);
                  break;
                }
              }
            }
            ScanBrackets(df, fn, stmt, state, sink);
          },
          [&](const BasicBlock& block, const VarState& state) {
            if (block.cond != BasicBlock::Cond::kLoop ||
                block.cond_tokens.empty()) {
              return;
            }
            if ((df.Eval(block.cond_tokens, state) & kProvUntrusted) != 0) {
              Finding(fn, block.cond_line, "loop bound", sink);
            }
          });
    }
  }

 private:
  // `new T[n]` and `a[i]` sinks: the bracketed expression itself.
  void ScanBrackets(const DataFlow& df, const FunctionInfo& fn,
                    const Statement& stmt, const VarState& state,
                    DiagSink& sink) {
    const std::vector<Token>& toks = stmt.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].text != "[") {
        continue;
      }
      bool indexes = i > 0 && (toks[i - 1].kind == Token::Kind::kIdent ||
                               toks[i - 1].text == "]" ||
                               toks[i - 1].text == ")");
      if (!indexes) {
        continue;  // lambda introducer / attribute
      }
      int depth = 0;
      std::vector<Token> inner;
      size_t j = i;
      for (; j < toks.size(); ++j) {
        if (toks[j].text == "[") {
          ++depth;
          if (depth == 1) {
            continue;
          }
        } else if (toks[j].text == "]" && --depth == 0) {
          break;
        }
        inner.push_back(toks[j]);
      }
      if (!inner.empty() &&
          (df.Eval(inner, state) & kProvUntrusted) != 0) {
        bool is_new = i >= 2 && toks[i - 2].text == "new";
        Finding(fn, toks[i].line,
                is_new ? "allocation size" : "array index", sink);
      }
      i = j;
    }
  }

  void Finding(const FunctionInfo& fn, size_t line, const char* sink_kind,
               DiagSink& sink) {
    if (JustifiedBy(fn.file, line, "taint:")) {
      return;
    }
    AddOnce(fn.file, line,
            std::string("untrusted header-derived value reaches ") +
                sink_kind + " without a bounds check; a corrupt file "
                "controls it",
            "compare it against the file size / an explicit bound first, or "
            "justify with `// taint: <why>`",
            sink);
  }
};

class RelaxedPublicationRule : public DataFlowRule {
 public:
  using DataFlowRule::DataFlowRule;

  std::string_view name() const override { return "relaxed-publication"; }
  std::string_view description() const override {
    return "a relaxed atomic store must state its discipline (single-writer "
           "/ no concurrent writers / ordered by / commutative) and must not "
           "publish pointer-derived values; loads pairing with a "
           "pointer-publishing relaxed store are flagged too";
  }

 protected:
  void Report(const DataFlow& df, DiagSink& sink) override {
    static const char* kDisciplines[] = {"single-writer",
                                         "no concurrent writers",
                                         "ordered by", "commutative"};
    const std::vector<FunctionInfo>& fns = wp_->functions();
    std::set<std::string> pointer_published;
    struct Load {
      std::string key;
      std::string file;
      size_t line;
    };
    std::vector<Load> loads;
    for (size_t i = 0; i < fns.size(); ++i) {
      const FunctionInfo& fn = fns[i];
      std::string enclosing;
      size_t cut = fn.qualified.rfind("::");
      if (cut != std::string::npos) {
        enclosing = fn.qualified.substr(0, cut);
      }
      df.Visit(
          i,
          [&](const Statement& stmt, const VarState& state) {
            for (const StmtCall& call : stmt.calls) {
              bool relaxed = false;
              for (const auto& arg : call.args) {
                for (const Token& t : arg) {
                  if (t.text == "memory_order_relaxed") {
                    relaxed = true;
                  }
                }
              }
              if (!relaxed) {
                continue;
              }
              std::string simple = SimpleCallName(call.name);
              std::string key =
                  NormalizeLockName(call.receiver, enclosing);
              if (simple == "load") {
                loads.push_back({std::move(key), fn.file, call.line});
                continue;
              }
              if (simple != "store" || call.args.empty()) {
                continue;  // fetch_add/fetch_sub are commutative by shape
              }
              Provenance prov = df.Eval(call.args[0], state);
              if ((prov & kProvPointer) != 0) {
                pointer_published.insert(key);
                AddOnce(fn.file, call.line,
                        "relaxed store publishes a pointer-derived value "
                        "through '" +
                            key + "'; a reader can dereference before the "
                            "pointee's writes are visible",
                        "publish with memory_order_release (and pair loads "
                        "with acquire)",
                        sink);
                continue;
              }
              bool disciplined = false;
              for (const char* marker : kDisciplines) {
                if (JustifiedBy(fn.file, call.line, marker)) {
                  disciplined = true;
                  break;
                }
              }
              if (!disciplined) {
                AddOnce(fn.file, call.line,
                        "relaxed store to '" + key +
                            "' without a stated discipline; say which "
                            "single-writer / ordering argument makes the "
                            "missing fence sound",
                        "extend the `relaxed:` comment with `single-writer`, "
                        "`no concurrent writers`, `ordered by <edge>`, or "
                        "`commutative`",
                        sink);
              }
            }
          },
          nullptr);
    }
    for (const Load& load : loads) {
      if (pointer_published.count(load.key) != 0) {
        AddOnce(load.file, load.line,
                "relaxed load of '" + load.key +
                    "' pairs with a relaxed store that publishes a pointer; "
                    "the consumer needs an acquire edge",
                "load with memory_order_acquire (the store side should be "
                "release)",
                sink);
      }
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
std::unique_ptr<Rule> MakeLockOrderRule(std::shared_ptr<WholeProgram> wp) {
  return std::make_unique<LockOrderRule>(std::move(wp));
}
std::unique_ptr<Rule> MakeHotPathAllocRule(std::shared_ptr<WholeProgram> wp) {
  return std::make_unique<HotPathAllocRule>(std::move(wp));
}
std::unique_ptr<Rule> MakeHotPathLockRule(std::shared_ptr<WholeProgram> wp) {
  return std::make_unique<HotPathLockRule>(std::move(wp));
}
std::unique_ptr<Rule> MakeHotPathIoRule(std::shared_ptr<WholeProgram> wp) {
  return std::make_unique<HotPathIoRule>(std::move(wp));
}
std::unique_ptr<Rule> MakeHotPathDivRule(std::shared_ptr<WholeProgram> wp) {
  return std::make_unique<HotPathDivRule>(std::move(wp));
}
std::unique_ptr<Rule> MakeTelemetryHotPathRule(
    std::shared_ptr<WholeProgram> wp) {
  return std::make_unique<TelemetryHotPathRule>(std::move(wp));
}

std::unique_ptr<Rule> MakeRngStreamRule(std::shared_ptr<WholeProgram> wp,
                                        std::shared_ptr<DataFlowCache> cache) {
  return std::make_unique<RngStreamRule>(std::move(wp), std::move(cache));
}
std::unique_ptr<Rule> MakeUntrustedInputTaintRule(
    std::shared_ptr<WholeProgram> wp, std::shared_ptr<DataFlowCache> cache) {
  return std::make_unique<UntrustedInputTaintRule>(std::move(wp),
                                                   std::move(cache));
}
std::unique_ptr<Rule> MakeRelaxedPublicationRule(
    std::shared_ptr<WholeProgram> wp, std::shared_ptr<DataFlowCache> cache) {
  return std::make_unique<RelaxedPublicationRule>(std::move(wp),
                                                  std::move(cache));
}

std::vector<std::unique_ptr<Rule>> MakeWholeProgramRules() {
  auto wp = std::make_shared<WholeProgram>(9);
  auto cache = std::make_shared<DataFlowCache>(3);
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(MakeLockOrderRule(wp));
  rules.push_back(MakeHotPathAllocRule(wp));
  rules.push_back(MakeHotPathLockRule(wp));
  rules.push_back(MakeHotPathIoRule(wp));
  rules.push_back(MakeHotPathDivRule(wp));
  rules.push_back(MakeTelemetryHotPathRule(wp));
  rules.push_back(MakeRngStreamRule(wp, cache));
  rules.push_back(MakeUntrustedInputTaintRule(wp, cache));
  rules.push_back(MakeRelaxedPublicationRule(wp, cache));
  return rules;
}

}  // namespace fmlint
