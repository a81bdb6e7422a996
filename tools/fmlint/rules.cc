#include "tools/fmlint/rules.h"

#include <algorithm>

#include "tools/fmlint/analysis.h"
#include <cctype>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <utility>

namespace fmlint {
namespace {

// Base for rules that scan code lines with a regex, with optional per-file
// exemptions. Subclasses provide the pattern, message, and fix-it hint.
class LineRegexRule : public Rule {
 public:
  LineRegexRule(const char* name, const char* description, const char* pattern,
                const char* message, const char* fixit)
      : name_(name),
        description_(description),
        re_(pattern),
        message_(message),
        fixit_(fixit) {}

  std::string_view name() const override { return name_; }
  std::string_view description() const override { return description_; }

  void CheckFile(const SourceFile& file, DiagSink& sink) override {
    if (Exempt(file.rel_path)) {
      return;
    }
    for (size_t i = 0; i < file.code.size(); ++i) {
      if (LineMatches(file.code[i])) {
        sink.Add({file.rel_path, i + 1, name_, message_, fixit_});
      }
    }
  }

 protected:
  virtual bool Exempt(const std::string& /*rel_path*/) const { return false; }
  virtual bool LineMatches(const std::string& code_line) const {
    return std::regex_search(code_line, re_);
  }

  const std::string name_;
  const std::string description_;
  const std::regex re_;
  const std::string message_;
  const std::string fixit_;
};

// --- include-guard -----------------------------------------------------------

std::string ExpectedGuard(const std::string& rel_path) {
  std::string guard;
  guard.reserve(rel_path.size() + 1);
  for (char c : rel_path) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      guard += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    } else {
      guard += '_';
    }
  }
  guard += '_';
  return guard;
}

class IncludeGuardRule : public Rule {
 public:
  std::string_view name() const override { return "include-guard"; }
  std::string_view description() const override {
    return "headers carry #ifndef/#define guards derived from their "
           "repo-relative path";
  }

  void CheckFile(const SourceFile& file, DiagSink& sink) override {
    if (!file.is_header) {
      return;
    }
    std::string expected = ExpectedGuard(file.rel_path);
    std::smatch m;
    for (size_t i = 0; i < file.code.size(); ++i) {
      if (!std::regex_search(file.code[i], m, ifndef_re_)) {
        continue;
      }
      if (m[1] != expected) {
        sink.Add({file.rel_path, i + 1, std::string(name()),
                  "guard '" + m[1].str() + "' should be '" + expected + "'",
                  "#ifndef " + expected});
        return;
      }
      if (i + 1 >= file.code.size() ||
          !std::regex_search(file.code[i + 1], m, define_re_) ||
          m[1] != expected) {
        sink.Add({file.rel_path, i + 2, std::string(name()),
                  "#define " + expected + " must immediately follow the #ifndef",
                  "#define " + expected});
      }
      return;
    }
    sink.Add({file.rel_path, 1, std::string(name()),
              "missing include guard " + expected, "#ifndef " + expected});
  }

 private:
  const std::regex ifndef_re_{R"(^\s*#\s*ifndef\s+([A-Za-z0-9_]+))"};
  const std::regex define_re_{R"(^\s*#\s*define\s+([A-Za-z0-9_]+))"};
};

// --- simple line rules -------------------------------------------------------

class BannedRngRule : public LineRegexRule {
 public:
  BannedRngRule()
      : LineRegexRule(
            "banned-rng",
            "ad-hoc RNG is banned outside src/util/rng.* so walks stay "
            "seeded and reproducible",
            // Word-boundary guard on the left so identifiers like `operand(`
            // don't match.
            R"((^|[^A-Za-z0-9_])(std\s*::\s*)?(rand|srand|rand_r|random|drand48|erand48|lrand48)\s*\()"
            R"(|std\s*::\s*(mt19937|mt19937_64|minstd_rand0?|random_device|default_random_engine|ranlux\w*|knuth_b))",
            "use the generators in src/util/rng.h (seeded, splittable) "
            "instead of ad-hoc RNG",
            "fm::XorShiftRng rng(DeriveSeed(seed, salt))") {}

 protected:
  bool Exempt(const std::string& rel_path) const override {
    return rel_path == "src/util/rng.h" || rel_path == "src/util/rng.cc";
  }
};

class NakedNewRule : public LineRegexRule {
 public:
  NakedNewRule()
      : LineRegexRule("naked-new",
                      "no naked new expressions; ownership lives in "
                      "containers and smart pointers",
                      R"((^|[^A-Za-z0-9_.:>])new[\s(])",
                      "no naked new; use containers or std::make_unique",
                      "std::make_unique<T>(...)") {}

 protected:
  bool LineMatches(const std::string& code_line) const override {
    return LineRegexRule::LineMatches(code_line) &&
           code_line.find('#') == std::string::npos;
  }
};

class ReinterpretArithRule : public LineRegexRule {
 public:
  ReinterpretArithRule()
      : LineRegexRule(
            "reinterpret-arith",
            "no reinterpret_cast over byte-pointer arithmetic (unaligned/UB "
            "loads)",
            R"(reinterpret_cast\s*<[^>]*\*[^>]*>\s*\([^;]*\+)",
            "reinterpret_cast over byte arithmetic risks unaligned/UB loads; "
            "memcpy the value out or use an alignment-checked helper",
            "std::memcpy(&value, base + offset, sizeof(value))") {}
};

class VisitCountsMutRule : public LineRegexRule {
 public:
  VisitCountsMutRule()
      : LineRegexRule(
            "visit-counts-mut",
            "visit_counts is engine output; no mutation outside src/core/",
            // Member access only (`.visit_counts` / `->visit_counts`) so
            // locals named visit_counts don't trip it; flags assignment,
            // compound assignment, increment/decrement (either side), and
            // mutating container methods.
            R"((\+\+|--)[^;=]*(\.|->)\s*visit_counts)"
            R"(|(\.|->)\s*visit_counts\s*\.\s*(assign|resize|clear|push_back|emplace_back|swap)\s*\()"
            R"(|(\.|->)\s*visit_counts\s*(\[[^\]]*\]\s*)?(=[^=]|\+=|-=|\+\+|--))",
            "visit_counts is engine output; outside src/core/ read it, or "
            "count in your own WalkObserver",
            "") {}

 protected:
  bool Exempt(const std::string& rel_path) const override {
    return rel_path.rfind("src/core/", 0) == 0;
  }
};

class RawClockRule : public LineRegexRule {
 public:
  RawClockRule()
      : LineRegexRule(
            "raw-clock",
            "no direct clock reads outside timer.h / perf_counters.cc; one "
            "monotonic clock keeps durations comparable",
            R"((steady_clock|system_clock|high_resolution_clock)\s*::\s*now)"
            R"(|(^|[^A-Za-z0-9_])(clock_gettime|gettimeofday)\s*\()",
            "raw clock reads fragment the timing story; use fm::Timer or "
            "fm::NowNs (src/util/timer.h)",
            "fm::NowNs()") {}

 protected:
  bool Exempt(const std::string& rel_path) const override {
    return rel_path == "src/util/timer.h" ||
           rel_path == "src/util/perf_counters.cc";
  }
};

class PerfSyscallRule : public LineRegexRule {
 public:
  PerfSyscallRule()
      : LineRegexRule(
            "perf-syscall",
            "no direct perf_event_open use outside src/util/perf_counters.cc "
            "(graceful-degradation contract)",
            // Raw syscall, syscall number, or attr struct; PerfEventOpenFn
            // (the test shim typedef) deliberately does not match.
            R"((^|[^A-Za-z0-9_])(__NR_)?perf_event_open\s*[(,;])"
            R"(|(^|[^A-Za-z0-9_])__NR_perf_event_open(^|[^A-Za-z0-9_])?)"
            R"(|(^|[^A-Za-z0-9_])perf_event_attr([^A-Za-z0-9_]|$))",
            "direct perf_event_open use bypasses the degradation contract; "
            "go through PerfCounterGroup/StagePerfMonitor "
            "(src/util/perf_counters.h)",
            "") {}

 protected:
  bool Exempt(const std::string& rel_path) const override {
    return rel_path == "src/util/perf_counters.cc";
  }
};

// --- concurrency rules (PR: compile-time concurrency analysis) ---------------

class RawMutexRule : public LineRegexRule {
 public:
  RawMutexRule()
      : LineRegexRule(
            "raw-mutex",
            "std synchronization primitives are banned outside "
            "src/util/sync.h; fm::Mutex/CondVar/MutexLock carry the "
            "thread-safety annotations",
            R"(std\s*::\s*(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex)"
            R"(|shared_mutex|shared_timed_mutex|condition_variable(_any)?)"
            R"(|lock_guard|unique_lock|scoped_lock|shared_lock)([^A-Za-z0-9_]|$))",
            "raw std sync primitives carry no thread-safety annotations; use "
            "fm::Mutex / fm::CondVar / fm::MutexLock (src/util/sync.h)",
            "fm::MutexLock lock(mu_)") {}

 protected:
  bool Exempt(const std::string& rel_path) const override {
    return rel_path == "src/util/sync.h";
  }
};

class RelaxedOrderRule : public Rule {
 public:
  std::string_view name() const override { return "relaxed-order"; }
  std::string_view description() const override {
    return "every std::memory_order_relaxed needs an adjacent `relaxed:` "
           "justification comment";
  }

  void CheckFile(const SourceFile& file, DiagSink& sink) override {
    for (size_t i = 0; i < file.code.size(); ++i) {
      if (file.code[i].find("memory_order_relaxed") == std::string::npos) {
        continue;
      }
      if (!HasAdjacentTag(file, i + 1, "relaxed:")) {
        sink.Add({file.rel_path, i + 1, std::string(name()),
                  "memory_order_relaxed without a justification; say why no "
                  "ordering is needed",
                  "// relaxed: <why no synchronization edge is needed here>"});
      }
    }
  }
};

class ManualLockRule : public LineRegexRule {
 public:
  ManualLockRule()
      : LineRegexRule(
            "manual-lock",
            "no manual .lock()/.unlock() calls; RAII guards only "
            "(exception-safe, analysis-visible)",
            // Catches both std (.lock) and fm (.Lock) spellings.
            R"((\.|->)\s*([Ll]ock|[Uu]nlock)\s*\(\s*\))",
            "manual lock()/unlock() calls leak on early return and hide from "
            "scope analysis; use fm::MutexLock",
            "fm::MutexLock lock(mu_)") {}

 protected:
  bool Exempt(const std::string& rel_path) const override {
    return rel_path == "src/util/sync.h";
  }
};

// Whole-tree rule: the quoted-#include graph must stay acyclic. Cycles make
// build order fragile and usually signal a layering inversion; the fix is an
// interface split, not a forward declaration band-aid.
class IncludeCycleRule : public Rule {
 public:
  std::string_view name() const override { return "include-cycle"; }
  std::string_view description() const override {
    return "the project #include graph must stay acyclic";
  }

  void CheckFile(const SourceFile& file, DiagSink& /*sink*/) override {
    edges_[file.rel_path] = QuotedIncludes(file);
  }

  void Finish(DiagSink& sink) override {
    // Depth-first search over project-internal edges; a back edge to a
    // vertex on the current stack is a cycle.
    std::map<std::string, int> color;  // 0 white, 1 on stack, 2 done
    std::vector<std::string> stack;
    std::set<std::string> reported;
    for (const auto& [from, _] : edges_) {
      if (color[from] == 0) {
        Dfs(from, &color, &stack, &reported, sink);
      }
    }
    edges_.clear();
  }

 private:
  void Dfs(const std::string& node, std::map<std::string, int>* color,
           std::vector<std::string>* stack, std::set<std::string>* reported,
           DiagSink& sink) {
    (*color)[node] = 1;
    stack->push_back(node);
    auto it = edges_.find(node);
    if (it != edges_.end()) {
      for (const Include& edge : it->second) {
        if (edges_.count(edge.path) == 0) {
          continue;  // system header or file outside the linted set
        }
        int c = (*color)[edge.path];
        if (c == 0) {
          Dfs(edge.path, color, stack, reported, sink);
        } else if (c == 1) {
          ReportCycle(node, edge, *stack, reported, sink);
        }
      }
    }
    stack->pop_back();
    (*color)[node] = 2;
  }

  void ReportCycle(const std::string& node, const Include& back_edge,
                   const std::vector<std::string>& stack,
                   std::set<std::string>* reported, DiagSink& sink) {
    auto begin = std::find(stack.begin(), stack.end(), back_edge.path);
    std::vector<std::string> cycle(begin, stack.end());
    // Canonical key: rotate so the lexicographically smallest member leads,
    // so each cycle is reported exactly once regardless of entry point.
    auto min_it = std::min_element(cycle.begin(), cycle.end());
    std::rotate(cycle.begin(), min_it, cycle.end());
    std::string key;
    std::string path;
    for (const std::string& f : cycle) {
      key += f + "|";
      path += f + " -> ";
    }
    if (!reported->insert(key).second) {
      return;
    }
    sink.Add({node, back_edge.line, std::string(name()),
              "include cycle: " + path + cycle.front(),
              "split an interface header or move the shared type down a "
              "layer"});
  }

  std::map<std::string, std::vector<Include>> edges_;  // every linted file
};

}  // namespace

std::unique_ptr<Rule> MakeIncludeGuardRule() {
  return std::make_unique<IncludeGuardRule>();
}
std::unique_ptr<Rule> MakeBannedRngRule() {
  return std::make_unique<BannedRngRule>();
}
std::unique_ptr<Rule> MakeNakedNewRule() {
  return std::make_unique<NakedNewRule>();
}
std::unique_ptr<Rule> MakeReinterpretArithRule() {
  return std::make_unique<ReinterpretArithRule>();
}
std::unique_ptr<Rule> MakeVisitCountsMutRule() {
  return std::make_unique<VisitCountsMutRule>();
}
std::unique_ptr<Rule> MakeRawClockRule() {
  return std::make_unique<RawClockRule>();
}
std::unique_ptr<Rule> MakePerfSyscallRule() {
  return std::make_unique<PerfSyscallRule>();
}
std::unique_ptr<Rule> MakeRawMutexRule() {
  return std::make_unique<RawMutexRule>();
}
std::unique_ptr<Rule> MakeRelaxedOrderRule() {
  return std::make_unique<RelaxedOrderRule>();
}
std::unique_ptr<Rule> MakeManualLockRule() {
  return std::make_unique<ManualLockRule>();
}
std::unique_ptr<Rule> MakeIncludeCycleRule() {
  return std::make_unique<IncludeCycleRule>();
}

std::vector<std::unique_ptr<Rule>> BuildDefaultRules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(MakeIncludeGuardRule());
  rules.push_back(MakeBannedRngRule());
  rules.push_back(MakeNakedNewRule());
  rules.push_back(MakeReinterpretArithRule());
  rules.push_back(MakeVisitCountsMutRule());
  rules.push_back(MakeRawClockRule());
  rules.push_back(MakePerfSyscallRule());
  rules.push_back(MakeRawMutexRule());
  rules.push_back(MakeRelaxedOrderRule());
  rules.push_back(MakeManualLockRule());
  rules.push_back(MakeIncludeCycleRule());
  rules.push_back(MakeLayerDagRule());
  rules.push_back(MakeHeaderDisciplineRule());
  for (auto& rule : MakeWholeProgramRules()) {
    rules.push_back(std::move(rule));
  }
  return rules;
}

}  // namespace fmlint
