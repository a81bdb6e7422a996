// fmlint — repo-specific lint rules clang-tidy cannot express, as a small
// token-scanner rule engine.
//
// The engine owns file loading, comment/string stripping, the rule registry,
// suppression handling, and output formatting; rules (tools/fmlint/rules.h)
// only inspect prepared SourceFiles and emit Diagnostics. Everything is
// library code so the self-tests (tests/fmlint_test.cc) can lint in-memory
// fixture snippets through the exact production path.
//
// Suppression syntax (checked, not fire-and-forget):
//   fmlint:allow(<rule>)    in a comment: suppresses <rule> on that line only.
//   fmlint:disable(<rule>)  in a comment: suppresses <rule> from this line to
//                           the matching fmlint:enable(<rule>) or end of file.
//   fmlint:enable(<rule>)   closes the innermost open disable block for <rule>.
// A directive that suppresses nothing is itself an error (unused-suppression),
// so stale suppressions cannot accumulate; a directive naming an unknown rule
// or an enable with no open block is a bad-suppression error. Malformed
// directives (rule name not [a-z0-9-]) are ignored as plain comment text.
#ifndef TOOLS_FMLINT_LINT_H_
#define TOOLS_FMLINT_LINT_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fmlint {

struct Diagnostic {
  std::string file;   // repo-relative path
  size_t line = 0;    // 1-based
  std::string rule;
  std::string message;
  std::string fixit;  // optional suggested replacement / action; "" if none
};

// One source file prepared for rules: raw lines for comment-sensitive checks
// (suppressions, justification comments) and code lines with comment and
// string/char-literal contents blanked so keyword patterns only see real code.
struct SourceFile {
  std::string rel_path;          // repo-relative, '/'-separated
  std::vector<std::string> raw;
  std::vector<std::string> code;
  bool is_header = false;
};

class DiagSink {
 public:
  virtual ~DiagSink() = default;
  virtual void Add(Diagnostic diag) = 0;
};

class Rule {
 public:
  virtual ~Rule() = default;
  virtual std::string_view name() const = 0;
  virtual std::string_view description() const = 0;
  // Called once per file, in scan order.
  virtual void CheckFile(const SourceFile& file, DiagSink& sink) = 0;
  // Called once after every file has been seen; whole-tree rules
  // (include-cycle) accumulate state in CheckFile and report here.
  virtual void Finish(DiagSink& sink);
};

// Replaces comments and string/char literal contents with spaces, preserving
// line structure.
std::string StripCommentsAndStrings(const std::string& text);

std::vector<std::string> SplitLines(const std::string& text);

// Builds a SourceFile (splitting, stripping, header detection) from raw text.
SourceFile PrepareSource(std::string rel_path, const std::string& text);

// A quoted project #include. The path is recovered from the raw line because
// string contents are blanked in the prepared code.
struct Include {
  std::string path;  // as written inside the quotes (repo-relative by policy)
  size_t line = 0;   // 1-based
};
std::vector<Include> QuotedIncludes(const SourceFile& file);

// True when `tag` appears on the 1-based `line` or anywhere in the contiguous
// `//`-comment block immediately above it: where every justification comment
// (`relaxed:`, `div:`) may sit, since justifications often wrap.
bool HasAdjacentTag(const SourceFile& file, size_t line, std::string_view tag);

// Wall-clock seconds a rule spent across its CheckFile calls and Finish.
// The shared whole-program analysis (parse, call graph, hot closure) is
// attributed to the rule whose Finish triggered it — its first consumer.
struct RuleTiming {
  std::string rule;
  double seconds = 0;
};

class Engine {
 public:
  explicit Engine(std::vector<std::unique_ptr<Rule>> rules);

  // Lints a set of (repo-relative path, content) pairs as one tree: runs every
  // rule, applies suppressions, and appends unused/bad-suppression errors.
  std::vector<Diagnostic> Lint(
      const std::vector<std::pair<std::string, std::string>>& files);

  // Reads and lints the standard source dirs (src, tests, bench, tools,
  // examples) under `root`, skipping tests/fmlint_fixtures (intentionally
  // rule-violating snippets). Unreadable files produce "io" diagnostics.
  std::vector<Diagnostic> LintTree(const std::string& root);

  size_t files_linted() const { return files_linted_; }
  const std::vector<std::unique_ptr<Rule>>& rules() const { return rules_; }
  // Per-rule wall-clock timings of the most recent Lint/LintTree call, in
  // registration order.
  const std::vector<RuleTiming>& rule_timings() const { return timings_; }

 private:
  std::vector<std::unique_ptr<Rule>> rules_;
  size_t files_linted_ = 0;
  std::vector<RuleTiming> timings_;
};

// The registered rule set: the eleven per-line/per-tree rules
// (tools/fmlint/rules.cc) plus the eight whole-program rules — layer-dag,
// header-discipline, the hot-path family, telemetry-hot-path and
// rng-stream-discipline (tools/fmlint/analysis.cc).
std::vector<std::unique_ptr<Rule>> BuildDefaultRules();

// {"schema":"fmlint-v2","files":N,"violations":N,"diagnostics":[...]}.
// When `timings` is non-null a "timings" object (per-rule milliseconds plus
// "total_ms") is appended — additive, so fmlint-v2 consumers keep working.
std::string DiagnosticsToJson(const std::vector<Diagnostic>& diags,
                              size_t files_linted,
                              const std::vector<RuleTiming>* timings = nullptr);

}  // namespace fmlint

#endif  // TOOLS_FMLINT_LINT_H_
