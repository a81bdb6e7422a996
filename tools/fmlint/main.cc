// fmlint CLI — lints the repo tree with the default rule set.
//
// Usage: fmlint [--json] [--list-rules] <repo-root>
//
// Default output is one `path:line: [rule] message` line per diagnostic on
// stderr (plus a `fixit:` line when the rule has a suggestion); --json writes
// a machine-readable fmlint-v2 document (with per-rule wall-clock timings) to
// stdout instead. Exit status: 0 clean, 1 violations, 2 usage/IO error.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "tools/fmlint/lint.h"
#include "tools/fmlint/rules.h"

namespace {

constexpr char kUsage[] =
    "usage: fmlint [--json] [--list-rules] <repo-root>\n";

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool list_rules = false;
  const char* root = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--list-rules") == 0) {
      list_rules = true;
    } else if (root == nullptr && argv[i][0] != '-') {
      root = argv[i];
    } else {
      std::fputs(kUsage, stderr);
      return 2;
    }
  }
  fmlint::Engine engine(fmlint::BuildDefaultRules());
  if (list_rules) {
    for (const auto& rule : engine.rules()) {
      std::printf("%-18s %s\n", std::string(rule->name()).c_str(),
                  std::string(rule->description()).c_str());
    }
    return 0;
  }
  if (root == nullptr) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (!std::filesystem::is_directory(root)) {
    std::fprintf(stderr, "fmlint: not a directory: %s\n", root);
    return 2;
  }

  std::vector<fmlint::Diagnostic> diags = engine.LintTree(root);
  if (json) {
    std::fputs(fmlint::DiagnosticsToJson(diags, engine.files_linted(),
                                         &engine.rule_timings())
                   .c_str(),
               stdout);
  } else {
    for (const fmlint::Diagnostic& d : diags) {
      std::fprintf(stderr, "%s:%zu: [%s] %s\n", d.file.c_str(), d.line,
                   d.rule.c_str(), d.message.c_str());
      if (!d.fixit.empty()) {
        std::fprintf(stderr, "    fixit: %s\n", d.fixit.c_str());
      }
    }
  }
  for (const fmlint::Diagnostic& d : diags) {
    if (d.rule == "io") {
      return 2;
    }
  }
  if (!diags.empty()) {
    if (!json) {
      std::fprintf(stderr, "fmlint: %zu violation(s) in %zu files\n",
                   diags.size(), engine.files_linted());
    }
    return 1;
  }
  if (!json) {
    std::printf("fmlint: %zu files clean\n", engine.files_linted());
  }
  return 0;
}
