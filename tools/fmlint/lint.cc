#include "tools/fmlint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

#include "src/util/timer.h"

namespace fmlint {
namespace {

namespace fs = std::filesystem;

bool IsRuleNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-';
}

struct Directive {
  enum Kind { kAllow, kDisable, kEnable };
  Kind kind;
  size_t line;  // 1-based
  std::string rule;
};

// Extracts every well-formed suppression directive from a raw line. Malformed
// candidates (rule name with characters outside [a-z0-9-], or no closing
// paren) are ignored as ordinary comment text — that is what keeps prose like
// "fmlint:allow(<rule>)" in documentation from registering.
void ParseDirectives(const std::string& raw_line, size_t line_no,
                     std::vector<Directive>* out) {
  static constexpr struct {
    const char* needle;
    Directive::Kind kind;
  } kForms[] = {
      {"fmlint:allow(", Directive::kAllow},
      {"fmlint:disable(", Directive::kDisable},
      {"fmlint:enable(", Directive::kEnable},
  };
  for (const auto& form : kForms) {
    size_t pos = 0;
    size_t needle_len = std::string_view(form.needle).size();
    while ((pos = raw_line.find(form.needle, pos)) != std::string::npos) {
      size_t name_begin = pos + needle_len;
      size_t name_end = name_begin;
      while (name_end < raw_line.size() && IsRuleNameChar(raw_line[name_end])) {
        ++name_end;
      }
      pos = name_end;
      if (name_end == name_begin || name_end >= raw_line.size() ||
          raw_line[name_end] != ')') {
        continue;
      }
      out->push_back({form.kind, line_no,
                      raw_line.substr(name_begin, name_end - name_begin)});
    }
  }
}

struct Allow {
  size_t line;
  std::string rule;
  bool used = false;
};

struct Block {
  std::string rule;
  size_t begin;  // disable-directive line
  size_t end;    // enable-directive line or last line (inclusive)
  bool used = false;
};

// Per-file suppression table built from directives, consulted after all rules
// have run.
struct SuppressionTable {
  std::string rel_path;
  std::vector<Allow> allows;
  std::vector<Block> blocks;

  bool Suppress(const Diagnostic& diag) {
    for (Allow& a : allows) {
      if (a.line == diag.line && a.rule == diag.rule) {
        a.used = true;
        return true;
      }
    }
    for (Block& b : blocks) {
      if (b.rule == diag.rule && diag.line >= b.begin && diag.line <= b.end) {
        b.used = true;
        return true;
      }
    }
    return false;
  }
};

class VectorSink : public DiagSink {
 public:
  void Add(Diagnostic diag) override { diags_.push_back(std::move(diag)); }
  std::vector<Diagnostic>& diags() { return diags_; }

 private:
  std::vector<Diagnostic> diags_;
};

void AppendJsonString(std::string* out, const std::string& s) {
  *out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

}  // namespace

void Rule::Finish(DiagSink& /*sink*/) {}

std::string StripCommentsAndStrings(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out += "  ";
          ++i;
        } else if (c == '"') {
          // Raw string literal? The identifier run immediately before the
          // quote must be exactly a raw-string prefix (R, uR, u8R, UR, LR);
          // anything longer (FooR"...") is an ordinary adjacent identifier.
          size_t p = i;
          while (p > 0 && (std::isalnum(static_cast<unsigned char>(
                               text[p - 1])) ||
                           text[p - 1] == '_')) {
            --p;
          }
          std::string prefix = text.substr(p, i - p);
          bool is_raw = prefix == "R" || prefix == "uR" || prefix == "u8R" ||
                        prefix == "UR" || prefix == "LR";
          size_t open_paren = is_raw ? text.find('(', i + 1) : std::string::npos;
          if (is_raw && open_paren != std::string::npos &&
              open_paren - (i + 1) <= 16) {
            // Blank the already-emitted prefix (out tracks text 1:1), keep a
            // plain quoted-empty shape, and blank the contents — delimiters
            // included — preserving newlines so line structure survives.
            for (size_t k = p; k < i; ++k) {
              out[k] = ' ';
            }
            std::string term = ")" + text.substr(i + 1, open_paren - (i + 1)) +
                               "\"";
            size_t end = text.find(term, open_paren + 1);
            size_t stop =
                end == std::string::npos ? text.size() : end + term.size();
            out += '"';
            size_t last = end == std::string::npos ? text.size() : stop - 1;
            for (size_t k = i + 1; k < last; ++k) {
              out += text[k] == '\n' ? '\n' : ' ';
            }
            if (end != std::string::npos) {
              out += '"';
            }
            i = stop - 1;
          } else {
            state = State::kString;
            out += '"';
          }
        } else if (c == '\'') {
          state = State::kChar;
          out += '\'';
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out += "  ";
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          out += '"';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out += "  ";
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          out += '\'';
        } else {
          out += ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) {
    lines.push_back(cur);
  }
  return lines;
}

SourceFile PrepareSource(std::string rel_path, const std::string& text) {
  SourceFile file;
  file.is_header = rel_path.size() >= 2 &&
                   rel_path.compare(rel_path.size() - 2, 2, ".h") == 0;
  file.rel_path = std::move(rel_path);
  file.raw = SplitLines(text);
  file.code = SplitLines(StripCommentsAndStrings(text));
  // Stripping never changes line structure; keep the invariant hard.
  file.code.resize(file.raw.size());
  return file;
}

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

bool HasAdjacentTag(const SourceFile& file, size_t line, std::string_view tag) {
  if (line == 0 || line > file.raw.size()) {
    return false;
  }
  if (file.raw[line - 1].find(tag) != std::string::npos) {
    return true;
  }
  for (size_t j = line - 1; j > 0; --j) {
    const std::string& above = file.raw[j - 1];
    size_t first = above.find_first_not_of(" \t");
    if (first == std::string::npos || above.compare(first, 2, "//") != 0) {
      return false;
    }
    if (above.find(tag, first) != std::string::npos) {
      return true;
    }
  }
  return false;
}

Engine::Engine(std::vector<std::unique_ptr<Rule>> rules)
    : rules_(std::move(rules)) {}

std::vector<Diagnostic> Engine::Lint(
    const std::vector<std::pair<std::string, std::string>>& files) {
  VectorSink sink;
  std::vector<SuppressionTable> tables;
  std::vector<Diagnostic> bad_directives;
  files_linted_ = 0;
  timings_.clear();
  timings_.reserve(rules_.size());
  for (const auto& rule : rules_) {
    timings_.push_back({std::string(rule->name()), 0.0});
  }

  for (const auto& [rel_path, text] : files) {
    SourceFile file = PrepareSource(rel_path, text);
    ++files_linted_;

    // Build this file's suppression table from its raw lines.
    SuppressionTable table;
    table.rel_path = file.rel_path;
    std::vector<Directive> directives;
    for (size_t i = 0; i < file.raw.size(); ++i) {
      ParseDirectives(file.raw[i], i + 1, &directives);
    }
    for (const Directive& d : directives) {
      bool known = std::any_of(
          rules_.begin(), rules_.end(),
          [&](const std::unique_ptr<Rule>& r) { return r->name() == d.rule; });
      if (!known) {
        bad_directives.push_back(
            {file.rel_path, d.line, "bad-suppression",
             "suppression names unknown rule '" + d.rule + "'", ""});
        continue;
      }
      switch (d.kind) {
        case Directive::kAllow:
          table.allows.push_back({d.line, d.rule});
          break;
        case Directive::kDisable:
          table.blocks.push_back({d.rule, d.line, file.raw.size(), false});
          break;
        case Directive::kEnable: {
          // Close the innermost still-open block for this rule.
          Block* open = nullptr;
          for (Block& b : table.blocks) {
            if (b.rule == d.rule && b.end == file.raw.size() &&
                b.begin <= d.line) {
              open = &b;
            }
          }
          if (open == nullptr) {
            bad_directives.push_back(
                {file.rel_path, d.line, "bad-suppression",
                 "enable without an open disable block for '" + d.rule + "'",
                 ""});
          } else {
            open->end = d.line;
          }
          break;
        }
      }
    }
    tables.push_back(std::move(table));

    for (size_t r = 0; r < rules_.size(); ++r) {
      fm::Timer timer;
      rules_[r]->CheckFile(file, sink);
      timings_[r].seconds += timer.Elapsed();
    }
  }
  for (size_t r = 0; r < rules_.size(); ++r) {
    fm::Timer timer;
    rules_[r]->Finish(sink);
    timings_[r].seconds += timer.Elapsed();
  }

  // Apply suppressions, then report the ones that caught nothing.
  std::vector<Diagnostic> result;
  for (Diagnostic& diag : sink.diags()) {
    auto table = std::find_if(
        tables.begin(), tables.end(),
        [&](const SuppressionTable& t) { return t.rel_path == diag.file; });
    if (table != tables.end() && table->Suppress(diag)) {
      continue;
    }
    result.push_back(std::move(diag));
  }
  for (SuppressionTable& table : tables) {
    for (const Allow& a : table.allows) {
      if (!a.used) {
        result.push_back({table.rel_path, a.line, "unused-suppression",
                          "allow(" + a.rule + ") suppressed nothing; remove it",
                          ""});
      }
    }
    for (const Block& b : table.blocks) {
      if (!b.used) {
        result.push_back({table.rel_path, b.begin, "unused-suppression",
                          "disable(" + b.rule +
                              ") block suppressed nothing; remove it",
                          ""});
      }
    }
  }
  result.insert(result.end(), bad_directives.begin(), bad_directives.end());

  std::sort(result.begin(), result.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) {
                return a.file < b.file;
              }
              if (a.line != b.line) {
                return a.line < b.line;
              }
              return a.rule < b.rule;
            });
  return result;
}

std::vector<Diagnostic> Engine::LintTree(const std::string& root) {
  static constexpr const char* kDirs[] = {"src", "tests", "bench", "tools",
                                          "examples"};
  fs::path root_path(root);
  std::vector<std::string> paths;
  for (const char* dir : kDirs) {
    fs::path sub = root_path / dir;
    if (!fs::is_directory(sub)) {
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(sub)) {
      if (!entry.is_regular_file()) {
        continue;
      }
      fs::path ext = entry.path().extension();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp") {
        continue;
      }
      std::string rel = fs::relative(entry.path(), root_path).generic_string();
      // Fixture snippets violate rules on purpose; the self-tests lint them
      // through Engine::Lint with pretend paths instead.
      if (rel.rfind("tests/fmlint_fixtures/", 0) == 0) {
        continue;
      }
      paths.push_back(std::move(rel));
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<std::pair<std::string, std::string>> files;
  std::vector<Diagnostic> io_errors;
  for (std::string& rel : paths) {
    std::ifstream in(root_path / rel, std::ios::binary);
    std::ostringstream buf;
    if (!in || !(buf << in.rdbuf())) {
      io_errors.push_back({rel, 0, "io", "cannot read file", ""});
      continue;
    }
    files.emplace_back(std::move(rel), buf.str());
  }
  std::vector<Diagnostic> result = Lint(files);
  result.insert(result.end(), io_errors.begin(), io_errors.end());
  return result;
}

namespace {

// Fixed-point milliseconds with 3 decimals; avoids iostream float formatting.
std::string MillisString(double seconds) {
  double ms = seconds * 1000.0;
  if (ms < 0) {
    ms = 0;
  }
  auto micros = static_cast<unsigned long long>(ms * 1000.0 + 0.5);
  std::string frac = std::to_string(micros % 1000);
  while (frac.size() < 3) {
    frac.insert(frac.begin(), '0');
  }
  return std::to_string(micros / 1000) + "." + frac;
}

}  // namespace

std::string DiagnosticsToJson(const std::vector<Diagnostic>& diags,
                              size_t files_linted,
                              const std::vector<RuleTiming>* timings) {
  std::string out;
  out += "{\"schema\":\"fmlint-v2\",\"files\":";
  out += std::to_string(files_linted);
  out += ",\"violations\":";
  out += std::to_string(diags.size());
  out += ",\"diagnostics\":[";
  for (size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    if (i != 0) {
      out += ',';
    }
    out += "\n{\"file\":";
    AppendJsonString(&out, d.file);
    out += ",\"line\":";
    out += std::to_string(d.line);
    out += ",\"rule\":";
    AppendJsonString(&out, d.rule);
    out += ",\"message\":";
    AppendJsonString(&out, d.message);
    if (!d.fixit.empty()) {
      out += ",\"fixit\":";
      AppendJsonString(&out, d.fixit);
    }
    out += '}';
  }
  out += "\n]";
  if (timings != nullptr) {
    out += ",\"timings\":{";
    double total = 0;
    for (size_t i = 0; i < timings->size(); ++i) {
      const RuleTiming& t = (*timings)[i];
      total += t.seconds;
      if (i != 0) {
        out += ',';
      }
      out += '\n';
      AppendJsonString(&out, t.rule);
      out += ':';
      out += MillisString(t.seconds);
    }
    if (!timings->empty()) {
      out += ",\n";
    }
    out += "\"total_ms\":";
    out += MillisString(total);
    out += '}';
  }
  out += "}\n";
  return out;
}

}  // namespace fmlint
