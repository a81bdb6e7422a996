#include "tools/fmlint/parse.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <string>

namespace fmlint {
namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Multi-character punctuators the analyses care about. Merging them keeps the
// div rule from seeing `//`-free code like `a /= b` as two tokens and keeps
// `::` qualification walking simple. Longest match first.
constexpr const char* kMultiPunct[] = {
    "...", "->*", "<<=", ">>=", "::", "->", "<<", ">>", "<=", ">=", "==",
    "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "++", "--",
};

// Control/expression keywords that look like calls when followed by `(`.
const std::set<std::string>& CallKeywords() {
  static const std::set<std::string> kws = {
      "if",       "for",      "while",    "switch",   "return", "sizeof",
      "alignof",  "catch",    "new",      "delete",   "throw",  "decltype",
      "noexcept", "int",      "char",     "bool",     "float",  "double",
      "void",     "auto",     "short",    "long",     "unsigned",
      "signed",   "typename", "constexpr"};
  return kws;
}

// Macro-like: all caps/digits/underscores with at least one underscore or
// length > 3 (FM_REQUIRES, TEST, FM_DCHECK_LT...). Such identifiers never name
// a function *definition* in this tree.
bool IsMacroLike(const std::string& s) {
  if (s.empty() || !std::isupper(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  for (char c : s) {
    if (std::islower(static_cast<unsigned char>(c))) {
      return false;
    }
  }
  return true;
}

bool IsPreprocessorLine(const std::string& line) {
  size_t first = line.find_first_not_of(" \t");
  return first != std::string::npos && line[first] == '#';
}

bool EndsWithContinuation(const std::string& line) {
  size_t last = line.find_last_not_of(" \t");
  return last != std::string::npos && line[last] == '\\';
}

}  // namespace

std::vector<Token> Tokenize(const SourceFile& file) {
  std::vector<Token> tokens;
  bool in_directive = false;
  for (size_t li = 0; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    bool directive = in_directive || IsPreprocessorLine(line);
    in_directive = directive && EndsWithContinuation(line);
    if (directive) {
      continue;
    }
    size_t i = 0;
    while (i < line.size()) {
      char c = line[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (IsIdentStart(c)) {
        size_t begin = i;
        while (i < line.size() && IsIdentChar(line[i])) {
          ++i;
        }
        std::string text = line.substr(begin, i - begin);
        // Merge `operator` with its symbol so `operator()` is one name.
        if (text == "operator" && i < line.size()) {
          size_t j = i;
          while (j < line.size() &&
                 std::isspace(static_cast<unsigned char>(line[j]))) {
            ++j;
          }
          static const std::string kOpChars = "+-*/%^&|~!<>=[](),";
          size_t k = j;
          while (k < line.size() && k - j < 3 &&
                 kOpChars.find(line[k]) != std::string::npos) {
            ++k;
          }
          if (k > j) {
            text += line.substr(j, k - j);
            i = k;
          }
        }
        tokens.push_back({Token::Kind::kIdent, std::move(text), li + 1, begin});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        size_t begin = i;
        while (i < line.size() &&
               (IsIdentChar(line[i]) || line[i] == '.' || line[i] == '\'')) {
          ++i;
        }
        tokens.push_back({Token::Kind::kNumber, line.substr(begin, i - begin),
                          li + 1, begin});
        continue;
      }
      bool matched = false;
      for (const char* op : kMultiPunct) {
        size_t len = std::string_view(op).size();
        if (line.compare(i, len, op) == 0) {
          tokens.push_back({Token::Kind::kPunct, op, li + 1, i});
          i += len;
          matched = true;
          break;
        }
      }
      if (!matched) {
        tokens.push_back({Token::Kind::kPunct, std::string(1, c), li + 1, i});
        ++i;
      }
    }
  }
  return tokens;
}

namespace {

struct Scope {
  enum class Kind { kNamespace, kClass, kBlock };
  Kind kind;
  std::string name;  // class name for kClass
};

// Walks back from tokens[i] (an identifier) over `ident :: ident :: ...`,
// returning the full spelled chain and the index of its first token.
std::string QualifiedChainEndingAt(const std::vector<Token>& toks, size_t i,
                                   size_t* first_index) {
  std::string chain = toks[i].text;
  size_t begin = i;
  while (begin >= 2 && toks[begin - 1].text == "::" &&
         toks[begin - 2].kind == Token::Kind::kIdent) {
    chain = toks[begin - 2].text + "::" + chain;
    begin -= 2;
  }
  // A leading bare `::` (global qualification) is dropped.
  if (first_index != nullptr) {
    *first_index = begin;
  }
  return chain;
}

constexpr size_t kNpos = static_cast<size_t>(-1);

// Finds the function-name candidate in a statement prefix: the first `(` whose
// preceding token is a plain (non-macro-like, non-keyword) identifier chain.
// Returns the index of the name token, or kNpos.
size_t FindFunctionName(const std::vector<Token>& toks) {
  for (size_t i = 1; i < toks.size(); ++i) {
    if (toks[i].text != "(" || toks[i].kind != Token::Kind::kPunct) {
      continue;
    }
    const Token& prev = toks[i - 1];
    if (prev.kind != Token::Kind::kIdent) {
      continue;
    }
    std::string name = prev.text;
    bool dtor = i >= 2 && toks[i - 2].text == "~";
    if (!dtor && (IsMacroLike(name) || CallKeywords().count(name) != 0)) {
      continue;
    }
    return i - 1;
  }
  return kNpos;
}

bool ContainsKeywordAtAngleDepthZero(const std::vector<Token>& toks,
                                     const char* kw, size_t* index) {
  int angle = 0;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == Token::Kind::kPunct) {
      if (t.text == "<") {
        ++angle;
      } else if (t.text == ">") {
        angle = std::max(0, angle - 1);
      } else if (t.text == ">>") {
        angle = std::max(0, angle - 2);
      }
    } else if (angle == 0 && t.kind == Token::Kind::kIdent && t.text == kw) {
      if (index != nullptr) {
        *index = i;
      }
      return true;
    }
  }
  return false;
}

// Class-head name: the last plain identifier after the class/struct keyword,
// before a base-clause `:` or the end; macro-like identifiers (attribute
// macros such as FM_CAPABILITY) and their argument lists are skipped.
std::string ExtractClassName(const std::vector<Token>& toks, size_t class_kw) {
  std::string name;
  size_t i = class_kw + 1;
  while (i < toks.size()) {
    const Token& t = toks[i];
    if (t.kind == Token::Kind::kIdent) {
      if (IsMacroLike(t.text)) {
        ++i;
        if (i < toks.size() && toks[i].text == "(") {
          int depth = 0;
          while (i < toks.size()) {
            if (toks[i].text == "(") ++depth;
            if (toks[i].text == ")" && --depth == 0) break;
            ++i;
          }
          ++i;
        }
        continue;
      }
      name = t.text;
      ++i;
      continue;
    }
    if (t.text == ":") {
      break;  // base clause; the name precedes it
    }
    if (t.text == "<") {
      break;  // template specialization head; base name already captured
    }
    ++i;
  }
  return name;
}

bool HasTopLevelAssign(const std::vector<Token>& toks) {
  int depth = 0;
  for (const Token& t : toks) {
    if (t.kind != Token::Kind::kPunct) {
      continue;
    }
    if (t.text == "(" || t.text == "[" || t.text == "<") {
      ++depth;
    } else if (t.text == ")" || t.text == "]" || t.text == ">") {
      depth = std::max(0, depth - 1);
    } else if (depth == 0 && t.text == "=") {
      return true;
    }
  }
  return false;
}

// Collects the FM_HOT_PATH / FM_ACQUIRE markers of a declaration prefix into
// `fn`.
void CollectMarkers(const std::vector<Token>& toks, FunctionInfo* fn) {
  for (const Token& t : toks) {
    if (t.kind == Token::Kind::kIdent) {
      fn->hot = fn->hot || t.text == "FM_HOT_PATH";
      fn->acquires = fn->acquires || t.text == "FM_ACQUIRE";
    }
  }
}

std::string JoinClassScopes(const std::vector<Scope>& scopes) {
  std::string joined;
  for (const Scope& s : scopes) {
    if (s.kind == Scope::Kind::kClass && !s.name.empty()) {
      if (!joined.empty()) {
        joined += "::";
      }
      joined += s.name;
    }
  }
  return joined;
}

// Consumes a function body starting at the token after the opening brace.
// Returns the index just past the matching close brace.
size_t ParseBody(const std::vector<Token>& toks, size_t start,
                 FunctionInfo* fn) {
  int depth = 1;
  size_t i = start;
  while (i < toks.size() && depth > 0) {
    const Token& t = toks[i];
    if (t.kind == Token::Kind::kPunct) {
      if (t.text == "{") {
        ++depth;
      } else if (t.text == "}") {
        --depth;
        if (depth == 0) {
          ++i;
          break;
        }
      }
      fn->body.push_back(t);
      ++i;
      continue;
    }
    fn->body.push_back(t);
    // Identifier followed by `(`: a call, or a local declaration when an
    // identifier (type) directly precedes the name.
    if (t.kind == Token::Kind::kIdent && i + 1 < toks.size() &&
        toks[i + 1].text == "(") {
      size_t chain_begin = kNpos;
      std::string chain = QualifiedChainEndingAt(toks, i, &chain_begin);
      const Token* before =
          chain_begin > start && chain_begin > 0 ? &toks[chain_begin - 1] : nullptr;
      bool is_decl = before != nullptr &&
                     (before->kind == Token::Kind::kIdent ||
                      before->text == ">" || before->text == ">>") &&
                     !IsMacroLike(before->text) &&
                     CallKeywords().count(before->text) == 0;
      if (is_decl) {
        // `Type var(args)`: recover the base type name.
        std::string base_type;
        if (before->kind == Token::Kind::kIdent) {
          base_type = before->text;
        } else {
          // Walk back over the template argument list to its base identifier.
          int angle = before->text == ">>" ? 2 : 1;
          size_t j = chain_begin - 1;
          while (j > 0 && angle > 0) {
            --j;
            const std::string& s = toks[j].text;
            if (s == ">") ++angle;
            if (s == ">>") angle += 2;
            if (s == "<") --angle;
          }
          if (j > 0 && toks[j - 1].kind == Token::Kind::kIdent) {
            base_type = toks[j - 1].text;
          }
        }
        if (!base_type.empty()) {
          fn->decls.push_back({base_type, t.text, t.line});
        }
      } else if (CallKeywords().count(t.text) == 0) {
        fn->calls.push_back({chain, t.line});
      }
    }
    ++i;
  }
  return i;
}

}  // namespace

std::vector<FunctionInfo> ParseFunctions(const SourceFile& file) {
  std::vector<Token> toks = Tokenize(file);
  std::vector<FunctionInfo> functions;
  std::vector<Scope> scopes;
  std::vector<Token> pending;

  auto flush_declaration = [&]() {
    // A bodiless prototype only matters when it carries markers that must be
    // merged onto an out-of-line definition.
    bool has_marker = std::any_of(pending.begin(), pending.end(), [](const Token& t) {
      return t.kind == Token::Kind::kIdent &&
             (t.text == "FM_HOT_PATH" || t.text == "FM_ACQUIRE");
    });
    if (!has_marker) {
      return;
    }
    size_t name_idx = FindFunctionName(pending);
    if (name_idx == kNpos) {
      return;
    }
    FunctionInfo fn;
    size_t chain_begin = kNpos;
    fn.qualified = QualifiedChainEndingAt(pending, name_idx, &chain_begin);
    fn.name = pending[name_idx].text;
    std::string cls = JoinClassScopes(scopes);
    if (fn.qualified.find("::") == std::string::npos && !cls.empty()) {
      fn.qualified = cls + "::" + fn.qualified;
    }
    fn.file = file.rel_path;
    fn.line = pending[name_idx].line;
    fn.declaration_only = true;
    CollectMarkers(pending, &fn);
    functions.push_back(std::move(fn));
  };

  size_t i = 0;
  while (i < toks.size()) {
    const Token& t = toks[i];
    if (t.kind == Token::Kind::kPunct && t.text == ";") {
      flush_declaration();
      pending.clear();
      ++i;
      continue;
    }
    if (t.kind == Token::Kind::kPunct && t.text == "}") {
      if (!scopes.empty()) {
        scopes.pop_back();
      }
      pending.clear();
      ++i;
      continue;
    }
    if (t.kind == Token::Kind::kPunct && t.text == "{") {
      size_t kw_idx = 0;
      if (HasTopLevelAssign(pending)) {
        scopes.push_back({Scope::Kind::kBlock, ""});
      } else if (ContainsKeywordAtAngleDepthZero(pending, "namespace", &kw_idx)) {
        std::string name;
        if (kw_idx + 1 < pending.size() &&
            pending[kw_idx + 1].kind == Token::Kind::kIdent) {
          name = pending[kw_idx + 1].text;
        }
        scopes.push_back({Scope::Kind::kNamespace, std::move(name)});
      } else {
        size_t name_idx = FindFunctionName(pending);
        size_t class_kw = 0;
        bool has_class =
            ContainsKeywordAtAngleDepthZero(pending, "class", &class_kw) ||
            ContainsKeywordAtAngleDepthZero(pending, "struct", &class_kw) ||
            ContainsKeywordAtAngleDepthZero(pending, "union", &class_kw);
        if (name_idx != kNpos) {
          FunctionInfo fn;
          size_t chain_begin = kNpos;
          fn.qualified = QualifiedChainEndingAt(pending, name_idx, &chain_begin);
          fn.name = pending[name_idx].text;
          std::string cls = JoinClassScopes(scopes);
          if (fn.qualified.find("::") == std::string::npos && !cls.empty()) {
            fn.qualified = cls + "::" + fn.qualified;
          }
          fn.file = file.rel_path;
          fn.line = pending[name_idx].line;
          CollectMarkers(pending, &fn);
          i = ParseBody(toks, i + 1, &fn);
          functions.push_back(std::move(fn));
          pending.clear();
          continue;
        }
        if (has_class) {
          scopes.push_back(
              {Scope::Kind::kClass, ExtractClassName(pending, class_kw)});
        } else {
          scopes.push_back({Scope::Kind::kBlock, ""});
        }
      }
      pending.clear();
      ++i;
      continue;
    }
    pending.push_back(t);
    ++i;
  }
  return functions;
}

}  // namespace fmlint
