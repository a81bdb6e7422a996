// fmlint front end — a preprocessing-aware tokenizer and a lightweight
// function/scope parser over prepared SourceFiles.
//
// This is deliberately not a C++ parser. It recovers exactly the structure the
// hot-path rules (tools/fmlint/analysis.h) need and nothing more:
//
//   - which functions a file defines (with Class::Name qualification from both
//     out-of-line definitions and the enclosing class/namespace scope stack),
//   - each function's body as a token stream with line numbers,
//   - call sites inside each body (qualified where spelled so),
//   - local object constructions (`fm::MutexLock lock(mu_)`,
//     `std::vector<int> buf(n)`) with their base type name,
//   - the FM_HOT_PATH / FM_ACQUIRE markers attached to a declaration or
//     definition.
//
// Preprocessor awareness means directive lines (and their backslash
// continuations) are excluded from the token stream, so `#define X {` cannot
// desynchronize brace tracking and include paths never read as division.
// Comments and string contents are already blanked by PrepareSource; the
// tokenizer sees pure code with original line/column structure.
#ifndef TOOLS_FMLINT_PARSE_H_
#define TOOLS_FMLINT_PARSE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "tools/fmlint/lint.h"

namespace fmlint {

struct Token {
  enum class Kind { kIdent, kNumber, kPunct };
  Kind kind;
  std::string text;  // `operator` merges its symbol: "operator()", "operator<<"
  size_t line = 0;   // 1-based
  size_t col = 0;    // 0-based byte offset in the line
};

// Tokenizes the prepared (comment/string-blanked) code lines. Lines belonging
// to preprocessor directives are skipped entirely.
std::vector<Token> Tokenize(const SourceFile& file);

// A function call observed inside a body. `name` keeps the spelled
// qualification ("ThreadPool::Global", "Refill").
struct CallSite {
  std::string name;
  size_t line = 0;
};

// A local object construction `Type var(args)` inside a body. `type` is the
// unqualified base type name ("MutexLock", "vector").
struct DeclSite {
  std::string type;
  std::string var;
  size_t line = 0;
};

struct FunctionInfo {
  std::string name;       // simple name: "SampleVp", "operator()", "~Mutex"
  std::string qualified;  // scope-qualified: "StepKernel::SampleVp"
  std::string file;       // repo-relative path of the definition
  size_t line = 0;        // line of the opening brace's statement start
  bool hot = false;       // FM_HOT_PATH on the definition (or merged decl)
  bool acquires = false;  // FM_ACQUIRE(...): the function takes a lock itself
  bool declaration_only = false;  // prototype with markers, no body here
  std::vector<CallSite> calls;
  std::vector<DeclSite> decls;
  std::vector<Token> body;  // tokens strictly inside the outermost braces
};

// Parses every function definition (and marker-carrying declaration) in the
// file. Never fails: unparseable regions simply contribute nothing.
std::vector<FunctionInfo> ParseFunctions(const SourceFile& file);

}  // namespace fmlint

#endif  // TOOLS_FMLINT_PARSE_H_
