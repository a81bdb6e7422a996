// Shared minimal JSON support: RFC 8259 string escaping used by every JSON
// emitter in the tree (fm-metrics-v1, fm-bench-trajectory-v1, the Chrome
// trace-event view), plus the recursive-descent parser the tests use to read
// those documents back. One escaping implementation means a path with quotes
// or control characters cannot round-trip correctly in one schema and corrupt
// another.
#ifndef SRC_UTIL_JSON_H_
#define SRC_UTIL_JSON_H_

#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace fm {
namespace json {

// Appends `s` escaped per RFC 8259 (no surrounding quotes): `"` `\` become
// \" \\, and control characters become \n \r \t or \u00XX.
void AppendEscaped(std::string* out, std::string_view s);

// Appends `s` as a complete JSON string token: quotes plus escaping.
void AppendQuoted(std::string* out, std::string_view s);

// Returns the escaped body of `s` (no surrounding quotes).
std::string JsonEscape(std::string_view s);

// Parsed JSON value. Supports the full grammar the emitters produce: objects,
// arrays, strings (with escapes), numbers, true/false/null.
struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  bool Has(const std::string& key) const {
    return type == Type::kObject && object.count(key) > 0;
  }
  const Value& At(const std::string& key) const {
    if (!Has(key)) {
      throw std::runtime_error("missing key: " + key);
    }
    return object.at(key);
  }
  double Num(const std::string& key) const { return At(key).number; }
  const std::string& Str(const std::string& key) const { return At(key).str; }
};

// Parses `text` as a single JSON document. Throws std::runtime_error with a
// byte position on malformed input, so a serialization bug fails loudly
// instead of passing vacuously.
Value ParseJson(const std::string& text);

}  // namespace json
}  // namespace fm

#endif  // SRC_UTIL_JSON_H_
