// Command-line flag parsing shared by the fmwalk and fmgen tools.
//
// Flags are `--name=value`; a numeric value must be one whole number in its
// type's range. A malformed number is a usage error: the tool prints one
// "error:" line naming the flag and exits 2.
#ifndef TOOLS_CLI_FLAGS_H_
#define TOOLS_CLI_FLAGS_H_

#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>
#include <system_error>

namespace fm {

// True when `arg` is `name=...`; stores the text after '=' in `value`.
inline bool ParseFlag(const char* arg, const char* name, std::string* value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

// Strict numeric value of flag argument `arg`: the whole value must be one
// number in T's range (no sign on an unsigned type, no trailing text). Prints
// one "error:" line naming the flag and returns false otherwise.
template <typename T>
bool ParseNumber(const char* arg, const std::string& value, T* out) {
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, *out);
  if (value.empty() || ec != std::errc() || ptr != end) {
    std::fprintf(stderr, "error: %s: not a valid number\n", arg);
    return false;
  }
  return true;
}

}  // namespace fm

#endif  // TOOLS_CLI_FLAGS_H_
