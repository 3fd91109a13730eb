// The one JSON module: a strict RFC 8259 reader and the writer helpers every
// JSON producer shares (grammar, caps and writer choice: DESIGN.md §5m).
//
// parse() builds a Value tree or throws ParseError with the reason and byte
// offset. Numbers must match the JSON grammar, are converted with
// std::from_chars over the whole token and keep their source lexeme; strings
// take every escape, \u and surrogate pairs included, decoded to UTF-8.
// Schema checks belong to the consumers (faults/fault_json.cpp,
// cluster/topology.cpp, obs/event_log.cpp), which walk a Value and raise
// their own typed errors.
#pragma once

#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace heterog::json {

/// Nesting cap: a crafted file of nothing but '[' fails typed instead of
/// overflowing the stack.
inline constexpr int kMaxDepth = 256;

/// Thrown by parse(). what() is "<reason> (at offset <offset>)".
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& reason, size_t offset);

  const std::string& reason() const { return reason_; }
  size_t offset() const { return offset_; }

 private:
  std::string reason_;
  size_t offset_;
};

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  /// The decoded text of a string; the source lexeme of a number.
  std::string text;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  /// Member `key` of an object; nullptr when absent (or not an object).
  const Value* find(const std::string& key) const;
};

/// Parses one JSON text (surrounding whitespace allowed, nothing else). Of
/// duplicate object keys, the last one wins.
Value parse(std::string_view text);

/// parse(), with a ParseError rethrown as Error(prefix + what()): how each
/// consumer reports grammar errors through its own typed error.
template <typename Error>
Value parse_or_throw(std::string_view text, const std::string& prefix) {
  try {
    return parse(text);
  } catch (const ParseError& e) {
    throw Error(prefix + e.what());
  }
}

/// `s` as a JSON string literal, quotes included. Escapes '"', '\\', \n, \r,
/// \t and other control bytes (as \u00XX); every other byte is copied.
std::string quoted(std::string_view s);

/// %.17g: round-trips every finite double exactly. `null` when non-finite.
std::string number_exact(double v);

/// The shortest %.Ng (N = 1..17) that parses back to `v`. `null` when
/// non-finite.
std::string number_shortest(double v);

}  // namespace heterog::json
