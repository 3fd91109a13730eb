#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>

namespace heterog::json {

ParseError::ParseError(const std::string& reason, size_t offset)
    : std::runtime_error(reason + " (at offset " + std::to_string(offset) + ")"),
      reason_(reason),
      offset_(offset) {}

const Value* Value::find(const std::string& key) const {
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

// The one-letter string escapes and the bytes they stand for.
constexpr std::string_view kEscapes = "\"\\/bfnrt";
constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";

void append_utf8(std::string& out, uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
    return;
  }
  static constexpr unsigned char kLead[] = {0, 0xC0, 0xE0, 0xF0};
  const int tail = cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
  out += static_cast<char>(kLead[tail] | (cp >> (6 * tail)));
  for (int shift = 6 * (tail - 1); shift >= 0; shift -= 6) {
    out += static_cast<char>(0x80 | ((cp >> shift) & 0x3F));
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const { throw ParseError(why, pos_); }

  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }
  bool at_digit() const { return pos_ < text_.size() && is_digit(text_[pos_]); }

  void skip_whitespace() {
    while (at(' ') || at('\t') || at('\n') || at('\r')) ++pos_;
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Value parse_value(int depth) {
    if (depth >= kMaxDepth) fail("nesting too deep");
    Value v;
    const char c = peek();
    if (c == '{') {
      v.type = Value::Type::kObject;
      parse_items('}', "object", [&] {
        if (peek() != '"') fail("expected string key");
        std::string key = parse_string();
        expect(':');
        v.object[std::move(key)] = parse_value(depth + 1);
      });
    } else if (c == '[') {
      v.type = Value::Type::kArray;
      parse_items(']', "array", [&] { v.array.push_back(parse_value(depth + 1)); });
    } else if (c == '"') {
      v.type = Value::Type::kString;
      v.text = parse_string();
    } else if (c == '-' || is_digit(c)) {
      parse_number(v);
    } else if (consume("true")) {
      v.type = Value::Type::kBool;
      v.boolean = true;
    } else if (consume("false")) {
      v.type = Value::Type::kBool;
    } else if (!consume("null")) {
      fail("unexpected character");
    }
    return v;
  }

  /// The comma-separated items of an object or array, from its opening
  /// bracket (at pos_) through `close`; parse_item() reads one item.
  template <typename ParseItem>
  void parse_items(char close, const char* container, ParseItem&& parse_item) {
    ++pos_;
    if (peek() == close) {
      ++pos_;
      return;
    }
    while (true) {
      parse_item();
      const char c = peek();
      if (c != ',' && c != close) {
        fail(std::string("expected ',' or '") + close + "' in " + container);
      }
      ++pos_;
      if (c == close) return;
    }
  }

  std::string parse_string() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) fail("unescaped control character in string");
      ++pos_;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      if (esc == 'u') {
        append_utf8(out, parse_code_point());
      } else if (const size_t i = kEscapes.find(esc); i != std::string_view::npos) {
        out += kDecoded[i];
      } else {
        --pos_;
        fail("unsupported escape sequence");
      }
    }
  }

  uint32_t parse_hex4() {
    uint32_t code = 0;
    const char* begin = text_.data() + pos_;
    const bool four_hex_digits = text_.size() - pos_ >= 4 &&
                                 std::from_chars(begin, begin + 4, code, 16).ptr == begin + 4;
    if (!four_hex_digits) fail("bad \\u escape");
    pos_ += 4;
    return code;
  }

  /// The code point of a \u escape (after the 'u'), joining a UTF-16
  /// surrogate pair; a lone surrogate has no UTF-8 encoding and is rejected.
  uint32_t parse_code_point() {
    const uint32_t high = parse_hex4();
    if (high >= 0xDC00 && high <= 0xDFFF) fail("unpaired surrogate in \\u escape");
    if (high < 0xD800 || high > 0xDBFF) return high;
    if (!consume("\\u")) fail("unpaired surrogate in \\u escape");
    const uint32_t low = parse_hex4();
    if (low < 0xDC00 || low > 0xDFFF) fail("unpaired surrogate in \\u escape");
    return 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
  }

  /// RFC 8259 number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — and
  /// the token must end there, so "1-2", "3e" and "02" fail instead of
  /// loading their longest valid prefix.
  void parse_number(Value& v) {
    const size_t start = pos_;
    auto malformed = [&]() {
      pos_ = start;
      fail("malformed number");
    };
    auto digits = [&]() {
      if (!at_digit()) malformed();
      while (at_digit()) ++pos_;
    };
    if (at('-')) ++pos_;
    if (!consume("0")) digits();
    if (consume(".")) digits();
    if (consume("e") || consume("E")) {
      if (!consume("+")) consume("-");
      digits();
    }
    if (at_digit() || at('.') || at('e') || at('E') || at('+') || at('-')) malformed();

    const std::string_view lexeme = text_.substr(start, pos_ - start);
    const char* end = lexeme.data() + lexeme.size();
    const auto [ptr, ec] = std::from_chars(lexeme.data(), end, v.number);
    if (ec == std::errc::result_out_of_range) {
      pos_ = start;
      fail("number out of double range");
    }
    if (ec != std::errc() || ptr != end) malformed();
    v.type = Value::Type::kNumber;
    v.text = lexeme;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

std::string quoted(std::string_view s) {
  static constexpr std::string_view kShort = "\"\\\n\r\t", kLetter = "\"\\nrt";
  std::string out = "\"";
  for (const char c : s) {
    if (const size_t i = kShort.find(c); i != std::string_view::npos) {
      out += '\\';
      out += kLetter[i];
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", static_cast<unsigned>(c));
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + '"';
}

std::string number_exact(double v) {
  if (!std::isfinite(v)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string number_shortest(double v) {
  if (!std::isfinite(v)) return "null";
  char buffer[32];
  for (int precision = 1; precision < 17; ++precision) {
    const int n = std::snprintf(buffer, sizeof(buffer), "%.*g", precision, v);
    double parsed = 0.0;
    std::from_chars(buffer, buffer + n, parsed);
    if (parsed == v) return buffer;
  }
  return number_exact(v);
}

}  // namespace heterog::json
