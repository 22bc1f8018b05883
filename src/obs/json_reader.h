// Shared JSON reading for every obs import surface: MetricsSnapshot and
// ProfSnapshot from_json, the BENCH blob parser, and the postmortem and
// dashboard tools. One cursor with one string and number grammar, so an
// escape, a torn line or an out-of-range number is handled the same way
// everywhere. Schema handling (which keys, in which sections) stays with
// each caller.
//
// The string grammar is the inverse of json_escape.h: `\"`, `\\`, `\/`,
// `\n`, `\t`, `\r` and `\u00XX` (code points above 0xFF are refused; the
// exporters never emit them).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>

#include "util/result.h"

namespace enclaves::obs {

struct JsonCursor {
  std::string_view s;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t' ||
                              s[pos] == '\n' || s[pos] == '\r'))
      ++pos;
  }

  /// Skips whitespace, then consumes `c` if it is next.
  bool consume(char c) {
    skip_ws();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  /// Skips whitespace, then reports whether `c` is next (not consumed).
  bool peek(char c) {
    skip_ws();
    return pos < s.size() && s[pos] == c;
  }

  /// True once only whitespace remains.
  bool at_end() {
    skip_ws();
    return pos == s.size();
  }

  /// A quoted string. Errc::truncated if the text ends inside it.
  Result<std::string> parse_string() {
    skip_ws();
    if (pos >= s.size() || s[pos] != '"') return Errc::malformed;
    ++pos;
    std::string out;
    while (pos < s.size() && s[pos] != '"') {
      char c = s[pos++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= s.size()) return Errc::truncated;
      switch (s[pos++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'u': {
          if (pos + 4 > s.size()) return Errc::truncated;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              return Errc::malformed;
          }
          if (code > 0xFF) return Errc::malformed;
          out += static_cast<char>(code);
          break;
        }
        default: return Errc::malformed;
      }
    }
    if (pos >= s.size()) return Errc::truncated;
    ++pos;  // closing quote
    return out;
  }

  /// An unsigned integer, exactly (all 64 bits, no rounding through a
  /// double). Errc::malformed for a sign, a fraction or exponent, or a
  /// value above 2^64 - 1.
  Result<std::uint64_t> parse_uint() {
    skip_ws();
    const std::size_t start = pos;
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t v = 0;
    while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
      const auto digit = static_cast<std::uint64_t>(s[pos] - '0');
      if (v > (kMax - digit) / 10)
        return make_error(Errc::malformed, "integer out of range");
      v = v * 10 + digit;
      ++pos;
    }
    if (pos == start || (pos < s.size() && (s[pos] == '.' || s[pos] == 'e' ||
                                            s[pos] == 'E')))
      return Errc::malformed;
    return v;
  }

  /// A signed integer, exactly; Errc::malformed outside int64_t.
  Result<std::int64_t> parse_int() {
    skip_ws();
    const bool negative = pos < s.size() && s[pos] == '-';
    if (negative) ++pos;
    auto magnitude = parse_uint();
    constexpr auto kMax =
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
    if (!magnitude.ok() || *magnitude > kMax + (negative ? 1 : 0))
      return make_error(Errc::malformed, "integer out of range");
    if (!negative) return static_cast<std::int64_t>(*magnitude);
    return *magnitude == kMax + 1 ? std::numeric_limits<std::int64_t>::min()
                                  : -static_cast<std::int64_t>(*magnitude);
  }

  /// Any JSON number, as a double.
  Result<double> parse_number() {
    skip_ws();
    const std::size_t start = pos;
    if (pos < s.size() && (s[pos] == '-' || s[pos] == '+')) ++pos;
    while (pos < s.size() &&
           ((s[pos] >= '0' && s[pos] <= '9') || s[pos] == '.' ||
            s[pos] == 'e' || s[pos] == 'E' || s[pos] == '-' || s[pos] == '+'))
      ++pos;
    if (pos == start) return Errc::malformed;
    const std::string text(s.substr(start, pos - start));
    char* endp = nullptr;
    const double value = std::strtod(text.c_str(), &endp);
    if (endp != text.c_str() + text.size()) return Errc::malformed;
    return value;
  }

  Result<bool> parse_bool() {
    skip_ws();
    if (s.substr(pos, 4) == "true") {
      pos += 4;
      return true;
    }
    if (s.substr(pos, 5) == "false") {
      pos += 5;
      return false;
    }
    return Errc::malformed;
  }

  /// Consumes a balanced JSON object starting at the next '{' and returns
  /// its raw text (string-aware brace counting).
  Result<std::string_view> parse_raw_object() {
    skip_ws();
    if (pos >= s.size() || s[pos] != '{') return Errc::malformed;
    const std::size_t start = pos;
    int depth = 0;
    bool in_string = false;
    while (pos < s.size()) {
      const char c = s[pos++];
      if (in_string) {
        if (c == '\\') {
          if (pos < s.size()) ++pos;
        } else if (c == '"') {
          in_string = false;
        }
        continue;
      }
      if (c == '"') in_string = true;
      else if (c == '{') ++depth;
      else if (c == '}' && --depth == 0) return s.substr(start, pos - start);
    }
    return Errc::truncated;
  }
};

}  // namespace enclaves::obs
