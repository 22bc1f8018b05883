// Shared JSON string escaping and field writing for every obs export
// surface (metrics JSON, trace/span/ledger JSONL, flight dumps). One
// definition so a hostile detail string — quotes, backslashes, newlines,
// raw control bytes — escapes identically everywhere and survives
// MetricsSnapshot::from_json round-trips.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace enclaves::obs {

/// Appends `s` to `out` as a quoted JSON string. Escapes `"`, `\`, the
/// common control shorthands (`\n`, `\t`, `\r`) and every other byte below
/// 0x20 as `\u00XX`. Bytes >= 0x20 pass through untouched.
inline void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Appends `,"key":"value"` (escaped) — a field after an earlier one.
inline void append_json_field(std::string& out, std::string_view key,
                              std::string_view value) {
  out += ",\"";
  out += key;
  out += "\":";
  append_json_string(out, value);
}

/// Appends `,"key":v`.
inline void append_json_field(std::string& out, std::string_view key,
                              std::uint64_t v) {
  out += ",\"";
  out += key;
  out += "\":";
  out += std::to_string(v);
}

}  // namespace enclaves::obs
