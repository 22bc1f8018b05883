// Parsing + merging core of enclaves_postmortem (tools/enclaves_postmortem
// .cpp): loads flight-recorder incident blobs (src/obs/flight.h, one tagged
// JSON object per line), aligns dumps from several nodes onto one wall-clock
// axis via each header's virtual/wall clock pair, and renders the merged
// incident report — health transitions, per-peer ledger attribution, hot
// profiler scopes, and the causally ordered cross-node timeline — plus a
// JSONL export.
//
// Header-only and filesystem-free for the same reason as bench_diff_lib.h /
// enclaves_top_lib.h: the golden test renders exactly what the binary
// renders, over blob *contents* rather than paths.
//
// Tolerance contract: a fatal-signal dump may contain torn slots, a
// truncated tail, or garbage bytes mid-line. Every line that does not parse
// as a known record is counted (skipped_lines) and ignored — a partially
// written blob still loads, which is the whole point of a black box.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json_escape.h"
#include "obs/json_reader.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "util/result.h"

namespace enclaves::postmortem {

struct FlightHeader {
  std::string node;
  std::string incident;
  std::string reason;
  std::uint64_t trigger_tick = 0;
  std::uint64_t tick = 0;     // clock pair: this virtual tick ...
  std::uint64_t wall_ns = 0;  // ... was this wall time on this node
  std::uint64_t tick_ns = 1'000'000;
  std::uint64_t seq = 0;
};

/// One ring line from a blob. `src` is "trace" / "ledger" / "delta";
/// field meaning follows the emitting struct (agent doubles as the
/// ledger observer, peer as the accused, detail as the delta name).
struct FlightLine {
  std::string src;
  std::uint64_t tick = 0;
  std::string kind;  // trace/ledger kind name; counter name for deltas
  std::string group;
  std::string agent;
  std::string peer;
  std::string detail;
  std::uint64_t value = 0;

  friend bool operator==(const FlightLine&, const FlightLine&) = default;
};

struct FlightDump {
  FlightHeader header;
  std::map<std::string, std::uint64_t> stats;  // the "stats" record, verbatim
  std::vector<FlightLine> lines;               // ring lines, blob order
  obs::MetricsSnapshot metrics;
  bool has_metrics = false;
  obs::ProfSnapshot profile;
  bool has_profile = false;
  std::uint64_t skipped_lines = 0;  // torn/unknown lines tolerated
  bool complete = false;            // the "end" record was present

  /// Maps a virtual tick on this node onto the shared wall axis using the
  /// header clock pair: wall_ns + (tick - header.tick) * tick_ns (clamped
  /// at 0 for ticks before the pair).
  std::uint64_t global_ns(std::uint64_t tick) const {
    if (tick >= header.tick)
      return header.wall_ns + (tick - header.tick) * header.tick_ns;
    const std::uint64_t back = (header.tick - tick) * header.tick_ns;
    return header.wall_ns >= back ? header.wall_ns - back : 0;
  }

  static Result<FlightDump> parse(std::string_view blob);
};

struct TimelineEntry {
  std::uint64_t global_ns = 0;
  std::string node;
  FlightLine line;
};

struct Postmortem {
  std::string incident;            // shared id, or "(mixed)" when they differ
  std::vector<FlightDump> dumps;   // sorted by node name
  std::vector<TimelineEntry> timeline;  // (global_ns, node, blob order)
};

// ---------------------------------------------------------------------------
// Parsing

namespace pm_detail {

struct FlatObject {
  std::map<std::string, std::string> strings;
  std::map<std::string, std::uint64_t> numbers;
};

/// Parses one {"key":value,...} line of string/number/bool scalars (nested
/// objects are consumed raw and dropped). Errc::malformed on anything else.
inline Result<FlatObject> parse_flat_object(std::string_view line) {
  obs::JsonCursor c{line};
  if (!c.consume('{')) return Errc::malformed;
  FlatObject obj;
  if (!c.peek('}')) {
    do {
      auto key = c.parse_string();
      if (!key.ok()) return key.error();
      if (!c.consume(':')) return Errc::malformed;
      c.skip_ws();
      if (c.peek('"')) {
        auto v = c.parse_string();
        if (!v.ok()) return v.error();
        obj.strings[*key] = *std::move(v);
      } else if (c.peek('{')) {
        auto v = c.parse_raw_object();
        if (!v.ok()) return v.error();
      } else if (c.peek('t') || c.peek('f')) {
        auto v = c.parse_bool();
        if (!v.ok()) return v.error();
        obj.numbers[*key] = *v ? 1 : 0;
      } else {
        // Every number a dump writes is a u64; read it exactly (a
        // CLOCK_REALTIME wall_ns needs all 64 bits).
        auto v = c.parse_uint();
        if (!v.ok()) return v.error();
        obj.numbers[*key] = *v;
      }
    } while (c.consume(','));
  }
  if (!c.consume('}')) return Errc::malformed;
  return obj;
}

inline std::uint64_t num_or(const FlatObject& o, const std::string& key,
                            std::uint64_t fallback = 0) {
  auto it = o.numbers.find(key);
  return it == o.numbers.end() ? fallback : it->second;
}

inline std::string str_or(const FlatObject& o, const std::string& key) {
  auto it = o.strings.find(key);
  return it == o.strings.end() ? std::string() : it->second;
}

}  // namespace pm_detail

inline Result<FlightDump> FlightDump::parse(std::string_view blob) {
  FlightDump dump;
  bool have_header = false;
  for (std::size_t pos = 0; pos < blob.size();) {
    std::size_t eol = blob.find('\n', pos);
    if (eol == std::string_view::npos) eol = blob.size();
    std::string_view line = blob.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;

    auto parsed = pm_detail::parse_flat_object(line);
    if (!parsed.ok()) {
      ++dump.skipped_lines;
      continue;
    }
    const pm_detail::FlatObject& obj = *parsed;

    if (obj.numbers.count("enclaves_flight")) {
      dump.header.node = pm_detail::str_or(obj, "node");
      dump.header.incident = pm_detail::str_or(obj, "incident");
      dump.header.reason = pm_detail::str_or(obj, "reason");
      dump.header.trigger_tick = pm_detail::num_or(obj, "trigger_tick");
      dump.header.tick = pm_detail::num_or(obj, "tick");
      dump.header.wall_ns = pm_detail::num_or(obj, "wall_ns");
      dump.header.tick_ns = pm_detail::num_or(obj, "tick_ns", 1'000'000);
      dump.header.seq = pm_detail::num_or(obj, "seq");
      have_header = true;
      continue;
    }

    const std::string k = pm_detail::str_or(obj, "k");
    if (k == "stats") {
      dump.stats = obj.numbers;
    } else if (k == "trace" || k == "ledger") {
      FlightLine fl;
      fl.src = k;
      fl.tick = pm_detail::num_or(obj, "tick");
      fl.kind = pm_detail::str_or(obj, "kind");
      fl.group = pm_detail::str_or(obj, "group");
      fl.agent = k == "ledger" ? pm_detail::str_or(obj, "observer")
                               : pm_detail::str_or(obj, "agent");
      fl.peer = k == "ledger" ? pm_detail::str_or(obj, "accused")
                              : pm_detail::str_or(obj, "peer");
      fl.detail = pm_detail::str_or(obj, "detail");
      fl.value = pm_detail::num_or(obj, "value");
      dump.lines.push_back(std::move(fl));
    } else if (k == "delta") {
      FlightLine fl;
      fl.src = k;
      fl.tick = pm_detail::num_or(obj, "tick");
      fl.kind = pm_detail::str_or(obj, "name");
      fl.group = pm_detail::str_or(obj, "group");
      fl.agent = pm_detail::str_or(obj, "agent");
      fl.detail = "+" + std::to_string(pm_detail::num_or(obj, "delta"));
      fl.value = pm_detail::num_or(obj, "total");
      dump.lines.push_back(std::move(fl));
    } else if (k == "metrics") {
      auto snap = obs::MetricsSnapshot::from_json(pm_detail::str_or(obj,
                                                                    "json"));
      if (snap.ok()) {
        dump.metrics = *std::move(snap);
        dump.has_metrics = true;
      } else {
        ++dump.skipped_lines;
      }
    } else if (k == "profile") {
      auto prof = obs::ProfSnapshot::from_json(pm_detail::str_or(obj,
                                                                 "json"));
      if (prof.ok()) {
        dump.profile = *std::move(prof);
        dump.has_profile = true;
      } else {
        ++dump.skipped_lines;
      }
    } else if (k == "end") {
      dump.complete = true;
    } else {
      ++dump.skipped_lines;  // "torn" markers and future record kinds
    }
  }
  if (!have_header) return Errc::malformed;
  return dump;
}

// ---------------------------------------------------------------------------
// Merge

/// Merges per-node dumps into one causally ordered timeline: every ring
/// line lands at `dump.global_ns(line.tick)` on the shared wall axis, ties
/// break by node name then blob order (a node's own lines never reorder).
/// Dumps are sorted by node; when one node contributed several blobs, keep
/// the one you want before calling (the CLI keeps the highest seq).
inline Postmortem merge(std::vector<FlightDump> dumps) {
  Postmortem pm;
  std::sort(dumps.begin(), dumps.end(),
            [](const FlightDump& a, const FlightDump& b) {
              if (a.header.node != b.header.node)
                return a.header.node < b.header.node;
              return a.header.seq < b.header.seq;
            });
  for (const FlightDump& d : dumps) {
    if (pm.incident.empty())
      pm.incident = d.header.incident;
    else if (pm.incident != d.header.incident)
      pm.incident = "(mixed)";
  }
  for (const FlightDump& d : dumps) {
    for (const FlightLine& line : d.lines) {
      TimelineEntry e;
      e.global_ns = d.global_ns(line.tick);
      e.node = d.header.node;
      e.line = line;
      pm.timeline.push_back(std::move(e));
    }
  }
  std::stable_sort(pm.timeline.begin(), pm.timeline.end(),
                   [](const TimelineEntry& a, const TimelineEntry& b) {
                     if (a.global_ns != b.global_ns)
                       return a.global_ns < b.global_ns;
                     return a.node < b.node;
                   });
  pm.dumps = std::move(dumps);
  return pm;
}

// ---------------------------------------------------------------------------
// Rendering

struct ReportOptions {
  std::size_t timeline_tail = 40;  // merged timeline entries shown
  std::size_t hot_scopes = 5;      // per-node profiler scopes shown
};

namespace pm_detail {

inline std::string pad(std::string_view s, std::size_t width) {
  std::string out(s);
  while (out.size() < width) out += ' ';
  return out;
}

inline std::string fmt_line(const FlightLine& l) {
  std::string out = l.src + ":" + l.kind;
  if (!l.group.empty()) out += " group=" + l.group;
  if (!l.agent.empty())
    out += (l.src == "ledger" ? " observer=" : " agent=") + l.agent;
  if (!l.peer.empty())
    out += (l.src == "ledger" ? " accused=" : " peer=") + l.peer;
  if (!l.detail.empty()) out += " detail=" + l.detail;
  if (l.value != 0) out += " value=" + std::to_string(l.value);
  return out;
}

}  // namespace pm_detail

/// The incident report, byte-exact for the golden test: header + per-node
/// dump table, health transitions, per-peer ledger attribution, hot
/// profiler scopes, and the merged timeline tail.
inline std::string render_report(const Postmortem& pm,
                                 const ReportOptions& options = {}) {
  using pm_detail::pad;
  std::string out;
  out += "enclaves_postmortem — incident " +
         (pm.incident.empty() ? "(none)" : pm.incident) + "\n";
  out += std::to_string(pm.dumps.size()) + " dump(s), " +
         std::to_string(pm.timeline.size()) +
         " timeline entr(ies), aligned by virtual/wall clock pair\n";

  out += "\nnodes:\n";
  std::size_t node_width = 4;
  for (const FlightDump& d : pm.dumps)
    node_width = std::max(node_width, d.header.node.size());
  out += "  " + pad("node", node_width) + "  " + pad("reason", 22) +
         pad("trigger", 9) + pad("pair tick@wall_ns", 28) +
         pad("lines", 7) + pad("skipped", 9) + "complete\n";
  for (const FlightDump& d : pm.dumps) {
    out += "  " + pad(d.header.node, node_width) + "  " +
           pad(d.header.reason, 22) +
           pad(std::to_string(d.header.trigger_tick), 9) +
           pad(std::to_string(d.header.tick) + "@" +
                   std::to_string(d.header.wall_ns),
               28) +
           pad(std::to_string(d.lines.size()), 7) +
           pad(std::to_string(d.skipped_lines), 9) +
           (d.complete ? "yes" : "NO") + "\n";
  }

  // Health transitions across every node, merged order.
  {
    std::string section;
    for (const TimelineEntry& e : pm.timeline) {
      if (e.line.src != "trace" || e.line.kind != "health") continue;
      section += "  t=" + std::to_string(e.global_ns) + "  " +
                 pad(e.node, node_width) + "  " + e.line.group;
      if (!e.line.agent.empty() && e.line.agent != e.line.group)
        section += "/" + e.line.agent;
      if (!e.line.peer.empty()) section += " peer=" + e.line.peer;
      section += "  " + e.line.detail + "\n";
    }
    out += "\nhealth transitions:\n";
    out += section.empty() ? "  (none)\n" : section;
  }

  // Ledger attribution per accused peer, across every node's window.
  {
    // accused -> (kind -> count), plus observers seen.
    std::map<std::string, std::map<std::string, std::uint64_t>> accusations;
    std::map<std::string, std::map<std::string, std::uint64_t>> observers;
    for (const TimelineEntry& e : pm.timeline) {
      if (e.line.src != "ledger") continue;
      const std::string accused =
          e.line.peer.empty() ? "(unattributed)" : e.line.peer;
      ++accusations[accused][e.line.kind];
      ++observers[accused][e.node];
    }
    out += "\nledger attribution:\n";
    if (accusations.empty()) {
      out += "  (no refusals in any window)\n";
    } else {
      for (const auto& [accused, kinds] : accusations) {
        std::uint64_t total = 0;
        for (const auto& [kind, n] : kinds) total += n;
        out += "  accused " + accused + ": " + std::to_string(total) +
               " refusal(s)";
        std::string detail;
        for (const auto& [kind, n] : kinds) {
          if (!detail.empty()) detail += ", ";
          detail += kind + " x" + std::to_string(n);
        }
        out += " (" + detail + "), observed by";
        for (const auto& [node, n] : observers[accused]) out += " " + node;
        out += "\n";
      }
    }
  }

  // Hot profiler scopes per node (self-time order), window around the dump.
  for (const FlightDump& d : pm.dumps) {
    if (!d.has_profile || d.profile.scopes.empty() ||
        options.hot_scopes == 0)
      continue;
    std::vector<const std::pair<const std::string, obs::ProfStat>*> rows;
    for (const auto& entry : d.profile.scopes) rows.push_back(&entry);
    std::sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
      if (a->second.self_ns != b->second.self_ns)
        return a->second.self_ns > b->second.self_ns;
      return a->first < b->first;
    });
    if (rows.size() > options.hot_scopes) rows.resize(options.hot_scopes);
    out += "\nhot scopes on " + d.header.node + " (self ns):\n";
    for (const auto* row : rows) {
      out += "  " + pad(std::to_string(row->second.self_ns), 12) +
             row->first + " (x" + std::to_string(row->second.count) + ")\n";
    }
  }

  // Merged timeline tail: the causally ordered cross-node record.
  {
    const std::size_t n = pm.timeline.size();
    const std::size_t start =
        n > options.timeline_tail ? n - options.timeline_tail : 0;
    out += "\nmerged timeline";
    if (start > 0)
      out += " (last " + std::to_string(options.timeline_tail) + " of " +
             std::to_string(n) + ")";
    out += ":\n";
    if (n == 0) out += "  (empty)\n";
    for (std::size_t i = start; i < n; ++i) {
      const TimelineEntry& e = pm.timeline[i];
      out += "  t=" + pad(std::to_string(e.global_ns), 14) + " " +
             pad(e.node, node_width) + "  tick=" +
             pad(std::to_string(e.line.tick), 6) + " " +
             pm_detail::fmt_line(e.line) + "\n";
    }
  }
  return out;
}

/// JSONL export: one object per merged timeline entry, preceded by one
/// header object per dump. Every string goes through the shared escaper,
/// so hostile node/agent bytes survive.
inline std::string render_jsonl(const Postmortem& pm) {
  std::string out;
  for (const FlightDump& d : pm.dumps) {
    out += "{\"k\":\"node\",\"node\":";
    obs::append_json_string(out, d.header.node);
    out += ",\"incident\":";
    obs::append_json_string(out, d.header.incident);
    out += ",\"reason\":";
    obs::append_json_string(out, d.header.reason);
    out += ",\"trigger_tick\":" + std::to_string(d.header.trigger_tick);
    out += ",\"tick\":" + std::to_string(d.header.tick);
    out += ",\"wall_ns\":" + std::to_string(d.header.wall_ns);
    out += ",\"tick_ns\":" + std::to_string(d.header.tick_ns);
    out += ",\"complete\":";
    out += d.complete ? "true" : "false";
    out += ",\"skipped\":" + std::to_string(d.skipped_lines);
    out += "}\n";
  }
  for (const TimelineEntry& e : pm.timeline) {
    out += "{\"global_ns\":" + std::to_string(e.global_ns);
    out += ",\"node\":";
    obs::append_json_string(out, e.node);
    out += ",\"src\":";
    obs::append_json_string(out, e.line.src);
    out += ",\"tick\":" + std::to_string(e.line.tick);
    out += ",\"kind\":";
    obs::append_json_string(out, e.line.kind);
    out += ",\"group\":";
    obs::append_json_string(out, e.line.group);
    if (!e.line.agent.empty()) {
      out += ",\"agent\":";
      obs::append_json_string(out, e.line.agent);
    }
    if (!e.line.peer.empty()) {
      out += ",\"peer\":";
      obs::append_json_string(out, e.line.peer);
    }
    if (!e.line.detail.empty()) {
      out += ",\"detail\":";
      obs::append_json_string(out, e.line.detail);
    }
    out += ",\"value\":" + std::to_string(e.line.value);
    out += "}\n";
  }
  return out;
}

}  // namespace enclaves::postmortem
