// Rendering core of enclaves_top (tools/enclaves_top.cpp): turns a metrics
// snapshot + health verdict + rate series + ledger tail into the text
// dashboard, as pure functions over an explicit TopFrame.
//
// Header-only and filesystem/socket-free for the same reason as
// bench_diff_lib.h: the golden test renders exactly what the binary renders.
// The CLI owns the two ways of *filling* a frame that need I/O (polling
// /metrics, tailing dump files); frame_from_replay() lives here because it
// is pure too — it takes the dump file *contents*, not paths.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/export.h"
#include "obs/health.h"
#include "obs/json_reader.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "util/result.h"

namespace enclaves::top {

/// Parsed FlightRecorder::status_json() body (the /flight route): the
/// source of the incident banner. `present` is false until a status was
/// parsed; `dumps == 0` means the recorder is armed but never triggered.
struct FlightStatus {
  bool present = false;
  std::string node;
  std::string incident;
  std::string last_reason;
  std::string last_path;
  std::uint64_t dumps = 0;
  std::uint64_t last_trigger_tick = 0;
  std::uint64_t last_wall_ns = 0;
};

/// Parses a /flight body. Errc::malformed on anything unparseable (a 404
/// body, a torn poll) — callers treat that as "no recorder".
inline Result<FlightStatus> parse_flight_status(std::string_view json) {
  obs::JsonCursor c{json};
  if (!c.consume('{')) return Errc::malformed;
  FlightStatus status;
  if (!c.peek('}')) {
    do {
      auto key = c.parse_string();
      if (!key.ok()) return key.error();
      if (!c.consume(':')) return Errc::malformed;
      c.skip_ws();
      if (c.peek('"')) {
        auto v = c.parse_string();
        if (!v.ok()) return v.error();
        if (*key == "node") status.node = *std::move(v);
        else if (*key == "incident") status.incident = *std::move(v);
        else if (*key == "last_reason") status.last_reason = *std::move(v);
        else if (*key == "last_path") status.last_path = *std::move(v);
      } else {
        auto v = c.parse_uint();
        if (!v.ok()) return v.error();
        if (*key == "dumps") status.dumps = *v;
        else if (*key == "last_trigger_tick") status.last_trigger_tick = *v;
        else if (*key == "last_wall_ns") status.last_wall_ns = *v;
      }
    } while (c.consume(','));
  }
  if (!c.consume('}')) return Errc::malformed;
  status.present = true;
  return status;
}

struct TopOptions {
  std::size_t spark_width = 24;   // max points drawn per sparkline
  std::size_t ledger_tail = 6;    // ledger lines kept in the frame
  std::size_t hot_scopes = 5;     // profiled scopes shown, self-time order
  obs::HealthConfig health;       // used by frame_from_replay's monitor
};

/// Everything one dashboard refresh renders. Poll mode fills this from an
/// Aggregator + HealthMonitor it drives itself; replay mode from dump files.
struct TopFrame {
  Tick tick = 0;
  obs::HealthVerdict verdict;
  obs::MetricsSnapshot snapshot;
  /// Display label -> per-sample deltas, oldest first (sparkline feed).
  std::map<std::string, std::vector<std::uint64_t>> rates;
  std::vector<std::string> ledger_tail;  // newest last, pre-rendered lines
  obs::ProfSnapshot profile;  // wall-clock profile (empty = panel hidden)
  FlightStatus flight;  // incident banner source (absent = banner hidden)
};

/// Unicode block-element sparkline of `xs` (oldest first), at most `width`
/// points (newest kept). All-zero input renders all-low, empty input "".
inline std::string sparkline(const std::vector<std::uint64_t>& xs,
                             std::size_t width) {
  static constexpr std::string_view kBlocks[] = {"▁", "▂", "▃", "▄",
                                                 "▅", "▆", "▇", "█"};
  if (xs.empty() || width == 0) return "";
  const std::size_t start = xs.size() > width ? xs.size() - width : 0;
  std::uint64_t max = 0;
  for (std::size_t i = start; i < xs.size(); ++i) max = std::max(max, xs[i]);
  std::string out;
  for (std::size_t i = start; i < xs.size(); ++i) {
    const std::size_t level =
        max == 0 ? 0 : static_cast<std::size_t>((xs[i] * 7) / max);
    out += kBlocks[level];
  }
  return out;
}

namespace top_detail {

inline std::string pad(std::string_view s, std::size_t width) {
  std::string out(s);
  while (out.size() < width) out += ' ';
  return out;
}

inline std::uint64_t counter_at(const obs::MetricsSnapshot& snap,
                                std::string_view group,
                                std::string_view agent,
                                std::string_view name) {
  auto it = snap.counters.find(obs::MetricKey{
      std::string(group), std::string(agent), std::string(name)});
  return it == snap.counters.end() ? 0 : it->second;
}

inline std::int64_t gauge_at(const obs::MetricsSnapshot& snap,
                             std::string_view group, std::string_view agent,
                             std::string_view name) {
  auto it = snap.gauges.find(obs::MetricKey{
      std::string(group), std::string(agent), std::string(name)});
  return it == snap.gauges.end() ? 0 : it->second;
}

// Same human scale as ProfSnapshot::to_report(), local so the dashboard
// stays a pure function of the frame.
inline std::string fmt_ns(std::uint64_t ns) {
  char buf[32];
  if (ns < 10'000ull)
    std::snprintf(buf, sizeof buf, "%lluns",
                  static_cast<unsigned long long>(ns));
  else if (ns < 10'000'000ull)
    std::snprintf(buf, sizeof buf, "%.1fus", static_cast<double>(ns) / 1e3);
  else if (ns < 10'000'000'000ull)
    std::snprintf(buf, sizeof buf, "%.2fms", static_cast<double>(ns) / 1e6);
  else
    std::snprintf(buf, sizeof buf, "%.2fs", static_cast<double>(ns) / 1e9);
  return buf;
}

}  // namespace top_detail

/// The dashboard: overall banner, per-group tables (state, per-peer window
/// evidence, cumulative suspicion), rate sparklines, ledger tail. Pure and
/// deterministic — golden-tested byte-for-byte.
inline std::string render_frame(const TopFrame& frame,
                                const TopOptions& options = {}) {
  using top_detail::pad;
  std::string out;
  out += "enclaves_top — tick " + std::to_string(frame.tick) + " (" +
         std::to_string(frame.verdict.windows) + " window(s))  overall: " +
         std::string(obs::health_state_name(frame.verdict.worst())) + "\n";

  // Incident banner: the last flight-recorder dump, if any — verdict at
  // the trigger, shared incident id, and how stale the blob is.
  if (frame.flight.present && frame.flight.dumps > 0) {
    const std::uint64_t age =
        frame.tick > frame.flight.last_trigger_tick
            ? frame.tick - frame.flight.last_trigger_tick
            : 0;
    out += "INCIDENT " +
           (frame.flight.incident.empty() ? std::string("(unnamed)")
                                          : frame.flight.incident) +
           " — " + frame.flight.last_reason + " on " + frame.flight.node +
           ", dump #" + std::to_string(frame.flight.dumps) + " at tick " +
           std::to_string(frame.flight.last_trigger_tick) + " (age " +
           std::to_string(age) + " tick(s))\n";
  }

  for (const auto& [group, gh] : frame.verdict.groups) {
    out += "\ngroup " + group + ": " +
           std::string(obs::health_state_name(gh.state));
    if (!gh.why.empty()) out += " — " + gh.why;
    out += "\n";
    out += "  " + pad("peer", 8) + pad("state", 14) + pad("susp", 6) +
           pad("rt/ref/susp/part", 18) + pad("oplog", 7) + "why\n";
    for (const auto& [peer, ph] : gh.peers) {
      const std::string window = std::to_string(ph.window_retransmits) + "/" +
                                 std::to_string(ph.window_refusals) + "/" +
                                 std::to_string(ph.window_suspicion) + "/" +
                                 std::to_string(ph.window_partition_signals);
      // Offline op-log queue depth (PROTOCOL.md §12): non-zero only while
      // the member is disconnected and queueing; drains to 0 on heal.
      const std::string oplog = std::to_string(
          top_detail::gauge_at(frame.snapshot, group, peer, "oplog_depth"));
      out += "  " + pad(peer, 8) + pad(obs::health_state_name(ph.state), 14) +
             pad(std::to_string(ph.suspicion), 6) + pad(window, 18);
      out += ph.why.empty() ? oplog : pad(oplog, 7) + ph.why;
      out += "\n";
    }
  }

  // Federation plane (src/fed/): one row per shard that reported any fed.*
  // metric. The agent dimension of the "fed" metric group IS the shard id,
  // so the snapshot alone says who owns what and who is mid-migration.
  {
    std::vector<std::string> shards;
    auto note_shard = [&shards](const obs::MetricKey& key) {
      if (key.group != "fed") return;
      if (std::find(shards.begin(), shards.end(), key.agent) == shards.end())
        shards.push_back(key.agent);
    };
    for (const auto& [key, value] : frame.snapshot.counters) note_shard(key);
    for (const auto& [key, value] : frame.snapshot.gauges) note_shard(key);
    std::sort(shards.begin(), shards.end());
    if (!shards.empty()) {
      out += "\nfederation shards:\n";
      out += "  " + pad("shard", 8) + pad("owned", 7) + pad("inflight", 10) +
             pad("mig s/c/r/a", 13) + pad("redirects", 11) + "stale\n";
      for (const std::string& s : shards) {
        const std::string mig =
            std::to_string(
                top_detail::counter_at(frame.snapshot, "fed", s,
                                       "migrations_started_total")) +
            "/" +
            std::to_string(
                top_detail::counter_at(frame.snapshot, "fed", s,
                                       "migrations_completed_total")) +
            "/" +
            std::to_string(
                top_detail::counter_at(frame.snapshot, "fed", s,
                                       "migrations_refused_total")) +
            "/" +
            std::to_string(top_detail::counter_at(
                frame.snapshot, "fed", s, "migrations_aborted_total"));
        out += "  " + pad(s, 8) +
               pad(std::to_string(top_detail::gauge_at(frame.snapshot, "fed",
                                                       s, "groups_owned")),
                   7) +
               pad(std::to_string(
                       top_detail::gauge_at(frame.snapshot, "fed", s,
                                            "migrations_inflight")),
                   10) +
               pad(mig, 13) +
               pad(std::to_string(
                       top_detail::counter_at(frame.snapshot, "fed", s,
                                              "redirects_sent_total")),
                   11) +
               std::to_string(top_detail::counter_at(
                   frame.snapshot, "fed", s, "dir_stale_claims_total")) +
               "\n";
      }
    }
  }

  if (!frame.rates.empty()) {
    out += "\nrates (per sample):\n";
    for (const auto& [label, xs] : frame.rates) {
      std::uint64_t total = 0;
      for (std::uint64_t x : xs) total += x;
      out += "  " + pad(label, 16) + sparkline(xs, options.spark_width) +
             "  (+" + std::to_string(total) + ")\n";
    }
  }

  // Wall-clock profile (obs/prof.h): the top self-time scopes, so a replay
  // of a dumped run answers "where did the time go" next to "what happened".
  if (!frame.profile.scopes.empty() && options.hot_scopes > 0) {
    std::vector<const std::pair<const std::string, obs::ProfStat>*> rows;
    for (const auto& entry : frame.profile.scopes) rows.push_back(&entry);
    std::sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
      if (a->second.self_ns != b->second.self_ns)
        return a->second.self_ns > b->second.self_ns;
      return a->first < b->first;
    });
    if (rows.size() > options.hot_scopes) rows.resize(options.hot_scopes);
    std::size_t width = 5;  // "scope"
    for (const auto* row : rows) width = std::max(width, row->first.size());
    out += "\nhot scopes (self time):\n";
    out += "  " + pad("scope", width) + "  " + pad("count", 8) +
           pad("self", 10) + "total\n";
    for (const auto* row : rows) {
      out += "  " + pad(row->first, width) + "  " +
             pad(std::to_string(row->second.count), 8) +
             pad(top_detail::fmt_ns(row->second.self_ns), 10) +
             top_detail::fmt_ns(row->second.total_ns) + "\n";
    }
  }

  if (!frame.ledger_tail.empty()) {
    out += "\nledger tail:\n";
    for (const std::string& line : frame.ledger_tail)
      out += "  " + line + "\n";
  }
  return out;
}

/// Builds a frame from dumped artifacts (ENCLAVES_OBS_OUT_DIR contents):
/// `metrics_json` is a MetricsSnapshot::to_json() body, `ledger_jsonl` a
/// SecurityLedger::to_jsonl() body (may be empty), `profile_json` a
/// ProfSnapshot::to_json() body (may be empty — pre-profiler dumps lack
/// it, and the hot-scopes panel simply stays hidden). The whole run becomes
/// a single health window — cumulative totals judged against the
/// thresholds, which is the honest reading of an after-the-fact dump.
inline Result<TopFrame> frame_from_replay(std::string_view metrics_json,
                                          std::string_view ledger_jsonl,
                                          std::string_view profile_json = {},
                                          const TopOptions& options = {}) {
  auto snapshot = obs::MetricsSnapshot::from_json(metrics_json);
  if (!snapshot) return snapshot.error();

  TopFrame frame;
  frame.snapshot = *snapshot;
  if (!profile_json.empty()) {
    auto profile = obs::ProfSnapshot::from_json(profile_json);
    if (!profile) return profile.error();
    frame.profile = *std::move(profile);
  }

  obs::HealthMonitor monitor(options.health);
  monitor.observe(options.health.window, frame.snapshot);
  frame.tick = options.health.window;
  frame.verdict = monitor.verdict();

  for (std::size_t pos = 0; pos < ledger_jsonl.size();) {
    std::size_t eol = ledger_jsonl.find('\n', pos);
    if (eol == std::string_view::npos) eol = ledger_jsonl.size();
    if (eol > pos)
      frame.ledger_tail.emplace_back(ledger_jsonl.substr(pos, eol - pos));
    pos = eol + 1;
  }
  if (frame.ledger_tail.size() > options.ledger_tail) {
    frame.ledger_tail.erase(
        frame.ledger_tail.begin(),
        frame.ledger_tail.end() - static_cast<std::ptrdiff_t>(
                                      options.ledger_tail));
  }
  return frame;
}

}  // namespace enclaves::top
