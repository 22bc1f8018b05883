// Perf-regression diffing for the BENCH_<tag>.json blobs that every
// google-benchmark binary writes (bench/bench_json.h).
//
// Two comparison surfaces:
//   - ns/op per benchmark: a relative tolerance (machines differ, CI
//     runners doubly so) — over-tolerance regressions warn by default and
//     fail only with fail_on_time, since a committed baseline rarely comes
//     from the same hardware as the run under test.
//   - protocol counters: these are *semantics*, not speed. In exact mode
//     any value change fails; in presence mode (the CI default, because
//     counter magnitudes scale with benchmark iteration counts) a counter
//     that was live in the baseline but missing or zero in the candidate
//     fails — that is how silently-lost instrumentation or a protocol path
//     that stopped firing shows up.
//   - profiled scopes (obs/prof.h): presence gates like counters — a hot
//     path that was profiled in the baseline but records nothing in the
//     candidate fails (PROF_SCOPE silently lost, or the path stopped
//     firing). Per-call self-time drift beyond the tolerance warns, like
//     ns/op: wall-clock attribution, not wall-clock gating.
// Plus ratio gates (--max-ratio) inside the candidate alone: the real_time
// of one row over another's, both from the same run on the same machine,
// so the gate can fail hard where a cross-machine ns/op comparison cannot.
//
// Header-only so the unit tests exercise exactly what the binary runs.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json_reader.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "util/result.h"

namespace enclaves::tools {

struct BenchResult {
  std::string name;
  std::uint64_t iterations = 0;
  double real_time = 0;  // per iteration, in `time_unit`
  double cpu_time = 0;
  std::string time_unit;
};

/// One parsed BENCH_<tag>.json blob. The profile section is optional on
/// parse (blobs predating the profiler plane lack it) and empty when the
/// run had the sinks detached.
struct BenchBlob {
  std::string bench;
  bool metrics_attached = false;
  std::string sha256_kernel;  // bench_crypto only: "shani" or "portable"
  std::vector<BenchResult> results;
  obs::MetricsSnapshot metrics;
  obs::ProfSnapshot profile;

  static Result<BenchBlob> parse(std::string_view json);
};

namespace diff_detail {

inline Result<BenchResult> parse_result_row(obs::JsonCursor& c) {
  if (!c.consume('{')) return Errc::malformed;
  BenchResult row;
  if (!c.peek('}')) {
    do {
      auto key = c.parse_string();
      if (!key.ok()) return key.error();
      if (!c.consume(':')) return Errc::malformed;
      if (*key == "name") {
        auto v = c.parse_string();
        if (!v.ok()) return v.error();
        row.name = *std::move(v);
      } else if (*key == "iterations") {
        auto v = c.parse_uint();
        if (!v.ok()) return v.error();
        row.iterations = *v;
      } else if (*key == "real_time") {
        auto v = c.parse_number();
        if (!v.ok()) return v.error();
        row.real_time = *v;
      } else if (*key == "cpu_time") {
        auto v = c.parse_number();
        if (!v.ok()) return v.error();
        row.cpu_time = *v;
      } else if (*key == "time_unit") {
        auto v = c.parse_string();
        if (!v.ok()) return v.error();
        row.time_unit = *std::move(v);
      } else {
        return make_error(Errc::malformed, "unknown result field: " + *key);
      }
    } while (c.consume(','));
  }
  if (!c.consume('}')) return Errc::malformed;
  return row;
}

}  // namespace diff_detail

inline Result<BenchBlob> BenchBlob::parse(std::string_view json) {
  obs::JsonCursor c{json};
  if (!c.consume('{')) return Errc::malformed;
  BenchBlob blob;
  bool saw_results = false, saw_metrics = false;
  if (!c.peek('}')) {
    do {
      auto key = c.parse_string();
      if (!key.ok()) return key.error();
      if (!c.consume(':')) return Errc::malformed;
      if (*key == "bench") {
        auto v = c.parse_string();
        if (!v.ok()) return v.error();
        blob.bench = *std::move(v);
      } else if (*key == "metrics_attached") {
        auto v = c.parse_bool();
        if (!v.ok()) return v.error();
        blob.metrics_attached = *v;
      } else if (*key == "sha256_kernel") {
        auto v = c.parse_string();
        if (!v.ok()) return v.error();
        blob.sha256_kernel = *std::move(v);
      } else if (*key == "results") {
        if (!c.consume('[')) return Errc::malformed;
        if (!c.peek(']')) {
          do {
            auto row = diff_detail::parse_result_row(c);
            if (!row.ok()) return row.error();
            blob.results.push_back(*std::move(row));
          } while (c.consume(','));
        }
        if (!c.consume(']')) return Errc::malformed;
        saw_results = true;
      } else if (*key == "metrics") {
        auto raw = c.parse_raw_object();
        if (!raw.ok()) return raw.error();
        auto snapshot = obs::MetricsSnapshot::from_json(*raw);
        if (!snapshot.ok()) return snapshot.error();
        blob.metrics = *std::move(snapshot);
        saw_metrics = true;
      } else if (*key == "profile") {
        auto raw = c.parse_raw_object();
        if (!raw.ok()) return raw.error();
        auto profile = obs::ProfSnapshot::from_json(*raw);
        if (!profile.ok()) return profile.error();
        blob.profile = *std::move(profile);
      } else {
        return make_error(Errc::malformed, "unknown blob field: " + *key);
      }
    } while (c.consume(','));
  }
  if (!c.consume('}')) return Errc::malformed;
  if (!c.at_end()) return Errc::malformed;  // trailing garbage
  if (blob.bench.empty() || !saw_results || !saw_metrics)
    return make_error(Errc::malformed, "missing blob section");
  return blob;
}

enum class CounterMode {
  presence,  // baseline-live counters must stay live (CI default)
  exact,     // values must match bit-for-bit
};

struct DiffOptions {
  double time_tolerance = 0.30;  // candidate may be 30% slower before noise
  CounterMode counters = CounterMode::presence;
  bool fail_on_time = false;  // ns/op regressions warn-only by default
  // Per-call self-time drift tolerance for profiled scopes; beyond it the
  // scope warns (wall clocks differ across machines — presence is the
  // load-bearing check, attribution drift is advisory).
  double self_time_tolerance = 0.50;
};

struct DiffReport {
  std::vector<std::string> failures;
  std::vector<std::string> warnings;
  std::vector<std::string> notes;

  bool failed() const { return !failures.empty(); }

  std::string to_string() const {
    std::string out;
    for (const auto& f : failures) out += "FAIL  " + f + "\n";
    for (const auto& w : warnings) out += "warn  " + w + "\n";
    for (const auto& n : notes) out += "note  " + n + "\n";
    if (out.empty()) out = "ok    no regressions\n";
    return out;
  }
};

inline std::string format_key(const obs::MetricKey& key) {
  return key.group + "/" + key.agent + "/" + key.name;
}

inline DiffReport diff_blobs(const BenchBlob& baseline,
                             const BenchBlob& candidate,
                             const DiffOptions& opts = {}) {
  DiffReport report;
  if (baseline.bench != candidate.bench)
    report.failures.push_back("blob tag mismatch: baseline \"" +
                              baseline.bench + "\" vs candidate \"" +
                              candidate.bench + "\"");
  if (baseline.metrics_attached && !candidate.metrics_attached)
    report.failures.push_back(
        "baseline recorded metrics but the candidate ran with the sink "
        "detached (ENCLAVES_BENCH_NO_METRICS?)");
  if (baseline.sha256_kernel != candidate.sha256_kernel)
    report.notes.push_back("sha256_kernel: baseline \"" +
                           baseline.sha256_kernel + "\", candidate \"" +
                           candidate.sha256_kernel +
                           "\" (SHA-256 ns/op compare different kernels)");

  // --- ns/op, per benchmark name.
  for (const BenchResult& base : baseline.results) {
    const BenchResult* cand = nullptr;
    for (const BenchResult& r : candidate.results)
      if (r.name == base.name) {
        cand = &r;
        break;
      }
    if (!cand) {
      report.failures.push_back("benchmark disappeared: " + base.name);
      continue;
    }
    if (base.real_time <= 0) continue;
    const double ratio = cand->real_time / base.real_time;
    char buf[256];
    if (ratio > 1.0 + opts.time_tolerance) {
      std::snprintf(buf, sizeof buf,
                    "%s: %.1f -> %.1f %s/op (+%.0f%%, tolerance %.0f%%)",
                    base.name.c_str(), base.real_time, cand->real_time,
                    cand->time_unit.c_str(), (ratio - 1.0) * 100,
                    opts.time_tolerance * 100);
      (opts.fail_on_time ? report.failures : report.warnings)
          .push_back(buf);
    } else if (ratio < 1.0 - opts.time_tolerance) {
      std::snprintf(buf, sizeof buf, "%s: improved %.1f -> %.1f %s/op",
                    base.name.c_str(), base.real_time, cand->real_time,
                    cand->time_unit.c_str());
      report.notes.push_back(buf);
    }
  }
  for (const BenchResult& r : candidate.results) {
    bool known = false;
    for (const BenchResult& base : baseline.results)
      if (base.name == r.name) {
        known = true;
        break;
      }
    if (!known) report.notes.push_back("new benchmark: " + r.name);
  }

  // --- protocol counters.
  for (const auto& [key, base_value] : baseline.metrics.counters) {
    auto it = candidate.metrics.counters.find(key);
    const std::uint64_t cand_value =
        it == candidate.metrics.counters.end() ? 0 : it->second;
    if (opts.counters == CounterMode::exact) {
      if (cand_value != base_value)
        report.failures.push_back(
            "counter " + format_key(key) + ": " + std::to_string(base_value) +
            " -> " + std::to_string(cand_value));
    } else if (base_value > 0 && cand_value == 0) {
      report.failures.push_back("counter went dark: " + format_key(key) +
                                " (baseline " + std::to_string(base_value) +
                                ", candidate 0)");
    }
  }
  for (const auto& [key, value] : candidate.metrics.counters) {
    if (value > 0 && !baseline.metrics.counters.count(key))
      report.notes.push_back("new counter: " + format_key(key));
  }

  // --- profiled scopes (obs/prof.h). Presence fails like counters; a run
  // that recorded a profile in the baseline but none at all in the
  // candidate means every baseline scope goes dark, which is the right
  // severity for losing the whole plane.
  for (const auto& [path, base_stat] : baseline.profile.scopes) {
    if (base_stat.count == 0) continue;
    auto it = candidate.profile.scopes.find(path);
    if (it == candidate.profile.scopes.end() || it->second.count == 0) {
      report.failures.push_back(
          "profile scope went dark: " + path + " (baseline " +
          std::to_string(base_stat.count) + " calls, candidate 0)");
      continue;
    }
    const obs::ProfStat& cand_stat = it->second;
    const double base_self = static_cast<double>(base_stat.self_ns) /
                             static_cast<double>(base_stat.count);
    const double cand_self = static_cast<double>(cand_stat.self_ns) /
                             static_cast<double>(cand_stat.count);
    if (base_self > 0 &&
        cand_self > base_self * (1.0 + opts.self_time_tolerance)) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "profile scope %s: %.0f -> %.0f ns self/call "
                    "(+%.0f%%, tolerance %.0f%%)",
                    path.c_str(), base_self, cand_self,
                    (cand_self / base_self - 1.0) * 100,
                    opts.self_time_tolerance * 100);
      report.warnings.push_back(buf);
    }
  }
  for (const auto& [path, stat] : candidate.profile.scopes) {
    if (stat.count > 0 && !baseline.profile.scopes.count(path))
      report.notes.push_back("new profile scope: " + path);
  }
  return report;
}

/// A --max-ratio gate: "NUM/DEN:LIMIT" holds the candidate's real_time of
/// row NUM over row DEN to at most LIMIT (e.g. instrumented over bare).
struct RatioGate {
  std::string num, den;
  double limit = 0;

  static Result<RatioGate> parse(std::string_view spec) {
    const std::size_t colon = spec.rfind(':');
    const std::size_t slash = spec.find('/');
    if (colon == spec.npos || slash > colon ||
        spec.find('/', slash + 1) < colon)
      return make_error(Errc::malformed, "want NUM/DEN:LIMIT");
    const std::string limit(spec.substr(colon + 1));
    char* end = nullptr;
    RatioGate gate{std::string(spec.substr(0, slash)),
                   std::string(spec.substr(slash + 1, colon - slash - 1)),
                   std::strtod(limit.c_str(), &end)};
    if (limit.empty() || *end != '\0' || !(gate.limit > 0))
      return make_error(Errc::malformed, "bad ratio limit: " + limit);
    return gate;
  }
};

/// Checks one ratio gate against `candidate`: a failure in `report` when
/// the ratio exceeds the limit, a note with the measured ratio otherwise.
/// An error (a usage error, not a regression) when a row is missing or the
/// two rows are timed in different units.
inline Status check_ratio(const BenchBlob& candidate, const RatioGate& gate,
                          DiffReport& report) {
  auto row = [&candidate](const std::string& name) -> const BenchResult* {
    for (const BenchResult& r : candidate.results)
      if (r.name == name) return &r;
    return nullptr;
  };
  const BenchResult* num = row(gate.num);
  const BenchResult* den = row(gate.den);
  if (!num || !den) {
    const std::string& missing = num ? gate.den : gate.num;
    return make_error(Errc::malformed, "row not in the candidate: " + missing);
  }
  if (num->time_unit != den->time_unit) {
    return make_error(Errc::malformed, "rows timed in different units: " +
                                           num->time_unit + ", " +
                                           den->time_unit);
  }
  if (den->real_time <= 0)
    return make_error(Errc::malformed, "zero time in row " + den->name);
  const double ratio = num->real_time / den->real_time;
  char buf[512];
  std::snprintf(buf, sizeof buf, "ratio %s / %s = %.3f (limit %.3f)",
                num->name.c_str(), den->name.c_str(), ratio, gate.limit);
  (ratio > gate.limit ? report.failures : report.notes).push_back(buf);
  return Status::success();
}

}  // namespace enclaves::tools
