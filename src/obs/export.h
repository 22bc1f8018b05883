// Runtime metrics exposition: Prometheus text rendering of MetricsRegistry
// snapshots, a parser for the same format (used by tests and enclaves_top),
// and a rolling-window Aggregator that turns cumulative counters into
// per-window rates and deltas.
//
// The JSON export in metrics.h is an archival format — stable, diffable,
// committed to goldens. This file is the *live* format: what a scraper sees
// on GET /metrics while the process is still running. Rendering is a pure
// function of a MetricsSnapshot, so everything here is testable without a
// socket; the socket lives in export_server.h.
//
// Label escaping follows the Prometheus text format exactly (`\\`, `\"`,
// `\n` — and only those; other bytes pass through raw), mirroring the
// json_escape.h discipline: one definition, byte-exact round-trips, hostile
// agent ids survive unmangled.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "util/clock.h"
#include "util/result.h"

namespace enclaves::obs {

// ---------------------------------------------------------------------------
// Label escaping.

/// Appends `value` to `out` escaped for use inside a Prometheus label value
/// (the quotes are NOT added by this function). Escapes backslash, double
/// quote, and newline — the full set the text format defines; every other
/// byte, control bytes included, passes through untouched.
void append_prom_label_value(std::string& out, std::string_view value);

/// Convenience wrapper returning the escaped form.
std::string prom_escape(std::string_view value);

/// Inverse of prom_escape. Errc::malformed on a dangling or unknown escape.
Result<std::string> prom_unescape(std::string_view value);

/// Metric/label names must match [a-zA-Z_:][a-zA-Z0-9_:]*; every violating
/// byte is replaced with '_' (and a leading digit is prefixed with '_').
std::string prom_sanitize_name(std::string_view name);

// ---------------------------------------------------------------------------
// Rendering.

/// Renders a snapshot in the Prometheus text exposition format (version
/// 0.0.4): one `# HELP` + `# TYPE` header per family, every family name
/// prefixed `enclaves_`, samples labeled {group="...",agent="..."}.
/// Counters render as `counter`, gauges as `gauge`, histograms as
/// `histogram` with cumulative `_bucket{le="..."}` series, `+Inf`, `_sum`
/// and `_count` — plus a companion
/// `<name>_quantile{quantile="0.5"|"0.9"|"0.99"}` gauge family interpolated
/// from the buckets (HistogramData::quantile).
std::string render_prometheus(const MetricsSnapshot& snapshot);

// ---------------------------------------------------------------------------
// Parsing — the verification half of the exposition contract. enclaves_top
// rebuilds counters from a scraped /metrics body with this, and tests assert
// render/parse round-trips byte-exactly for hostile label values.

struct PromSample {
  std::string name;  // full sample name, suffixes included (foo_bucket, ...)
  std::map<std::string, std::string> labels;
  double value = 0;

  friend bool operator==(const PromSample&, const PromSample&) = default;
};

struct PromFamily {
  std::string name;  // family name from the TYPE line
  std::string type;  // "counter" | "gauge" | "histogram" | ...
  std::string help;
  std::vector<PromSample> samples;

  friend bool operator==(const PromFamily&, const PromFamily&) = default;
};

/// Parses the format render_prometheus emits (and any well-formed subset of
/// the Prometheus text format: HELP/TYPE comments, samples with optional
/// label sets, integer or floating-point values). Errc::malformed on bad
/// escapes, bad names, unparseable values, or samples before any TYPE line.
Result<std::vector<PromFamily>> parse_prometheus(std::string_view text);

/// Reconstructs counters and gauges from parsed families whose names carry
/// `prefix` (histogram series are skipped — buckets do not reconstruct a
/// HistogramData losslessly). The inverse of render_prometheus for the
/// counter/gauge subset; used by enclaves_top's polling mode.
Result<MetricsSnapshot> snapshot_from_prometheus(
    const std::vector<PromFamily>& families, std::string_view prefix);

// ---------------------------------------------------------------------------
// Rolling-window aggregation.

/// Keeps the last `max_samples` (tick, snapshot) pairs and answers delta /
/// rate questions over the retained window. Counters that shrink between
/// samples (a registry reset, a process restart behind the same endpoint)
/// clamp to 0 rather than going negative.
class Aggregator {
 public:
  explicit Aggregator(std::size_t max_samples = 60) : max_(max_samples) {}

  void observe(Tick now, MetricsSnapshot snapshot);

  std::size_t samples() const { return window_.size(); }
  bool empty() const { return window_.empty(); }
  /// Ticks spanned by the retained window (0 with fewer than two samples).
  Tick window_ticks() const;
  const MetricsSnapshot& latest() const;

  /// Counter increase between the oldest and newest retained samples.
  std::uint64_t delta(const MetricKey& key) const;
  /// Same, summed over every (group, agent) carrying `name`.
  std::uint64_t delta_total(std::string_view name) const;
  /// delta() divided by window_ticks() (0 when the window is degenerate).
  double rate_per_tick(const MetricKey& key) const;

  /// Per-adjacent-sample increases, oldest first — size() == samples()-1.
  /// The sparkline feed.
  std::vector<std::uint64_t> series(const MetricKey& key) const;
  std::vector<std::uint64_t> series_total(std::string_view name) const;

  /// Gauge value at the newest sample (0 when absent).
  std::int64_t latest_gauge(const MetricKey& key) const;

 private:
  struct Sample {
    Tick tick = 0;
    MetricsSnapshot snapshot;
  };

  static std::uint64_t counter_in(const MetricsSnapshot& snap,
                                  const MetricKey& key);
  static std::uint64_t total_in(const MetricsSnapshot& snap,
                                std::string_view name);

  std::size_t max_;
  std::deque<Sample> window_;
};

}  // namespace enclaves::obs
