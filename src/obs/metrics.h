// Protocol metrics: a zero-dependency registry of monotonic counters,
// gauges, and fixed-bucket histograms, keyed by (group, agent, name).
//
// The intrusion-tolerance argument (DSN'01 §3.2, §5) rests on per-message
// properties — freshness, origin authentication, in-order no-duplicate
// delivery — that were previously only assertable at the end of a scenario.
// The metrics layer makes a run's dynamics (retransmits, suspicions, rekeys,
// drops) first-class and machine-readable: tests cross-check counters
// against fault schedules, and benchmarks export them alongside ns/op.
//
// Cost model (docs/OBSERVABILITY.md): the library records nothing unless a
// sink is attached. Every site reduces to one atomic load and a branch when
// no MetricsRegistry is installed — no allocation, no locking, no
// formatting. The registry stores each key once, as atomic cells whose
// addresses never move. A handle (Counter, Histogram, obs::EventCounters)
// resolves its cell once under the registry mutex and afterwards bumps it
// with one relaxed atomic add: no string, no lock, no map lookup. The
// string-keyed helpers resolve on every call and suit cold sites.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace enclaves::obs {

/// Identity of one metric: which group it describes, which agent recorded
/// it, and the metric name. Agents outside any group (transports, crypto
/// providers) use a fixed group such as "net" or "crypto".
struct MetricKey {
  std::string group;
  std::string agent;
  std::string name;

  auto operator<=>(const MetricKey&) const = default;
};

/// Plain-data histogram contents: `bounds[i]` is the inclusive upper edge of
/// bucket i (values v with v <= bounds[i] land in the first such bucket);
/// values above the last edge land in `overflow`.
struct HistogramData {
  std::vector<std::uint64_t> bounds;
  std::vector<std::uint64_t> counts;  // same length as bounds
  std::uint64_t overflow = 0;
  std::uint64_t count = 0;  // total observations
  std::uint64_t sum = 0;    // sum of observed values

  /// Quantile estimate by linear interpolation inside the bucket that
  /// contains the q-th observation (q clamped to [0, 1]). The estimate for
  /// bucket i interpolates over (bounds[i-1], bounds[i]] — the layout's
  /// resolution bounds the error. Observations in `overflow` clamp to the
  /// last edge (the histogram does not retain their magnitude). Returns 0
  /// for an empty histogram.
  double quantile(double q) const;

  friend bool operator==(const HistogramData&, const HistogramData&) =
      default;
};

/// An immutable copy of a registry's contents, cheap to diff and export.
struct MetricsSnapshot {
  std::map<MetricKey, std::uint64_t> counters;
  std::map<MetricKey, std::int64_t> gauges;
  std::map<MetricKey, HistogramData> histograms;

  /// Stable JSON export (sorted by key; suitable for committing/diffing).
  std::string to_json() const;

  /// Parses the format to_json emits. Whitespace-tolerant; key order within
  /// each entry object is free. Errc::malformed on anything unparseable.
  static Result<MetricsSnapshot> from_json(std::string_view json);

  friend bool operator==(const MetricsSnapshot&, const MetricsSnapshot&) =
      default;
};

/// Default histogram edges: powers of two from 1 to 2^20 — wide enough for
/// both payload sizes in bytes and latencies in ticks.
const std::vector<std::uint64_t>& default_histogram_bounds();

/// A histogram's live cells, laid out at creation: one bucket per edge
/// plus a last overflow bucket.
struct HistogramCell {
  explicit HistogramCell(const std::vector<std::uint64_t>& edges)
      : bounds(edges), buckets(edges.size() + 1) {}
  void observe(std::uint64_t value);
  const std::vector<std::uint64_t> bounds;
  std::vector<std::atomic<std::uint64_t>> buckets;
  std::atomic<std::uint64_t> count{0}, sum{0};
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  /// Monotonic counter increment (creates the counter at 0 on first use).
  void add(std::string_view group, std::string_view agent,
           std::string_view name, std::uint64_t delta = 1);

  /// Gauge set / delta (creates at 0 on first use).
  void set_gauge(std::string_view group, std::string_view agent,
                 std::string_view name, std::int64_t value);
  void add_gauge(std::string_view group, std::string_view agent,
                 std::string_view name, std::int64_t delta);

  /// Histogram observation. The bucket layout is fixed at the histogram's
  /// first observation: the two-argument form uses
  /// default_histogram_bounds(); the overload pins custom edges (ascending;
  /// later observations ignore the argument).
  void observe(std::string_view group, std::string_view agent,
               std::string_view name, std::uint64_t value);
  void observe(std::string_view group, std::string_view agent,
               std::string_view name, std::uint64_t value,
               const std::vector<std::uint64_t>& bounds);

  /// The cell behind a key, created at zero on first use. Its address is
  /// valid for the registry's lifetime: reset() retires cells, never frees
  /// them, so a handle racing a reset cannot write into freed memory.
  std::atomic<std::uint64_t>& counter_cell(std::string_view group,
                                           std::string_view agent,
                                           std::string_view name);
  HistogramCell& histogram_cell(
      std::string_view group, std::string_view agent, std::string_view name,
      const std::vector<std::uint64_t>& bounds = default_histogram_bounds());

  /// Point reads (0 / empty when the metric does not exist).
  std::uint64_t counter(std::string_view group, std::string_view agent,
                        std::string_view name) const;
  std::int64_t gauge(std::string_view group, std::string_view agent,
                     std::string_view name) const;
  HistogramData histogram(std::string_view group, std::string_view agent,
                          std::string_view name) const;

  /// Sum of one counter name across every (group, agent) — fleet totals.
  std::uint64_t counter_total(std::string_view name) const;

  /// Copy of everything (isolated from later mutation); each cell is read
  /// atomically, updates racing the copy land in it or in the next one.
  MetricsSnapshot snapshot() const;
  std::string to_json() const { return snapshot().to_json(); }

  /// Empties the registry; every handle resolves its cell again.
  void reset();

 private:
  struct Cells;
  mutable std::mutex mutex_;
  std::unique_ptr<Cells> cells_;
  std::vector<std::unique_ptr<Cells>> retired_;  // by reset()
};

// ---------------------------------------------------------------------------
// Global sink. The library is quiet by default: instrumentation sites write
// to the registry installed here, or do nothing at all.

namespace detail {
extern std::atomic<MetricsRegistry*> g_metrics_sink;
// Bumped by set_metrics_sink() and MetricsRegistry::reset().
extern std::atomic<std::uint64_t> g_metrics_generation;
// The sink to resolve a cell in, and (read first, so a sink swapped in
// between leaves the caller stale) the generation the cell belongs to.
MetricsRegistry* resolving_sink(std::uint64_t& generation);
}  // namespace detail

/// Currently installed sink (nullptr = disabled). Attaching a sink mid-run
/// may miss a handful of in-flight updates, never corrupts.
inline MetricsRegistry* metrics_sink() {
  return detail::g_metrics_sink.load(std::memory_order_acquire);
}

/// Installs `registry` as the process-wide sink (nullptr detaches). The
/// registry must outlive its installation; the sink does not own it.
void set_metrics_sink(MetricsRegistry* registry);

/// RAII attach/detach for tests and harness scopes.
class ScopedMetricsSink {
 public:
  explicit ScopedMetricsSink(MetricsRegistry& registry) {
    set_metrics_sink(&registry);
  }
  ~ScopedMetricsSink() { set_metrics_sink(nullptr); }
  ScopedMetricsSink(const ScopedMetricsSink&) = delete;
  ScopedMetricsSink& operator=(const ScopedMetricsSink&) = delete;
};

// Handles, for sites with a fixed key (usually `static constinit`; the key
// strings must outlive the handle). A handle caches its cell with the
// generation it was resolved under and resolves again once that moved on.
namespace detail {
template <typename Cell>
class MetricHandle {
 public:
  constexpr MetricHandle(std::string_view group, std::string_view agent,
                         std::string_view name)
      : group_(group), agent_(agent), name_(name) {}

 protected:
  Cell* cell() {  // nullptr when detached
    if (!metrics_sink()) return nullptr;
    if (generation_.load(std::memory_order_acquire) ==
        g_metrics_generation.load(std::memory_order_acquire))
      return cell_.load(std::memory_order_relaxed);
    return resolve();
  }

 private:
  Cell* resolve();
  std::string_view group_, agent_, name_;
  std::atomic<std::uint64_t> generation_{0};  // stored after cell_
  std::atomic<Cell*> cell_{nullptr};
};
}  // namespace detail

struct Counter : detail::MetricHandle<std::atomic<std::uint64_t>> {
  using MetricHandle::MetricHandle;
  void add(std::uint64_t delta = 1) {
    if (auto* c = cell()) c->fetch_add(delta, std::memory_order_relaxed);
  }
};

struct Histogram : detail::MetricHandle<HistogramCell> {  // default bounds
  using MetricHandle::MetricHandle;
  void observe(std::uint64_t value) {
    if (HistogramCell* c = cell()) c->observe(value);
  }
};

// String-keyed helpers: free when no sink is attached, otherwise one
// registry lookup per call (cold sites).

inline void count(std::string_view group, std::string_view agent,
                  std::string_view name, std::uint64_t delta = 1) {
  if (MetricsRegistry* r = metrics_sink()) r->add(group, agent, name, delta);
}

inline void gauge_set(std::string_view group, std::string_view agent,
                      std::string_view name, std::int64_t value) {
  if (MetricsRegistry* r = metrics_sink())
    r->set_gauge(group, agent, name, value);
}

inline void observe(std::string_view group, std::string_view agent,
                    std::string_view name, std::uint64_t value) {
  if (MetricsRegistry* r = metrics_sink())
    r->observe(group, agent, name, value);
}

}  // namespace enclaves::obs
