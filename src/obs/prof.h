// Wall-clock hot-path profiler: scoped RAII timers aggregated per call
// path, following the sink pattern of metrics.h / trace.h.
//
// Where metrics count protocol events and the trace preserves their order,
// the profiler answers the question neither can: *where the wall-clock
// time goes*. `PROF_SCOPE("leader/rekey/mint")` opens a timed scope on the
// current thread; nested scopes form a call path (joined with ';', the
// folded-stack convention), and each path aggregates count, total/self/
// min/max wall nanoseconds plus an optional bytes dimension for wire and
// crypto scopes (prof_bytes()). Snapshots export three ways: an aligned
// self-time-sorted text report, stable JSON (embedded into every
// BENCH_<tag>.json blob and diffed by tools/bench_diff), and folded-stack
// lines consumable by flamegraph.pl.
//
// Cost model (docs/OBSERVABILITY.md): identical to the other sinks. With
// no Profiler installed, PROF_SCOPE is one atomic load and a branch — no
// clock read, no allocation, no locking. With a sink attached, each thread
// keeps its own call tree of nodes, owned by the Profiler; a PROF_SCOPE
// site's node is the child of the current node with that site's address.
// Entry is one pointer step plus a clock read; exit is a clock
// read plus plain adds into a node only that thread writes. No lock, no
// string: snapshot() builds the paths and merges the threads.
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

/// Aggregate for one call path. Self time is total minus the wall time of
/// directly nested profiled scopes — the flamegraph semantics, so a parent
/// that only dispatches shows near-zero self even when its total is large.
struct ProfStat {
  std::uint64_t count = 0;     // times the path was entered
  std::uint64_t total_ns = 0;  // summed wall time, children included
  std::uint64_t self_ns = 0;   // summed wall time minus profiled children
  std::uint64_t min_ns = 0;    // fastest single call (wall)
  std::uint64_t max_ns = 0;    // slowest single call (wall)
  std::uint64_t bytes = 0;     // summed prof_bytes() inside the scope

  friend bool operator==(const ProfStat&, const ProfStat&) = default;
};

/// An immutable copy of a profiler's contents, keyed by call path
/// ("outer;inner;leaf"). Scope names are sanitised into paths —
/// ';' becomes ':' and bytes <= 0x20 become '_' — so a path is always one
/// folded-stack token; everything else (quotes, backslashes, UTF-8) passes
/// through raw and is escaped by the JSON layer, so hostile names survive
/// the to_json/from_json round trip byte-exactly.
struct ProfSnapshot {
  std::map<std::string, ProfStat> scopes;

  /// Stable JSON export (sorted by path; suitable for committing/diffing).
  std::string to_json() const;

  /// Parses the format to_json emits. Whitespace-tolerant; key order within
  /// each entry object is free. Errc::malformed on anything unparseable.
  static Result<ProfSnapshot> from_json(std::string_view json);

  /// Aligned text report, one row per path, sorted by self time descending
  /// (ties broken by path) — the "where does the time go" answer.
  std::string to_report() const;

  /// Folded-stack lines ("path self_ns\n", sorted by path) — pipe into
  /// flamegraph.pl to render the aggregate as a flame graph.
  std::string to_folded() const;

  friend bool operator==(const ProfSnapshot&, const ProfSnapshot&) = default;
};

/// One PROF_SCOPE call site; its address is the id its nodes are found by.
struct ProfSite {
  std::string_view name;
};

struct ProfNode;  // prof.cpp

/// Aggregation registry; the process-wide sink target. It holds one call
/// tree per thread that profiled into it.
class Profiler {
 public:
  Profiler();
  ~Profiler();

  /// Merges the threads' trees into one copy (isolated from later
  /// mutation); scopes still open are not in it yet.
  ProfSnapshot snapshot() const;
  std::string to_json() const { return snapshot().to_json(); }

  /// Empties the profiler; scopes open across the reset drop their sample.
  void reset();

  /// Adds a child of `parent`, or a thread's root when `parent` is null.
  ProfNode& add_node(const ProfSite* site, ProfNode* parent);

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ProfNode>> nodes_;  // until destruction
  std::vector<ProfNode*> roots_;
};

// ---------------------------------------------------------------------------
// Global sink, mirroring the metrics/trace sinks.

namespace detail {
extern std::atomic<Profiler*> g_prof_sink;

// Thread-local scope machinery (prof.cpp). prof_push steps into the
// site's child of the current node and returns the profiler generation it
// ran under (0 when the sink went away); prof_pop, given that generation,
// reads the clock, folds the sample into the node and steps back out.
std::uint64_t prof_push(const ProfSite& site);
void prof_pop(std::uint64_t generation);
void prof_add_bytes(std::uint64_t n);
}  // namespace detail

/// Currently installed sink (nullptr = disabled).
inline Profiler* prof_sink() {
  return detail::g_prof_sink.load(std::memory_order_acquire);
}

/// Installs `profiler` as the process-wide sink (nullptr detaches). The
/// profiler must outlive its installation; the sink does not own it.
void set_prof_sink(Profiler* profiler);

/// RAII attach/detach for tests, benches, and harness scopes.
class ScopedProfSink {
 public:
  explicit ScopedProfSink(Profiler& profiler) { set_prof_sink(&profiler); }
  ~ScopedProfSink() { set_prof_sink(nullptr); }
  ScopedProfSink(const ScopedProfSink&) = delete;
  ScopedProfSink& operator=(const ScopedProfSink&) = delete;
};

/// One timed scope. Scopes opened while the sink was detached stay inert
/// for their whole lifetime (attaching mid-scope never unbalances the
/// stack); a scope opened while attached records at exit unless the sink
/// was changed (attached, detached or reset) in between. Use via
/// PROF_SCOPE, not directly.
class ProfScope {
 public:
  explicit ProfScope(const ProfSite& site) {
    if (prof_sink()) generation_ = detail::prof_push(site);
  }
  ~ProfScope() {
    if (generation_) detail::prof_pop(generation_);
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  std::uint64_t generation_ = 0;
};

/// Adds `n` to the bytes dimension of the innermost open scope on this
/// thread (no-op when detached or outside any scope). Wire/crypto scopes
/// use it so the report can show throughput next to time.
inline void prof_bytes(std::uint64_t n) {
  if (prof_sink()) detail::prof_add_bytes(n);
}

}  // namespace enclaves::obs

#define ENCLAVES_PROF_CONCAT2(a, b) a##b
#define ENCLAVES_PROF_CONCAT(a, b) ENCLAVES_PROF_CONCAT2(a, b)

/// Opens a profiled scope for the rest of the enclosing block. `name` must
/// be a string literal. Name convention (docs/OBSERVABILITY.md):
/// "layer/area/op", e.g. "leader/rekey/mint" — '/' structures one scope's
/// name, ';' is reserved for joining nested scopes into call paths.
#define PROF_SCOPE(name)                                                 \
  static constexpr ::enclaves::obs::ProfSite ENCLAVES_PROF_CONCAT(       \
      enclaves_prof_site_, __LINE__){name};                              \
  ::enclaves::obs::ProfScope ENCLAVES_PROF_CONCAT(enclaves_prof_scope_,  \
                                                  __LINE__)(             \
      ENCLAVES_PROF_CONCAT(enclaves_prof_site_, __LINE__))
