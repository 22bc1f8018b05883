// Black-box flight recorder: a bounded, preserialized window of the obs
// plane that survives the process it describes.
//
// The rest of src/obs/ is rich but volatile — metrics, the event store,
// spans and the profiler all live in heap structures that a crash or an
// attack takes down with the node. The FlightRecorder keeps the last-N
// window of event records (trace and ledger lines, in emission order) and
// windowed metric deltas in fixed slot rings whose bytes are *already
// JSONL*, and keeps the latest full metrics/profile snapshots in published
// buffers. Dumping the window is therefore a sequence of write(2) calls:
//
//   (a) automatic — an event whose table row names an incident (EventRow::
//       incident: epoch fence, deposed leader, forged op-log, stale
//       migration offer or directory claim, a HealthMonitor transition to
//       partitioned/under_attack), debounced per recorder;
//   (b) fatal — install_signal_handlers() arms SIGSEGV/SIGABRT/SIGBUS/
//       SIGFPE handlers that walk the rings with nothing but write(2):
//       no allocation, no locks, no formatting beyond integer itoa into
//       stack buffers (torn slots carry a generation tag and are skipped);
//   (c) on demand — SIGUSR1, the ExpositionServer's /dump route, or an
//       explicit trigger()/dump_now() call.
//
// Every dump carries the node id, the virtual/wall clock pair at dump time
// (tools/enclaves_postmortem aligns multi-node dumps with it), and the
// process-wide *incident id* — minted at the first trigger, shared by every
// recorder in the process, and adoptable across processes — so concurrent
// dumps on a leader, its standby and its members correlate into one
// incident.
//
// The window is fixed (flight.cpp): 384 event and 256 delta lines, one
// snapshot line each for metrics and profile, a 64-tick debounce for
// automatic triggers and at most 16 dumps per recorder (the fatal path
// ignores the cap). The delta ring is separate so that a burst of deltas
// from observe() never evicts evidence. A recorder whose dump path would
// overflow its 512-byte buffer refuses every dump and counts it as
// suppressed.
//
// Cost model: an attached recorder takes every event record straight from
// the record path (obs/record.h), whether or not an event store is
// attached; with no recorder attached the hook is one atomic load behind
// the sink check emit() already makes. bench/bench_protocol_perf.cpp pins
// the with-sink overhead.
//
// Dump blob format (one JSON object per line; unknown/torn lines are
// skipped by the parser, so a partially written fatal dump still loads).
// Event lines are `{"k":"trace"|"ledger",` plus the view's JSONL fields
// (append_view_line; a zero value is omitted, postmortem reads 0), in
// emission order — a record in both views writes its trace line first:
//   {"enclaves_flight":1,"node":..,"incident":..,"reason":..,
//    "trigger_tick":..,"tick":..,"wall_ns":..,"tick_ns":..,"seq":..}
//   {"k":"stats","events_seen":..,"events_dropped":..,...}
//   {"k":"trace","tick":..,"kind":..,"group":..,"agent":..,...}    (oldest first)
//   {"k":"ledger","tick":..,"kind":..,"group":..,"observer":..,...}
//   {"k":"delta","tick":..,"group":..,"agent":..,"name":..,"delta":..,"total":..}
//   {"k":"metrics","json":"<escaped MetricsSnapshot::to_json()>"}
//   {"k":"profile","json":"<escaped ProfSnapshot::to_json()>"}
//   {"k":"end","seq":..}
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/record.h"
#include "util/clock.h"

namespace enclaves::obs {

struct FlightStats {
  std::uint64_t events_seen = 0;      // trace and ledger lines
  std::uint64_t events_dropped = 0;   // evicted by ring wrap
  std::uint64_t events_oversize = 0;  // line exceeded slot_bytes
  std::uint64_t delta_seen = 0;
  std::uint64_t delta_dropped = 0;
  std::uint64_t delta_oversize = 0;
  std::uint64_t snapshot_oversize = 0;
  std::uint64_t dumps_written = 0;
  std::uint64_t dumps_suppressed = 0;  // debounce / dump-cap refusals

  friend bool operator==(const FlightStats&, const FlightStats&) = default;
};

namespace flight_detail {

inline constexpr std::size_t kMaxSlotBytes = 4096;

// Fixed ring of preserialized lines. Single writer (under the recorder
// mutex); the reader — possibly an async signal handler that interrupted
// the writer mid-slot — takes no locks and skips slots whose generation
// tag does not match the sequence number it expects.
class SlotRing {
 public:
  void init(std::size_t slots, std::size_t slot_bytes);
  /// Caller holds the recorder mutex. Oversize lines are dropped+counted.
  void push(std::string_view line);

  std::uint64_t seen() const { return seq_.load(std::memory_order_acquire); }
  std::uint64_t dropped() const;
  std::uint64_t oversize() const {
    return oversize_.load(std::memory_order_acquire);
  }

  /// Async-signal-safe: writes every intact slot, oldest first, each
  /// followed by '\n', to `fd`. Returns lines written.
  std::size_t write_to(int fd) const;

 private:
  struct Slot {
    std::atomic<std::uint64_t> gen{0};  // seq+1 when intact, 0 mid-write
    std::uint32_t len = 0;
  };

  std::size_t slots_ = 0;
  std::size_t slot_bytes_ = 0;
  std::unique_ptr<Slot[]> meta_;
  std::unique_ptr<char[]> arena_;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> oversize_{0};
};

// Latest-value line (the metrics / profile snapshot), seqlock-published.
// The signal-handler reader makes a single attempt: if the version is odd
// (it interrupted the writer on its own thread) or changes under the copy,
// the line is skipped/left torn — the dump parser drops unparseable lines.
class PublishedLine {
 public:
  void init(std::size_t capacity);
  /// Caller holds the recorder mutex. Oversize lines clear the slot.
  void publish(std::string_view line);

  std::uint64_t oversize() const {
    return oversize_.load(std::memory_order_acquire);
  }

  /// Async-signal-safe single-attempt emit; returns true if a line (plus
  /// '\n') was written.
  bool write_to(int fd) const;

 private:
  std::size_t capacity_ = 0;
  std::unique_ptr<char[]> arena_;
  std::atomic<std::uint64_t> version_{0};
  std::atomic<std::uint32_t> len_{0};
  std::atomic<std::uint64_t> oversize_{0};
};

}  // namespace flight_detail

/// Nanosecond wall-clock source; replaceable for deterministic tests via
/// FlightRecorder::set_wall_clock. Replacements must themselves be
/// async-signal-safe (the fatal path calls through the same pointer).
using FlightWallClockFn = std::uint64_t (*)();

class FlightRecorder {
 public:
  /// `node` names this recorder's perspective (its agent id); `dir` is
  /// where dump files land (flight_<node>_<seq>.jsonl, node sanitized for
  /// the filename, raw-but-JSON-escaped in the blob header). The recorder
  /// allocates all ring storage here — nothing allocates after attach().
  FlightRecorder(std::string node, std::string dir);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Registers with the process-wide recorder registry (fixed capacity —
  /// returns false when full). Attached recorders receive every event
  /// record that passes their agent filter, and are visited by the signal
  /// handlers.
  bool attach();
  void detach();

  /// Restricts capture (and incidents) to events whose agent (the ledger's
  /// observer) is one of `agents` — how several in-process nodes each keep
  /// their own perspective. Empty (the default) captures everything.
  /// Events with an empty agent (process-wide planes) always pass.
  void set_local_agents(std::vector<std::string> agents);

  /// Periodic pump (call it like HealthMonitor::observe — once per tick or
  /// window): diffs the metrics sink's counters against the previous observe,
  /// pushes one preserialized delta line per changed counter, republishes
  /// the full metrics/profile snapshot lines, and refreshes the flight/*
  /// gauges that make drop accounting first-class.
  void observe(Tick now);

  /// Explicit dump at `now` (no debounce; still respects the dump cap):
  /// mints or adopts the process incident id, then dumps. Returns true if a
  /// blob was written.
  bool trigger(Tick now, std::string_view reason);

  /// trigger() at the freshest tick seen. Used by the /dump route, SIGUSR1
  /// drain, and examples at exit.
  bool dump_now(std::string_view reason);

  FlightStats stats() const;

  /// {"node":..,"incident":..,"dumps":..,"last_reason":..,
  ///  "last_trigger_tick":..,"last_wall_ns":..,"last_path":..,
  ///  "events_dropped":..,...} — the /flight route body and the
  /// enclaves_top incident banner source. Stable field order.
  std::string status_json() const;

  std::string last_dump_path() const;
  std::uint64_t dumps_written() const {
    return stats_dumps_.load(std::memory_order_acquire);
  }

  // -- process-wide incident id ---------------------------------------

  /// Incident id currently in force ("" when none was minted yet).
  static std::string current_incident();
  /// Adopts an id minted elsewhere (another node's dump) so later local
  /// dumps correlate. Sanitized to [A-Za-z0-9._-], truncated to 39 bytes.
  static void adopt_incident(std::string_view id);
  /// Clears the process incident id (tests only).
  static void reset_incident_for_test();

  /// Replaces the wall-clock source (nullptr restores CLOCK_REALTIME).
  static void set_wall_clock(FlightWallClockFn fn);

  /// Arms SIGSEGV/SIGABRT/SIGBUS/SIGFPE (dump every attached recorder,
  /// restore the default disposition, re-raise) and SIGUSR1 (dump and
  /// continue). Idempotent.
  static void install_signal_handlers();

  // -- registry-internal (called by the obs/record.h hook / handlers) --
  /// Takes `record` when it covers the record's agent: advances the clock,
  /// pushes one ring line per view the record is in, then, for a non-empty
  /// `incident`, dumps (debounced).
  void note(const Record& record, std::string_view incident);
  /// Async-signal-safe dump used by the signal handlers. `reason` must be
  /// a static/preformatted sanitized string.
  void dump_from_signal(const char* reason);

 private:
  bool covers(std::string_view agent) const;  // caller holds mutex_
  void advance_clock(Tick tick);
  bool auto_trigger_locked(Tick now, const char* reason);
  /// Shared dump core. Non-fatal callers hold mutex_; the fatal path calls
  /// it lock-free (rings and counters are atomics, strings it touches are
  /// immutable after construction) and skips the status-string updates.
  bool dump_core(std::uint64_t trigger_tick, const char* reason, bool fatal);
  void publish_gauges_locked();

  const std::string node_;

  mutable std::mutex mutex_;
  std::vector<std::string> local_agents_;
  MetricsSnapshot prev_counters_;
  bool observed_once_ = false;
  Tick last_auto_dump_tick_ = 0;  // clock_tick_ at the last automatic dump
  bool auto_dumped_once_ = false;

  // Freshest virtual tick this recorder has seen (observe()/event records);
  // the signal path pairs it with the wall clock in the dump header.
  std::atomic<std::uint64_t> clock_tick_{0};

  // Preformatted at construction so the fatal path never formats strings:
  // dump path prefix ("<dir>/flight_<sanitized>_"), JSON-escaped node.
  std::string path_prefix_;
  bool path_fits_ = false;  // prefix + seq + ".jsonl" fits the path buffer
  std::string node_json_;  // includes surrounding quotes

  // Event (trace and ledger) lines, then delta lines, in dump order
  // (kRings in flight.cpp).
  flight_detail::SlotRing rings_[2];
  flight_detail::PublishedLine metrics_line_;
  flight_detail::PublishedLine profile_line_;

  std::atomic<bool> attached_{false};
  std::atomic<std::uint64_t> stats_dumps_{0};
  std::atomic<std::uint64_t> stats_suppressed_{0};

  // Last-dump status for status_json()/the banner (guarded by mutex_ for
  // writers; readers copy under the same mutex).
  std::string last_reason_;
  std::string last_path_;
  std::uint64_t last_trigger_tick_ = 0;
  std::uint64_t last_wall_ns_ = 0;
};

}  // namespace enclaves::obs
