// One telemetry record per event, one bounded store, one sink.
//
// obs::emit (obs/event.h) appends one Record per protocol event. A record
// carries the event's TraceKind when its row has one, its EvidenceKind when
// it is a refusal, and the shared fields. The EventStore keeps the records in
// emission order; the trace (events()) and the security ledger (entries(),
// suspicion()) are filters over it, and each view writes its own JSONL with
// append_view_line — the same writer the flight recorder's ring lines use.
//
// Cost model: without an attached store, flight recorder or metrics sink,
// trace() and security_event() load three atomics and return — no strings
// are built (pinned by obs_test's EmitTable.FreeWhenEverySinkDetached).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/security.h"
#include "obs/trace.h"
#include "util/clock.h"

namespace enclaves::obs {

struct Record {
  Tick tick = 0;  // the recording agent's VirtualClock (0 if clockless)
  std::optional<TraceKind> trace;        // set when the trace view shows it
  std::optional<EvidenceKind> evidence;  // set when the ledger shows it
  std::string group;   // protocol group, or fixed plane ("crypto", "ha")
  std::string agent;   // who recorded the event (the ledger's observer)
  std::string peer;    // counterparty (the ledger's accused), if any
  std::string detail;  // kind-specific annotation
  std::uint64_t value = 0;  // kind-specific number (epoch, seq, steps)

  friend bool operator==(const Record&, const Record&) = default;
};

/// A record as the trace view shows it.
struct TraceEvent {
  Tick tick = 0;
  TraceKind kind{};
  std::string group, agent, peer, detail;
  std::uint64_t value = 0;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// A record as the ledger view shows it: `agent` is the observer that
/// refused the input, `peer` the accused (the envelope sender; may be empty).
struct SecurityEvidence {
  Tick tick = 0;
  EvidenceKind kind{};
  std::string group, agent, peer, detail;
  std::uint64_t value = 0;

  friend bool operator==(const SecurityEvidence&,
                         const SecurityEvidence&) = default;
};

/// The store's two views. A record with both kinds (a refused relay) shows
/// in both.
enum class View : std::uint8_t { trace, ledger };

inline bool in_view(const Record& r, View view) {
  return view == View::trace ? r.trace.has_value() : r.evidence.has_value();
}

/// Appends `{"tick":..,"kind":..,"group":..,"agent":..}` plus the peer and
/// detail when non-empty and the value when non-zero, as `view` names them:
/// the ledger writes its kind and the keys "observer"/"accused". With
/// `tagged`, the object opens with the flight ring's `"k":"trace"|"ledger"`.
/// The record must be in the view.
void append_view_line(std::string& out, const Record& r, View view,
                      bool tagged = false);

class EventStore {
 public:
  void append(Record r);

  /// The trace view, in emission order.
  std::vector<TraceEvent> events() const;
  /// The ledger view, in emission order.
  std::vector<SecurityEvidence> entries() const;

  /// How many retained ledger records accuse `accused` (0 for a peer never
  /// accused).
  std::uint64_t suspicion(std::string_view accused) const;
  /// All non-zero suspicion counts, keyed by accused peer.
  std::map<std::string, std::uint64_t> suspicion_counts() const;

  /// One JSON object per line of `view` (append_view_line), for jq/diffing.
  std::string to_jsonl(View view) const;

  /// Records retained, both views together.
  std::size_t size() const;
  void clear();

  /// Bounds the store to the most recent `capacity` records (ring buffer);
  /// 0 restores the default unbounded behaviour. Shrinking below the
  /// current size evicts the oldest records immediately. Evictions count as
  /// dropped and are published as the obs/events/dropped_events gauge, so
  /// long seed sweeps keep memory flat and say what they lost.
  void set_capacity(std::size_t capacity);
  /// Records evicted since construction / clear().
  std::uint64_t dropped_events() const;

 private:
  void evict_to(std::size_t keep);  // caller holds mutex_

  mutable std::mutex mutex_;
  std::deque<Record> records_;
  std::size_t capacity_ = 0;  // 0 = unbounded
  std::uint64_t dropped_ = 0;
};

namespace detail {

inline std::atomic<EventStore*> g_event_sink{nullptr};

// Number of FlightRecorders attached to the process-wide registry
// (flight.h). Zero means the flight hook is a dead branch.
extern std::atomic<int> g_flight_recorder_count;

// Feeds `record` to every attached recorder that covers its agent, with the
// event row's incident reason (empty: none). Defined in flight.cpp.
void flight_note(const Record& record, std::string_view incident);

}  // namespace detail

inline EventStore* event_sink() {
  return detail::g_event_sink.load(std::memory_order_acquire);
}

/// Installs `store` as the process-wide sink (nullptr detaches). The store
/// must outlive its installation; the sink does not own it.
inline void set_event_sink(EventStore* store) {
  detail::g_event_sink.store(store, std::memory_order_release);
}

class ScopedEventSink {
 public:
  explicit ScopedEventSink(EventStore& store) { set_event_sink(&store); }
  ~ScopedEventSink() { set_event_sink(nullptr); }
  ScopedEventSink(const ScopedEventSink&) = delete;
  ScopedEventSink& operator=(const ScopedEventSink&) = delete;
};

inline bool flight_active() {
  return detail::g_flight_recorder_count.load(std::memory_order_acquire) != 0;
}

/// True when a record would reach a store or a flight recorder: the guard
/// for sites that build a detail string only for those.
inline bool records_attached() {
  return event_sink() != nullptr || flight_active();
}

inline bool any_sink_attached() {
  return metrics_sink() != nullptr || records_attached();
}

/// The one record path, called only when a sink is attached: the
/// `security.*` refusal metrics of an evidence record, then the record,
/// once, to every attached flight recorder (with `incident`, the event row's
/// dump reason) and to the store.
void record_attached(Tick tick, std::optional<TraceKind> trace,
                     std::optional<EvidenceKind> evidence,
                     std::string_view group, std::string_view agent,
                     std::string_view peer, std::string_view detail,
                     std::uint64_t value, std::string_view incident);

/// A trace record outside the event table (tests and tools); protocol code
/// reports through obs::emit.
inline void trace(Tick tick, TraceKind kind, std::string_view group,
                  std::string_view agent, std::string_view peer = {},
                  std::string_view detail = {}, std::uint64_t value = 0) {
  if (any_sink_attached())
    record_attached(tick, kind, std::nullopt, group, agent, peer, detail,
                    value, {});
}

/// A refusal outside the event table (tests and tools). Bumps, with a
/// metrics sink, the per-observer `security/<observer>/refusals_total` and
/// `refusals_<kind>_total` and, for an attributed origin, the per-accused
/// `security/<accused>/suspicion_total`.
inline void security_event(Tick tick, EvidenceKind kind,
                           std::string_view group, std::string_view observer,
                           std::string_view accused,
                           std::string_view detail = {},
                           std::uint64_t value = 0) {
  if (any_sink_attached())
    record_attached(tick, std::nullopt, kind, group, observer, accused,
                    detail, value, {});
}

}  // namespace enclaves::obs
