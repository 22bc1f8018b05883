// One telemetry record, one bounded log, one sink, one JSON field writer.
//
// The TraceLog (obs/trace.h) holds Record<TraceKind> and the SecurityLedger
// (obs/security.h) holds Record<EvidenceKind>; both are a RecordLog, whose
// record() tees into every attached FlightRecorder (obs/flight.h) and then
// appends. The JSONL exports and the flight ring lines all write a record
// with append_record_fields. The tee costs one atomic load and runs behind
// a sink check that already passed, so detached sinks stay free.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json_escape.h"
#include "obs/metrics.h"
#include "util/clock.h"

namespace enclaves::obs {

template <class Kind>
struct Record {
  Tick tick = 0;  // the recording agent's VirtualClock (0 if clockless)
  Kind kind{};
  std::string group;   // protocol group, or fixed plane ("crypto", "ha")
  std::string agent;   // who recorded the event (the ledger's observer)
  std::string peer;    // counterparty (the ledger's accused), if any
  std::string detail;  // kind-specific annotation
  std::uint64_t value = 0;  // kind-specific number (epoch, seq, steps)

  friend bool operator==(const Record&, const Record&) = default;
};

/// How one Kind's records are written: the kind's name, the JSON keys of
/// the agent and peer fields, and the log's tag (the flight ring line's
/// "k", and the agent of its obs/<tag>/dropped_events gauge). trace.h and
/// security.h each overload record_format() for their Kind.
struct RecordFormat {
  std::string_view kind;
  std::string_view agent_key;
  std::string_view peer_key;
  std::string_view tag;
};

/// Appends `"tick":..,"kind":..,"group":..,"<agent_key>":..` plus the peer
/// and detail when non-empty and the value when non-zero, in that order
/// (no braces).
template <class Kind>
void append_record_fields(std::string& out, const Record<Kind>& r) {
  const RecordFormat f = record_format(r.kind);
  out += "\"tick\":" + std::to_string(r.tick);
  append_json_field(out, "kind", f.kind);
  append_json_field(out, "group", r.group);
  append_json_field(out, f.agent_key, r.agent);
  if (!r.peer.empty()) append_json_field(out, f.peer_key, r.peer);
  if (!r.detail.empty()) append_json_field(out, "detail", r.detail);
  if (r.value != 0) append_json_field(out, "value", r.value);
}

namespace detail {

// Number of FlightRecorders attached to the process-wide registry
// (flight.h). Zero means every flight hook is a dead branch.
extern std::atomic<int> g_flight_recorder_count;

// Out-of-line fan-out into the attached recorders (flight.cpp). The record
// hook runs under the owning log's mutex; recorders take only their own.
template <class Kind>
void flight_note(const Record<Kind>& record);
void flight_incident(Tick tick, std::string_view reason,
                     std::string_view agent);

}  // namespace detail

inline bool flight_active() {
  return detail::g_flight_recorder_count.load(std::memory_order_acquire) != 0;
}

template <class Kind>
class RecordLog {
 public:
  void record(Record<Kind> r) {
    std::lock_guard lock(mutex_);
    append_locked(std::move(r));
  }

  /// Copy of the recorded sequence, in record order.
  std::vector<Record<Kind>> entries() const {
    std::lock_guard lock(mutex_);
    return {records_.begin(), records_.end()};
  }

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return records_.size();
  }

  void clear() {
    std::lock_guard lock(mutex_);
    clear_locked();
  }

  /// One JSON object per line (append_record_fields). Suitable for jq /
  /// diffing.
  std::string to_jsonl() const {
    std::string out;
    for (const Record<Kind>& r : entries()) {
      out += '{';
      append_record_fields(out, r);
      out += "}\n";
    }
    return out;
  }

 protected:
  /// Bounds the log to the most recent `capacity` records (ring buffer);
  /// 0 restores the default unbounded behaviour. Shrinking below the
  /// current size evicts the oldest records immediately (they count as
  /// dropped).
  void set_capacity(std::size_t capacity) {
    std::lock_guard lock(mutex_);
    capacity_ = capacity;
    evict_to(capacity_);
  }

  /// Records evicted by the ring buffer since construction / clear().
  std::uint64_t dropped_events() const {
    std::lock_guard lock(mutex_);
    return dropped_;
  }

  void append_locked(Record<Kind> r) {
    if (flight_active()) detail::flight_note(r);
    evict_to(capacity_ - 1);
    records_.push_back(std::move(r));
  }

  void clear_locked() {
    records_.clear();
    dropped_ = 0;
  }

  mutable std::mutex mutex_;

 private:
  // Evicts the oldest records until at most `keep` remain (bounded logs
  // only) and mirrors the eviction counter into the metrics plane, so
  // ring-buffer loss is visible on /metrics as obs/<tag>/dropped_events.
  // Caller holds mutex_; the registry never calls back into a log.
  void evict_to(std::size_t keep) {
    if (capacity_ == 0 || records_.size() <= keep) return;
    while (records_.size() > keep) {
      records_.pop_front();
      ++dropped_;
    }
    gauge_set("obs", record_format(Kind{}).tag, "dropped_events",
              static_cast<std::int64_t>(dropped_));
  }

  std::deque<Record<Kind>> records_;
  std::size_t capacity_ = 0;  // 0 = unbounded
  std::uint64_t dropped_ = 0;
};

// ---------------------------------------------------------------------------
// Process-wide sinks, one per log type.

namespace detail {
template <class Log>
inline std::atomic<Log*> g_sink{nullptr};
}

template <class Log>
Log* sink() {
  return detail::g_sink<Log>.load(std::memory_order_acquire);
}

/// Installs `log` as the process-wide sink of its type (nullptr detaches).
/// The log must outlive its installation; the sink does not own it.
template <class Log>
void set_sink(Log* log) {
  detail::g_sink<Log>.store(log, std::memory_order_release);
}

template <class Log>
class ScopedSink {
 public:
  explicit ScopedSink(Log& log) { set_sink(&log); }
  ~ScopedSink() { set_sink<Log>(nullptr); }
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;
};

}  // namespace enclaves::obs
