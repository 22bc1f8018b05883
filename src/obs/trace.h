// Structured protocol event trace: typed events recorded against
// VirtualClock ticks.
//
// Where metrics.h aggregates (how many retransmits), the trace preserves
// order (which retransmit, when, between whom). The event taxonomy follows
// the DSN'01 protocol surface: handshake phase transitions, AdminMsg
// send/ack, retransmits, suspicion/expulsion/rejoin, rekeys, data-plane
// delivery and rejection, and fault-injector verdicts.
//
// Same cost model as metrics: without an attached TraceLog the inline
// trace() helper is one atomic load and a branch — no allocation (pinned by
// obs_test's EmitTable.FreeWhenEverySinkDetached). Protocol code reports
// through obs::emit (obs/event.h), which records these events.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight_fwd.h"
#include "obs/metrics.h"
#include "util/clock.h"

namespace enclaves::obs {

enum class TraceKind : std::uint8_t {
  leader_phase,     // leader-side session state transition (detail: old->new)
  member_phase,     // member-side session state transition (detail: old->new)
  admin_send,       // AdminMsg handed to the wire (detail: body kind)
  admin_ack,        // Ack consumed by the leader (detail: body kind if known)
  retransmit,       // timer-driven resend (detail: label resent)
  reanswer,         // duplicate request re-answered from cache (detail: label)
  suspect,          // member started suspecting the leader
  expel,            // leader expelled a member (detail: reason)
  rejoin,           // member re-entered the joining state after expulsion
  rekey,            // new group key installed (value: epoch)
  join,             // member authenticated into the group
  leave,            // member left / session closed (detail: reason)
  data_deliver,     // group data handed to the application (value: seq)
  data_reject,      // group data refused (detail: reason)
  fault_drop,       // injector verdict: packet dropped (detail: label)
  fault_duplicate,  // injector verdict: packet duplicated (detail: label)
  fault_delay,      // injector verdict: packet delayed (value: steps)

  // HA replication / failover plane (src/ha/, PROTOCOL.md §11).
  repl_delta,     // delta shipped or applied (detail: kind, value: seq)
  repl_snapshot,  // baseline shipped or installed (value: seq covered)
  repl_gap,       // standby detected a log gap (value: applied floor)
  promote,        // standby promoted to active leader (value: fenced epoch)
  fence,          // lower-epoch traffic rejected / old leader deposed
                  //   (detail: why, value: offending epoch)

  // Live telemetry plane (obs/health.h): a HealthMonitor verdict changed
  // state for a group or peer (detail: old->new, value: numeric new state).
  health,

  // Disconnected operation / reconciliation plane (core/oplog.h,
  // wire/reconcile.h, PROTOCOL.md §12).
  disconnect,         // member entered disconnected mode (detail: why)
  oplog_append,       // op queued into the offline log (value: seq)
  reconcile_offer,    // offer built (member) or answered (leader)
                      //   (detail: verdict on the leader side, value: log len)
  reconcile_verdict,  // terminal verdict seen by the member, or any verdict
                      //   sent by the leader (detail: kind, value: epoch/ack)
  op_replay,          // queued op replayed (member) / accepted (leader)
                      //   (value: seq)
  fault_partition,    // injector partition cut or healed (detail: cut|heal,
                      //   value: island size)

  // Key-tree rekey plane (core/keytree.h, PROTOCOL.md §13).
  keytree_level,    // leader rotated one tree level during a rekey
                    //   (detail: "lvl<k>", value: the new epoch)
  keytree_recover,  // member asked for / leader answered a path recovery
                    //   (detail: request|answer, value: epoch held/sent)

  // Federation plane (src/fed/, PROTOCOL.md §14).
  fed_redirect,  // shard sent / member followed a wrong-shard redirect
                 //   (detail: sent|followed, peer: counterparty)
  fed_migrate,   // migration milestone (detail: offer|install|accept|
                 //   commit|complete|refuse|abort, value: migration id)
  fed_dir,       // directory ownership change (detail: owner shard,
                 //   value: version)
};

/// Stable lowercase name for JSONL export and chart rendering.
std::string_view trace_kind_name(TraceKind kind);

struct TraceEvent {
  Tick tick = 0;
  TraceKind kind = TraceKind::leader_phase;
  std::string group;
  std::string agent;   // who recorded the event
  std::string peer;    // counterparty, if any
  std::string detail;  // kind-specific annotation (see enum comments)
  std::uint64_t value = 0;  // kind-specific number (epoch, seq, steps)

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

class TraceLog {
 public:
  void record(TraceEvent event) {
    std::lock_guard lock(mutex_);
    // Flight-recorder tee: only reachable when a trace sink is attached
    // (record() is behind trace()'s sink check), so the no-sink hot path
    // stays one atomic load. Recorders take only their own locks.
    if (flight_active()) detail::flight_note_trace(event);
    if (capacity_ != 0 && events_.size() == capacity_) {
      events_.pop_front();
      ++dropped_;
      publish_dropped();
    }
    events_.push_back(std::move(event));
  }

  /// Bounds the log to the most recent `capacity` events (ring buffer);
  /// 0 restores the default unbounded behaviour. Shrinking below the
  /// current size evicts the oldest events immediately (they count as
  /// dropped). Long 50-seed sweeps set this so memory stays flat.
  void set_capacity(std::size_t capacity) {
    std::lock_guard lock(mutex_);
    capacity_ = capacity;
    bool evicted = false;
    while (capacity_ != 0 && events_.size() > capacity_) {
      events_.pop_front();
      ++dropped_;
      evicted = true;
    }
    if (evicted) publish_dropped();
  }

  std::size_t capacity() const {
    std::lock_guard lock(mutex_);
    return capacity_;
  }

  /// Events evicted by the ring buffer since construction / clear().
  std::uint64_t dropped_events() const {
    std::lock_guard lock(mutex_);
    return dropped_;
  }

  /// Copy of the recorded sequence, in record order.
  std::vector<TraceEvent> events() const {
    std::lock_guard lock(mutex_);
    return std::vector<TraceEvent>(events_.begin(), events_.end());
  }

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return events_.size();
  }

  void clear() {
    std::lock_guard lock(mutex_);
    events_.clear();
    dropped_ = 0;
  }

  /// One JSON object per line, fields in declaration order; empty
  /// peer/detail fields are omitted. Suitable for jq / diffing.
  std::string to_jsonl() const;

 private:
  // Mirrors the eviction counter into the metrics plane so ring-buffer loss
  // is visible on /metrics without bespoke glue (called under mutex_; the
  // registry has its own lock and never calls back into the trace).
  void publish_dropped() {
    gauge_set("obs", "trace", "dropped_events",
              static_cast<std::int64_t>(dropped_));
  }

  mutable std::mutex mutex_;
  std::deque<TraceEvent> events_;
  std::size_t capacity_ = 0;  // 0 = unbounded
  std::uint64_t dropped_ = 0;
};

// ---------------------------------------------------------------------------
// Global sink, mirroring the metrics sink.

namespace detail {
extern std::atomic<TraceLog*> g_trace_sink;
}

inline TraceLog* trace_sink() {
  return detail::g_trace_sink.load(std::memory_order_acquire);
}

/// Installs `log` as the process-wide trace sink (nullptr detaches). The
/// log must outlive its installation; the sink does not own it.
void set_trace_sink(TraceLog* log);

class ScopedTraceSink {
 public:
  explicit ScopedTraceSink(TraceLog& log) { set_trace_sink(&log); }
  ~ScopedTraceSink() { set_trace_sink(nullptr); }
  ScopedTraceSink(const ScopedTraceSink&) = delete;
  ScopedTraceSink& operator=(const ScopedTraceSink&) = delete;
};

/// Records an event iff a sink is attached; otherwise free (no strings are
/// built — the string_views are only copied after the sink check passes).
inline void trace(Tick tick, TraceKind kind, std::string_view group,
                  std::string_view agent, std::string_view peer = {},
                  std::string_view detail = {}, std::uint64_t value = 0) {
  if (TraceLog* log = trace_sink()) {
    log->record(TraceEvent{tick, kind, std::string(group), std::string(agent),
                           std::string(peer), std::string(detail), value});
  }
}

}  // namespace enclaves::obs
