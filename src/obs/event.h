// Protocol events: one typed call per event, one table row per event kind.
//
// Every membership change, key change, retransmission and refused input is
// reported through emit(). The per-event table (event.cpp) decides what the
// event produces — which counter it bumps, which TraceKind it records, and
// which EvidenceKind it leaves in the SecurityLedger — so a call site only
// says *what happened* and with which fields:
//
//   obs::emit(counters_, obs::Event::relay_reject, clock_.now(), group,
//             agent, /*peer=*/sender, /*detail=*/why);
//
// The fields map onto each channel the same way: the counter is keyed by
// (group, agent) unless the row fixes its own scope, the trace event carries
// (tick, group, agent, peer, detail, value), and the ledger entry carries
// (tick, group, observer=agent, accused=peer, detail, value) plus the
// `security.*` refusal metrics. Within one emit the channels are written in
// that order: counter, trace event, evidence.
//
// A site whose evidence kind comes from an error code passes it in with the
// overload that takes an EvidenceKind; the row must already carry evidence.
// `counters_` is the reporting object's EventCounters: with it, a counter
// costs one atomic add.
//
// Cost model, as for metrics/trace/security: with every sink detached,
// emit() loads three atomics and returns — it builds no strings and
// allocates nothing (pinned by obs_test's allocation-counting case).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "obs/security.h"
#include "obs/trace.h"
#include "util/clock.h"

namespace enclaves::obs {

enum class Event : std::uint8_t {
  // Session plane (Leader / Member, PROTOCOL.md §3–§5).
  leader_phase,       // leader handshake transition (detail: old->new)
  member_phase,       // member handshake start (detail: old->new)
  session_up,         // member reached Connected
  admin_send,         // AdminMsg handed to the wire (detail: body kind)
  admin_ack,          // leader consumed an Ack
  reanswer,           // duplicate request re-answered (detail: label)
  retransmit,         // timer-driven resend (detail: label)
  auth_reject,        // unauthentic / stale / out-of-state input
  join_denied,        // admission policy refused an AuthInitReq
  join,               // leader admitted a member
  leave,              // leader closed a member's session
  leave_requested,    // member asked to leave
  expel,              // leader expelled a member (detail: reason)
  ghost_cleared,      // leader discarded a never-authenticated handshake
  expelled,           // member received its Expelled notice
  abandon,            // member gave up on an unanswered exchange
  suspect,            // leader silence crossed the suspicion threshold
  rejoin,             // member re-entered joining after losing its session
  retarget,           // member moved on to its next failover target
  // Group key (PROTOCOL.md §2.2, §11, §13).
  rekey,              // leader minted a new Kg (value: epoch)
  rekey_applied,      // member installed a new Kg (value: epoch)
  epoch_fenced,       // member saw a key below its epoch floor
  key_below_floor,    // ... and the NewGroupKey that carried it is evidence
  keytree_level,      // leader rotated one tree level (detail: "lvl<k>")
  keytree_reject,     // member refused a key-tree update or path
  keytree_recover,    // member asked for its path
  keytree_answer,     // leader answered a path recovery
  keytree_path,       // member installed a recovered path
  // Data plane (PROTOCOL.md §6).
  relay_reject,       // leader refused to relay a submission
  data_reject,        // member refused relayed data
  data_deliver,       // member handed data to the application (value: seq)
  // Disconnected operation (PROTOCOL.md §12).
  disconnect,         // member entered disconnected mode
  oplog_append,       // member queued an op offline (value: log length)
  offer_sent,         // member built a reconcile offer
  offer_admitted,     // leader admitted an offer
  offer_quarantined,  // leader quarantined an offer (evidence side)
  offer_answered,     // leader answered an offer (trace side)
  reconcile_verdict,  // verdict sent (leader) or seen (member)
  reconcile_intrusion,  // replayed op broke the HMAC chain
  op_replay,          // queued op replayed (member) / accepted (leader)
  fast_rejoin,        // reconciled member rejoined without a rekey
  // HA plane (src/ha/, PROTOCOL.md §11).
  repl_delta,         // delta shipped or applied
  repl_snapshot,      // baseline shipped or installed
  repl_gap,           // log gap detected
  deposed,            // active leader learned it was fenced
  repl_fence,         // standby fenced lower-epoch replication traffic
  repl_fenced,        // ... the fenced traffic as evidence
  promote,            // standby promoted to active leader
  // Federation plane (src/fed/, PROTOCOL.md §14).
  redirect_sent,      // shard redirected a member to the owner
  redirect_followed,  // member followed a redirect
  wrong_shard,        // traffic for a group this shard does not own
  fed_label_refused,  // non-federation label on the federation channel
  fed_seal_refused,   // federation frame did not open under the pair key
  fed_malformed,      // undecodable federation body or snapshot
  dir_claim,          // directory claim received
  stale_dir_claim,    // claim below the directory's version
  stale_offer,        // migration offer from a superseded owner
  migrate_offer,      // migration started (detail: "offer")
  migrate_refuse,     // target refused an offer
  migrate_install,    // target installed the snapshot
  migrate_abort,      // source abandoned a migration
  migrate_commit,     // source committed a migration
  migrate_step,       // ack sent / commit seen (detail: milestone)
  // Fault injector (net/fault.h) and AEAD providers (crypto/aead.h).
  partition_cut,
  partition_heal,
  partition_drop,
  fault_drop,
  fault_duplicate,
  fault_delay,
  aead_open_failure,
};

inline constexpr std::size_t kEventCount =
    static_cast<std::size_t>(Event::aead_open_failure) + 1;

/// What one event produces. Empty `counter` means no counter; an empty
/// `counter_group` / `counter_agent` means the event's own group / agent.
struct EventRow {
  std::string_view name;
  std::string_view counter;
  std::optional<TraceKind> trace;
  std::optional<EvidenceKind> evidence;
  std::string_view counter_group = {};
  std::string_view counter_agent = {};
};

const EventRow& event_row(Event event);

/// The counter cells one reporting object's events bump: filled lazily
/// while a metrics sink is attached, refilled when the registry generation
/// or the counter's (group, agent) changes. Not shared between threads.
class EventCounters {
 public:
  void bump(Event event, std::string_view group, std::string_view agent);

 private:
  std::uint64_t generation_ = 0;
  MetricsRegistry* registry_ = nullptr;
  std::string group_, agent_;
  std::array<std::atomic<std::uint64_t>*, kEventCount> cells_{};
};

/// The table of sites that have no reporting object: one per thread.
EventCounters& thread_event_counters();

/// Writes `event` to every attached sink; called only when one is attached.
void emit_attached(EventCounters& counters, Event event,
                   std::optional<EvidenceKind> evidence, Tick tick,
                   std::string_view group, std::string_view agent,
                   std::string_view peer, std::string_view detail,
                   std::uint64_t value);

inline bool any_sink_attached() {
  return metrics_sink() != nullptr || trace_sink() != nullptr ||
         security_sink() != nullptr;
}

inline void emit(EventCounters& counters, Event event, Tick tick,
                 std::string_view group, std::string_view agent,
                 std::string_view peer = {}, std::string_view detail = {},
                 std::uint64_t value = 0) {
  if (any_sink_attached())
    emit_attached(counters, event, std::nullopt, tick, group, agent, peer,
                  detail, value);
}

/// As above, with the evidence kind chosen by the site (from an error code).
inline void emit(EventCounters& counters, Event event, EvidenceKind evidence,
                 Tick tick, std::string_view group, std::string_view agent,
                 std::string_view peer = {}, std::string_view detail = {},
                 std::uint64_t value = 0) {
  if (any_sink_attached())
    emit_attached(counters, event, evidence, tick, group, agent, peer, detail,
                  value);
}

/// Either form without a table: the calling thread's.
template <typename... Args>
void emit(Event event, const Args&... args) {
  if (any_sink_attached()) emit(thread_event_counters(), event, args...);
}

}  // namespace enclaves::obs
