// Structured protocol event trace: the kinds of event the trace view of the
// event store (obs/record.h) shows, recorded against VirtualClock ticks.
//
// Where metrics.h aggregates (how many retransmits), the trace preserves
// order (which retransmit, when, between whom). The event taxonomy follows
// the DSN'01 protocol surface: handshake phase transitions, AdminMsg
// send/ack, retransmits, suspicion/expulsion/rejoin, rekeys, data-plane
// delivery and rejection, and fault-injector verdicts. Protocol code reports
// through obs::emit (obs/event.h), whose table row names the event's kind.
#pragma once

#include <cstdint>
#include <string_view>

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

}  // namespace enclaves::obs
