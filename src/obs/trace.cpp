#include "obs/trace.h"

#include <iterator>

namespace enclaves::obs {

// One name per kind, in enum order: each kind's own identifier.
constexpr std::string_view kTraceNames[] = {
    "leader_phase", "member_phase", "admin_send", "admin_ack", "retransmit",
    "reanswer", "suspect", "expel", "rejoin", "rekey", "join", "leave",
    "data_deliver", "data_reject", "fault_drop", "fault_duplicate",
    "fault_delay", "repl_delta", "repl_snapshot", "repl_gap", "promote",
    "fence", "health", "disconnect", "oplog_append", "reconcile_offer",
    "reconcile_verdict", "op_replay", "fault_partition", "keytree_level",
    "keytree_recover", "fed_redirect", "fed_migrate", "fed_dir",
};
static_assert(std::size(kTraceNames) ==
              static_cast<std::size_t>(TraceKind::fed_dir) + 1);

std::string_view trace_kind_name(TraceKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < std::size(kTraceNames) ? kTraceNames[i] : "unknown";
}

RecordFormat record_format(TraceKind kind) {
  return {trace_kind_name(kind), "agent", "peer", "trace"};
}

}  // namespace enclaves::obs
