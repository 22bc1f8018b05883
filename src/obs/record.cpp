#include "obs/record.h"

#include <array>
#include <iterator>

#include "obs/json_escape.h"

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

constexpr std::string_view kEvidenceNames[] = {
    "aead_open_failure", "stale_nonce", "replayed_seq", "stale_epoch",
    "epoch_fenced", "relay_reject", "fenced_repl", "identity_mismatch",
    "unknown_sender", "join_denied", "bad_label", "malformed", "forged_oplog",
    "forged_keytree", "wrong_shard", "fenced_migration",
};
static_assert(std::size(kEvidenceNames) ==
              static_cast<std::size_t>(EvidenceKind::fenced_migration) + 1);

std::string_view trace_kind_name(TraceKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < std::size(kTraceNames) ? kTraceNames[i] : "unknown";
}

std::string_view evidence_kind_name(EvidenceKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < std::size(kEvidenceNames) ? kEvidenceNames[i] : "unknown";
}

std::string_view evidence_metric_name(EvidenceKind kind) {
  constexpr std::size_t kKinds = std::size(kEvidenceNames);
  static const std::array<std::string, kKinds> kMetricNames = [] {
    std::array<std::string, kKinds> names;
    for (std::size_t i = 0; i < kKinds; ++i)
      names[i] = "refusals_" + std::string(kEvidenceNames[i]) + "_total";
    return names;
  }();
  const auto i = static_cast<std::size_t>(kind);
  return i < kKinds ? std::string_view(kMetricNames[i])
                    : "refusals_unknown_total";
}

EvidenceKind evidence_kind_for(Errc code) {
  switch (code) {
    case Errc::auth_failed: return EvidenceKind::aead_open_failure;
    case Errc::stale: return EvidenceKind::stale_nonce;
    case Errc::identity_mismatch: return EvidenceKind::identity_mismatch;
    case Errc::unknown_peer: return EvidenceKind::unknown_sender;
    case Errc::denied: return EvidenceKind::join_denied;
    case Errc::malformed:
    case Errc::truncated:
    case Errc::oversized: return EvidenceKind::malformed;
    default: return EvidenceKind::bad_label;  // unexpected / out-of-state
  }
}

void append_view_line(std::string& out, const Record& r, View view,
                      bool tagged) {
  const bool ledger = view == View::ledger;
  out += '{';
  if (tagged) out += ledger ? "\"k\":\"ledger\"," : "\"k\":\"trace\",";
  out += "\"tick\":" + std::to_string(r.tick);
  append_json_field(out, "kind",
                    ledger ? evidence_kind_name(*r.evidence)
                           : trace_kind_name(*r.trace));
  append_json_field(out, "group", r.group);
  append_json_field(out, ledger ? "observer" : "agent", r.agent);
  if (!r.peer.empty())
    append_json_field(out, ledger ? "accused" : "peer", r.peer);
  if (!r.detail.empty()) append_json_field(out, "detail", r.detail);
  if (r.value != 0) append_json_field(out, "value", r.value);
  out += '}';
}

// ---------------------------------------------------------------------------
// EventStore

void EventStore::append(Record r) {
  std::lock_guard lock(mutex_);
  evict_to(capacity_ - 1);
  records_.push_back(std::move(r));
}

std::vector<TraceEvent> EventStore::events() const {
  std::lock_guard lock(mutex_);
  std::vector<TraceEvent> out;
  for (const Record& r : records_)
    if (r.trace)
      out.push_back({r.tick, *r.trace, r.group, r.agent, r.peer, r.detail,
                     r.value});
  return out;
}

std::vector<SecurityEvidence> EventStore::entries() const {
  std::lock_guard lock(mutex_);
  std::vector<SecurityEvidence> out;
  for (const Record& r : records_)
    if (r.evidence)
      out.push_back({r.tick, *r.evidence, r.group, r.agent, r.peer, r.detail,
                     r.value});
  return out;
}

std::uint64_t EventStore::suspicion(std::string_view accused) const {
  std::lock_guard lock(mutex_);
  std::uint64_t n = 0;
  for (const Record& r : records_)
    if (r.evidence && !accused.empty() && r.peer == accused) ++n;
  return n;
}

std::map<std::string, std::uint64_t> EventStore::suspicion_counts() const {
  std::lock_guard lock(mutex_);
  std::map<std::string, std::uint64_t> out;
  for (const Record& r : records_)
    if (r.evidence && !r.peer.empty()) ++out[r.peer];
  return out;
}

std::string EventStore::to_jsonl(View view) const {
  std::lock_guard lock(mutex_);
  std::string out;
  for (const Record& r : records_) {
    if (!in_view(r, view)) continue;
    append_view_line(out, r, view);
    out += '\n';
  }
  return out;
}

std::size_t EventStore::size() const {
  std::lock_guard lock(mutex_);
  return records_.size();
}

void EventStore::clear() {
  std::lock_guard lock(mutex_);
  records_.clear();
  dropped_ = 0;
}

void EventStore::set_capacity(std::size_t capacity) {
  std::lock_guard lock(mutex_);
  capacity_ = capacity;
  evict_to(capacity_);
}

std::uint64_t EventStore::dropped_events() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

// Mirrors the eviction counter into the metrics plane, so ring-buffer loss
// is visible on /metrics. The registry never calls back into a store.
void EventStore::evict_to(std::size_t keep) {
  if (capacity_ == 0 || records_.size() <= keep) return;
  while (records_.size() > keep) {
    records_.pop_front();
    ++dropped_;
  }
  gauge_set("obs", "events", "dropped_events",
            static_cast<std::int64_t>(dropped_));
}

// ---------------------------------------------------------------------------
// The record path

void record_attached(Tick tick, std::optional<TraceKind> trace,
                     std::optional<EvidenceKind> evidence,
                     std::string_view group, std::string_view agent,
                     std::string_view peer, std::string_view detail,
                     std::uint64_t value, std::string_view incident) {
  if (evidence) {
    if (MetricsRegistry* m = metrics_sink()) {
      m->add("security", agent, "refusals_total");
      m->add("security", agent, evidence_metric_name(*evidence));
      if (!peer.empty()) m->add("security", peer, "suspicion_total");
    }
  }
  EventStore* store = event_sink();
  const bool flight = flight_active();
  if (!store && !flight) return;
  Record r{tick, trace, evidence, std::string(group), std::string(agent),
           std::string(peer), std::string(detail), value};
  if (flight) obs::detail::flight_note(r, incident);
  if (store) store->append(std::move(r));
}

}  // namespace enclaves::obs
