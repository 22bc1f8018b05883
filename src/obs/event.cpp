#include "obs/event.h"

#include <array>
#include <cassert>

namespace enclaves::obs {

namespace {

using E = Event;
using T = TraceKind;
using V = EvidenceKind;

struct Row {
  Event event;
  EventRow row;
};

// One row per Event, in enum order (checked below). Columns: name, counter,
// trace kind, evidence kind, fixed counter group, fixed counter agent.
constexpr std::array<Row, kEventCount> kTable{{
    {E::leader_phase, {"leader_phase", {}, T::leader_phase, {}}},
    {E::member_phase, {"member_phase", {}, T::member_phase, {}}},
    {E::session_up,
     {"session_up", "sessions_established_total", T::member_phase, {}}},
    {E::admin_send, {"admin_send", "admin_sends_total", T::admin_send, {}}},
    {E::admin_ack, {"admin_ack", "admin_acks_total", T::admin_ack, {}}},
    {E::reanswer, {"reanswer", "reanswers_total", T::reanswer, {}}},
    {E::retransmit, {"retransmit", "retransmits_total", T::retransmit, {}}},
    {E::auth_reject, {"auth_reject", "auth_rejects_total", {}, V::bad_label}},
    {E::join_denied,
     {"join_denied", "join_denials_total", {}, V::join_denied}},
    {E::join, {"join", "joins_total", T::join, {}}},
    {E::leave, {"leave", "leaves_total", T::leave, {}}},
    {E::leave_requested, {"leave_requested", {}, T::leave, {}}},
    {E::expel, {"expel", "expulsions_total", T::expel, {}}},
    {E::ghost_cleared, {"ghost_cleared", {}, T::expel, {}}},
    {E::expelled, {"expelled", "expelled_total", T::leave, {}}},
    {E::abandon, {"abandon", "exchanges_abandoned_total", T::leave, {}}},
    {E::suspect, {"suspect", "suspicions_total", T::suspect, {}}},
    {E::rejoin, {"rejoin", "rejoins_total", T::rejoin, {}}},
    {E::retarget, {"retarget", "failover_retargets_total", T::rejoin, {}}},
    {E::rekey, {"rekey", "rekeys_total", T::rekey, {}}},
    {E::rekey_applied,
     {"rekey_applied", "rekeys_applied_total", T::rekey, {}}},
    {E::epoch_fenced, {"epoch_fenced", "epoch_fenced_total", T::fence, {}}},
    {E::key_below_floor, {"key_below_floor", {}, {}, V::epoch_fenced}},
    {E::keytree_level, {"keytree_level", {}, T::keytree_level, {}}},
    {E::keytree_reject,
     {"keytree_reject", "keytree_rejects_total", {}, V::forged_keytree}},
    {E::keytree_recover,
     {"keytree_recover", "keytree_recover_requests_total", T::keytree_recover,
      {}}},
    {E::keytree_answer,
     {"keytree_answer", "keytree_recoveries_total", T::keytree_recover, {}}},
    {E::keytree_path,
     {"keytree_path", "keytree_paths_applied_total", T::keytree_recover, {}}},
    {E::relay_reject,
     {"relay_reject", "relay_rejects_total", T::data_reject,
      V::relay_reject}},
    {E::data_reject,
     {"data_reject", "data_rejects_total", T::data_reject, V::bad_label}},
    {E::data_deliver,
     {"data_deliver", "data_delivered_total", T::data_deliver, {}}},
    {E::disconnect, {"disconnect", "disconnects_total", T::disconnect, {}}},
    {E::oplog_append,
     {"oplog_append", "oplog_enqueued_total", T::oplog_append, {}}},
    {E::offer_sent,
     {"offer_sent", "reconcile_offers_total", T::reconcile_offer, {}}},
    {E::offer_admitted,
     {"offer_admitted", "reconcile_admits_total", T::reconcile_offer, {}}},
    {E::offer_quarantined,
     {"offer_quarantined", "reconcile_quarantines_total", {},
      V::stale_epoch}},
    {E::offer_answered, {"offer_answered", {}, T::reconcile_offer, {}}},
    {E::reconcile_verdict,
     {"reconcile_verdict", {}, T::reconcile_verdict, {}}},
    {E::reconcile_intrusion,
     {"reconcile_intrusion", "reconcile_intrusions_total", {},
      V::forged_oplog}},
    {E::op_replay,
     {"op_replay", "reconcile_ops_replayed_total", T::op_replay, {}}},
    {E::fast_rejoin,
     {"fast_rejoin", "reconcile_fast_rejoins_total", T::rejoin, {}}},
    {E::repl_delta, {"repl_delta", "repl_deltas_total", T::repl_delta, {}}},
    {E::repl_snapshot,
     {"repl_snapshot", "repl_snapshots_total", T::repl_snapshot, {}}},
    {E::repl_gap, {"repl_gap", "repl_gaps_total", T::repl_gap, {}}},
    {E::deposed, {"deposed", "deposed_total", T::fence, {}}},
    {E::repl_fence, {"repl_fence", {}, T::fence, {}}},
    {E::repl_fenced, {"repl_fenced", {}, {}, V::fenced_repl}},
    {E::promote, {"promote", "promotions_total", T::promote, {}}},
    {E::redirect_sent,
     {"redirect_sent", "redirects_sent_total", T::fed_redirect, {}, "fed"}},
    {E::redirect_followed,
     {"redirect_followed", "redirects_followed_total", T::fed_redirect, {}}},
    {E::wrong_shard, {"wrong_shard", {}, {}, V::wrong_shard}},
    {E::fed_label_refused, {"fed_label_refused", {}, {}, V::bad_label}},
    {E::fed_seal_refused,
     {"fed_seal_refused", {}, {}, V::aead_open_failure}},
    {E::fed_malformed, {"fed_malformed", {}, {}, V::malformed}},
    {E::dir_claim, {"dir_claim", {}, T::fed_dir, {}}},
    {E::stale_dir_claim,
     {"stale_dir_claim", "dir_stale_claims_total", {}, V::fenced_migration,
      "fed"}},
    {E::stale_offer, {"stale_offer", {}, {}, V::fenced_migration}},
    {E::migrate_offer,
     {"migrate_offer", "migrations_started_total", T::fed_migrate, {},
      "fed"}},
    {E::migrate_refuse,
     {"migrate_refuse", "migrations_refused_total", T::fed_migrate, {},
      "fed"}},
    {E::migrate_install,
     {"migrate_install", "migrations_installed_total", T::fed_migrate, {},
      "fed"}},
    {E::migrate_abort,
     {"migrate_abort", "migrations_aborted_total", T::fed_migrate, {},
      "fed"}},
    {E::migrate_commit,
     {"migrate_commit", "migrations_completed_total", T::fed_migrate, {},
      "fed"}},
    {E::migrate_step, {"migrate_step", {}, T::fed_migrate, {}}},
    {E::partition_cut,
     {"partition_cut", "fault_partitions_total", T::fault_partition, {},
      "net", "fault"}},
    {E::partition_heal,
     {"partition_heal", "fault_heals_total", T::fault_partition, {}, "net",
      "fault"}},
    {E::partition_drop,
     {"partition_drop", "fault_partition_drops_total", T::fault_drop, {},
      "net", "fault"}},
    {E::fault_drop,
     {"fault_drop", "fault_drops_total", T::fault_drop, {}, "net", "fault"}},
    {E::fault_duplicate,
     {"fault_duplicate", "fault_duplicates_total", T::fault_duplicate, {},
      "net", "fault"}},
    {E::fault_delay,
     {"fault_delay", "fault_delays_total", T::fault_delay, {}, "net",
      "fault"}},
    {E::aead_open_failure,
     {"aead_open_failure", "open_failures_total", {}, V::aead_open_failure}},
}};

constexpr bool table_in_enum_order() {
  for (std::size_t i = 0; i < kTable.size(); ++i)
    if (static_cast<std::size_t>(kTable[i].event) != i) return false;
  return true;
}
static_assert(table_in_enum_order(), "event table out of enum order");

}  // namespace

const EventRow& event_row(Event event) {
  return kTable[static_cast<std::size_t>(event)].row;
}

void EventCounters::bump(Event event, std::string_view group,
                         std::string_view agent) {
  if (generation_ !=
          detail::g_metrics_generation.load(std::memory_order_acquire) ||
      group != group_ || agent != agent_) {
    registry_ = detail::resolving_sink(generation_);
    group_ = group;
    agent_ = agent;
    cells_.fill(nullptr);
  }
  if (!registry_) return;
  auto*& cell = cells_[static_cast<std::size_t>(event)];
  if (!cell)
    cell = &registry_->counter_cell(group, agent, event_row(event).counter);
  cell->fetch_add(1, std::memory_order_relaxed);
}

EventCounters& thread_event_counters() {
  thread_local EventCounters counters;
  return counters;
}

void emit_attached(EventCounters& counters, Event event,
                   std::optional<EvidenceKind> evidence, Tick tick,
                   std::string_view group, std::string_view agent,
                   std::string_view peer, std::string_view detail,
                   std::uint64_t value) {
  const EventRow& row = event_row(event);
  assert(!evidence || row.evidence);  // only evidence rows take a kind
  if (!row.counter.empty()) {
    counters.bump(event, row.counter_group.empty() ? group : row.counter_group,
                  row.counter_agent.empty() ? agent : row.counter_agent);
  }
  if (row.trace) trace(tick, *row.trace, group, agent, peer, detail, value);
  if (row.evidence) {
    security_event(tick, evidence.value_or(*row.evidence), group, agent, peer,
                   detail, value);
  }
}

}  // namespace enclaves::obs
