// HealthMonitor unit tests: threshold taxonomy (degraded / partitioned /
// under_attack), windowed deltas vs cumulative totals, hysteresis, gauge and
// trace emission, and verdict JSON for hostile ids.
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/record.h"

namespace enclaves::obs {
namespace {

MetricsSnapshot snap(
    std::initializer_list<std::pair<MetricKey, std::uint64_t>> counters) {
  MetricsSnapshot s;
  for (const auto& [key, value] : counters) s.counters[key] = value;
  return s;
}

TEST(HealthMonitor, StartsHealthyWithNoGroups) {
  HealthMonitor monitor;
  EXPECT_EQ(monitor.verdict().worst(), HealthState::healthy);
  EXPECT_TRUE(monitor.observe(1, MetricsSnapshot{}));
  EXPECT_EQ(monitor.verdict().worst(), HealthState::healthy);
  EXPECT_TRUE(monitor.verdict().groups.empty());
  EXPECT_EQ(monitor.group_state("L"), HealthState::healthy);
}

TEST(HealthMonitor, WindowGatingHonoursConfig) {
  HealthMonitor monitor;  // window = 16
  EXPECT_TRUE(monitor.observe(1, MetricsSnapshot{}));
  EXPECT_FALSE(monitor.observe(2, MetricsSnapshot{}));
  EXPECT_FALSE(monitor.observe(16, MetricsSnapshot{}));
  EXPECT_TRUE(monitor.observe(17, MetricsSnapshot{}));
}

TEST(HealthMonitor, QuietGroupIsHealthy) {
  HealthMonitor monitor;
  monitor.observe(
      1, snap({{{"L", "alice", "data_delivered_total"}, 10},
               {{"L", "alice", "retransmits_total"}, 2}}));  // below 3
  EXPECT_EQ(monitor.group_state("L"), HealthState::healthy);
  EXPECT_EQ(monitor.peer_state("L", "alice"), HealthState::healthy);
}

TEST(HealthMonitor, RetransmitsOverThresholdDegrade) {
  HealthMonitor monitor;
  monitor.observe(1, snap({{{"L", "alice", "retransmits_total"}, 2},
                           {{"L", "alice", "reanswers_total"}, 1}}));
  EXPECT_EQ(monitor.peer_state("L", "alice"), HealthState::degraded);
  EXPECT_EQ(monitor.group_state("L"), HealthState::degraded);
  const PeerHealth& ph =
      monitor.verdict().groups.at("L").peers.at("alice");
  EXPECT_EQ(ph.window_retransmits, 3u);
  EXPECT_EQ(ph.why, "3 retransmits/reanswers in window");
}

TEST(HealthMonitor, DeltasNotTotalsDriveTheVerdict) {
  HealthMonitor monitor;
  const MetricsSnapshot burst =
      snap({{{"L", "alice", "retransmits_total"}, 5}});
  monitor.observe(16, burst);
  EXPECT_EQ(monitor.peer_state("L", "alice"), HealthState::degraded);
  // Same cumulative totals in the next windows: zero delta, so the evidence
  // is gone and, after kHealthClearWindows (2) quiet windows, the state
  // returns to healthy.
  static_assert(kHealthClearWindows == 2);
  monitor.observe(32, burst);
  monitor.observe(48, burst);
  EXPECT_EQ(monitor.peer_state("L", "alice"), HealthState::healthy);
}

TEST(HealthMonitor, HysteresisHoldsThenClears) {
  HealthMonitor monitor;  // kHealthClearWindows = 2
  const MetricsSnapshot burst =
      snap({{{"L", "alice", "retransmits_total"}, 5}});
  monitor.observe(16, burst);
  EXPECT_EQ(monitor.peer_state("L", "alice"), HealthState::degraded);
  monitor.observe(32, burst);  // quiet window 1: held
  EXPECT_EQ(monitor.peer_state("L", "alice"), HealthState::degraded);
  const std::string held_why =
      monitor.verdict().groups.at("L").peers.at("alice").why;
  EXPECT_NE(held_why.find("holding degraded"), std::string::npos) << held_why;
  monitor.observe(48, burst);  // quiet window 2: clears
  EXPECT_EQ(monitor.peer_state("L", "alice"), HealthState::healthy);
}

TEST(HealthMonitor, ConnectivitySignalsMeanPartitioned) {
  HealthMonitor monitor;
  monitor.observe(16, snap({{{"L", "m2", "suspicions_total"}, 1},
                            {{"L", "m2", "retransmits_total"}, 9}}));
  // Partitioned outranks the degraded evidence in the same window.
  EXPECT_EQ(monitor.peer_state("L", "m2"), HealthState::partitioned);
  EXPECT_EQ(monitor.group_state("L"), HealthState::partitioned);
}

TEST(HealthMonitor, ReconcileSignalsMeanHealingNotPartitioned) {
  HealthMonitor monitor;
  // A healing member's own suspicion/rejoin evidence rides along with its
  // reconciliation traffic; the reconcile signals must win.
  monitor.observe(16, snap({{{"L", "m2", "suspicions_total"}, 1},
                            {{"L", "m2", "reconcile_offers_total"}, 1},
                            {{"L", "m2", "reconcile_ops_replayed_total"}, 3}}));
  EXPECT_EQ(monitor.peer_state("L", "m2"), HealthState::healing);
  const PeerHealth& ph = monitor.verdict().groups.at("L").peers.at("m2");
  EXPECT_EQ(ph.window_reconcile_signals, 3u)
      << "the offer send is not an answered signal";
  EXPECT_NE(ph.why.find("reconciliation"), std::string::npos) << ph.why;
}

TEST(HealthMonitor, UnansweredOffersAreNotHealingEvidence) {
  HealthMonitor monitor;
  // A partitioned member re-sends its offer on every retry tick, into a
  // link that drops it. Offer counts alone must leave the peer
  // `partitioned` — only an answer from the leader (admit / replayed op)
  // reads as healing.
  monitor.observe(16, snap({{{"L", "m2", "suspicions_total"}, 1},
                            {{"L", "m2", "reconcile_offers_total"}, 7}}));
  EXPECT_EQ(monitor.peer_state("L", "m2"), HealthState::partitioned);
  const PeerHealth& ph = monitor.verdict().groups.at("L").peers.at("m2");
  EXPECT_EQ(ph.window_reconcile_signals, 0u);
}

TEST(HealthMonitor, OfflineBacklogKeepsPeerPartitioned) {
  HealthMonitor monitor;
  // The suspicion that cut the peer off is a one-shot event; windows later
  // it has aged out. The non-empty op-log gauge is the level signal that
  // the peer is still operating disconnected.
  auto with_backlog = snap({{{"L", "m2", "suspicions_total"}, 1},
                            {{"L", "m2", "retransmits_total"}, 5}});
  with_backlog.gauges[MetricKey{"L", "m2", "oplog_depth"}] = 3;
  monitor.observe(16, with_backlog);
  EXPECT_EQ(monitor.peer_state("L", "m2"), HealthState::partitioned);

  // Next window: no new counters at all, backlog still queued — the raw
  // verdict itself stays partitioned (not a hysteresis hold).
  auto still_queued = with_backlog;
  still_queued.counters[MetricKey{"L", "m2", "retransmits_total"}] = 9;
  monitor.observe(32, still_queued);
  const PeerHealth& ph = monitor.verdict().groups.at("L").peers.at("m2");
  EXPECT_EQ(ph.state, HealthState::partitioned);
  EXPECT_NE(ph.why.find("queued offline"), std::string::npos) << ph.why;

  // The backlog drains through an answered replay: healing.
  auto drained = still_queued;
  drained.gauges[MetricKey{"L", "m2", "oplog_depth"}] = 0;
  drained.counters[MetricKey{"L", "m2", "reconcile_admits_total"}] = 1;
  drained.counters[MetricKey{"L", "m2", "reconcile_ops_replayed_total"}] = 3;
  monitor.observe(48, drained);
  EXPECT_EQ(monitor.peer_state("L", "m2"), HealthState::healing);
}

TEST(HealthMonitor, HealLadderReadsPartitionedHealingHealthy) {
  MetricsRegistry registry;
  EventStore trace_log;
  ScopedMetricsSink metrics_sink(registry);
  ScopedEventSink trace_sink(trace_log);

  HealthMonitor monitor;  // kHealthClearWindows = 2
  // Window 1: the member is cut off — partitioned.
  monitor.observe(16, snap({{{"L", "m2", "suspicions_total"}, 1}}));
  EXPECT_EQ(monitor.peer_state("L", "m2"), HealthState::partitioned);
  // Window 2: its op-log is replaying. Healing ranks BELOW partitioned, but
  // reconciliation is the partition's resolution, not quiet — the monitor
  // transitions immediately instead of holding for kHealthClearWindows.
  monitor.observe(32, snap({{{"L", "m2", "suspicions_total"}, 1},
                            {{"L", "m2", "reconcile_offers_total"}, 1},
                            {{"L", "m2", "reconcile_admits_total"}, 1}}));
  EXPECT_EQ(monitor.peer_state("L", "m2"), HealthState::healing);
  // Quiet windows: healing de-escalates through normal hysteresis.
  const MetricsSnapshot quiet =
      snap({{{"L", "m2", "suspicions_total"}, 1},
            {{"L", "m2", "reconcile_offers_total"}, 1},
            {{"L", "m2", "reconcile_admits_total"}, 1}});
  monitor.observe(48, quiet);
  EXPECT_EQ(monitor.peer_state("L", "m2"), HealthState::healing) << "held";
  monitor.observe(64, quiet);
  EXPECT_EQ(monitor.peer_state("L", "m2"), HealthState::healthy);

  // The transition trail reads partitioned -> healing -> healthy.
  std::vector<std::string> transitions;
  for (const TraceEvent& e : trace_log.events())
    if (e.kind == TraceKind::health && e.agent == "m2")
      transitions.push_back(e.detail);
  EXPECT_EQ(transitions,
            (std::vector<std::string>{"healthy->partitioned",
                                      "partitioned->healing",
                                      "healing->healthy"}));
}

TEST(HealthMonitor, LeaderAbandonsPartitionTheGroupNotThePeer) {
  HealthMonitor monitor;
  monitor.observe(16, snap({{{"L", "L", "exchanges_abandoned_total"}, 2},
                            {{"L", "alice", "data_delivered_total"}, 1}}));
  EXPECT_EQ(monitor.group_state("L"), HealthState::partitioned);
  EXPECT_EQ(monitor.peer_state("L", "L"), HealthState::healthy);
  EXPECT_NE(monitor.verdict().groups.at("L").why.find("abandoned"),
            std::string::npos);
}

TEST(HealthMonitor, WindowedSuspicionMeansUnderAttack) {
  MetricsRegistry registry;
  EventStore trace_log;
  ScopedMetricsSink metrics_sink(registry);
  ScopedEventSink trace_sink(trace_log);

  registry.add("L", "mallory", "data_rejects_total", 0);  // group presence
  for (int i = 0; i < 5; ++i)
    security_event(static_cast<Tick>(i), EvidenceKind::replayed_seq, "L",
                   "alice", "mallory");

  HealthMonitor monitor;
  EXPECT_TRUE(monitor.observe(16, registry.snapshot()));
  EXPECT_EQ(monitor.peer_state("L", "mallory"), HealthState::under_attack);
  EXPECT_EQ(monitor.group_state("L"), HealthState::under_attack);
  EXPECT_EQ(monitor.verdict().worst(), HealthState::under_attack);

  // Emission: numeric gauges under the reserved "health" group...
  EXPECT_EQ(registry.gauge("health", "L", "group_state"),
            static_cast<std::int64_t>(HealthState::under_attack));
  EXPECT_EQ(registry.gauge("health", "L/mallory", "peer_state"),
            static_cast<std::int64_t>(HealthState::under_attack));
  // ...and a health trace event per transition.
  bool saw_transition = false;
  for (const TraceEvent& e : trace_log.events()) {
    if (e.kind == TraceKind::health && e.agent == "mallory") {
      EXPECT_EQ(e.detail, "healthy->under_attack");
      EXPECT_EQ(e.value, static_cast<std::uint64_t>(
                             HealthState::under_attack));
      saw_transition = true;
    }
  }
  EXPECT_TRUE(saw_transition);
}

TEST(HealthMonitor, MonitorGaugesDoNotFeedBackIntoDiscovery) {
  MetricsRegistry registry;
  ScopedMetricsSink metrics_sink(registry);
  registry.add("L", "alice", "retransmits_total", 5);
  HealthMonitor monitor;
  monitor.observe(16, registry.snapshot());
  // Second window sees the health/net/security gauges the first one wrote;
  // none of them may appear as protocol groups.
  monitor.observe(32, registry.snapshot());
  ASSERT_EQ(monitor.verdict().groups.size(), 1u);
  EXPECT_TRUE(monitor.verdict().groups.count("L"));
}

TEST(HealthMonitor, InfrastructureGroupsAreNotProtocolGroups) {
  HealthMonitor monitor;
  monitor.observe(16, snap({{{"net", "sim", "packets_dropped_total"}, 50},
                            {{"crypto", "x", "opens_total"}, 3},
                            {{"security", "alice", "refusals_total"}, 2},
                            {{"ha", "s1", "suspicions_total"}, 1},
                            {{"obs", "trace", "anything_total"}, 1}}));
  EXPECT_TRUE(monitor.verdict().groups.empty());
}

TEST(HealthVerdict, JsonEscapesHostileIdsAndNamesStates) {
  HealthMonitor monitor;
  monitor.observe(
      16, snap({{{"L", "evil\"agent\nid", "retransmits_total"}, 5}}));
  const std::string json = monitor.verdict().to_json();
  EXPECT_NE(json.find("\"state\":\"degraded\""), std::string::npos) << json;
  EXPECT_EQ(json.find('\n'), std::string::npos);  // newline escaped
  EXPECT_NE(json.find("evil\\\"agent\\nid"), std::string::npos) << json;
  EXPECT_NE(json.find("\"windows\":1"), std::string::npos);
}

}  // namespace
}  // namespace enclaves::obs
