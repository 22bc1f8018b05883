// enclaves_top rendering tests: sparkline scaling, the golden dashboard
// frame (byte-exact, like golden_trace_test for the event chart), and
// replay-mode frame construction from dumped artifacts.
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "tools/enclaves_top_lib.h"

namespace enclaves::top {
namespace {

TEST(Sparkline, ScalesToMaxAndTruncatesToWidth) {
  EXPECT_EQ(sparkline({}, 10), "");
  EXPECT_EQ(sparkline({0, 0, 0}, 10), "▁▁▁");
  EXPECT_EQ(sparkline({1, 2, 4, 8}, 10), "▁▂▄█");
  // Width keeps the newest points.
  EXPECT_EQ(sparkline({9, 9, 1, 8}, 2), "▁█");
}

TopFrame golden_frame() {
  TopFrame frame;
  frame.tick = 128;
  frame.verdict.tick = 128;
  frame.verdict.windows = 7;

  obs::GroupHealth group;
  group.state = obs::HealthState::degraded;
  group.why = "peer m1: 4 retransmits/reanswers in window";

  obs::PeerHealth m0;
  m0.window_retransmits = 1;
  group.peers["m0"] = m0;

  obs::PeerHealth m1;
  m1.state = obs::HealthState::degraded;
  m1.why = "4 retransmits/reanswers in window";
  m1.suspicion = 2;
  m1.window_retransmits = 4;
  group.peers["m1"] = m1;

  // A partitioned member mid-heal: its offline op-log is replaying, and the
  // oplog_depth gauge shows what is still queued.
  obs::PeerHealth m2;
  m2.state = obs::HealthState::healing;
  m2.why = "2 reconciliation signal(s) in window";
  m2.window_partition_signals = 1;
  m2.window_reconcile_signals = 2;
  group.peers["m2"] = m2;
  frame.snapshot.gauges[obs::MetricKey{"L", "m2", "oplog_depth"}] = 5;

  frame.verdict.groups["L"] = group;
  frame.rates["retransmits_total"] = {0, 1, 4, 2, 0};
  frame.profile.scopes["leader/handle"] =
      obs::ProfStat{40, 900'000, 120'000, 2'000, 80'000, 0};
  frame.profile.scopes["leader/handle;crypto/seal"] =
      obs::ProfStat{80, 640'000, 640'000, 5'000, 12'000, 20'480};
  frame.profile.scopes["net/sim/enqueue"] =
      obs::ProfStat{120, 36'000, 36'000, 100, 900, 61'440};
  frame.ledger_tail = {
      "{\"tick\":90,\"kind\":\"replayed_seq\",\"accused\":\"m1\"}",
      "{\"tick\":91,\"kind\":\"stale_nonce\",\"accused\":\"m1\"}",
  };
  return frame;
}

TEST(RenderFrame, GoldenDashboard) {
  const std::string expected =
      "enclaves_top — tick 128 (7 window(s))  overall: degraded\n"
      "\n"
      "group L: degraded — peer m1: 4 retransmits/reanswers in window\n"
      "  peer    state         susp  rt/ref/susp/part  oplog  why\n"
      "  m0      healthy       0     1/0/0/0           0\n"
      "  m1      degraded      2     4/0/0/0           0      "
      "4 retransmits/reanswers in window\n"
      "  m2      healing       0     0/0/0/1           5      "
      "2 reconciliation signal(s) in window\n"
      "\n"
      "rates (per sample):\n"
      "  retransmits_total▁▂█▄▁  (+7)\n"
      "\n"
      "hot scopes (self time):\n"
      "  scope                      count   self      total\n"
      "  leader/handle;crypto/seal  80      640.0us   640.0us\n"
      "  leader/handle              40      120.0us   900.0us\n"
      "  net/sim/enqueue            120     36.0us    36.0us\n"
      "\n"
      "ledger tail:\n"
      "  {\"tick\":90,\"kind\":\"replayed_seq\",\"accused\":\"m1\"}\n"
      "  {\"tick\":91,\"kind\":\"stale_nonce\",\"accused\":\"m1\"}\n";
  EXPECT_EQ(render_frame(golden_frame()), expected);
}

// The federation plane renders one row per shard (byte-exact, like the
// group table above): groups owned, migrations in flight, the migration
// started/completed/refused/aborted ledger, redirect volume, and refused
// stale directory claims — enough to spot a wedged migration or a zombie
// shard at a glance.
TEST(RenderFrame, GoldenFederationShardSection) {
  TopFrame frame;
  frame.tick = 64;
  frame.snapshot.gauges[obs::MetricKey{"fed", "s1", "groups_owned"}] = 3;
  frame.snapshot.counters[obs::MetricKey{"fed", "s1",
                                         "migrations_started_total"}] = 2;
  frame.snapshot.counters[obs::MetricKey{"fed", "s1",
                                         "migrations_completed_total"}] = 1;
  frame.snapshot.counters[obs::MetricKey{"fed", "s1",
                                         "redirects_sent_total"}] = 4;
  frame.snapshot.gauges[obs::MetricKey{"fed", "s2", "groups_owned"}] = 5;
  frame.snapshot.gauges[obs::MetricKey{"fed", "s2",
                                       "migrations_inflight"}] = 1;
  frame.snapshot.counters[obs::MetricKey{"fed", "s2",
                                         "migrations_refused_total"}] = 1;
  frame.snapshot.counters[obs::MetricKey{"fed", "s2",
                                         "dir_stale_claims_total"}] = 2;

  const std::string expected =
      "enclaves_top — tick 64 (0 window(s))  overall: healthy\n"
      "\n"
      "federation shards:\n"
      "  shard   owned  inflight  mig s/c/r/a  redirects  stale\n"
      "  s1      3      0         2/1/0/0      4          0\n"
      "  s2      5      1         0/0/1/0      0          2\n";
  EXPECT_EQ(render_frame(frame), expected);
}

// The incident banner renders right under the title whenever a flight
// recorder has dumped: incident id, trigger reason, node, dump count, and
// how stale the dump is relative to the frame's tick. Hidden (all other
// goldens unchanged) while no dump exists.
TEST(RenderFrame, GoldenIncidentBanner) {
  TopFrame frame;
  frame.tick = 200;
  frame.flight.present = true;
  frame.flight.node = "alice";
  frame.flight.incident = "inc-42";
  frame.flight.dumps = 3;
  frame.flight.last_reason = "health_under_attack";
  frame.flight.last_trigger_tick = 176;

  const std::string expected =
      "enclaves_top — tick 200 (0 window(s))  overall: healthy\n"
      "INCIDENT inc-42 — health_under_attack on alice, dump #3 at tick 176"
      " (age 24 tick(s))\n";
  EXPECT_EQ(render_frame(frame), expected);

  // A recorder that exists but has not dumped keeps the banner hidden.
  frame.flight.dumps = 0;
  EXPECT_EQ(render_frame(frame),
            "enclaves_top — tick 200 (0 window(s))  overall: healthy\n");
}

TEST(ParseFlightStatus, LoadsTheFlightRouteBody) {
  auto status = parse_flight_status(
      "{\"node\":\"n0\",\"incident\":\"inc-7\",\"dumps\":2,"
      "\"last_reason\":\"sig_usr1\",\"last_trigger_tick\":64,"
      "\"last_wall_ns\":9000,\"last_path\":\"/tmp/flight_n0_1.jsonl\","
      "\"events_dropped\":0,\"delta_dropped\":0,"
      "\"dumps_suppressed\":0}");
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(status->present);
  EXPECT_EQ(status->node, "n0");
  EXPECT_EQ(status->incident, "inc-7");
  EXPECT_EQ(status->dumps, 2u);
  EXPECT_EQ(status->last_reason, "sig_usr1");
  EXPECT_EQ(status->last_trigger_tick, 64u);
  // A 404 body ("no flight recorder\n") is malformed, not a crash.
  EXPECT_FALSE(parse_flight_status("no flight recorder\n").ok());
}

TEST(ParseFlightStatus, WallClockNanosecondsParseExactly) {
  auto status = parse_flight_status(
      "{\"node\":\"n0\",\"dumps\":1,"
      "\"last_wall_ns\":1760692060123456789}");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->last_wall_ns, 1760692060123456789ull);
}

TEST(RenderFrame, HealthyFrameIsMinimal) {
  TopFrame frame;
  frame.tick = 4;
  EXPECT_EQ(render_frame(frame),
            "enclaves_top — tick 4 (0 window(s))  overall: healthy\n");
}

TEST(FrameFromReplay, BuildsVerdictFromDumpedMetrics) {
  obs::MetricsRegistry registry;
  registry.add("L", "alice", "retransmits_total", 6);
  registry.add("L", "bob", "data_delivered_total", 9);

  TopOptions options;
  options.ledger_tail = 2;
  auto frame = frame_from_replay(
      registry.to_json(), "line1\nline2\nline3\nline4\n", {}, options);
  ASSERT_TRUE(frame.ok()) << frame.error().to_string();
  EXPECT_EQ(frame->verdict.worst(), obs::HealthState::degraded);
  EXPECT_EQ(frame->verdict.groups.at("L").peers.at("alice").state,
            obs::HealthState::degraded);
  EXPECT_EQ(frame->verdict.groups.at("L").peers.at("bob").state,
            obs::HealthState::healthy);
  // Tail keeps the newest `ledger_tail` lines.
  EXPECT_EQ(frame->ledger_tail,
            (std::vector<std::string>{"line3", "line4"}));
  // The rendered frame parses back out of render_frame without crashing and
  // carries the verdict banner.
  EXPECT_NE(render_frame(*frame, options).find("overall: degraded"),
            std::string::npos);
}

TEST(FrameFromReplay, RejectsMalformedMetricsJson) {
  EXPECT_FALSE(frame_from_replay("this is not json", "").ok());
}

TEST(FrameFromReplay, LoadsProfileDumpIntoHotScopesPanel) {
  obs::MetricsRegistry registry;
  registry.add("L", "alice", "data_delivered_total", 3);

  obs::Profiler prof;
  {
    obs::ScopedProfSink sink(prof);
    PROF_SCOPE("leader/handle");
  }
  auto frame = frame_from_replay(registry.to_json(), "", prof.to_json());
  ASSERT_TRUE(frame.ok()) << frame.error().to_string();
  ASSERT_EQ(frame->profile.scopes.size(), 1u);
  const std::string rendered = render_frame(*frame);
  EXPECT_NE(rendered.find("hot scopes (self time):"), std::string::npos);
  EXPECT_NE(rendered.find("leader/handle"), std::string::npos);

  // A pre-profiler dump (no profile.json → empty contents) keeps working
  // and simply renders no panel.
  auto bare = frame_from_replay(registry.to_json(), "", "");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(render_frame(*bare).find("hot scopes"), std::string::npos);

  // A corrupt profile dump is an error, not a silent blank panel.
  EXPECT_FALSE(frame_from_replay(registry.to_json(), "", "junk").ok());
}

}  // namespace
}  // namespace enclaves::top
