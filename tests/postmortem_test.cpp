// enclaves_postmortem tests: blob parse tolerance (torn slots, truncated
// tails, hostile bytes), virtual/wall clock-pair alignment, and the
// acceptance scenario — an induced under_attack incident captured by two
// in-process nodes' flight recorders, merged into one byte-exact golden
// report (the same rendering the enclaves_postmortem binary prints).
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/flight.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/record.h"
#include "tools/enclaves_postmortem_lib.h"

namespace enclaves::postmortem {
namespace {

std::uint64_t fixed_wall() { return 7'000'000'000'000ull; }

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return in ? out.str() : std::string();
}

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/enclaves_pm_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    std::string cmd = "rm -rf " + path;
    [[maybe_unused]] int rc = std::system(cmd.c_str());
  }
};

// ---------------------------------------------------------------------------
// Parse tolerance

constexpr char kHeader[] =
    "{\"enclaves_flight\":1,\"node\":\"n0\",\"incident\":\"inc-1\","
    "\"reason\":\"test\",\"trigger_tick\":10,\"tick\":12,"
    "\"wall_ns\":5000000,\"tick_ns\":1000000,\"seq\":0}\n";

TEST(FlightDumpParse, ToleratesTornLinesAndMissingEnd) {
  std::string blob = kHeader;
  blob += "{\"k\":\"trace\",\"tick\":9,\"kind\":\"join\",\"group\":\"G\","
          "\"agent\":\"a\",\"value\":0}\n";
  blob += "{\"k\":\"trace\",\"tick\":10,\"kind\":\"exp";  // truncated tail
  auto dump = FlightDump::parse(blob);
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(dump->header.node, "n0");
  ASSERT_EQ(dump->lines.size(), 1u);
  EXPECT_EQ(dump->lines[0].kind, "join");
  EXPECT_EQ(dump->skipped_lines, 1u);
  EXPECT_FALSE(dump->complete) << "no end record in a truncated blob";
}

TEST(FlightDumpParse, CountsTornMarkersAndUnknownKinds) {
  std::string blob = kHeader;
  blob += "{\"k\":\"torn\"}\n";
  blob += "{\"k\":\"hologram\",\"x\":1}\n";
  blob += "complete garbage \x01 bytes\n";
  blob += "{\"k\":\"end\",\"seq\":0}\n";
  auto dump = FlightDump::parse(blob);
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(dump->skipped_lines, 3u);
  EXPECT_TRUE(dump->complete);
}

// A real CLOCK_REALTIME reading needs all 64 bits; read through a double
// it would come back 21 ns off (rounded to the nearest multiple of 256).
TEST(FlightDumpParse, WallClockNanosecondsParseExactly) {
  const std::string blob =
      "{\"enclaves_flight\":1,\"node\":\"n0\",\"incident\":\"inc-1\","
      "\"reason\":\"test\",\"trigger_tick\":10,\"tick\":12,"
      "\"wall_ns\":1760692060123456789,\"tick_ns\":1000000,\"seq\":0}\n";
  auto dump = FlightDump::parse(blob);
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(dump->header.wall_ns, 1760692060123456789ull);
  EXPECT_EQ(dump->global_ns(13), 1760692060124456789ull);
}

TEST(FlightDumpParse, RejectsBlobWithoutHeader) {
  EXPECT_FALSE(FlightDump::parse("{\"k\":\"end\",\"seq\":0}\n").ok());
  EXPECT_FALSE(FlightDump::parse("").ok());
}

TEST(FlightDumpParse, GlobalNsAlignsTicksOntoTheWallAxis) {
  auto dump = FlightDump::parse(kHeader);
  ASSERT_TRUE(dump.ok());
  // Pair: tick 12 was wall 5'000'000ns, 1'000'000ns per tick.
  EXPECT_EQ(dump->global_ns(12), 5'000'000u);
  EXPECT_EQ(dump->global_ns(14), 7'000'000u);
  EXPECT_EQ(dump->global_ns(10), 3'000'000u);
  EXPECT_EQ(dump->global_ns(0), 0u) << "clamped before the wall epoch";
}

// ---------------------------------------------------------------------------
// Merge across skewed clocks

FlightDump make_dump(const std::string& node, std::uint64_t tick,
                     std::uint64_t wall_ns,
                     std::vector<FlightLine> lines) {
  FlightDump d;
  d.header.node = node;
  d.header.incident = "inc-skew";
  d.header.reason = "test";
  d.header.trigger_tick = tick;
  d.header.tick = tick;
  d.header.wall_ns = wall_ns;
  d.header.tick_ns = 1'000'000;
  d.complete = true;
  d.lines = std::move(lines);
  return d;
}

TEST(Merge, OrdersEventsAcrossNodesWithSkewedClockPairs) {
  // b's virtual clock is behind a's, but its wall anchor says its tick 5
  // happened *between* a's tick 10 and 11.
  FlightLine a10{"trace", 10, "join", "G", "x", "", "", 0};
  FlightLine a11{"trace", 11, "rekey", "G", "x", "", "", 2};
  FlightLine b5{"trace", 5, "suspect", "G", "y", "", "", 0};
  Postmortem pm = merge({
      make_dump("a", 11, 2'000'000, {a10, a11}),
      make_dump("b", 5, 1'500'000, {b5}),
  });
  EXPECT_EQ(pm.incident, "inc-skew");
  ASSERT_EQ(pm.timeline.size(), 3u);
  EXPECT_EQ(pm.timeline[0].line, a10);  // t=1'000'000
  EXPECT_EQ(pm.timeline[1].line, b5);   // t=1'500'000
  EXPECT_EQ(pm.timeline[2].line, a11);  // t=2'000'000
}

// One recorder covering several agents holds their lines in emission order,
// each stamped with its own agent's clock: L's fence at L's tick 2 was
// emitted after m0's tick-9 refusal, and must stay after it.
TEST(Merge, KeepsADumpsEventLinesInBlobOrder) {
  FlightLine m0_open{"ledger", 9, "aead_open_failure", "G", "m0", "L", "", 0};
  FlightLine l_fence{"trace", 2, "fence", "G", "L", "", "deposed", 3};
  FlightLine l_fenced{"ledger", 2, "fenced_repl", "G", "L", "L2", "", 3};
  FlightLine m0_join{"trace", 10, "join", "G", "m0", "", "", 0};
  FlightLine other{"trace", 10, "rekey", "G", "y", "", "", 4};
  Postmortem pm = merge({
      make_dump("a", 10, 10'000'000, {m0_open, l_fence, l_fenced, m0_join}),
      make_dump("b", 10, 10'000'000, {other}),
  });
  ASSERT_EQ(pm.timeline.size(), 5u);
  EXPECT_EQ(pm.timeline[0].line, m0_open);
  EXPECT_EQ(pm.timeline[1].line, l_fence);
  EXPECT_EQ(pm.timeline[2].line, l_fenced);
  EXPECT_EQ(pm.timeline[1].global_ns, pm.timeline[0].global_ns)
      << "placed at the recorder's clock (tick 9), not at tick 2";
  EXPECT_EQ(pm.timeline[3].line, m0_join);
  EXPECT_EQ(pm.timeline[4].line, other);  // same instant: node name breaks
}

TEST(Merge, MixedIncidentIdsAreFlagged) {
  FlightDump a = make_dump("a", 1, 1, {});
  FlightDump b = make_dump("b", 1, 1, {});
  b.header.incident = "inc-other";
  EXPECT_EQ(merge({a, b}).incident, "(mixed)");
}

// ---------------------------------------------------------------------------
// Acceptance scenario: induced under_attack on two nodes, golden report

class PostmortemScenario : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::FlightRecorder::reset_incident_for_test();
    obs::FlightRecorder::set_wall_clock(&fixed_wall);
  }
  void TearDown() override {
    obs::FlightRecorder::set_wall_clock(nullptr);
    obs::FlightRecorder::reset_incident_for_test();
  }
  TempDir dir_;
};

TEST_F(PostmortemScenario, TwoNodeUnderAttackMergesIntoGoldenReport) {
  obs::MetricsRegistry registry;
  obs::ScopedMetricsSink metrics_sink(registry);
  obs::EventStore store;
  obs::ScopedEventSink event_sink(store);

  // One process, two nodes' perspectives: each recorder keeps its own
  // observer's refusals plus the shared health plane. The incident id is
  // adopted (not minted) so the report is byte-stable.
  obs::FlightRecorder::adopt_incident("inc-golden");
  obs::FlightRecorder alice("alice", dir_.path);
  obs::FlightRecorder bob("bob", dir_.path);
  alice.set_local_agents({"alice", "group", "mallory"});
  bob.set_local_agents({"bob", "group", "mallory"});
  ASSERT_TRUE(alice.attach());
  ASSERT_TRUE(bob.attach());

  // mallory floods both nodes with forged traffic; every refusal lands in
  // the ledger (and both flight recorders' rings) attributed to her.
  registry.add("L", "mallory", "data_rejects_total", 0);  // group presence
  for (int i = 0; i < 4; ++i)
    obs::security_event(static_cast<Tick>(10 + i),
                        obs::EvidenceKind::replayed_seq, "L", "alice",
                        "mallory", "seq replay");
  obs::security_event(13, obs::EvidenceKind::stale_nonce, "L", "bob",
                      "mallory", "old exchange");

  // The health window closes: suspicion crosses the attack threshold, the
  // monitor escalates to under_attack, and that health event — an incident
  // row — triggers an automatic flight dump on BOTH nodes.
  obs::HealthMonitor monitor;
  EXPECT_TRUE(monitor.observe(16, registry.snapshot()));
  EXPECT_EQ(monitor.verdict().worst(), obs::HealthState::under_attack);
  alice.detach();
  bob.detach();
  ASSERT_EQ(alice.dumps_written(), 1u);
  ASSERT_EQ(bob.dumps_written(), 1u);

  // Merge the two blobs exactly as the enclaves_postmortem binary would.
  auto da = FlightDump::parse(slurp(dir_.path + "/flight_alice_0.jsonl"));
  auto db = FlightDump::parse(slurp(dir_.path + "/flight_bob_0.jsonl"));
  ASSERT_TRUE(da.ok());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(da->header.incident, "inc-golden");
  EXPECT_EQ(db->header.incident, "inc-golden");
  const Postmortem pm = merge({*da, *db});

  const std::string expected =
      "enclaves_postmortem — incident inc-golden\n"
      "2 dump(s), 7 timeline entr(ies), aligned by virtual/wall clock pair\n"
      "\n"
      "nodes:\n"
      "  node   reason                trigger  pair tick@wall_ns         "
      "  lines  skipped  complete\n"
      "  alice  health_under_attack   16       16@7000000000000          "
      "  5      0        yes\n"
      "  bob    health_under_attack   16       16@7000000000000          "
      "  2      0        yes\n"
      "\n"
      "health transitions:\n"
      "  t=7000000000000  alice  L/group  healthy->under_attack\n"
      "  t=7000000000000  bob    L/group  healthy->under_attack\n"
      "\n"
      "ledger attribution:\n"
      "  accused mallory: 5 refusal(s) (replayed_seq x4, stale_nonce x1),"
      " observed by alice bob\n"
      "\n"
      "merged timeline:\n"
      "  t=6999994000000  alice  tick=10     ledger:replayed_seq group=L"
      " observer=alice accused=mallory detail=seq replay\n"
      "  t=6999995000000  alice  tick=11     ledger:replayed_seq group=L"
      " observer=alice accused=mallory detail=seq replay\n"
      "  t=6999996000000  alice  tick=12     ledger:replayed_seq group=L"
      " observer=alice accused=mallory detail=seq replay\n"
      "  t=6999997000000  alice  tick=13     ledger:replayed_seq group=L"
      " observer=alice accused=mallory detail=seq replay\n"
      "  t=6999997000000  bob    tick=13     ledger:stale_nonce group=L"
      " observer=bob accused=mallory detail=old exchange\n"
      "  t=7000000000000  alice  tick=16     trace:health group=L"
      " agent=group detail=healthy->under_attack value=4\n"
      "  t=7000000000000  bob    tick=16     trace:health group=L"
      " agent=group detail=healthy->under_attack value=4\n";
  EXPECT_EQ(render_report(pm), expected);

  // The JSONL export carries the same timeline, machine-readable.
  const std::string jsonl = render_jsonl(pm);
  EXPECT_NE(jsonl.find("\"incident\":\"inc-golden\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"stale_nonce\""), std::string::npos);
}

}  // namespace
}  // namespace enclaves::postmortem
