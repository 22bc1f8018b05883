// FlightRecorder unit tests: ring overflow/oversize accounting surfaced as
// first-class flight/* gauges, tee capture through the trace/ledger sinks,
// per-recorder agent filters, hostile bytes in node names (sanitized
// filename, raw-but-escaped header), incident-id minting/adoption, the
// debounced health auto-trigger, status_json for the enclaves_top banner,
// and a death test proving a fatal signal leaves a parseable dump behind.
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/event.h"
#include "obs/flight.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/record.h"
#include "tools/enclaves_postmortem_lib.h"
#include "tools/enclaves_top_lib.h"

namespace enclaves::obs {
namespace {

std::uint64_t fixed_wall() { return 7'000'000'000'000ull; }

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return in ? out.str() : std::string();
}

/// mkdtemp-backed scratch dir; removes its flight blobs on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/enclaves_flight_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    // Only ever holds flight_*.jsonl files the tests themselves wrote.
    std::string cmd = "rm -rf " + path;
    [[maybe_unused]] int rc = std::system(cmd.c_str());
  }
};

/// Every test runs with a deterministic wall clock and a clean process-wide
/// incident id (both are global; leaking them would couple tests).
class FlightTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FlightRecorder::reset_incident_for_test();
    FlightRecorder::set_wall_clock(&fixed_wall);
  }
  void TearDown() override {
    FlightRecorder::set_wall_clock(nullptr);
    FlightRecorder::reset_incident_for_test();
  }
  TempDir dir_;
};

// ---------------------------------------------------------------------------
// SlotRing / PublishedLine primitives

std::vector<std::string> ring_lines(const flight_detail::SlotRing& ring,
                                    const std::string& dir) {
  const std::string path = dir + "/ring.txt";
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  EXPECT_GE(fd, 0);
  ring.write_to(fd);
  ::close(fd);
  std::vector<std::string> lines;
  std::istringstream in(slurp(path));
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST_F(FlightTest, SlotRingCountsWrapEvictionsAndKeepsNewest) {
  flight_detail::SlotRing ring;
  ring.init(4, 64);
  for (int i = 0; i < 10; ++i) ring.push("line" + std::to_string(i));
  EXPECT_EQ(ring.seen(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);  // dropped-window accounting: seen - slots
  EXPECT_EQ(ring.oversize(), 0u);
  EXPECT_EQ(ring_lines(ring, dir_.path),
            (std::vector<std::string>{"line6", "line7", "line8", "line9"}));
}

TEST_F(FlightTest, SlotRingDropsOversizeLinesWholeNeverTruncates) {
  flight_detail::SlotRing ring;
  ring.init(4, 16);
  ring.push("fits");
  ring.push(std::string(17, 'x'));  // one byte over: dropped, not clipped
  EXPECT_EQ(ring.seen(), 1u);
  EXPECT_EQ(ring.oversize(), 1u);
  // A line of exactly slot_bytes is kept intact (regression: the dump path
  // must still have room for the trailing newline).
  const std::string full(16, 'y');
  ring.push(full);
  EXPECT_EQ(ring.oversize(), 1u);
  EXPECT_EQ(ring_lines(ring, dir_.path),
            (std::vector<std::string>{"fits", full}));
}

TEST_F(FlightTest, PublishedLineKeepsLatestAndClearsOnOversize) {
  flight_detail::PublishedLine line;
  line.init(32);
  line.publish("first");
  line.publish("second");
  const std::string path = dir_.path + "/pub.txt";
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(line.write_to(fd));
  ::close(fd);
  EXPECT_EQ(slurp(path), "second\n");

  line.publish(std::string(33, 'z'));
  EXPECT_EQ(line.oversize(), 1u);
  fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_FALSE(line.write_to(fd)) << "oversize clears the slot";
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Tee capture, filters, gauges

TEST_F(FlightTest, TeesTraceAndLedgerThroughTheSinksIntoTheDump) {
  EventStore store;
  ScopedEventSink event_sink(store);

  FlightRecorder rec("n0", dir_.path);
  ASSERT_TRUE(rec.attach());
  trace(5, TraceKind::join, "G", "alice");
  trace(6, TraceKind::rekey, "G", "alice", "", "", 2);
  security_event(7, EvidenceKind::replayed_seq, "G", "alice", "mallory",
                 "seq 9");
  rec.detach();

  FlightStats stats = rec.stats();
  EXPECT_EQ(stats.events_seen, 3u);

  ASSERT_TRUE(rec.dump_now("unit"));
  auto dump = postmortem::FlightDump::parse(slurp(rec.last_dump_path()));
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(dump->header.node, "n0");
  EXPECT_EQ(dump->header.reason, "unit");
  EXPECT_EQ(dump->header.wall_ns, fixed_wall());
  EXPECT_TRUE(dump->complete);
  ASSERT_EQ(dump->lines.size(), 3u);
  EXPECT_EQ(dump->lines[0].kind, "join");
  EXPECT_EQ(dump->lines[1].kind, "rekey");
  EXPECT_EQ(dump->lines[1].value, 2u);
  EXPECT_EQ(dump->lines[2].src, "ledger");
  EXPECT_EQ(dump->lines[2].peer, "mallory");  // accused
  EXPECT_EQ(dump->stats.at("events_seen"), 3u);
}

// The recorder takes records straight from the record path: with no event
// store attached it still keeps both lines of a refused relay (its trace
// and its evidence) and the next event, in emission order.
TEST_F(FlightTest, CapturesTraceAndLedgerLinesWithoutAnyStore) {
  ASSERT_EQ(event_sink(), nullptr);
  FlightRecorder rec("L", dir_.path);
  rec.set_local_agents({"L"});
  ASSERT_TRUE(rec.attach());
  emit(Event::relay_reject, 4, "G", "L", "mallory", "not a member");
  emit(Event::join, 5, "G", "L", "alice");
  emit(Event::join, 6, "G", "bob", "alice");  // another agent: not covered
  rec.detach();

  EXPECT_EQ(rec.stats().events_seen, 3u);
  ASSERT_TRUE(rec.dump_now("unit"));
  auto dump = postmortem::FlightDump::parse(slurp(rec.last_dump_path()));
  ASSERT_TRUE(dump.ok());
  ASSERT_EQ(dump->lines.size(), 3u);
  EXPECT_EQ(dump->lines[0].src, "trace");
  EXPECT_EQ(dump->lines[0].kind, "data_reject");
  EXPECT_EQ(dump->lines[1].src, "ledger");
  EXPECT_EQ(dump->lines[1].kind, "relay_reject");
  EXPECT_EQ(dump->lines[1].agent, "L");  // the observer
  EXPECT_EQ(dump->lines[1].peer, "mallory");  // the accused
  EXPECT_EQ(dump->lines[2].src, "trace");
  EXPECT_EQ(dump->lines[2].kind, "join");
  EXPECT_EQ(dump->lines[2].tick, 5u);
}

TEST_F(FlightTest, LocalAgentFilterKeepsPerNodePerspectives) {
  EventStore log;
  ScopedEventSink event_sink(log);

  FlightRecorder alice("alice", dir_.path);
  FlightRecorder bob("bob", dir_.path);
  alice.set_local_agents({"alice"});
  bob.set_local_agents({"bob"});
  ASSERT_TRUE(alice.attach());
  ASSERT_TRUE(bob.attach());

  trace(1, TraceKind::join, "G", "alice");
  trace(2, TraceKind::join, "G", "bob");
  trace(3, TraceKind::fault_drop, "G", "");  // process-wide: passes both

  EXPECT_EQ(alice.stats().events_seen, 2u);
  EXPECT_EQ(bob.stats().events_seen, 2u);
  alice.detach();
  bob.detach();
}

TEST_F(FlightTest, DropAccountingIsFirstClassGauges) {
  MetricsRegistry registry;
  ScopedMetricsSink metrics_sink(registry);
  EventStore log;
  ScopedEventSink event_sink(log);

  FlightRecorder rec("n0", dir_.path);
  ASSERT_TRUE(rec.attach());
  for (int i = 0; i < 390; ++i)  // the 384-slot event ring, plus 6
    trace(static_cast<Tick>(i), TraceKind::join, "G", "a");
  rec.observe(390);
  rec.detach();

  EXPECT_EQ(registry.gauge("flight", "n0", "events_dropped"), 6);
  EXPECT_EQ(registry.gauge("flight", "n0", "delta_dropped"), 0);
  ASSERT_TRUE(rec.dump_now("gauges"));
  EXPECT_EQ(registry.gauge("flight", "n0", "dumps_written"), 1);
}

TEST_F(FlightTest, ObservePushesCounterDeltasBetweenWindows) {
  MetricsRegistry registry;
  ScopedMetricsSink metrics_sink(registry);

  FlightRecorder rec("n0", dir_.path);
  registry.add("G", "a", "retransmits_total", 3);
  rec.observe(16);  // baseline window
  registry.add("G", "a", "retransmits_total", 2);
  rec.observe(32);

  ASSERT_TRUE(rec.dump_now("deltas"));
  auto dump = postmortem::FlightDump::parse(slurp(rec.last_dump_path()));
  ASSERT_TRUE(dump.ok());
  bool saw_delta = false;
  for (const auto& line : dump->lines) {
    if (line.src != "delta") continue;
    // flight/* gauges also produce deltas; pick the counter we drove.
    if (line.kind != "retransmits_total") continue;
    EXPECT_EQ(line.tick, 32u);
    EXPECT_EQ(line.detail, "+2");
    EXPECT_EQ(line.value, 5u);
    saw_delta = true;
  }
  EXPECT_TRUE(saw_delta);
  EXPECT_TRUE(dump->has_metrics);
}

// ---------------------------------------------------------------------------
// Triggers, incident id, status

TEST_F(FlightTest, HealthEscalationAutoDumpsWithDebounce) {
  FlightRecorder rec("n0", dir_.path);
  ASSERT_TRUE(rec.attach());
  emit(Event::health_under_attack, 10, "G", "mallory", "",
       "healthy->under_attack",
       static_cast<std::uint64_t>(HealthState::under_attack));
  EXPECT_EQ(rec.dumps_written(), 1u);
  // Inside the redump window: suppressed, counted.
  emit(Event::health_under_attack, 20, "G", "mallory", "",
       "healthy->under_attack",
       static_cast<std::uint64_t>(HealthState::under_attack));
  EXPECT_EQ(rec.dumps_written(), 1u);
  EXPECT_EQ(rec.stats().dumps_suppressed, 1u);
  // Past the window: a fresh dump, with the partitioned reason this time.
  emit(Event::health_partitioned, 100, "G", "m2", "", "healthy->partitioned",
       static_cast<std::uint64_t>(HealthState::partitioned));
  rec.detach();
  EXPECT_EQ(rec.dumps_written(), 2u);

  auto dump = postmortem::FlightDump::parse(slurp(rec.last_dump_path()));
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(dump->header.reason, "health_partitioned");
  EXPECT_EQ(dump->header.trigger_tick, 100u);
}

// One recorder covering two agents sees their clocks interleaved: s3's
// ticks 40 and 41 fall inside the window s2 opened at 100 and must not
// reopen it (the debounce runs on the recorder's monotone clock).
TEST_F(FlightTest, IncidentDebounceIgnoresAnotherAgentsLowerClock) {
  FlightRecorder rec("n0", dir_.path);
  ASSERT_TRUE(rec.attach());
  for (const auto& [agent, tick] :
       {std::pair{"s2", 100}, {"s2", 101}, {"s3", 40}, {"s3", 41}}) {
    emit(Event::stale_dir_claim, static_cast<Tick>(tick), "g", agent, "s1",
         "stale claim", 1);
  }
  rec.detach();
  EXPECT_EQ(rec.dumps_written(), 1u);
  EXPECT_EQ(rec.stats().dumps_suppressed, 3u);
}

TEST_F(FlightTest, DegradedHealthDoesNotTrigger) {
  FlightRecorder rec("n0", dir_.path);
  ASSERT_TRUE(rec.attach());
  emit(Event::health, 10, "G", "m1", "", "healthy->degraded",
       static_cast<std::uint64_t>(HealthState::degraded));
  rec.detach();
  EXPECT_EQ(rec.dumps_written(), 0u);
}

TEST_F(FlightTest, IncidentIdMintedOnceThenSharedAndAdoptable) {
  EXPECT_EQ(FlightRecorder::current_incident(), "");
  FlightRecorder rec("n0", dir_.path);
  ASSERT_TRUE(rec.dump_now("first"));
  const std::string minted = FlightRecorder::current_incident();
  EXPECT_EQ(minted.substr(0, 4), "inc-");
  ASSERT_TRUE(rec.dump_now("second"));
  auto dump = postmortem::FlightDump::parse(slurp(rec.last_dump_path()));
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(dump->header.incident, minted) << "same incident across dumps";

  // Adoption overrides (cross-node correlation), with hostile bytes scrubbed.
  FlightRecorder::adopt_incident("inc-from\npeer\"");
  EXPECT_EQ(FlightRecorder::current_incident(), "inc-from_peer_");
}

TEST_F(FlightTest, HostileNodeNameSanitizedInPathRawInHeader) {
  const std::string hostile = "ev il/../\"\n\x01node";
  FlightRecorder rec(hostile, dir_.path);
  ASSERT_TRUE(rec.dump_now("hostile"));
  const std::string path = rec.last_dump_path();
  // The filename component never escapes the dump dir or embeds controls.
  const std::string name = path.substr(dir_.path.size() + 1);
  EXPECT_EQ(name.find('/'), std::string::npos);
  EXPECT_EQ(name.find(' '), std::string::npos);
  EXPECT_EQ(name.find('\n'), std::string::npos);
  EXPECT_EQ(name, "flight_ev_il_..____node_0.jsonl");
  // The blob header keeps the raw bytes, JSON-escaped, so postmortem output
  // attributes the real id.
  auto dump = postmortem::FlightDump::parse(slurp(path));
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(dump->header.node, hostile);
}

TEST_F(FlightTest, StatusJsonFeedsTheTopIncidentBanner) {
  FlightRecorder::adopt_incident("inc-banner");
  FlightRecorder rec("n0", dir_.path);
  ASSERT_TRUE(rec.trigger(42, "manual"));
  auto status = top::parse_flight_status(rec.status_json());
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(status->present);
  EXPECT_EQ(status->node, "n0");
  EXPECT_EQ(status->incident, "inc-banner");
  EXPECT_EQ(status->dumps, 1u);
  EXPECT_EQ(status->last_reason, "manual");
  EXPECT_EQ(status->last_trigger_tick, 42u);
  EXPECT_EQ(status->last_wall_ns, fixed_wall());
}

TEST_F(FlightTest, MaxDumpsCapsExplicitDumpsAndCountsRefusals) {
  FlightRecorder rec("n0", dir_.path);
  for (int i = 0; i < 16; ++i)  // the cap
    EXPECT_TRUE(rec.dump_now("d" + std::to_string(i)));
  EXPECT_FALSE(rec.dump_now("over"));
  EXPECT_EQ(rec.dumps_written(), 16u);
  EXPECT_EQ(rec.stats().dumps_suppressed, 1u);
}

// A dump path longer than the recorder's path buffer must not be cut short:
// the truncated path would name a file outside the dump directory.
TEST_F(FlightTest, OverlongDumpDirectoryRefusesEveryDump) {
  const std::string a = dir_.path + "/" + std::string(200, 'a');
  const std::string b = a + "/" + std::string(200, 'b');
  ASSERT_EQ(::mkdir(a.c_str(), 0700), 0);
  ASSERT_EQ(::mkdir(b.c_str(), 0700), 0);
  const std::string dir = b + "/" + std::string(600 - b.size() - 1, 'c');
  ASSERT_EQ(dir.size(), 600u);
  FlightRecorder rec("n0", dir);
  EXPECT_FALSE(rec.dump_now("long"));
  EXPECT_EQ(rec.stats().dumps_suppressed, 1u);
  for (const auto& entry : std::filesystem::directory_iterator(b))
    EXPECT_NE(entry.path().extension(), ".jsonl") << entry.path();
}

TEST_F(FlightTest, ReasonBytesAreSanitizedIntoTheHeader) {
  FlightRecorder rec("n0", dir_.path);
  ASSERT_TRUE(rec.dump_now("we\"ird\nreason"));
  auto dump = postmortem::FlightDump::parse(slurp(rec.last_dump_path()));
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(dump->header.reason, "we_ird_reason");
}

// ---------------------------------------------------------------------------
// Fatal-signal path

using FlightDeathTest = FlightTest;

TEST_F(FlightDeathTest, FatalSignalLeavesAParseableDump) {
  EventStore log;
  ScopedEventSink event_sink(log);
  const std::string dir = dir_.path;
  // SIGABRT (not SIGSEGV) so sanitizer builds don't intercept the fault
  // before our handler runs.
  EXPECT_EXIT(
      {
        FlightRecorder rec("crash", dir);
        rec.attach();
        trace(9, TraceKind::join, "G", "a");
        trace(11, TraceKind::expel, "G", "a", "m", "silent");
        FlightRecorder::install_signal_handlers();
        std::abort();
      },
      ::testing::KilledBySignal(SIGABRT), "");

  auto dump =
      postmortem::FlightDump::parse(slurp(dir + "/flight_crash_0.jsonl"));
  ASSERT_TRUE(dump.ok()) << "fatal dump missing or unparseable";
  EXPECT_EQ(dump->header.node, "crash");
  EXPECT_EQ(dump->header.reason, "sig_abrt");
  EXPECT_EQ(dump->header.tick, 11u) << "freshest tick pairs the wall clock";
  ASSERT_EQ(dump->lines.size(), 2u);
  EXPECT_EQ(dump->lines[1].kind, "expel");
  EXPECT_TRUE(dump->complete);
}

TEST_F(FlightDeathTest, Sigusr1DumpsOnDemandWithoutDying) {
  const std::string dir = dir_.path;
  EXPECT_EXIT(
      {
        FlightRecorder rec("usr1", dir);
        rec.attach();
        FlightRecorder::install_signal_handlers();
        ::raise(SIGUSR1);  // dump and continue
        rec.detach();
        ::_exit(rec.dumps_written() == 1 ? 0 : 3);
      },
      ::testing::ExitedWithCode(0), "");
  auto dump =
      postmortem::FlightDump::parse(slurp(dir + "/flight_usr1_0.jsonl"));
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(dump->header.reason, "sig_usr1");
}

}  // namespace
}  // namespace enclaves::obs
