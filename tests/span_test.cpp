// SpanTracker conformance: the causal span graph stitched from the event
// trace, for both synthetic event sequences (exact span fields) and the
// canonical protocol scenarios (committed golden span trees, the
// span-level sibling of tests/golden_trace_test.cpp).
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/leader.h"
#include "core/member.h"
#include "ha/failover.h"
#include "ha/replicator.h"
#include "ha/standby.h"
#include "net/fault.h"
#include "net/sim_network.h"
#include "obs/record.h"
#include "obs/span.h"
#include "util/rng.h"

namespace enclaves::core {
namespace {

using obs::Span;
using obs::SpanKind;
using obs::SpanTracker;
using obs::TraceEvent;
using obs::TraceKind;

// ---------------------------------------------------------------------------
// Synthetic event sequences: exact span fields.

TEST(SpanTracker, JoinHandshakeWithRetries) {
  std::vector<TraceEvent> events{
      {0, TraceKind::member_phase, "L", "alice", "L",
       "NotConnected->WaitingForKey", 0},
      {1, TraceKind::retransmit, "L", "alice", "L", "AuthInitReq", 0},
      {2, TraceKind::retransmit, "L", "L", "alice", "AuthKeyDist", 0},
      {3, TraceKind::member_phase, "L", "alice", "L",
       "WaitingForKey->Connected", 0},
  };
  auto spans = SpanTracker::build(events);
  ASSERT_EQ(spans.size(), 1u);
  const Span& s = spans[0];
  EXPECT_EQ(s.kind, SpanKind::join);
  EXPECT_EQ(s.agent, "alice");
  EXPECT_EQ(s.peer, "L");
  EXPECT_EQ(s.start, 0u);
  EXPECT_EQ(s.end, 3u);
  EXPECT_TRUE(s.complete);
  EXPECT_EQ(s.retries, 2u);  // member AuthInitReq + leader AuthKeyDist
  EXPECT_EQ(s.participants, (std::vector<std::string>{"alice", "L"}));
}

TEST(SpanTracker, AbandonedJoinStaysIncomplete) {
  std::vector<TraceEvent> events{
      {0, TraceKind::member_phase, "L", "alice", "L",
       "NotConnected->WaitingForKey", 0},
      {4, TraceKind::retransmit, "L", "alice", "L", "AuthInitReq", 0},
  };
  auto spans = SpanTracker::build(events);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_FALSE(spans[0].complete);
  EXPECT_EQ(spans[0].retries, 1u);
}

TEST(SpanTracker, AdminExchangeStopAndWait) {
  std::vector<TraceEvent> events{
      {1, TraceKind::admin_send, "L", "L", "bob", "new_group_key", 0},
      {2, TraceKind::retransmit, "L", "L", "bob", "AdminMsg", 0},
      {3, TraceKind::admin_ack, "L", "L", "bob", "", 0},
      {4, TraceKind::admin_send, "L", "L", "bob", "member_list", 0},
      {5, TraceKind::admin_ack, "L", "L", "bob", "", 0},
  };
  auto spans = SpanTracker::build(events);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].kind, SpanKind::admin_exchange);
  EXPECT_EQ(spans[0].detail, "new_group_key");
  EXPECT_EQ(spans[0].retries, 1u);
  EXPECT_TRUE(spans[0].complete);
  EXPECT_EQ(spans[0].start, 1u);
  EXPECT_EQ(spans[0].end, 3u);
  EXPECT_EQ(spans[1].detail, "member_list");
  EXPECT_EQ(spans[1].retries, 0u);
  EXPECT_TRUE(spans[1].complete);
}

TEST(SpanTracker, RekeyPropagationChildren) {
  std::vector<TraceEvent> events{
      {0, TraceKind::rekey, "L", "L", "", "", 2},
      {1, TraceKind::rekey, "L", "alice", "L", "", 2},
      {3, TraceKind::rekey, "L", "bob", "L", "", 2},
  };
  auto spans = SpanTracker::build(events);
  ASSERT_EQ(spans.size(), 3u);
  const Span& mint = spans[0];
  EXPECT_EQ(mint.kind, SpanKind::rekey);
  EXPECT_EQ(mint.value, 2u);
  EXPECT_TRUE(mint.complete);
  EXPECT_EQ(mint.end, 3u);  // last member applied
  EXPECT_EQ(mint.participants,
            (std::vector<std::string>{"L", "alice", "bob"}));
  for (int i = 1; i <= 2; ++i) {
    EXPECT_EQ(spans[i].kind, SpanKind::rekey_delivery);
    EXPECT_EQ(spans[i].parent, mint.id);
    EXPECT_TRUE(spans[i].complete);
  }
}

TEST(SpanTracker, FaultVerdictAttachesToTheSpanItHit) {
  std::vector<TraceEvent> events{
      {0, TraceKind::member_phase, "L", "alice", "L",
       "NotConnected->WaitingForKey", 0},
      {0, TraceKind::fault_drop, "net", "alice", "L", "AuthInitReq", 0},
      {1, TraceKind::retransmit, "L", "alice", "L", "AuthInitReq", 0},
      {2, TraceKind::member_phase, "L", "alice", "L",
       "WaitingForKey->Connected", 0},
      // A data-plane fault hits no tracked exchange and attaches nowhere.
      {3, TraceKind::fault_drop, "net", "bob", "L", "GroupData", 0},
  };
  auto spans = SpanTracker::build(events);
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].annotations.size(), 1u);
  EXPECT_EQ(spans[0].annotations[0].kind, "fault_drop");
  EXPECT_EQ(spans[0].annotations[0].detail, "AuthInitReq");
}

TEST(SpanTracker, BuildIsDeterministic) {
  std::vector<TraceEvent> events{
      {0, TraceKind::member_phase, "L", "a", "L",
       "NotConnected->WaitingForKey", 0},
      {0, TraceKind::rekey, "L", "L", "", "", 1},
      {1, TraceKind::member_phase, "L", "a", "L", "WaitingForKey->Connected",
       0},
      {1, TraceKind::rekey, "L", "a", "L", "", 1},
  };
  EXPECT_EQ(SpanTracker::build(events), SpanTracker::build(events));
}

TEST(SpanJsonl, ExportsTreeFieldsAndEscapes) {
  std::vector<TraceEvent> events{
      {0, TraceKind::admin_send, "g\"1", "L", "bob", "notice\n", 0},
      {2, TraceKind::admin_ack, "g\"1", "L", "bob", "", 0},
  };
  const std::string jsonl = obs::spans_to_jsonl(SpanTracker::build(events));
  EXPECT_NE(jsonl.find("\"kind\":\"admin_exchange\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"group\":\"g\\\"1\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"detail\":\"notice\\n\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"complete\":true"), std::string::npos);
  EXPECT_EQ(jsonl.find('\n'), jsonl.rfind("\n"));  // one line, one span
}

TEST(AttachEvidence, LinksEntryToTheInterruptedSpan) {
  std::vector<TraceEvent> events{
      {0, TraceKind::member_phase, "L", "carol", "L",
       "NotConnected->WaitingForKey", 0},
  };
  auto spans = SpanTracker::build(events);
  std::vector<obs::SecurityEvidence> evidence{
      {1, obs::EvidenceKind::aead_open_failure, "L", "carol", "L",
       "AuthKeyDist", 0},
      // No span ever involved mallory's exchange: attaches nowhere.
      {1, obs::EvidenceKind::unknown_sender, "X", "x-observer", "mallory",
       "AuthInitReq", 0},
  };
  EXPECT_EQ(obs::attach_evidence(spans, evidence), 1u);
  ASSERT_EQ(spans[0].annotations.size(), 1u);
  EXPECT_EQ(spans[0].annotations[0].kind, "evidence:aead_open_failure");
  EXPECT_EQ(spans[0].annotations[0].detail, "L: AuthKeyDist");
}

// ---------------------------------------------------------------------------
// Golden span trees from the canonical scenarios (same harness as
// golden_trace_test.cpp).

struct TracedWorld {
  explicit TracedWorld(std::uint64_t seed,
                       RekeyPolicy policy = RekeyPolicy::strict())
      : TracedWorld(seed, LeaderConfig{"L", policy}) {}

  TracedWorld(std::uint64_t seed, LeaderConfig config)
      : rng(seed), leader(std::move(config), rng), sink(trace) {
    leader.set_send([this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    net.attach("L", [this](const wire::Envelope& e) { leader.handle(e); });
  }

  Member& add(const std::string& id) {
    auto pa = crypto::LongTermKey::random(rng);
    EXPECT_TRUE(leader.register_member(id, pa).ok());
    auto m = std::make_unique<Member>(id, "L", pa, rng);
    m->set_send([this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    auto* raw = m.get();
    net.attach(id, [raw](const wire::Envelope& e) { raw->handle(e); });
    members[id] = std::move(m);
    return *raw;
  }

  std::string tree() const {
    return obs::format_span_tree(SpanTracker::build(trace.events()));
  }

  net::SimNetwork net;
  DeterministicRng rng;
  Leader leader;
  obs::EventStore trace;
  obs::ScopedEventSink sink;
  std::map<std::string, std::unique_ptr<Member>> members;
};

std::string strip_trailing_blanks(const std::string& text) {
  std::istringstream in(text);
  std::string out, line;
  while (std::getline(in, line)) {
    auto end = line.find_last_not_of(' ');
    out.append(line, 0, end == std::string::npos ? 0 : end + 1);
    out += '\n';
  }
  return out;
}

// One member joins, the group rekeys to epoch 1 and ships the view, a
// Notice probe round-trips, the member leaves. The exchange-level view of
// GoldenTrace.JoinNoticeLeaveHappyPath.
TEST(GoldenSpanTree, JoinNoticeLeaveHappyPath) {
  TracedWorld w(42);
  auto& alice = w.add("alice");

  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  ASSERT_TRUE(alice.connected());
  w.leader.probe_liveness();
  w.net.run();
  ASSERT_TRUE(alice.leave().ok());
  w.net.run();

  const std::string golden =
      "#1 join                  alice      -> L          @0..0 ok\n"
      "#2 rekey                 L                        @0..0 ok =1\n"
      "  #4 rekey_delivery      alice      -> L          @0..0 ok =1\n"
      "#3 admin_exchange        L          -> alice      @0..0 ok [new_group_key]\n"
      "#5 admin_exchange        L          -> alice      @0..0 ok [member_list]\n"
      "#6 admin_exchange        L          -> alice      @0..0 ok [notice]\n";
  EXPECT_EQ(strip_trailing_blanks(w.tree()), golden);
}

// Second member joining an established group: the strict policy's rekey
// fans out to everyone — the rekey span gets one delivery child per member.
TEST(GoldenSpanTree, SecondJoinRekeyFansOut) {
  TracedWorld w(43);
  auto& alice = w.add("alice");
  auto& bob = w.add("bob");
  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  w.trace.clear();

  ASSERT_TRUE(bob.join().ok());
  w.net.run();
  ASSERT_TRUE(bob.connected());

  const std::string golden =
      "#1 join                  bob        -> L          @0..0 ok\n"
      "#2 rekey                 L                        @0..0 ok =2\n"
      "  #5 rekey_delivery      alice      -> L          @0..0 ok =2\n"
      "  #6 rekey_delivery      bob        -> L          @0..0 ok =2\n"
      "#3 admin_exchange        L          -> alice      @0..0 ok [new_group_key]\n"
      "#4 admin_exchange        L          -> bob        @0..0 ok [new_group_key]\n"
      "#7 admin_exchange        L          -> alice      @0..0 ok [member_joined]\n"
      "#8 admin_exchange        L          -> bob        @0..0 ok [member_list]\n";
  EXPECT_EQ(strip_trailing_blanks(w.tree()), golden);
}

// Tree-mode rekeys at group scale: depth 5 (32 leaves) so 16 members never
// trigger a growth rebuild, and each rekey span carries one rekey_level
// child per rotated tree level — the O(log N) shape, visible in the span
// tree next to the full 16-member delivery fan-in.
LeaderConfig keytree_world_config() {
  LeaderConfig config;
  config.id = "L";
  config.rekey = RekeyPolicy::tree();
  config.keytree_depth = 5;
  return config;
}

std::vector<std::string> sixteen_ids() {
  std::vector<std::string> ids;
  for (int i = 1; i <= 16; ++i)
    ids.push_back("m" + std::string(i < 10 ? "0" : "") + std::to_string(i));
  return ids;
}

TEST(GoldenSpanTree, KeyTreeSixteenthJoinRekeyLevels) {
  TracedWorld w(77, keytree_world_config());
  auto ids = sixteen_ids();
  for (const auto& id : ids) w.add(id);
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(w.members[ids[static_cast<std::size_t>(i)]]->join().ok());
    w.net.run();
  }
  w.trace.clear();

  ASSERT_TRUE(w.members["m16"]->join().ok());
  w.net.run();
  ASSERT_TRUE(w.members["m16"]->connected());

  // The rekey span owns five rekey_level children (one per rotated tree
  // level, deepest first) plus the 16-member delivery fan-in.
  const std::string golden =
      "#1 join                  m16        -> L          @0..0 ok\n"
      "#2 admin_exchange        L          -> m16        @0..0 ok [keytree_assign]\n"
      "#3 rekey                 L                        @0..0 ok =16\n"
      "  #4 rekey_level         L                        @0..0 ok [lvl4] =16\n"
      "  #5 rekey_level         L                        @0..0 ok [lvl3] =16\n"
      "  #6 rekey_level         L                        @0..0 ok [lvl2] =16\n"
      "  #7 rekey_level         L                        @0..0 ok [lvl1] =16\n"
      "  #8 rekey_level         L                        @0..0 ok [lvl0] =16\n"
      "  #24 rekey_delivery     m01        -> L          @0..0 ok =16\n"
      "  #25 rekey_delivery     m02        -> L          @0..0 ok =16\n"
      "  #26 rekey_delivery     m03        -> L          @0..0 ok =16\n"
      "  #27 rekey_delivery     m04        -> L          @0..0 ok =16\n"
      "  #28 rekey_delivery     m05        -> L          @0..0 ok =16\n"
      "  #29 rekey_delivery     m06        -> L          @0..0 ok =16\n"
      "  #30 rekey_delivery     m07        -> L          @0..0 ok =16\n"
      "  #31 rekey_delivery     m08        -> L          @0..0 ok =16\n"
      "  #32 rekey_delivery     m09        -> L          @0..0 ok =16\n"
      "  #33 rekey_delivery     m10        -> L          @0..0 ok =16\n"
      "  #34 rekey_delivery     m11        -> L          @0..0 ok =16\n"
      "  #35 rekey_delivery     m12        -> L          @0..0 ok =16\n"
      "  #36 rekey_delivery     m13        -> L          @0..0 ok =16\n"
      "  #37 rekey_delivery     m14        -> L          @0..0 ok =16\n"
      "  #38 rekey_delivery     m15        -> L          @0..0 ok =16\n"
      "  #39 rekey_delivery     m16        -> L          @0..0 ok =16\n"
      "#9 admin_exchange        L          -> m01        @0..0 ok [member_joined]\n"
      "#10 admin_exchange       L          -> m02        @0..0 ok [member_joined]\n"
      "#11 admin_exchange       L          -> m03        @0..0 ok [member_joined]\n"
      "#12 admin_exchange       L          -> m04        @0..0 ok [member_joined]\n"
      "#13 admin_exchange       L          -> m05        @0..0 ok [member_joined]\n"
      "#14 admin_exchange       L          -> m06        @0..0 ok [member_joined]\n"
      "#15 admin_exchange       L          -> m07        @0..0 ok [member_joined]\n"
      "#16 admin_exchange       L          -> m08        @0..0 ok [member_joined]\n"
      "#17 admin_exchange       L          -> m09        @0..0 ok [member_joined]\n"
      "#18 admin_exchange       L          -> m10        @0..0 ok [member_joined]\n"
      "#19 admin_exchange       L          -> m11        @0..0 ok [member_joined]\n"
      "#20 admin_exchange       L          -> m12        @0..0 ok [member_joined]\n"
      "#21 admin_exchange       L          -> m13        @0..0 ok [member_joined]\n"
      "#22 admin_exchange       L          -> m14        @0..0 ok [member_joined]\n"
      "#23 admin_exchange       L          -> m15        @0..0 ok [member_joined]\n"
      "#40 admin_exchange       L          -> m16        @0..0 ok [member_list]\n";
  EXPECT_EQ(strip_trailing_blanks(w.tree()), golden);
}

TEST(GoldenSpanTree, KeyTreeExpelRekeyLevels) {
  TracedWorld w(77, keytree_world_config());
  auto ids = sixteen_ids();
  for (const auto& id : ids) w.add(id);
  for (const auto& id : ids) {
    ASSERT_TRUE(w.members[id]->join().ok());
    w.net.run();
  }
  w.trace.clear();

  ASSERT_TRUE(w.leader.expel("m05", "for cause").ok());
  w.net.run();
  ASSERT_FALSE(w.members["m05"]->connected());

  // Same O(log N) shape on expulsion: five rotated levels under the rekey
  // span, and fifteen deliveries — m05's path was pruned, so it never
  // installs epoch 17 and contributes no rekey_delivery child.
  const std::string golden =
      "#1 admin_exchange        L          -> m01        @0..0 ok [member_left]\n"
      "#2 admin_exchange        L          -> m02        @0..0 ok [member_left]\n"
      "#3 admin_exchange        L          -> m03        @0..0 ok [member_left]\n"
      "#4 admin_exchange        L          -> m04        @0..0 ok [member_left]\n"
      "#5 admin_exchange        L          -> m06        @0..0 ok [member_left]\n"
      "#6 admin_exchange        L          -> m07        @0..0 ok [member_left]\n"
      "#7 admin_exchange        L          -> m08        @0..0 ok [member_left]\n"
      "#8 admin_exchange        L          -> m09        @0..0 ok [member_left]\n"
      "#9 admin_exchange        L          -> m10        @0..0 ok [member_left]\n"
      "#10 admin_exchange       L          -> m11        @0..0 ok [member_left]\n"
      "#11 admin_exchange       L          -> m12        @0..0 ok [member_left]\n"
      "#12 admin_exchange       L          -> m13        @0..0 ok [member_left]\n"
      "#13 admin_exchange       L          -> m14        @0..0 ok [member_left]\n"
      "#14 admin_exchange       L          -> m15        @0..0 ok [member_left]\n"
      "#15 admin_exchange       L          -> m16        @0..0 ok [member_left]\n"
      "#16 rekey                L                        @0..0 ok =17\n"
      "  #17 rekey_level        L                        @0..0 ok [lvl4] =17\n"
      "  #18 rekey_level        L                        @0..0 ok [lvl3] =17\n"
      "  #19 rekey_level        L                        @0..0 ok [lvl2] =17\n"
      "  #20 rekey_level        L                        @0..0 ok [lvl1] =17\n"
      "  #21 rekey_level        L                        @0..0 ok [lvl0] =17\n"
      "  #22 rekey_delivery     m01        -> L          @0..0 ok =17\n"
      "  #23 rekey_delivery     m02        -> L          @0..0 ok =17\n"
      "  #24 rekey_delivery     m03        -> L          @0..0 ok =17\n"
      "  #25 rekey_delivery     m04        -> L          @0..0 ok =17\n"
      "  #26 rekey_delivery     m06        -> L          @0..0 ok =17\n"
      "  #27 rekey_delivery     m07        -> L          @0..0 ok =17\n"
      "  #28 rekey_delivery     m08        -> L          @0..0 ok =17\n"
      "  #29 rekey_delivery     m09        -> L          @0..0 ok =17\n"
      "  #30 rekey_delivery     m10        -> L          @0..0 ok =17\n"
      "  #31 rekey_delivery     m11        -> L          @0..0 ok =17\n"
      "  #32 rekey_delivery     m12        -> L          @0..0 ok =17\n"
      "  #33 rekey_delivery     m13        -> L          @0..0 ok =17\n"
      "  #34 rekey_delivery     m14        -> L          @0..0 ok =17\n"
      "  #35 rekey_delivery     m15        -> L          @0..0 ok =17\n"
      "  #36 rekey_delivery     m16        -> L          @0..0 ok =17\n";
  EXPECT_EQ(strip_trailing_blanks(w.tree()), golden);
}

// The canonical failover: crash -> ha suspicion -> promotion -> the member
// suspects, retargets and re-authenticates above the fence. The member's
// re-join handshake becomes a child of the failover span.
TEST(GoldenSpanTree, FailoverCrashSuspicionPromotionRejoin) {
  net::SimNetwork net;
  DeterministicRng rng(4242);
  obs::EventStore trace;
  obs::ScopedEventSink sink(trace);
  auto send = [&net](const std::string& to, wire::Envelope e) {
    net.send(to, std::move(e));
  };

  auto repl_key = crypto::SessionKey::random(rng);
  Leader active(LeaderConfig{"L", RekeyPolicy::strict()}, rng);
  active.set_send(send);
  ha::ReplicatorConfig rc;
  rc.repl_key = repl_key;
  rc.snapshot_interval = 0;
  rc.heartbeat_interval = 0;
  ha::LeaderReplicator replicator(active, rc, rng);
  replicator.set_send(send);
  net.attach("L", [&](const wire::Envelope& e) {
    if (e.label == wire::Label::ReplAck)
      replicator.handle(e);
    else
      active.handle(e);
  });

  ha::StandbyConfig sc;
  sc.repl_key = repl_key;
  ha::StandbyLeader standby(sc, rng);
  standby.set_send(send);
  std::unique_ptr<Leader> promoted;
  ha::FailoverConfig fc;
  fc.suspect_after = 2;
  fc.epoch_fence = 1000;
  fc.promoted.id = "L2";
  fc.promoted.rekey = RekeyPolicy::strict();
  ha::FailoverController controller(standby, fc);
  net.attach("L2", [&](const wire::Envelope& e) {
    if (e.label == wire::Label::ReplDelta ||
        e.label == wire::Label::ReplSnapshot ||
        e.label == wire::Label::ReplHeartbeat)
      standby.handle(e);
    else if (promoted)
      promoted->handle(e);
  });
  replicator.start();

  auto pa = crypto::LongTermKey::random(rng);
  ASSERT_TRUE(active.register_member("alice", pa).ok());
  Member alice("alice", "L", pa, rng);
  alice.set_send(send);
  alice.set_suspect_after(3);
  alice.enable_auto_rejoin(RetryPolicy::every_tick());
  alice.set_failover_targets({"L", "L2"});
  net.attach("alice", [&](const wire::Envelope& e) { alice.handle(e); });
  ASSERT_TRUE(alice.join().ok());
  net.run();
  ASSERT_TRUE(alice.connected());
  trace.clear();

  net.detach("L");
  for (int t = 0;
       t < 20 && !(promoted && alice.connected() && alice.epoch() > 1000u);
       ++t) {
    alice.tick();
    if (auto l = controller.tick()) {
      promoted = std::move(l);
      promoted->set_send(send);
    }
    net.run();
  }
  ASSERT_TRUE(promoted);
  ASSERT_TRUE(alice.connected());

  // The member's re-join handshake nests under the failover span; the
  // promoted leader's own exchanges sit at @0 because a fresh incarnation's
  // virtual clock starts at its promotion.
  const std::string golden =
      "#1 failover              L2                       @2..3 ok [active_silent] =1001\n"
      "  ! @2 suspect [active_silent] =2\n"
      "  ! @2 promote [promoted] =1001\n"
      "  ! @3 suspect [alice]\n"
      "  ! @3 rejoin [alice]\n"
      "  ! @3 rejoin [alice]\n"
      "  #2 join                alice      -> L2         @3..3 ok\n"
      "#3 rekey                 L2                       @0..3 ok =1002\n"
      "  #5 rekey_delivery      alice      -> L2         @3..3 ok =1002\n"
      "#4 admin_exchange        L2         -> alice      @0..0 ok [new_group_key]\n"
      "#6 admin_exchange        L2         -> alice      @0..0 ok [member_list]\n";
  EXPECT_EQ(strip_trailing_blanks(obs::format_span_tree(
                SpanTracker::build(trace.events()))),
            golden);
}

// A deterministic lossy join: the first packet (alice's AuthInitReq) dies
// in a scheduled partition window, the retry machinery recovers, and the
// span records both the fault annotation and the retry.
TEST(SpanTracker, LossyJoinRecordsFaultAndRetry) {
  net::FaultPlan plan;
  plan.partitions.push_back({/*from_packet=*/0, /*until_packet=*/1, {"L"}});
  net::FaultInjector injector(plan, 7);
  TracedWorld w(44);
  w.net.set_tap(injector.tap());
  auto& alice = w.add("alice");

  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  ASSERT_FALSE(alice.connected());  // the AuthInitReq died
  for (int t = 0; t < 10 && !alice.connected(); ++t) {
    alice.tick();
    w.net.run();
  }
  ASSERT_TRUE(alice.connected());

  auto spans = SpanTracker::build(w.trace.events());
  ASSERT_FALSE(spans.empty());
  const Span& join = spans[0];
  ASSERT_EQ(join.kind, SpanKind::join);
  EXPECT_TRUE(join.complete);
  EXPECT_GE(join.retries, 1u);
  ASSERT_FALSE(join.annotations.empty());
  EXPECT_EQ(join.annotations[0].kind, "fault_drop");
  EXPECT_EQ(join.annotations[0].detail, "AuthInitReq");
}

}  // namespace
}  // namespace enclaves::core
