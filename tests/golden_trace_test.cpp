// Golden-trace conformance: the protocol's observable event sequence for the
// canonical happy paths is committed here as text and diffed verbatim.
//
// The DSN'01 exchanges under test: the 3-message authentication handshake
// (AuthInitReq -> AuthKeyDist -> AuthAckKey), the stop-and-wait AdminMsg/Ack
// channel that distributes Kg and the membership view, and the graceful
// ReqClose departure. Any reordering, duplication, or loss of a protocol
// event — even one that keeps the end state correct — shows up as a text
// diff against the golden chart.
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
#include "net/sim_network.h"
#include "net/trace_chart.h"
#include "obs/record.h"
#include "util/rng.h"

namespace enclaves::core {
namespace {

struct TracedWorld {
  explicit TracedWorld(std::uint64_t seed,
                       RekeyPolicy policy = RekeyPolicy::strict())
      : rng(seed), leader(LeaderConfig{"L", policy}, rng), sink(trace) {
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

  std::string chart() const {
    return net::format_event_chart(trace.events());
  }

  net::SimNetwork net;
  DeterministicRng rng;
  Leader leader;
  obs::EventStore trace;
  obs::ScopedEventSink sink;
  std::map<std::string, std::unique_ptr<Member>> members;
};

// format_event_chart pads fixed-width columns, which leaves trailing blanks
// on lines that end in a padded field; normalize those away so the golden
// text below stays editor-safe while the comparison stays line-exact.
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

// One member joins (3-message auth), receives Kg and the membership view
// over the stop-and-wait admin channel, answers a Notice probe, and leaves
// gracefully. Every protocol event, in order. All ticks are 0: no timer
// fires in a lossless happy path.
TEST(GoldenTrace, JoinNoticeLeaveHappyPath) {
  TracedWorld w(42);
  auto& alice = w.add("alice");

  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  ASSERT_TRUE(alice.connected());

  w.leader.probe_liveness();  // Notice("hb") over the admin channel
  w.net.run();

  ASSERT_TRUE(alice.leave().ok());
  w.net.run();
  ASSERT_FALSE(alice.connected());

  const std::string golden =
      "@0    alice      member_phase    -> L          [NotConnected->WaitingForKey]\n"
      "@0    L          leader_phase    -> alice      [NotConnected->WaitingForKeyAck]\n"
      "@0    alice      member_phase    -> L          [WaitingForKey->Connected]\n"
      "@0    L          leader_phase    -> alice      [WaitingForKeyAck->Connected]\n"
      "@0    L          join            -> alice\n"
      "@0    L          rekey           =1\n"
      "@0    L          admin_send      -> alice      [new_group_key]\n"
      "@0    alice      rekey           -> L          =1\n"
      "@0    L          admin_ack       -> alice\n"
      "@0    L          admin_send      -> alice      [member_list]\n"
      "@0    L          admin_ack       -> alice\n"
      "@0    L          admin_send      -> alice      [notice]\n"
      "@0    L          admin_ack       -> alice\n"
      "@0    alice      leave           -> L          [left]\n"
      "@0    L          leader_phase    -> alice      [Connected->NotConnected]\n"
      "@0    L          leave           -> alice      [req_close]\n";
  EXPECT_EQ(strip_trailing_blanks(w.chart()), golden);
}

// Second member joining an established group: the incumbent hears about the
// newcomer via MemberJoined, and the strict policy rekeys the whole group.
TEST(GoldenTrace, SecondJoinFansOutToIncumbent) {
  TracedWorld w(43);
  auto& alice = w.add("alice");
  auto& bob = w.add("bob");
  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  w.trace.clear();  // golden-diff only the second join

  ASSERT_TRUE(bob.join().ok());
  w.net.run();
  ASSERT_TRUE(bob.connected());

  const std::string golden =
      "@0    bob        member_phase    -> L          [NotConnected->WaitingForKey]\n"
      "@0    L          leader_phase    -> bob        [NotConnected->WaitingForKeyAck]\n"
      "@0    bob        member_phase    -> L          [WaitingForKey->Connected]\n"
      "@0    L          leader_phase    -> bob        [WaitingForKeyAck->Connected]\n"
      "@0    L          join            -> bob\n"
      "@0    L          rekey           =2\n"
      "@0    L          admin_send      -> alice      [new_group_key]\n"
      "@0    L          admin_send      -> bob        [new_group_key]\n"
      "@0    alice      rekey           -> L          =2\n"
      "@0    bob        rekey           -> L          =2\n"
      "@0    L          admin_ack       -> alice\n"
      "@0    L          admin_send      -> alice      [member_joined]\n"
      "@0    L          admin_ack       -> bob\n"
      "@0    L          admin_send      -> bob        [member_list]\n"
      "@0    L          admin_ack       -> alice\n"
      "@0    L          admin_ack       -> bob\n";
  EXPECT_EQ(strip_trailing_blanks(w.chart()), golden);
}

// The canonical failover sequence (PROTOCOL.md §11): the active leader
// crashes, the failover controller suspects the replication silence and
// promotes the warm standby, the member suspects its dead leader, cycles to
// the standby and re-authenticates above the epoch fence. Every observable
// event of crash -> suspicion -> promotion -> rejoin, in order, with ticks.
TEST(GoldenTrace, FailoverCrashSuspicionPromotionRejoin) {
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
  rc.heartbeat_interval = 0;  // crash silence is the only liveness signal
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
  replicator.tick();  // ship the join's snapshot delta
  net.run();
  ASSERT_EQ(standby.applied_seq(), replicator.head()) << "standby behind";
  trace.clear();  // golden-diff the failover itself, not the group forming

  net.detach("L");  // the crash
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
  EXPECT_GT(alice.epoch(), 1000u) << "rejoined below the epoch fence";

  // The promoted leader's own events sit at @0: it is a fresh incarnation
  // whose virtual clock starts at its promotion, which is the point.
  const std::string golden =
      "@2    L2         suspect         [active_silent] =2\n"
      "@2    L2         promote         -> L          [promoted] =1001\n"
      "@3    alice      suspect         -> L\n"
      "@3    alice      rejoin          -> L2         [retarget]\n"
      "@3    alice      rejoin          -> L2\n"
      "@3    alice      member_phase    -> L2         [NotConnected->WaitingForKey]\n"
      "@0    L2         leader_phase    -> alice      [NotConnected->WaitingForKeyAck]\n"
      "@3    alice      member_phase    -> L2         [WaitingForKey->Connected]\n"
      "@0    L2         leader_phase    -> alice      [WaitingForKeyAck->Connected]\n"
      "@0    L2         join            -> alice\n"
      "@0    L2         rekey           =1002\n"
      "@0    L2         admin_send      -> alice      [new_group_key]\n"
      "@3    alice      rekey           -> L2         =1002\n"
      "@0    L2         admin_ack       -> alice\n"
      "@0    L2         admin_send      -> alice      [member_list]\n"
      "@0    L2         admin_ack       -> alice\n";
  EXPECT_EQ(strip_trailing_blanks(net::format_event_chart(trace.events())),
            golden);
}

// Determinism: the same scenario under the same seed yields a byte-identical
// chart — the property that makes golden-trace diffs trustworthy in CI.
// Tree-mode rekey at group scale (PROTOCOL.md §13): a 16-member group in
// tree mode, deep enough (depth 5 = 32 leaves) that no growth rebuild fires
// mid-chart. The join/expel rekeys broadcast ONE KeyTreeUpdate whose
// keytree_level lines show the O(log N) rotation shape — compare the
// per-member admin fan-out the flat charts above pay.
struct KeyTreeTracedWorld {
  explicit KeyTreeTracedWorld(std::uint64_t seed) : rng(seed), sink(trace) {
    LeaderConfig config;
    config.id = "L";
    config.rekey = RekeyPolicy::tree();
    config.keytree_depth = 5;
    leader = std::make_unique<Leader>(config, rng);
    leader->set_send([this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    net.attach("L", [this](const wire::Envelope& e) { leader->handle(e); });
  }

  Member& add(const std::string& id) {
    auto pa = crypto::LongTermKey::random(rng);
    EXPECT_TRUE(leader->register_member(id, pa).ok());
    auto m = std::make_unique<Member>(id, "L", pa, rng);
    m->set_send([this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    auto* raw = m.get();
    net.attach(id, [raw](const wire::Envelope& e) { raw->handle(e); });
    members[id] = std::move(m);
    return *raw;
  }

  std::string chart() const {
    return net::format_event_chart(trace.events());
  }

  net::SimNetwork net;
  DeterministicRng rng;
  obs::EventStore trace;
  obs::ScopedEventSink sink;
  std::unique_ptr<Leader> leader;
  std::map<std::string, std::unique_ptr<Member>> members;
};

std::vector<std::string> sixteen_ids() {
  std::vector<std::string> ids;
  for (int i = 1; i <= 16; ++i)
    ids.push_back("m" + std::string(i < 10 ? "0" : "") + std::to_string(i));
  return ids;
}

TEST(GoldenTrace, KeyTreeSixteenthJoinIsOneBroadcast) {
  KeyTreeTracedWorld w(77);
  auto ids = sixteen_ids();
  for (const auto& id : ids) w.add(id);
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(w.members[ids[static_cast<std::size_t>(i)]]->join().ok());
    w.net.run();
  }
  w.trace.clear();  // golden-diff only the 16th join

  ASSERT_TRUE(w.members["m16"]->join().ok());
  w.net.run();
  ASSERT_TRUE(w.members["m16"]->connected());
  for (const auto& id : ids)
    ASSERT_EQ(w.members[id]->epoch(), w.leader->epoch()) << id;

  // One KeyTreeUpdate broadcast (rekey + five keytree_level lines) covers
  // the whole group; only the joiner gets a unicast keytree_assign. Compare
  // SecondJoinFansOutToIncumbent, where the flat policy sends new_group_key
  // to every member individually.
  const std::string golden =
      "@0    m16        member_phase    -> L          [NotConnected->WaitingForKey]\n"
      "@0    L          leader_phase    -> m16        [NotConnected->WaitingForKeyAck]\n"
      "@0    m16        member_phase    -> L          [WaitingForKey->Connected]\n"
      "@0    L          leader_phase    -> m16        [WaitingForKeyAck->Connected]\n"
      "@0    L          join            -> m16\n"
      "@0    L          admin_send      -> m16        [keytree_assign]\n"
      "@0    L          rekey           =16\n"
      "@0    L          keytree_level   [lvl4] =16\n"
      "@0    L          keytree_level   [lvl3] =16\n"
      "@0    L          keytree_level   [lvl2] =16\n"
      "@0    L          keytree_level   [lvl1] =16\n"
      "@0    L          keytree_level   [lvl0] =16\n"
      "@0    L          admin_send      -> m01        [member_joined]\n"
      "@0    L          admin_send      -> m02        [member_joined]\n"
      "@0    L          admin_send      -> m03        [member_joined]\n"
      "@0    L          admin_send      -> m04        [member_joined]\n"
      "@0    L          admin_send      -> m05        [member_joined]\n"
      "@0    L          admin_send      -> m06        [member_joined]\n"
      "@0    L          admin_send      -> m07        [member_joined]\n"
      "@0    L          admin_send      -> m08        [member_joined]\n"
      "@0    L          admin_send      -> m09        [member_joined]\n"
      "@0    L          admin_send      -> m10        [member_joined]\n"
      "@0    L          admin_send      -> m11        [member_joined]\n"
      "@0    L          admin_send      -> m12        [member_joined]\n"
      "@0    L          admin_send      -> m13        [member_joined]\n"
      "@0    L          admin_send      -> m14        [member_joined]\n"
      "@0    L          admin_send      -> m15        [member_joined]\n"
      "@0    m01        rekey           -> L          =16\n"
      "@0    m02        rekey           -> L          =16\n"
      "@0    m03        rekey           -> L          =16\n"
      "@0    m04        rekey           -> L          =16\n"
      "@0    m05        rekey           -> L          =16\n"
      "@0    m06        rekey           -> L          =16\n"
      "@0    m07        rekey           -> L          =16\n"
      "@0    m08        rekey           -> L          =16\n"
      "@0    m09        rekey           -> L          =16\n"
      "@0    m10        rekey           -> L          =16\n"
      "@0    m11        rekey           -> L          =16\n"
      "@0    m12        rekey           -> L          =16\n"
      "@0    m13        rekey           -> L          =16\n"
      "@0    m14        rekey           -> L          =16\n"
      "@0    m15        rekey           -> L          =16\n"
      "@0    m16        rekey           -> L          =16\n"
      "@0    L          admin_ack       -> m16\n"
      "@0    L          admin_send      -> m16        [member_list]\n"
      "@0    L          admin_ack       -> m01\n"
      "@0    L          admin_ack       -> m02\n"
      "@0    L          admin_ack       -> m03\n"
      "@0    L          admin_ack       -> m04\n"
      "@0    L          admin_ack       -> m05\n"
      "@0    L          admin_ack       -> m06\n"
      "@0    L          admin_ack       -> m07\n"
      "@0    L          admin_ack       -> m08\n"
      "@0    L          admin_ack       -> m09\n"
      "@0    L          admin_ack       -> m10\n"
      "@0    L          admin_ack       -> m11\n"
      "@0    L          admin_ack       -> m12\n"
      "@0    L          admin_ack       -> m13\n"
      "@0    L          admin_ack       -> m14\n"
      "@0    L          admin_ack       -> m15\n"
      "@0    L          admin_ack       -> m16\n";
  EXPECT_EQ(strip_trailing_blanks(w.chart()), golden);
}

TEST(GoldenTrace, KeyTreeExpelRotatesThePrunedPath) {
  KeyTreeTracedWorld w(77);
  auto ids = sixteen_ids();
  for (const auto& id : ids) w.add(id);
  for (const auto& id : ids) {
    ASSERT_TRUE(w.members[id]->join().ok());
    w.net.run();
  }
  w.trace.clear();  // golden-diff only the expulsion

  ASSERT_TRUE(w.leader->expel("m05", "for cause").ok());
  w.net.run();
  ASSERT_FALSE(w.members["m05"]->connected());
  for (const auto& id : ids) {
    if (id == "m05") continue;
    ASSERT_EQ(w.members[id]->epoch(), w.leader->epoch()) << id;
  }

  // The expulsion rotates exactly the five KEKs on the pruned leaf's path
  // (lvl4..lvl0); m05 never sees epoch 17 and suppresses the Ack for its
  // terminal Expelled notice (the "leave [expelled]" line has no ack).
  const std::string golden =
      "@0    L          expel           -> m05        [for cause]\n"
      "@0    L          admin_send      -> m01        [member_left]\n"
      "@0    L          admin_send      -> m02        [member_left]\n"
      "@0    L          admin_send      -> m03        [member_left]\n"
      "@0    L          admin_send      -> m04        [member_left]\n"
      "@0    L          admin_send      -> m06        [member_left]\n"
      "@0    L          admin_send      -> m07        [member_left]\n"
      "@0    L          admin_send      -> m08        [member_left]\n"
      "@0    L          admin_send      -> m09        [member_left]\n"
      "@0    L          admin_send      -> m10        [member_left]\n"
      "@0    L          admin_send      -> m11        [member_left]\n"
      "@0    L          admin_send      -> m12        [member_left]\n"
      "@0    L          admin_send      -> m13        [member_left]\n"
      "@0    L          admin_send      -> m14        [member_left]\n"
      "@0    L          admin_send      -> m15        [member_left]\n"
      "@0    L          admin_send      -> m16        [member_left]\n"
      "@0    L          rekey           =17\n"
      "@0    L          keytree_level   [lvl4] =17\n"
      "@0    L          keytree_level   [lvl3] =17\n"
      "@0    L          keytree_level   [lvl2] =17\n"
      "@0    L          keytree_level   [lvl1] =17\n"
      "@0    L          keytree_level   [lvl0] =17\n"
      "@0    m05        leave           -> L          [expelled]\n"
      "@0    m01        rekey           -> L          =17\n"
      "@0    m02        rekey           -> L          =17\n"
      "@0    m03        rekey           -> L          =17\n"
      "@0    m04        rekey           -> L          =17\n"
      "@0    m06        rekey           -> L          =17\n"
      "@0    m07        rekey           -> L          =17\n"
      "@0    m08        rekey           -> L          =17\n"
      "@0    m09        rekey           -> L          =17\n"
      "@0    m10        rekey           -> L          =17\n"
      "@0    m11        rekey           -> L          =17\n"
      "@0    m12        rekey           -> L          =17\n"
      "@0    m13        rekey           -> L          =17\n"
      "@0    m14        rekey           -> L          =17\n"
      "@0    m15        rekey           -> L          =17\n"
      "@0    m16        rekey           -> L          =17\n"
      "@0    L          admin_ack       -> m01\n"
      "@0    L          admin_ack       -> m02\n"
      "@0    L          admin_ack       -> m03\n"
      "@0    L          admin_ack       -> m04\n"
      "@0    L          admin_ack       -> m06\n"
      "@0    L          admin_ack       -> m07\n"
      "@0    L          admin_ack       -> m08\n"
      "@0    L          admin_ack       -> m09\n"
      "@0    L          admin_ack       -> m10\n"
      "@0    L          admin_ack       -> m11\n"
      "@0    L          admin_ack       -> m12\n"
      "@0    L          admin_ack       -> m13\n"
      "@0    L          admin_ack       -> m14\n"
      "@0    L          admin_ack       -> m15\n"
      "@0    L          admin_ack       -> m16\n";
  EXPECT_EQ(strip_trailing_blanks(w.chart()), golden);
}

TEST(GoldenTrace, ChartIsDeterministicAcrossRuns) {
  std::string first;
  for (int run = 0; run < 2; ++run) {
    TracedWorld w(7);
    auto& alice = w.add("alice");
    ASSERT_TRUE(alice.join().ok());
    w.net.run();
    w.leader.probe_liveness();
    w.net.run();
    if (run == 0) {
      first = w.chart();
    } else {
      EXPECT_EQ(w.chart(), first);
    }
  }
  EXPECT_FALSE(first.empty());
}

}  // namespace
}  // namespace enclaves::core
