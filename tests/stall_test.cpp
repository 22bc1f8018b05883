// Stalled-member detection and recovery: crashed members get expelled after
// a timeout, and ghost handshakes (the Q12 replayed-AuthInitReq situation)
// are cleared so legitimate joins can proceed — closing the faithful
// protocol's liveness gap without touching its safety argument.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/leader.h"
#include "core/member.h"
#include "net/sim_network.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace enclaves::core {
namespace {

struct World {
  explicit World(std::uint64_t seed)
      : rng(seed), leader(LeaderConfig{"L", RekeyPolicy::strict()}, rng) {
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

  std::uint64_t leader_counter(std::string_view name) const {
    return metrics.counter("L", "L", name);
  }

  obs::MetricsRegistry metrics;
  obs::ScopedMetricsSink metrics_sink{metrics};
  net::SimNetwork net;
  DeterministicRng rng;
  Leader leader;
  std::map<std::string, std::unique_ptr<Member>> members;
};

TEST(Stall, HealthyGroupReportsNoStalls) {
  World w(1);
  auto& alice = w.add("alice");
  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  for (int i = 0; i < 10; ++i) w.leader.tick();
  EXPECT_TRUE(w.leader.stalled_members(3).empty());
}

TEST(Stall, CrashedMemberDetectedAndExpelled) {
  World w(2);
  auto& alice = w.add("alice");
  w.add("bob");
  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  ASSERT_TRUE(w.members["bob"]->join().ok());
  w.net.run();

  // Bob's host "crashes": it stops answering (detach from the network).
  w.net.detach("bob");
  w.leader.broadcast_notice("anyone there?");
  w.net.run();

  // The AdminMsg to bob stays unacknowledged; ticks accumulate.
  for (int i = 0; i < 5; ++i) {
    w.leader.tick();
    w.net.run();
  }
  EXPECT_EQ(w.leader.stalled_members(5),
            std::vector<std::string>{"bob"});

  auto acted = w.leader.expel_stalled(5);
  w.net.run();
  EXPECT_EQ(acted, std::vector<std::string>{"bob"});
  EXPECT_FALSE(w.leader.is_member("bob"));
  EXPECT_EQ(w.members["alice"]->view(), std::vector<std::string>{"alice"});
  // Expulsion rekeys (strict policy), so the crashed host is crypto-out.
  EXPECT_EQ(w.members["alice"]->epoch(), w.leader.epoch());
  EXPECT_EQ(w.leader_counter("expulsions_total"), 1u);
}

TEST(Stall, ReplayedInitCannotBlockRealJoin) {
  World w(3);
  auto& alice = w.add("alice");

  // Session 1: join and leave; the attacker records the AuthInitReq.
  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  wire::Envelope old_init;
  for (const auto& p : w.net.log()) {
    if (p.envelope.label == wire::Label::AuthInitReq) old_init = p.envelope;
  }
  ASSERT_TRUE(alice.leave().ok());
  w.net.run();

  // The attacker replays the old AuthInitReq. This used to open a "ghost
  // handshake" (the paper's Q12) that blocked alice's slot until operations
  // cleared it; the N1 replay fence rejects it outright, so the slot stays
  // free and nothing is announced.
  w.net.inject("L", old_init);
  w.net.run();
  EXPECT_TRUE(w.leader.stalled_members(0).empty());

  // A genuine rejoin proceeds immediately.
  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  EXPECT_TRUE(alice.connected());
  EXPECT_TRUE(w.leader.is_member("alice"));
  EXPECT_EQ(w.leader_counter("expulsions_total"), 0u);
}

TEST(Stall, MidHandshakeMemberCountsAsStalled) {
  World w(4);
  w.add("alice");
  // Alice's join request arrives, but alice vanishes before answering the
  // key distribution.
  ASSERT_TRUE(w.members["alice"]->join().ok());
  w.net.detach("alice");
  w.net.run();

  for (int i = 0; i < 3; ++i) {
    w.leader.tick();
    w.net.run();
  }
  EXPECT_EQ(w.leader.stalled_members(3), std::vector<std::string>{"alice"});
  auto acted = w.leader.expel_stalled(3);
  EXPECT_EQ(acted, std::vector<std::string>{"alice"});
  // Never a member, so no announcement, no rekey beyond the initial state.
  EXPECT_EQ(w.leader_counter("leaves_total"), 0u);
}

TEST(Stall, QuietCrashInvisibleUntilProbe) {
  World w(6);
  auto& alice = w.add("alice");
  w.add("bob");
  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  ASSERT_TRUE(w.members["bob"]->join().ok());
  w.net.run();

  // Bob crashes, but the group is QUIET: nothing pending, nothing stalls.
  w.net.detach("bob");
  for (int i = 0; i < 10; ++i) {
    w.leader.tick();
    w.net.run();
  }
  EXPECT_TRUE(w.leader.stalled_members(3).empty())
      << "a quiet group cannot observe the crash";

  // A liveness probe creates the observable: bob never acks it.
  w.leader.probe_liveness();
  w.net.run();
  for (int i = 0; i < 4; ++i) {
    w.leader.tick();
    w.net.run();
  }
  EXPECT_EQ(w.leader.stalled_members(4), std::vector<std::string>{"bob"});
  auto acted = w.leader.expel_stalled(4);
  EXPECT_EQ(acted, std::vector<std::string>{"bob"});
  EXPECT_FALSE(w.leader.is_member("bob"));
}

TEST(Stall, RecoveredMemberResetsCounter) {
  World w(5);
  auto& alice = w.add("alice");
  ASSERT_TRUE(alice.join().ok());
  w.net.run();

  // Delay alice's ack by two ticks, then let it through.
  w.leader.broadcast_notice("ping");
  // Withhold delivery: tick without running the network.
  w.leader.tick();
  w.leader.tick();
  EXPECT_FALSE(w.leader.stalled_members(2).empty());
  w.net.run();  // acks flow
  w.leader.tick();
  EXPECT_TRUE(w.leader.stalled_members(1).empty()) << "counter reset";
}

}  // namespace
}  // namespace enclaves::core
