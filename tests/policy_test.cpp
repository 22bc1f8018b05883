// Access-control policies (silent admission denial), standalone and
// integrated into the Leader, and the leader's security trail: the events it
// reports to the metrics and the evidence ledger.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/leader.h"
#include "core/member.h"
#include "core/policy.h"
#include "net/sim_network.h"
#include "obs/metrics.h"
#include "obs/security.h"
#include "util/rng.h"

namespace enclaves::core {
namespace {

// --- policies, standalone ---------------------------------------------

TEST(Policy, OpenAdmitsEveryone) {
  OpenPolicy p;
  EXPECT_TRUE(p.may_join("anyone", 1000).allow);
}

TEST(Policy, AllowlistAdmitsOnlyListed) {
  AllowlistPolicy p({"alice", "bob"});
  EXPECT_TRUE(p.may_join("alice", 0).allow);
  EXPECT_FALSE(p.may_join("mallory", 0).allow);
  EXPECT_EQ(p.may_join("mallory", 0).reason, "not on allowlist");
}

TEST(Policy, DenylistBansAndUnbans) {
  DenylistPolicy p;
  EXPECT_TRUE(p.may_join("carol", 0).allow);
  p.ban("carol");
  EXPECT_TRUE(p.is_banned("carol"));
  EXPECT_FALSE(p.may_join("carol", 0).allow);
  p.unban("carol");
  EXPECT_TRUE(p.may_join("carol", 0).allow);
}

TEST(Policy, MaxSizeCapsGroup) {
  MaxSizePolicy p(2);
  EXPECT_TRUE(p.may_join("a", 0).allow);
  EXPECT_TRUE(p.may_join("a", 1).allow);
  EXPECT_FALSE(p.may_join("a", 2).allow);
  EXPECT_EQ(p.may_join("a", 2).reason, "group full");
}

TEST(Policy, CompositeFirstDenialWins) {
  auto composite = std::make_shared<CompositePolicy>();
  composite->add(std::make_shared<MaxSizePolicy>(10));
  composite->add(std::make_shared<AllowlistPolicy>(
      std::set<std::string>{"alice"}));
  EXPECT_TRUE(composite->may_join("alice", 0).allow);
  auto d = composite->may_join("bob", 0);
  EXPECT_FALSE(d.allow);
  EXPECT_EQ(d.reason, "not on allowlist");
}

// --- integrated into the Leader ----------------------------------------

struct World {
  explicit World(std::uint64_t seed)
      : rng(seed), leader(LeaderConfig{"L", RekeyPolicy::manual()}, rng) {
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
  obs::SecurityLedger ledger;
  obs::ScopedMetricsSink metrics_sink{metrics};
  obs::ScopedSecurityLedger ledger_sink{ledger};
  net::SimNetwork net;
  DeterministicRng rng;
  Leader leader;
  std::map<std::string, std::unique_ptr<Member>> members;
};

TEST(LeaderPolicy, DeniedMemberIsSilentlyIgnored) {
  World w(1);
  auto& alice = w.add("alice");
  auto& mallory = w.add("mallory");
  w.leader.set_access_policy(std::make_shared<AllowlistPolicy>(
      std::set<std::string>{"alice"}));

  ASSERT_TRUE(mallory.join().ok());
  w.net.run();
  EXPECT_FALSE(mallory.connected());
  EXPECT_FALSE(w.leader.is_member("mallory"));
  // The denial produced NO message at all (silent; nothing forgeable).
  for (const auto& p : w.net.log()) EXPECT_NE(p.to, "mallory");
  EXPECT_EQ(w.leader_counter("join_denials_total"), 1u);
  ASSERT_EQ(w.ledger.size(), 1u);
  EXPECT_EQ(w.ledger.entries()[0].kind, obs::EvidenceKind::join_denied);
  EXPECT_EQ(w.ledger.entries()[0].accused, "mallory");

  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  EXPECT_TRUE(alice.connected());
}

TEST(LeaderPolicy, MaxSizeEnforced) {
  World w(2);
  w.leader.set_access_policy(std::make_shared<MaxSizePolicy>(2));
  auto& a = w.add("a");
  auto& b = w.add("b");
  auto& c = w.add("c");
  ASSERT_TRUE(a.join().ok());
  w.net.run();
  ASSERT_TRUE(b.join().ok());
  w.net.run();
  ASSERT_TRUE(c.join().ok());
  w.net.run();
  EXPECT_TRUE(a.connected() && b.connected());
  EXPECT_FALSE(c.connected());
  EXPECT_EQ(w.leader.member_count(), 2u);
}

TEST(LeaderPolicy, BanAfterExpulsionKeepsMemberOut) {
  World w(3);
  auto denylist = std::make_shared<DenylistPolicy>();
  w.leader.set_access_policy(denylist);
  auto& eve = w.add("eve");
  ASSERT_TRUE(eve.join().ok());
  w.net.run();
  ASSERT_TRUE(eve.connected());

  ASSERT_TRUE(w.leader.expel("eve").ok());
  denylist->ban("eve");
  w.net.run();
  EXPECT_FALSE(w.leader.is_member("eve"));

  // Her client learned of the expulsion via the authenticated Expelled
  // notice; a fresh join attempt must go nowhere.
  EXPECT_FALSE(eve.connected());
  ASSERT_TRUE(eve.join().ok());
  w.net.run();
  EXPECT_FALSE(eve.connected());
  EXPECT_GE(w.leader_counter("join_denials_total"), 1u);
  EXPECT_EQ(w.leader_counter("expulsions_total"), 1u);
}

TEST(LeaderAudit, LifecycleLeavesTrail) {
  World w(4);
  auto& alice = w.add("alice");
  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  w.leader.rekey();
  w.net.run();
  ASSERT_TRUE(alice.leave().ok());
  w.net.run();

  EXPECT_EQ(w.leader_counter("joins_total"), 1u);
  EXPECT_GE(w.leader_counter("rekeys_total"), 2u);  // initial key + manual
  EXPECT_GE(w.leader.epoch(), 2u);
  EXPECT_EQ(w.leader_counter("leaves_total"), 1u);
}

TEST(LeaderAudit, AttackTrafficShowsUpAsRejects) {
  World w(5);
  auto& alice = w.add("alice");
  ASSERT_TRUE(alice.join().ok());
  w.net.run();

  // Unknown sender, forged admin ack, junk data message.
  wire::Envelope junk1{wire::Label::Ack, "ghost", "L", w.rng.bytes(32)};
  wire::Envelope junk2{wire::Label::Ack, "alice", "L", w.rng.bytes(64)};
  wire::Envelope junk3{wire::Label::GroupData, "ghost", "*", w.rng.bytes(64)};
  w.net.send("L", junk1);
  w.net.send("L", junk2);
  w.net.send("L", junk3);
  w.net.run();

  EXPECT_GE(w.leader_counter("auth_rejects_total"), 2u);
  EXPECT_GE(w.leader_counter("relay_rejects_total"), 1u);
  EXPECT_GE(w.ledger.suspicion("ghost"), 2u);  // junk1 and junk3
  // The attack left the group state untouched.
  EXPECT_TRUE(w.leader.is_member("alice"));
  EXPECT_TRUE(alice.connected());
}

}  // namespace
}  // namespace enclaves::core
