// Integration tests: Leader + Members over SimNetwork — join/leave/rekey,
// membership views, data plane, expulsion, churn properties.
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
  explicit World(std::uint64_t seed,
                 RekeyPolicy policy = RekeyPolicy::strict())
      : rng(seed), leader(LeaderConfig{"L", policy}, rng) {
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

  void join(const std::string& id) {
    ASSERT_TRUE(members[id]->join().ok());
    net.run();
  }

  net::SimNetwork net;
  DeterministicRng rng;
  Leader leader;
  std::map<std::string, std::unique_ptr<Member>> members;
};

TEST(Group, SingleMemberJoins) {
  World w(1);
  auto& alice = w.add("alice");
  w.join("alice");
  EXPECT_TRUE(alice.connected());
  EXPECT_TRUE(alice.has_group_key());
  EXPECT_EQ(w.leader.members(), std::vector<std::string>{"alice"});
  EXPECT_EQ(alice.view(), std::vector<std::string>{"alice"});
  EXPECT_EQ(alice.epoch(), w.leader.epoch());
}

TEST(Group, ThreeMembersConsistentViews) {
  World w(2);
  w.add("alice");
  w.add("bob");
  w.add("carol");
  w.join("alice");
  w.join("bob");
  w.join("carol");
  std::vector<std::string> expect = {"alice", "bob", "carol"};
  EXPECT_EQ(w.leader.members(), expect);
  for (const auto& [id, m] : w.members) {
    EXPECT_EQ(m->view(), expect) << id;
    EXPECT_EQ(m->epoch(), w.leader.epoch()) << id;
  }
}

TEST(Group, UnregisteredMemberCannotJoin) {
  World w(3);
  auto pa = crypto::LongTermKey::random(w.rng);
  Member eve("eve", "L", pa, w.rng);
  eve.set_send([&w](const std::string& to, wire::Envelope e) {
    w.net.send(to, std::move(e));
  });
  w.net.attach("eve", [&eve](const wire::Envelope& e) { eve.handle(e); });
  ASSERT_TRUE(eve.join().ok());
  w.net.run();
  EXPECT_FALSE(eve.connected());
  EXPECT_TRUE(w.leader.members().empty());
}

TEST(Group, RegisteredButWrongKeyCannotJoin) {
  World w(4);
  auto real_pa = crypto::LongTermKey::random(w.rng);
  ASSERT_TRUE(w.leader.register_member("alice", real_pa).ok());
  auto wrong_pa = crypto::LongTermKey::random(w.rng);
  Member impostor("alice", "L", wrong_pa, w.rng);
  impostor.set_send([&w](const std::string& to, wire::Envelope e) {
    w.net.send(to, std::move(e));
  });
  w.net.attach("alice",
               [&impostor](const wire::Envelope& e) { impostor.handle(e); });
  ASSERT_TRUE(impostor.join().ok());
  w.net.run();
  EXPECT_FALSE(impostor.connected());
  EXPECT_FALSE(w.leader.is_member("alice"));
  EXPECT_GT(w.leader.rejected_inputs(), 0u);
}

TEST(Group, DuplicateRegistrationRejected) {
  World w(5);
  auto pa = crypto::LongTermKey::random(w.rng);
  ASSERT_TRUE(w.leader.register_member("alice", pa).ok());
  auto again = w.leader.register_member("alice", pa);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), Errc::already_exists);
  EXPECT_FALSE(w.leader.register_member("L", pa).ok())
      << "leader id is reserved";
}

TEST(Group, LeaveUpdatesEveryView) {
  World w(6);
  w.add("alice");
  w.add("bob");
  w.add("carol");
  w.join("alice");
  w.join("bob");
  w.join("carol");
  ASSERT_TRUE(w.members["bob"]->leave().ok());
  w.net.run();
  std::vector<std::string> expect = {"alice", "carol"};
  EXPECT_EQ(w.leader.members(), expect);
  EXPECT_EQ(w.members["alice"]->view(), expect);
  EXPECT_EQ(w.members["carol"]->view(), expect);
  EXPECT_FALSE(w.members["bob"]->connected());
}

TEST(Group, StrictPolicyRekeysOnJoinAndLeave) {
  World w(7, RekeyPolicy::strict());
  w.add("alice");
  w.add("bob");
  w.join("alice");
  std::uint64_t e1 = w.leader.epoch();
  w.join("bob");
  std::uint64_t e2 = w.leader.epoch();
  EXPECT_GT(e2, e1) << "rekey on join";
  ASSERT_TRUE(w.members["bob"]->leave().ok());
  w.net.run();
  EXPECT_GT(w.leader.epoch(), e2) << "rekey on leave";
  EXPECT_EQ(w.members["alice"]->epoch(), w.leader.epoch());
}

TEST(Group, ManualPolicyKeepsEpochStable) {
  World w(8, RekeyPolicy::manual());
  w.add("alice");
  w.add("bob");
  w.join("alice");
  std::uint64_t e1 = w.leader.epoch();
  w.join("bob");
  EXPECT_EQ(w.leader.epoch(), e1);
  w.leader.rekey();
  w.net.run();
  EXPECT_EQ(w.leader.epoch(), e1 + 1);
  EXPECT_EQ(w.members["alice"]->epoch(), e1 + 1);
  EXPECT_EQ(w.members["bob"]->epoch(), e1 + 1);
}

TEST(Group, PeriodicRekeyEveryNMessages) {
  RekeyPolicy p = RekeyPolicy::manual();
  p.every_n_messages = 3;
  World w(9, p);
  auto& alice = w.add("alice");
  w.add("bob");
  w.join("alice");
  w.join("bob");
  std::uint64_t e1 = w.leader.epoch();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(alice.send_data(to_bytes("m")).ok());
    w.net.run();
  }
  EXPECT_EQ(w.leader.epoch(), e1 + 1) << "rekey after 3 data messages";
}

TEST(Group, DataReachesAllOtherMembers) {
  World w(10);
  auto& alice = w.add("alice");
  w.add("bob");
  w.add("carol");
  w.join("alice");
  w.join("bob");
  w.join("carol");

  std::map<std::string, std::vector<std::string>> inbox;
  for (auto& [id, m] : w.members) {
    m->set_event_handler([&inbox, id = id](const GroupEvent& ev) {
      if (const auto* d = std::get_if<DataReceived>(&ev))
        inbox[id].push_back(d->origin + ":" + enclaves::to_string(d->payload));
    });
  }
  ASSERT_TRUE(alice.send_data(to_bytes("hello")).ok());
  w.net.run();
  EXPECT_TRUE(inbox["alice"].empty()) << "no echo to the author";
  EXPECT_EQ(inbox["bob"], std::vector<std::string>{"alice:hello"});
  EXPECT_EQ(inbox["carol"], std::vector<std::string>{"alice:hello"});
  EXPECT_EQ(w.leader.relayed_count(), 1u);
}

TEST(Group, DataFromNonMemberNotRelayed) {
  World w(11);
  w.add("alice");
  w.join("alice");
  // Forge a GroupData envelope from an unknown sender with random bytes.
  wire::Envelope forged{wire::Label::GroupData, "ghost", "*",
                        w.rng.bytes(64)};
  w.net.send("L", forged);
  w.net.run();
  EXPECT_EQ(w.leader.relayed_count(), 0u);
  EXPECT_GT(w.leader.rejected_inputs(), 0u);
}

TEST(Group, StaleEpochDataRejectedAfterRekey) {
  World w(12, RekeyPolicy::manual());
  auto& alice = w.add("alice");
  w.add("bob");
  w.join("alice");
  w.join("bob");

  // Alice seals a message, but it is delayed past a rekey.
  ASSERT_TRUE(alice.send_data(to_bytes("late")).ok());
  w.leader.rekey();  // queued BEFORE delivery of alice's data
  // Deliver everything: the leader processes alice's old-epoch data after
  // the rekey, so the relay must refuse it.
  w.net.run();
  EXPECT_EQ(w.leader.relayed_count(), 0u);
}

TEST(Group, ExpelRemovesAndInformsGroup) {
  World w(13);
  w.add("alice");
  w.add("bob");
  w.join("alice");
  w.join("bob");
  std::uint64_t epoch_before = w.leader.epoch();

  std::string bob_close_reason;
  w.members["bob"]->set_event_handler([&](const GroupEvent& ev) {
    if (const auto* c = std::get_if<SessionClosed>(&ev))
      bob_close_reason = c->reason;
  });

  auto key = w.leader.expel("bob", "policy violation");
  ASSERT_TRUE(key.ok());
  w.net.run();
  EXPECT_EQ(w.leader.members(), std::vector<std::string>{"alice"});
  EXPECT_EQ(w.members["alice"]->view(), std::vector<std::string>{"alice"});
  EXPECT_GT(w.leader.epoch(), epoch_before) << "rekey on expulsion";
  // The expelled member received the authenticated Expelled notice, knows
  // it is out, and dropped all group state.
  EXPECT_FALSE(w.members["bob"]->connected());
  EXPECT_FALSE(w.members["bob"]->has_group_key());
  EXPECT_EQ(bob_close_reason, "expelled: policy violation");
  EXPECT_LT(w.members["bob"]->epoch(), w.leader.epoch());
  EXPECT_FALSE(w.leader.expel("bob").ok()) << "already out";

  // An expelled member may rejoin (policy permitting).
  ASSERT_TRUE(w.members["bob"]->join().ok());
  w.net.run();
  EXPECT_TRUE(w.members["bob"]->connected());
}

TEST(Group, ExpelMidHandshakeDoesNotAnnounceDeparture) {
  World w(16);
  auto& alice = w.add("alice");
  w.add("bob");
  w.join("alice");
  int alice_view_changes = 0;
  alice.set_event_handler([&alice_view_changes](const GroupEvent& ev) {
    if (std::holds_alternative<ViewChanged>(ev)) ++alice_view_changes;
  });

  // Bob's join request arrives but his AuthAckKey never does: the leader's
  // session sits in waiting_for_key_ack. Expelling it must not tell the
  // group that a member left — bob never was one.
  ASSERT_TRUE(w.members["bob"]->join().ok());
  w.net.deliver_next();  // AuthInitReq reaches the leader
  ASSERT_FALSE(w.leader.is_member("bob"));
  auto key = w.leader.expel("bob", "handshake abandoned");
  ASSERT_TRUE(key.ok());
  w.net.run();
  EXPECT_EQ(alice_view_changes, 0) << "no MemberLeft fan-out for a ghost";
  EXPECT_EQ(w.leader.member_count(), 1u);
}

TEST(Group, ShutdownGroupNotifiesEveryoneOnce) {
  obs::MetricsRegistry metrics;
  obs::ScopedMetricsSink metrics_sink(metrics);
  World w(17);
  std::map<std::string, std::string> close_reasons;
  for (const char* id : {"alice", "bob", "carol"}) {
    auto& m = w.add(id);
    m.set_event_handler([&close_reasons, id = std::string(id)](
                            const GroupEvent& ev) {
      if (const auto* c = std::get_if<SessionClosed>(&ev))
        close_reasons[id] = c->reason;
    });
    w.join(id);
  }
  ASSERT_EQ(w.leader.member_count(), 3u);

  w.leader.shutdown_group("maintenance window");
  w.net.run();

  EXPECT_EQ(w.leader.member_count(), 0u);
  ASSERT_EQ(close_reasons.size(), 3u);
  for (const auto& [id, reason] : close_reasons)
    EXPECT_EQ(reason, "expelled: maintenance window") << id;
  for (const auto& [id, m] : w.members) {
    EXPECT_FALSE(m->connected()) << id;
    EXPECT_FALSE(m->has_group_key()) << id;
  }
  EXPECT_EQ(metrics.counter("L", "L", "expulsions_total"), 3u);
}

TEST(Group, EventSequenceOnJoin) {
  World w(14);
  auto& alice = w.add("alice");
  std::vector<std::string> events;
  alice.set_event_handler([&events](const GroupEvent& ev) {
    std::visit(
        [&events](const auto& e) {
          using T = std::decay_t<decltype(e)>;
          if constexpr (std::is_same_v<T, SessionEstablished>)
            events.push_back("established");
          else if constexpr (std::is_same_v<T, EpochChanged>)
            events.push_back("epoch");
          else if constexpr (std::is_same_v<T, ViewChanged>)
            events.push_back("view");
          else if constexpr (std::is_same_v<T, AdminAccepted>)
            events.push_back("admin");
          else if constexpr (std::is_same_v<T, SessionClosed>)
            events.push_back("closed");
          else
            events.push_back("data");
        },
        ev);
  });
  w.join("alice");
  // established, then NewGroupKey (epoch+admin), then MemberList (view+admin).
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events.front(), "established");
  EXPECT_NE(std::find(events.begin(), events.end(), "epoch"), events.end());
  EXPECT_NE(std::find(events.begin(), events.end(), "view"), events.end());
}

TEST(Group, RejoinAfterLeaveWorks) {
  World w(15);
  auto& alice = w.add("alice");
  w.join("alice");
  ASSERT_TRUE(alice.leave().ok());
  w.net.run();
  EXPECT_FALSE(w.leader.is_member("alice"));
  w.join("alice");
  EXPECT_TRUE(alice.connected());
  EXPECT_TRUE(w.leader.is_member("alice"));
  EXPECT_EQ(alice.epoch(), w.leader.epoch());
}

// Churn property: after arbitrary interleaved joins/leaves followed by
// quiescence, every in-session member's view equals the leader's membership
// and every member is at the current epoch.
class GroupChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GroupChurn, ViewsConvergeAfterQuiescence) {
  World w(GetParam());
  const int kMembers = 8;
  std::vector<std::string> ids;
  for (int i = 0; i < kMembers; ++i) {
    std::string id = "m" + std::to_string(i);
    ids.push_back(id);
    w.add(id);
  }
  DeterministicRng script(GetParam() ^ 0xC0FFEE);
  for (int step = 0; step < 60; ++step) {
    const std::string& id = ids[script.below(kMembers)];
    Member& m = *w.members[id];
    if (m.connected()) {
      if (script.below(3) == 0) {
        (void)m.leave();
      } else {
        (void)m.send_data(to_bytes("chatter"));
      }
    } else {
      (void)m.join();
    }
    // Occasionally let the network drain partially out of order-ish.
    if (script.below(4) == 0) w.net.run(script.below(10));
  }
  w.net.run();  // quiesce

  auto expected = w.leader.members();
  for (const auto& id : ids) {
    Member& m = *w.members[id];
    if (w.leader.is_member(id)) {
      EXPECT_TRUE(m.connected()) << id;
      EXPECT_EQ(m.view(), expected) << id;
      EXPECT_EQ(m.epoch(), w.leader.epoch()) << id;
    } else {
      EXPECT_FALSE(m.connected()) << id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupChurn,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808, 909, 1010));

}  // namespace
}  // namespace enclaves::core
