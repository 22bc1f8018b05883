// The membership view (core/roster.h) as Member and LegacyMember apply
// join, leave and list notices: set semantics, one ViewChanged per applied
// notice, snapshots that a handler keeps never change, and a notice costs
// the same allocations whatever the group's size. The leader side is a
// genuine LeaderSession (core) or notices sealed under the group key
// (legacy), so every envelope is what the protocol produces.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "alloc_hook.h"
#include "core/leader_session.h"
#include "core/member.h"
#include "legacy/legacy_leader.h"
#include "legacy/legacy_member.h"
#include "net/sim_network.h"
#include "util/rng.h"
#include "wire/legacy_payloads.h"
#include "wire/seal.h"

namespace enclaves {
namespace {

using Snapshot = std::shared_ptr<const std::vector<std::string>>;
using Ids = std::vector<std::string>;

// Longer than the small-string buffer, so a copied id costs an allocation.
std::string long_id(int i) {
  return "member-with-a-long-id-" + std::to_string(1000 + i);
}

Ids long_ids(int n) {
  Ids ids;
  for (int i = 0; i < n; ++i) ids.push_back(long_id(i));
  return ids;
}

// Collects the ViewChanged events a member emits. With `keep` set it keeps
// every snapshot; otherwise it only counts them.
struct ViewLog {
  core::EventHandler handler() {
    return [this](const core::GroupEvent& ev) {
      const auto* v = std::get_if<core::ViewChanged>(&ev);
      if (!v) return;
      ++count;
      if (keep) kept.push_back(v->snapshot);
    };
  }
  bool keep = false;
  std::size_t count = 0;
  std::vector<Snapshot> kept;
};

// A core::Member connected to a LeaderSession that plays the leader.
struct CoreWorld {
  CoreWorld()
      : rng(11),
        pa(crypto::LongTermKey::random(rng)),
        member("watcher", "L", pa, rng),
        leader("L", "watcher", pa, rng) {
    member.set_send([this](const std::string&, wire::Envelope e) {
      outbox.push_back(std::move(e));
    });
    member.set_event_handler(log.handler());
    EXPECT_TRUE(member.join().ok());
    pump();
    EXPECT_TRUE(member.connected());
  }

  // Delivers everything the member sent to the leader, and the leader's
  // replies back, until both are quiet.
  void pump() {
    while (!outbox.empty()) {
      wire::Envelope e = std::move(outbox.front());
      outbox.erase(outbox.begin());
      auto out = leader.handle(e);
      ASSERT_TRUE(out.ok());
      if (out->reply) member.handle(*out->reply);
    }
  }

  // One admin notice, delivered and acknowledged. Returns the allocations
  // Member::handle made for it.
  std::size_t notice(wire::AdminBody body) {
    auto env = leader.submit_admin(std::move(body));
    EXPECT_TRUE(env.has_value());
    if (!env) return 0;
    testing_support::g_allocations = 0;
    testing_support::g_count_allocations = true;
    member.handle(*env);
    testing_support::g_count_allocations = false;
    const std::size_t allocations = testing_support::g_allocations;
    pump();
    return allocations;
  }

  DeterministicRng rng;
  crypto::LongTermKey pa;
  ViewLog log;
  core::Member member;
  core::LeaderSession leader;
  std::vector<wire::Envelope> outbox;
};

// A LegacyMember in session with a LegacyLeader; notices are sealed under
// the group key it holds, exactly as the legacy leader sends them.
struct LegacyWorld {
  LegacyWorld()
      : rng(12), leader(legacy::LegacyLeaderConfig{}, rng) {
    leader.set_send([this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    net.attach("L", [this](const wire::Envelope& e) { leader.handle(e); });
    auto pa = crypto::LongTermKey::random(rng);
    EXPECT_TRUE(leader.register_member("watcher", pa).ok());
    member = std::make_unique<legacy::LegacyMember>("watcher", "L", pa, rng);
    member->set_send([this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    net.attach("watcher",
               [this](const wire::Envelope& e) { member->handle(e); });
    member->set_event_handler(log.handler());
    EXPECT_TRUE(member->join().ok());
    net.run();
    EXPECT_TRUE(member->connected());
  }

  // One mem_added / mem_removed notice. Returns the allocations
  // LegacyMember::handle made for it.
  std::size_t notice(wire::Label label, const std::string& id) {
    auto env = wire::make_sealed(
        crypto::default_aead(), member->group_key().view(), rng, label, "L",
        "watcher", wire::encode(wire::LegacyMembershipPayload{id}));
    testing_support::g_allocations = 0;
    testing_support::g_count_allocations = true;
    member->handle(env);
    testing_support::g_count_allocations = false;
    return testing_support::g_allocations;
  }
  std::size_t added(const std::string& id) {
    return notice(wire::Label::LegacyMemAdded, id);
  }
  std::size_t removed(const std::string& id) {
    return notice(wire::Label::LegacyMemRemoved, id);
  }

  net::SimNetwork net;
  DeterministicRng rng;
  ViewLog log;
  legacy::LegacyLeader leader;
  std::unique_ptr<legacy::LegacyMember> member;
};

TEST(MemberView, KeptSnapshotsNeverChange) {
  CoreWorld w;
  w.log.keep = true;
  w.notice(wire::MemberJoined{"bob"});
  w.notice(wire::MemberJoined{"alice"});
  w.notice(wire::MemberLeft{"bob"});
  w.notice(wire::MemberList{{"watcher", "carol"}});
  w.notice(wire::MemberJoined{"dave"});
  ASSERT_EQ(w.log.kept.size(), 5u);
  EXPECT_EQ(*w.log.kept[0], (Ids{"bob"}));
  EXPECT_EQ(*w.log.kept[1], (Ids{"alice", "bob"}));
  EXPECT_EQ(*w.log.kept[2], (Ids{"alice"}));
  EXPECT_EQ(*w.log.kept[3], (Ids{"carol", "watcher"}));
  EXPECT_EQ(*w.log.kept[4], (Ids{"carol", "dave", "watcher"}));
  EXPECT_EQ(w.member.view(), (Ids{"carol", "dave", "watcher"}));

  // Leaving drops the view; the snapshots the handler holds stay whole.
  ASSERT_TRUE(w.member.leave().ok());
  EXPECT_TRUE(w.member.view().empty());
  EXPECT_EQ(*w.log.kept[4], (Ids{"carol", "dave", "watcher"}));
}

TEST(MemberView, DuplicateJoinAndAbsentLeaveChangeNothing) {
  CoreWorld w;
  w.notice(wire::MemberList{{"alice", "watcher"}});
  const std::size_t before = w.log.count;
  w.notice(wire::MemberJoined{"alice"});
  EXPECT_EQ(w.member.view(), (Ids{"alice", "watcher"}));
  w.notice(wire::MemberLeft{"zed"});
  EXPECT_EQ(w.member.view(), (Ids{"alice", "watcher"}));
  // Still one ViewChanged per applied notice.
  EXPECT_EQ(w.log.count, before + 2);
}

TEST(MemberView, MemberListIsSortedAndUnique) {
  CoreWorld w;
  w.log.keep = true;
  w.notice(wire::MemberList{{"watcher", "carol", "alice", "carol", "bob",
                             "alice"}});
  const Ids expect{"alice", "bob", "carol", "watcher"};
  EXPECT_EQ(w.member.view(), expect);
  ASSERT_EQ(w.log.kept.size(), 1u);
  EXPECT_EQ(*w.log.kept[0], expect);
}

// Allocations Member::handle makes for each of eight join and leave notices
// after a MemberList of `n` long ids, with a handler that keeps nothing.
std::vector<std::size_t> core_notice_allocations(int n) {
  CoreWorld w;
  w.notice(wire::MemberList{long_ids(n)});
  std::vector<std::size_t> counts;
  for (int i = 0; i < 4; ++i) {
    const std::string id = "newcomer-with-a-long-id-" + std::to_string(i);
    counts.push_back(w.notice(wire::MemberJoined{id}));
    counts.push_back(w.notice(wire::MemberLeft{id}));
  }
  EXPECT_EQ(w.member.view().size(), static_cast<std::size_t>(n));
  EXPECT_EQ(w.log.count, 9u);
  return counts;
}

TEST(MemberView, NoticeAllocationsDoNotGrowWithTheGroup) {
  EXPECT_EQ(core_notice_allocations(16), core_notice_allocations(512));
}

TEST(LegacyMemberView, KeptSnapshotsNeverChange) {
  LegacyWorld w;
  w.log.keep = true;
  w.added("bob");
  w.added("alice");
  w.removed("bob");
  ASSERT_EQ(w.log.kept.size(), 3u);
  EXPECT_EQ(*w.log.kept[0], (Ids{"bob", "watcher"}));
  EXPECT_EQ(*w.log.kept[1], (Ids{"alice", "bob", "watcher"}));
  EXPECT_EQ(*w.log.kept[2], (Ids{"alice", "watcher"}));
  EXPECT_EQ(w.member->view(), (Ids{"alice", "watcher"}));

  ASSERT_TRUE(w.member->leave().ok());
  EXPECT_TRUE(w.member->view().empty());
  EXPECT_EQ(*w.log.kept[2], (Ids{"alice", "watcher"}));
}

TEST(LegacyMemberView, DuplicateJoinAndAbsentLeaveChangeNothing) {
  LegacyWorld w;
  w.added("alice");
  const std::size_t before = w.log.count;
  w.added("alice");
  EXPECT_EQ(w.member->view(), (Ids{"alice", "watcher"}));
  w.removed("zed");
  EXPECT_EQ(w.member->view(), (Ids{"alice", "watcher"}));
  EXPECT_EQ(w.log.count, before + 2);
}

std::vector<std::size_t> legacy_notice_allocations(int n) {
  LegacyWorld w;
  for (const auto& id : long_ids(n)) w.added(id);
  std::vector<std::size_t> counts;
  for (int i = 0; i < 4; ++i) {
    const std::string id = "newcomer-with-a-long-id-" + std::to_string(i);
    counts.push_back(w.added(id));
    counts.push_back(w.removed(id));
  }
  EXPECT_EQ(w.member->view().size(), static_cast<std::size_t>(n) + 1);
  return counts;
}

TEST(LegacyMemberView, NoticeAllocationsDoNotGrowWithTheGroup) {
  EXPECT_EQ(legacy_notice_allocations(16), legacy_notice_allocations(512));
}

}  // namespace
}  // namespace enclaves
