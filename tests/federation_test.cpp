// Federation integration suite: consistent-hash placement enforcement,
// member retargeting on FedRedirect, epoch-fenced live migration end to end,
// resurrected-source fencing with ledger attribution, cross-shard seal
// isolation after a migration, and parole lists surviving the move.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "core/member.h"
#include "fed/federation.h"
#include "net/sim_network.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/record.h"
#include "obs/span.h"
#include "tests/flight_dumps.h"
#include "util/rng.h"
#include "wire/seal.h"

namespace enclaves::fed {
namespace {

using core::DataReceived;
using core::GroupEvent;
using core::Member;

// A little federation: every shard holds the same master key and the same
// ring membership; the SimNetwork routes by shard id ("s1", the federation
// plane), leader id ("s1/g" — attached on EVERY shard, so non-owners answer
// with redirects), and member id (inboxes).
struct FedWorld {
  FedWorld(std::uint64_t seed, const std::vector<std::string>& shards,
           std::uint64_t parole_epochs = 0)
      : rng(seed), fed_key(crypto::LongTermKey::random(rng)) {
    for (const auto& s : shards) {
      FedNodeConfig cfg;
      cfg.shard_id = s;
      cfg.fed_key = fed_key;
      cfg.parole_epochs = parole_epochs;
      add_node(std::move(cfg), shards);
    }
  }

  FedNode& add_node(FedNodeConfig cfg, const std::vector<std::string>& shards) {
    const std::string s = cfg.shard_id;
    auto owned = std::make_unique<FedNode>(std::move(cfg), rng);
    FedNode* n = owned.get();
    n->set_send([this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    for (const auto& other : shards) n->add_shard(other);
    net.attach(s, [n, s](const wire::Envelope& e) { n->handle(s, e); });
    // A replacement (resurrection) rebinds the leader aliases too.
    for (const auto& g : groups) {
      const std::string addr = s + "/" + g;
      net.attach(addr,
                 [n, addr](const wire::Envelope& e) { n->handle(addr, e); });
    }
    nodes[s] = std::move(owned);
    return *n;
  }

  FedNode& node(const std::string& s) { return *nodes.at(s); }

  std::string placement(const std::string& g) {
    return nodes.begin()->second->placement(g);
  }

  /// First unused group name the ring places on `shard`.
  std::string group_on(const std::string& shard) {
    for (int i = 0;; ++i) {
      std::string g = "grp" + std::to_string(i);
      if (!groups.count(g) && placement(g) == shard) return g;
    }
  }

  core::Leader* create(const std::string& g) {
    auto r = node(placement(g)).create_group(g);
    EXPECT_TRUE(r.ok());
    attach_group(g);
    net.run();
    return r ? *r : nullptr;
  }

  void attach_group(const std::string& g) {
    if (!groups.insert(g).second) return;
    for (auto& [s, n] : nodes) {
      const std::string addr = s + "/" + g;
      FedNode* raw = n.get();
      net.attach(addr,
                 [raw, addr](const wire::Envelope& e) { raw->handle(addr, e); });
    }
  }

  /// Registers `user` at the group's current owner and starts a Member
  /// pointed at `via_shard`'s leader alias (the owner when empty).
  Member& enroll(const std::string& user, const std::string& g,
                 const std::string& via_shard = {}) {
    core::Leader* leader = nullptr;
    std::string owner_shard;
    for (auto& [s, n] : nodes) {
      if (auto* l = n->host().group(g)) {
        leader = l;
        owner_shard = s;
      }
    }
    EXPECT_NE(leader, nullptr) << g << " lives nowhere";
    auto pa = crypto::LongTermKey::random(rng);
    EXPECT_TRUE(leader->register_member(user, pa).ok());
    const std::string target =
        (via_shard.empty() ? owner_shard : via_shard) + "/" + g;
    auto m = std::make_unique<Member>(user, target, pa, rng);
    m->set_send([this, user](const std::string& to, wire::Envelope e) {
      if (e.label == wire::Label::GroupData) data_log.push_back(e);
      net.send(to, std::move(e));
    });
    m->enable_auto_rejoin(core::RetryPolicy::every_tick());
    m->set_event_handler([this, user](const GroupEvent& ev) {
      if (const auto* d = std::get_if<DataReceived>(&ev))
        inbox[user].push_back(d->origin + ":" + to_string(d->payload));
    });
    Member* raw = m.get();
    net.attach(user, [raw](const wire::Envelope& e) { raw->handle(e); });
    members[user] = std::move(m);
    return *raw;
  }

  void settle(int ticks = 12) {
    net.run();
    for (int i = 0; i < ticks; ++i) {
      for (auto& [s, n] : nodes) n->tick();
      for (auto& [id, m] : members) m->tick();
      net.run();
    }
  }

  net::SimNetwork net;
  DeterministicRng rng;
  crypto::LongTermKey fed_key;
  std::map<std::string, std::unique_ptr<FedNode>> nodes;
  std::set<std::string> groups;
  std::map<std::string, std::unique_ptr<Member>> members;
  std::map<std::string, std::vector<std::string>> inbox;  // "origin:payload"
  std::vector<wire::Envelope> data_log;  // member-sealed GroupData, in order
};

const std::vector<std::string> kShards = {"s1", "s2", "s3"};

TEST(Federation, CreateGroupRespectsPlacementAndSyncsDirectory) {
  FedWorld w(1, kShards);
  const std::string g = w.group_on("s1");

  // The ring says s1: creating it on s2 is refused with a typed error that
  // names the right shard.
  auto wrong = w.node("s2").create_group(g);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.error().code, Errc::wrong_shard);
  EXPECT_EQ(wrong.error().message, "s1");

  ASSERT_NE(w.create(g), nullptr);
  EXPECT_TRUE(w.node("s1").owns(g));
  // The ownership claim reached every shard's directory.
  for (const auto& s : kShards) {
    EXPECT_EQ(w.node(s).owner(g), "s1") << s;
    EXPECT_EQ(w.node(s).directory().version(g), 1u) << s;
  }
  // Second create on the right shard: plain duplicate.
  EXPECT_EQ(w.node("s1").create_group(g).error().code, Errc::already_exists);
}

TEST(Federation, MemberJoinsThroughWrongShardViaRedirect) {
  obs::MetricsRegistry metrics;
  obs::ScopedMetricsSink sink(metrics);
  obs::EventStore ledger;
  obs::ScopedEventSink guard(ledger);

  FedWorld w(2, kShards);
  const std::string g = w.group_on("s1");
  w.create(g);
  // The member was told the wrong shard (say, stale client config).
  auto& m = w.enroll("alice", g, "s2");
  ASSERT_TRUE(m.join().ok());
  w.settle();

  EXPECT_TRUE(m.connected());
  EXPECT_EQ(m.redirects_followed(), 1u);
  EXPECT_TRUE(w.node("s1").host().group(g)->is_member("alice"));
  EXPECT_GE(metrics.counter("fed", "s2", "redirects_sent_total"), 1u);

  // The wrong shard logged the misdelivery as observed-not-processed
  // evidence with NO accusation — a redirect is routine, not an attack.
  bool saw_wrong_shard = false;
  for (const auto& ev : ledger.entries()) {
    if (ev.kind != obs::EvidenceKind::wrong_shard) continue;
    saw_wrong_shard = true;
    EXPECT_EQ(ev.agent, "s2");
    EXPECT_EQ(ev.group, g);
    EXPECT_TRUE(ev.peer.empty());
  }
  EXPECT_TRUE(saw_wrong_shard);
  EXPECT_EQ(ledger.suspicion("alice"), 0u);
}

TEST(Federation, LiveMigrationMovesGroupMembersAndDirectory) {
  obs::EventStore trace;
  obs::ScopedEventSink tsink(trace);

  FedWorld w(3, kShards);
  const std::string g = w.group_on("s1");
  w.create(g);
  auto& alice = w.enroll("alice", g);
  auto& bob = w.enroll("bob", g);
  ASSERT_TRUE(alice.join().ok());
  w.settle();
  ASSERT_TRUE(bob.join().ok());
  w.settle();
  ASSERT_TRUE(alice.connected() && bob.connected());
  ASSERT_TRUE(alice.send_data(to_bytes("before")).ok());
  w.settle();
  ASSERT_EQ(w.inbox["bob"], std::vector<std::string>{"alice:before"});

  const std::uint64_t source_epoch = w.node("s1").host().group(g)->epoch();
  ASSERT_TRUE(w.node("s1").migrate_out(g, "s2").ok());
  w.settle(30);

  // Ownership moved: group object gone at the source, live at the target,
  // directory at version 2 on every shard.
  EXPECT_FALSE(w.node("s1").owns(g));
  ASSERT_TRUE(w.node("s2").owns(g));
  EXPECT_EQ(w.node("s1").migrator().inflight(), 0u);
  EXPECT_EQ(w.node("s1").migrator().completed(), 1u);
  for (const auto& s : kShards) {
    EXPECT_EQ(w.node(s).owner(g), "s2") << s;
    EXPECT_EQ(w.node(s).directory().version(g), 2u) << s;
  }

  // Both members chased the redirect and re-authenticated at the target
  // with the credentials the snapshot carried.
  EXPECT_TRUE(alice.connected());
  EXPECT_TRUE(bob.connected());
  core::Leader* target = w.node("s2").host().group(g);
  EXPECT_TRUE(target->is_member("alice"));
  EXPECT_TRUE(target->is_member("bob"));

  // Epoch fencing: everything the new leader issues clears the fence floor,
  // so nothing a zombie source rekeys to can ever look fresh.
  EXPECT_GE(target->epoch(), source_epoch + 1000);

  // The data plane works under the new shard's keys.
  w.inbox.clear();
  ASSERT_TRUE(alice.send_data(to_bytes("after")).ok());
  w.settle();
  EXPECT_EQ(w.inbox["bob"], std::vector<std::string>{"alice:after"});

  // The trace stitches into one COMPLETE migration span: offer opened it,
  // install/accept/commit annotated it, the target's commit-applied closed
  // it.
  auto spans = obs::SpanTracker::build(trace.events());
  const obs::Span* mig = nullptr;
  for (const auto& s : spans)
    if (s.kind == obs::SpanKind::migration && s.group == g) mig = &s;
  ASSERT_NE(mig, nullptr);
  EXPECT_TRUE(mig->complete);
  EXPECT_EQ(mig->agent, "s1");
  EXPECT_EQ(mig->peer, "s2");
  std::set<std::string> notes;
  for (const auto& a : mig->annotations) notes.insert(a.detail);
  EXPECT_TRUE(notes.count("install"));
  EXPECT_TRUE(notes.count("commit"));
}

TEST(Federation, ResurrectedSourceIsFencedWithLedgerAttribution) {
  obs::MetricsRegistry metrics;
  obs::ScopedMetricsSink sink(metrics);
  obs::EventStore ledger;
  obs::ScopedEventSink guard(ledger);

  FedWorld w(4, kShards);
  const std::string g = w.group_on("s1");
  w.create(g);
  ASSERT_TRUE(w.node("s1").migrate_out(g, "s2").ok());
  w.settle(30);
  ASSERT_TRUE(w.node("s2").owns(g));
  ASSERT_EQ(w.node("s2").directory().version(g), 2u);

  // s1 comes back from the dead with its pre-migration worldview: a fresh
  // process, the same shard identity and master key, an EMPTY directory.
  FedNodeConfig zombie_cfg;
  zombie_cfg.shard_id = "s1";
  zombie_cfg.fed_key = w.fed_key;
  FedNode& zombie = w.add_node(std::move(zombie_cfg), kShards);

  // It re-creates "its" group (the ring does place it there) and broadcasts
  // an ownership claim at version 1 — which every healthy shard's directory
  // already superseded. s2's refusal is an incident: one flight dump.
  testing_support::FlightDumpDir claim_dumps;
  obs::FlightRecorder claim_recorder("s2", claim_dumps.path());
  claim_recorder.set_local_agents({"s2"});
  ASSERT_TRUE(claim_recorder.attach());
  ASSERT_TRUE(zombie.create_group(g).ok());
  w.settle(4);
  claim_recorder.detach();
  const auto claim_blobs = claim_dumps.dumps();
  ASSERT_EQ(claim_blobs.size(), 1u);
  EXPECT_EQ(claim_blobs[0].header.reason, "stale_dir_claim");
  EXPECT_TRUE(testing_support::has_ledger_line(
      claim_blobs[0], "fenced_migration", "s2", "s1", "stale directory claim"));
  EXPECT_EQ(w.node("s2").owner(g), "s2");
  EXPECT_EQ(w.node("s3").owner(g), "s2");
  EXPECT_GE(metrics.counter("fed", "s2", "dir_stale_claims_total"), 1u);

  // It then offers to migrate the group it thinks it owns. The offer's
  // directory version is behind: refused, with the source named in the
  // ledger, and the zombie's migration aborts — another incident dump.
  testing_support::FlightDumpDir offer_dumps;
  obs::FlightRecorder offer_recorder("s2", offer_dumps.path());
  offer_recorder.set_local_agents({"s2"});
  ASSERT_TRUE(offer_recorder.attach());
  ASSERT_TRUE(zombie.migrate_out(g, "s2").ok());
  w.settle(8);
  offer_recorder.detach();
  const auto offer_blobs = offer_dumps.dumps();
  ASSERT_EQ(offer_blobs.size(), 1u);
  EXPECT_EQ(offer_blobs[0].header.reason, "fenced_migration");
  EXPECT_TRUE(testing_support::has_ledger_line(
      offer_blobs[0], "fenced_migration", "s2", "s1", "stale migration offer"));
  EXPECT_EQ(zombie.migrator().inflight(), 0u);
  EXPECT_EQ(zombie.migrator().completed(), 0u);
  EXPECT_TRUE(w.node("s2").owns(g));
  EXPECT_EQ(w.node("s2").directory().version(g), 2u);
  EXPECT_EQ(metrics.counter("fed", "s2", "migrations_refused_total"), 1u);

  bool offer_fenced = false;
  for (const auto& ev : ledger.entries()) {
    if (ev.kind != obs::EvidenceKind::fenced_migration) continue;
    EXPECT_EQ(ev.peer, "s1");  // every fencing names the stale source
    if (ev.agent == "s2" && ev.detail == "stale migration offer")
      offer_fenced = true;
  }
  EXPECT_TRUE(offer_fenced);
  EXPECT_GE(ledger.suspicion("s1"), 2u);  // stale dir claims + stale offer
}

// Satellite: cross-shard isolation. A data envelope sealed under the
// group's pre-migration key must not authenticate at the new shard — the
// snapshot moves credentials and parole, never the session/group keys.
TEST(Federation, PreMigrationSealRefusedAtNewShard) {
  obs::EventStore ledger;
  obs::ScopedEventSink guard(ledger);

  FedWorld w(5, kShards);
  const std::string g = w.group_on("s1");
  w.create(g);
  auto& alice = w.enroll("alice", g);
  auto& bob = w.enroll("bob", g);
  ASSERT_TRUE(alice.join().ok());
  w.settle();
  ASSERT_TRUE(bob.join().ok());
  w.settle();
  ASSERT_TRUE(alice.send_data(to_bytes("old-era")).ok());
  w.settle();
  ASSERT_FALSE(w.data_log.empty());
  const wire::Envelope captured = w.data_log.front();  // sealed under old Kg

  ASSERT_TRUE(w.node("s1").migrate_out(g, "s2").ok());
  w.settle(30);
  core::Leader* target = w.node("s2").host().group(g);
  ASSERT_NE(target, nullptr);
  ASSERT_TRUE(target->is_member("alice"));
  const std::uint64_t relayed_before = target->relayed_count();
  w.inbox.clear();

  // Replay the captured pre-migration envelope at the new owner.
  w.net.send("s2/" + g, captured);
  w.net.run();
  w.settle(2);

  // Refused, nothing relayed, nobody received it — and the refusal is
  // attributed to the envelope's claimed origin at the new shard's leader.
  EXPECT_EQ(target->relayed_count(), relayed_before);
  EXPECT_TRUE(w.inbox["bob"].empty());
  bool attributed = false;
  for (const auto& ev : ledger.entries()) {
    if (ev.kind == obs::EvidenceKind::relay_reject &&
        ev.agent == "s2/" + g && ev.peer == "alice")
      attributed = true;
  }
  EXPECT_TRUE(attributed);
}

// Satellite: the parole list rides the snapshot. A member disconnected
// before the migration reconciles with the NEW shard's leader — its parole
// Kr and fence epoch moved with the group, and the fence window
// (parole_epochs > epoch_fence_jump) survives the fenced epoch jump.
TEST(Federation, ParoleListMigratesAndReconciliationHeals) {
  obs::MetricsRegistry metrics;
  obs::ScopedMetricsSink sink(metrics);

  FedWorld w(6, kShards, /*parole_epochs=*/5000);
  const std::string g = w.group_on("s1");
  w.create(g);
  auto& alice = w.enroll("alice", g);
  auto& bob = w.enroll("bob", g);
  alice.enable_reconciliation(core::RetryPolicy::every_tick());
  ASSERT_TRUE(alice.join().ok());
  w.settle();
  ASSERT_TRUE(bob.join().ok());
  w.settle();
  ASSERT_TRUE(alice.connected() && bob.connected());

  // Alice goes quiet; the leader expels her for liveness, which grants
  // parole (reason "stalled") and puts her into disconnected operation.
  core::Leader* source = w.node("s1").host().group(g);
  ASSERT_TRUE(source->expel("alice", "stalled").ok());
  w.net.run();
  ASSERT_TRUE(alice.disconnected());
  ASSERT_TRUE(source->on_parole("alice"));
  ASSERT_TRUE(alice.send_data(to_bytes("offline-op")).ok());
  EXPECT_EQ(alice.oplog_depth(), 1u);

  ASSERT_TRUE(w.node("s1").migrate_out(g, "s2").ok());
  w.settle(40);

  // The parole record moved: alice's reconciliation offers — retargeted by
  // the old shard's redirect — were admitted by the NEW leader, her op-log
  // replayed, and she fast-rejoined under the migrated Kr.
  core::Leader* target = w.node("s2").host().group(g);
  ASSERT_NE(target, nullptr);
  EXPECT_TRUE(alice.connected());
  EXPECT_FALSE(alice.disconnected());
  EXPECT_EQ(alice.oplog_depth(), 0u);
  EXPECT_TRUE(target->is_member("alice"));
  EXPECT_FALSE(target->on_parole("alice"));  // consumed by the fast rejoin
  const std::string lid = "s2/" + g;
  EXPECT_GE(metrics.counter(lid, lid, "reconcile_admits_total"), 1u);
  EXPECT_GE(metrics.counter(lid, lid, "reconcile_fast_rejoins_total"), 1u);
  EXPECT_EQ(metrics.counter(lid, lid, "reconcile_quarantines_total"), 0u);
  // The offline op surfaced to the group after the heal.
  bool bob_got_offline_op = false;
  for (const auto& line : w.inbox["bob"])
    if (line == "alice:offline-op") bob_got_offline_op = true;
  EXPECT_TRUE(bob_got_offline_op);
}

// A forged (unsealed, unsolicited) redirect must not steer a member: wrong
// stale-leader ids are ignored, and the per-attempt hop budget caps how far
// a chain of hostile hints can drag the join.
TEST(Federation, ForgedRedirectsAreBoundedAndIgnored) {
  FedWorld w(7, kShards);
  const std::string g = w.group_on("s1");
  w.create(g);
  auto& alice = w.enroll("alice", g);  // pointed at the RIGHT shard
  ASSERT_TRUE(alice.join().ok());

  // Adversary injects a redirect claiming the group moved to s3. Its
  // stale_leader field does not match a leader alice is even talking to
  // only when forged badly; forge it "well" (correct stale leader).
  wire::Envelope forged{wire::Label::FedRedirect, "evil", "alice",
                        wire::encode(wire::FedRedirectPayload{
                            g, "s1/" + g, "s3/" + g, 99})};
  w.net.send("alice", forged);
  w.net.run();
  w.settle(6);

  // The member may have chased the bogus hint (it is indistinguishable from
  // a real one pre-auth), but s3 redirects it straight back per its
  // directory, and the join still lands on the true owner.
  EXPECT_TRUE(alice.connected());
  EXPECT_TRUE(w.node("s1").host().group(g)->is_member("alice"));
  EXPECT_LE(alice.redirects_followed(), 4u);  // hop budget held
}

}  // namespace
}  // namespace enclaves::fed
