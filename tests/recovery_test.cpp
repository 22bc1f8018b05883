// Operational runbook tests: full crash-and-recover cycles, leader restart
// from the persisted registry, stats snapshots.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/leader.h"
#include "core/member.h"
#include "core/registry.h"
#include "crypto/password.h"
#include "net/sim_network.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "wire/payloads.h"
#include "wire/seal.h"

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

  Member& add(const std::string& id, crypto::LongTermKey pa) {
    EXPECT_TRUE(leader.register_member(id, pa).ok());
    return attach_member(id, pa);
  }

  Member& attach_member(const std::string& id, crypto::LongTermKey pa) {
    auto m = std::make_unique<Member>(id, "L", pa, rng);
    m->set_send([this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    auto* raw = m.get();
    net.attach(id, [raw](const wire::Envelope& e) { raw->handle(e); });
    members[id] = std::move(m);
    return *raw;
  }

  net::SimNetwork net;
  DeterministicRng rng;
  Leader leader;
  std::map<std::string, std::unique_ptr<Member>> members;
};

// The full runbook for a crashed member: probe -> detect -> expel -> the
// member's replacement process rejoins with the same credential.
TEST(Recovery, CrashedMemberFullCycle) {
  SCOPED_TRACE("seed=1");
  World w(1);
  auto pa_alice = crypto::LongTermKey::random(w.rng);
  auto pa_bob = crypto::LongTermKey::random(w.rng);
  auto& alice = w.add("alice", pa_alice);
  w.add("bob", pa_bob);
  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  ASSERT_TRUE(w.members["bob"]->join().ok());
  w.net.run();

  // Bob's host dies. Its Member object (and session state) is GONE.
  w.net.detach("bob");
  w.members.erase("bob");

  // Runbook step 1-2: probe, tick until detected.
  w.leader.probe_liveness();
  w.net.run();
  for (int i = 0; i < 5; ++i) {
    w.leader.tick();
    w.net.run();
  }
  ASSERT_EQ(w.leader.stalled_members(5), std::vector<std::string>{"bob"});

  // Step 3: expel; survivors rekey (strict policy), views shrink.
  auto acted = w.leader.expel_stalled(5);
  w.net.run();
  ASSERT_EQ(acted, std::vector<std::string>{"bob"});
  EXPECT_EQ(w.members["alice"]->view(), std::vector<std::string>{"alice"});

  // Step 4: bob's machine comes back with the SAME credential and rejoins
  // from scratch (a brand-new Member instance: no session survives a crash).
  auto& bob2 = w.attach_member("bob", pa_bob);
  ASSERT_TRUE(bob2.join().ok());
  w.net.run();
  EXPECT_TRUE(bob2.connected());
  EXPECT_EQ(w.leader.member_count(), 2u);
  EXPECT_EQ(bob2.epoch(), w.leader.epoch());
  EXPECT_EQ(bob2.view(), (std::vector<std::string>{"alice", "bob"}));
}

// Leader restart: membership sessions are gone (members must rejoin), but
// the credential registry persists, so nobody re-registers passwords.
TEST(Recovery, LeaderRestartFromRegistry) {
  Bytes storage_key = to_bytes("ops");
  Registry registry;
  auto pa = crypto::derive_long_term_key("alice", "pw", {16, "recovery"});
  ASSERT_TRUE(registry.add(Credential{"alice", pa, "password"}).ok());
  Bytes persisted = registry.serialize(storage_key);

  // First leader incarnation.
  {
    SCOPED_TRACE("seed=2");
    World w(2);
    auto restored = Registry::deserialize(persisted, storage_key);
    ASSERT_TRUE(restored.ok());
    restored->install(w.leader);
    auto& alice = w.attach_member("alice", pa);
    ASSERT_TRUE(alice.join().ok());
    w.net.run();
    ASSERT_TRUE(alice.connected());
  }  // leader process "dies"

  // Second incarnation: fresh Leader, same registry blob; the member's old
  // session is meaningless (fresh keys), a plain rejoin works.
  {
    SCOPED_TRACE("seed=3");
    World w(3);
    auto restored = Registry::deserialize(persisted, storage_key);
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(restored->install(w.leader), 1u);
    auto& alice = w.attach_member("alice", pa);
    ASSERT_TRUE(alice.join().ok());
    w.net.run();
    EXPECT_TRUE(alice.connected());
    EXPECT_TRUE(w.leader.is_member("alice"));
  }
}

TEST(Recovery, LeaderSnapshotRoundTripAndTamperRejection) {
  SCOPED_TRACE("seed=6");
  DeterministicRng rng(6);
  Bytes storage_key = to_bytes("snapshot-ops");
  Registry reg;
  ASSERT_TRUE(
      reg.add(Credential{"alice", crypto::LongTermKey::random(rng), "pw"})
          .ok());
  ASSERT_TRUE(
      reg.add(Credential{"bob", crypto::LongTermKey::random(rng), "pw"}).ok());
  LeaderSnapshot snap{reg, 42};

  Bytes blob = snap.serialize(storage_key);
  auto back = LeaderSnapshot::deserialize(blob, storage_key);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, snap);

  // Any bit flip is detected by the outer MAC.
  Bytes tampered = blob;
  tampered[8] ^= 1;
  EXPECT_FALSE(LeaderSnapshot::deserialize(tampered, storage_key).ok());
  // The wrong storage key opens nothing.
  EXPECT_FALSE(LeaderSnapshot::deserialize(blob, to_bytes("wrong")).ok());

  // install() re-arms a fresh leader: credentials present, and the NEXT
  // epoch strictly exceeds everything distributed before the crash.
  SCOPED_TRACE("seed=7");
  World w(7);
  EXPECT_EQ(back->install(w.leader), 2u);
  auto& alice = w.attach_member("alice", reg.find("alice")->pa);
  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  ASSERT_TRUE(alice.connected());
  EXPECT_GT(w.leader.epoch(), 42u) << "epoch floor must hold after restore";
}

// Satellite regression for the federation snapshot family: the parole list
// (PROTOCOL.md §12) rides LeaderSnapshot v3, survives serialize/deserialize
// under the storage key, and re-arms a RESTARTED leader so that a member
// expelled-for-stall before the crash still reconciles afterwards — without
// this, every crash (or live migration) silently voided outstanding paroles.
TEST(Recovery, ParoleListSurvivesLeaderRestart) {
  SCOPED_TRACE("seed=11");
  DeterministicRng rng(11);
  net::SimNetwork net;
  LeaderConfig cfg{"L", RekeyPolicy::strict()};
  cfg.parole_epochs = 64;

  Leader* live = nullptr;  // the net alias always routes to the live leader
  net.attach("L", [&live](const wire::Envelope& e) {
    if (live) live->handle(e);
  });
  auto wire_up = [&net](Leader& l) {
    l.set_send([&net](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
  };

  Leader first(cfg, rng);
  wire_up(first);
  live = &first;
  auto pa_a = crypto::LongTermKey::random(rng);
  auto pa_b = crypto::LongTermKey::random(rng);
  ASSERT_TRUE(first.register_member("alice", pa_a).ok());
  ASSERT_TRUE(first.register_member("bob", pa_b).ok());

  auto make_member = [&](const std::string& id, crypto::LongTermKey pa) {
    auto m = std::make_unique<Member>(id, "L", pa, rng);
    m->set_send([&net](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    Member* raw = m.get();
    net.attach(id, [raw](const wire::Envelope& e) { raw->handle(e); });
    return m;
  };
  auto alice = make_member("alice", pa_a);
  auto bob = make_member("bob", pa_b);
  alice->enable_reconciliation(RetryPolicy::every_tick());
  ASSERT_TRUE(alice->join().ok());
  net.run();
  ASSERT_TRUE(bob->join().ok());
  net.run();
  ASSERT_TRUE(alice->connected() && bob->connected());

  // Stall-expel puts alice on parole; her offline op queues into the log.
  ASSERT_TRUE(first.expel("alice", "stalled").ok());
  net.run();
  ASSERT_TRUE(alice->disconnected());
  ASSERT_TRUE(first.on_parole("alice"));
  ASSERT_TRUE(alice->send_data(to_bytes("offline-op")).ok());
  EXPECT_EQ(alice->oplog_depth(), 1u);

  // Crash-time snapshot carries the parole record and round-trips sealed.
  const Bytes storage_key = to_bytes("parole-restart-ops");
  LeaderSnapshot snap = first.snapshot();
  ASSERT_EQ(snap.parole.size(), 1u);
  ASSERT_TRUE(snap.parole.count("alice"));
  Bytes blob = snap.serialize(storage_key);
  auto back = LeaderSnapshot::deserialize(blob, storage_key);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, snap) << "parole must participate in snapshot equality";
  Bytes tampered = blob;
  tampered[blob.size() / 2] ^= 1;
  EXPECT_FALSE(LeaderSnapshot::deserialize(tampered, storage_key).ok());

  // Restart: a fresh leader re-armed from the snapshot knows the parole.
  Leader second(cfg, rng);
  wire_up(second);
  live = &second;
  EXPECT_EQ(back->install(second), 2u);
  EXPECT_TRUE(second.on_parole("alice"));

  // Reconciliation-on-heal now runs against the RESTARTED leader: the offer
  // opens under the restored parole Kr, the op-log replays, alice rejoins.
  for (int i = 0; i < 40 && !(alice->connected() && !alice->disconnected());
       ++i) {
    alice->tick();
    bob->tick();
    second.tick();
    net.run();
  }
  EXPECT_TRUE(alice->connected());
  EXPECT_FALSE(alice->disconnected());
  EXPECT_EQ(alice->oplog_depth(), 0u);
  EXPECT_TRUE(second.is_member("alice"));
  EXPECT_FALSE(second.on_parole("alice")) << "parole consumed by the rejoin";
}

// The runbook assertion the chaos suite relies on: a member expelled via
// expel_stalled and later rejoining gets a FRESH session key and can never
// be talked to under the pre-expulsion group key again.
TEST(Recovery, ExpelStalledRejoinNeverSeesOldKeys) {
  SCOPED_TRACE("seed=8");
  World w(8);
  auto pa_a = crypto::LongTermKey::random(w.rng);
  auto pa_b = crypto::LongTermKey::random(w.rng);
  auto& alice = w.add("alice", pa_a);
  w.add("bob", pa_b);
  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  ASSERT_TRUE(w.members["bob"]->join().ok());
  w.net.run();

  const crypto::SessionKey old_ka = w.leader.session("bob")->session_key();
  const crypto::GroupKey old_kg = w.leader.group_key();
  const std::uint64_t old_epoch = w.leader.epoch();

  // Bob's host freezes (messages to it vanish; nothing comes back).
  w.net.detach("bob");
  w.leader.probe_liveness();
  w.net.run();
  for (int i = 0; i < 5; ++i) {
    w.leader.tick();
    w.net.run();
  }
  ASSERT_EQ(w.leader.expel_stalled(5), std::vector<std::string>{"bob"});
  w.net.run();
  EXPECT_GT(w.leader.epoch(), old_epoch) << "expulsion must rekey (strict)";

  // Bob returns with the same credential; the handshake issues a fresh Ka.
  auto& bob2 = w.attach_member("bob", pa_b);
  ASSERT_TRUE(bob2.join().ok());
  w.net.run();
  ASSERT_TRUE(bob2.connected());
  EXPECT_NE(w.leader.session("bob")->session_key(), old_ka);
  EXPECT_NE(bob2.session().session_key(), old_ka);
  EXPECT_EQ(bob2.epoch(), w.leader.epoch());
  EXPECT_NE(w.leader.group_key(), old_kg);

  // Data sealed under the pre-expulsion group key is dead to everyone.
  bool bob2_got_data = false;
  bob2.set_event_handler([&bob2_got_data](const GroupEvent& ev) {
    if (std::get_if<DataReceived>(&ev)) bob2_got_data = true;
  });
  DeterministicRng stale_rng(4711);
  wire::GroupDataPayload stale{"alice", old_epoch, 999, to_bytes("old")};
  auto stale_env = wire::make_sealed(
      crypto::default_aead(), old_kg.view(), stale_rng, wire::Label::GroupData,
      "alice", wire::kGroupRecipient, wire::encode(stale));
  const std::uint64_t bob_rejects = bob2.data_rejects();
  const std::uint64_t leader_rejects = w.leader.rejected_inputs();
  w.net.inject("bob", stale_env);
  w.net.inject("L", stale_env);
  w.net.run();
  EXPECT_FALSE(bob2_got_data);
  EXPECT_GT(bob2.data_rejects(), bob_rejects);
  EXPECT_GT(w.leader.rejected_inputs(), leader_rejects);
}

TEST(Recovery, StatsSnapshotTracksLifecycle) {
  SCOPED_TRACE("seed=4");
  obs::MetricsRegistry metrics;
  obs::ScopedMetricsSink metrics_sink(metrics);
  World w(4);
  auto pa = crypto::LongTermKey::random(w.rng);
  auto& alice = w.add("alice", pa);
  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  ASSERT_TRUE(alice.leave().ok());
  w.net.run();

  const obs::MetricsSnapshot s = metrics.snapshot();
  auto leader_counter = [&s](const char* name) -> std::uint64_t {
    auto it = s.counters.find(obs::MetricKey{"L", "L", name});
    return it == s.counters.end() ? 0 : it->second;
  };
  EXPECT_EQ(w.leader.member_count(), 0u);
  EXPECT_EQ(s.gauges.at(obs::MetricKey{"L", "L", "members"}), 0);
  EXPECT_EQ(leader_counter("joins_total"), 1u);
  EXPECT_EQ(leader_counter("leaves_total"), 1u);
  EXPECT_GE(leader_counter("rekeys_total"), 1u);
  EXPECT_EQ(leader_counter("rekeys_total"), w.leader.epoch());
  EXPECT_EQ(leader_counter("expulsions_total"), 0u);
}

}  // namespace
}  // namespace enclaves::core
