// HA subsystem unit tests: replication payload codecs, the ReplLog, the
// active->standby delta stream (mirror equality, gap repair, duplicate
// suppression, retransmission), promotion with epoch fencing, deposition of
// the old leader, and the member-side epoch fence.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "core/leader.h"
#include "core/member.h"
#include "core/member_session.h"
#include "ha/failover.h"
#include "ha/repl_log.h"
#include "ha/replicator.h"
#include "ha/standby.h"
#include "net/sim_network.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/record.h"
#include "tests/alloc_hook.h"
#include "tests/flight_dumps.h"
#include "util/rng.h"
#include "wire/repl.h"
#include "wire/seal.h"

namespace enclaves::ha {
namespace {

using core::Leader;
using core::LeaderConfig;
using core::Member;
using core::RekeyPolicy;
using core::RetryPolicy;

// ---------------------------------------------------------------------------
// Codecs.

TEST(ReplCodec, RoundTrips) {
  DeterministicRng rng(1);
  wire::ReplDeltaPayload delta;
  delta.epoch = 7;
  delta.seq = 42;
  delta.keytree_depth = 3;
  delta.credentials.set.push_back(
      {"alice", {crypto::LongTermKey::random(rng), "snapshot"}});
  delta.credentials.erased.push_back("bob");
  delta.slots.set.push_back({"alice", 9});
  delta.parole.set.push_back({"carol", {crypto::SessionKey::random(rng), 6}});
  auto d = wire::decode<wire::ReplDeltaPayload>(wire::encode(delta));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, delta);

  wire::ReplSnapshotPayload snap{3, 9, to_bytes("blob")};
  auto s = wire::decode<wire::ReplSnapshotPayload>(wire::encode(snap));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, snap);

  wire::ReplAckPayload ack{5, 2, true, false};
  auto a = wire::decode<wire::ReplAckPayload>(wire::encode(ack));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, ack);

  wire::ReplHeartbeatPayload hb{11, 13};
  auto h = wire::decode<wire::ReplHeartbeatPayload>(wire::encode(hb));
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(*h, hb);
}

TEST(ReplCodec, RejectsTrailingBytes) {
  DeterministicRng rng(2);
  wire::ReplDeltaPayload delta;
  wire::ReplSnapshotPayload snap{1, 1, to_bytes("x")};
  wire::ReplAckPayload ack{1, 1, false, false};
  wire::ReplHeartbeatPayload hb{1, 1};
  for (Bytes raw : {wire::encode(delta), wire::encode(snap),
                    wire::encode(ack), wire::encode(hb)}) {
    raw.push_back(0x00);
    EXPECT_FALSE(wire::decode<wire::ReplDeltaPayload>(raw).ok());
    EXPECT_FALSE(wire::decode<wire::ReplSnapshotPayload>(raw).ok());
    EXPECT_FALSE(wire::decode<wire::ReplAckPayload>(raw).ok());
    EXPECT_FALSE(wire::decode<wire::ReplHeartbeatPayload>(raw).ok());
  }
}

// A forged entry count must be refused before it sizes anything: the count
// sits above the cap, and decoding it allocates nothing near that count.
TEST(ReplCodec, RefusesOversizedEntryCountWithoutReserving) {
  wire::ReplDeltaPayload delta;
  Bytes raw = wire::encode(delta);
  // Type octet, epoch, seq, keytree_depth, then the credentials' set count.
  const std::size_t at = 1 + 8 + 8 + 4;
  const std::uint32_t count = wire::kMaxReplEntries + 1;
  for (int i = 0; i < 4; ++i)
    raw[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(count >> (24 - 8 * i));

  testing_support::g_largest_allocation = 0;
  testing_support::g_count_allocations = true;
  auto decoded = wire::decode<wire::ReplDeltaPayload>(raw);
  testing_support::g_count_allocations = false;
  // Read into a local: binding gtest's reference straight to an extern
  // thread_local trips a UBSan null-reference false positive in GCC.
  const std::size_t largest = testing_support::g_largest_allocation;
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.code(), Errc::oversized);
  EXPECT_LT(largest, std::size_t{4096})
      << "reserved room for the forged count";
}

TEST(ReplCodec, CrossDecodeRejected) {
  // Each payload family carries a distinct type octet; feeding one family's
  // bytes to another family's decoder must fail, not mis-parse.
  wire::ReplAckPayload ack{1, 1, false, false};
  EXPECT_FALSE(wire::decode<wire::ReplDeltaPayload>(wire::encode(ack)).ok());
  EXPECT_FALSE(wire::decode<wire::ReplHeartbeatPayload>(wire::encode(ack)).ok());
}

// ---------------------------------------------------------------------------
// ReplLog.

TEST(ReplLog, AssignsSequencesAndPrunesOnAck) {
  ReplLog log;
  EXPECT_EQ(log.head(), 0u);
  wire::ReplDeltaPayload d;
  EXPECT_EQ(log.append(d), 1u);
  EXPECT_EQ(log.append(d), 2u);
  EXPECT_EQ(log.append(d), 3u);
  EXPECT_EQ(log.head(), 3u);
  EXPECT_EQ(log.unacked().size(), 3u);
  EXPECT_EQ(log.unacked().begin()->second.seq, 1u);

  log.ack(2);
  EXPECT_EQ(log.acked(), 2u);
  ASSERT_EQ(log.unacked().size(), 1u);
  EXPECT_EQ(log.unacked().begin()->second.seq, 3u)
      << "acked entries are pruned";

  log.ack(1);  // stale ack never regresses
  EXPECT_EQ(log.acked(), 2u);
  log.ack(99);  // beyond head: clamped, not trusted
  EXPECT_EQ(log.acked(), 3u);
  EXPECT_TRUE(log.unacked().empty());
}

// ---------------------------------------------------------------------------
// Replication world: active leader + replicator streaming to a standby over
// a SimNetwork.

struct ReplWorld {
  explicit ReplWorld(std::uint64_t seed,
                     LeaderConfig config = {"L", RekeyPolicy::strict()})
      : rng(seed),
        repl_key(crypto::SessionKey::random(rng)),
        leader(std::move(config), rng) {
    leader.set_send(sender());

    ReplicatorConfig rc;
    rc.standby_id = "L2";
    rc.repl_key = repl_key;
    rc.heartbeat_interval = 2;
    replicator = std::make_unique<LeaderReplicator>(leader, rc, rng);
    replicator->set_send(sender());

    StandbyConfig sc;
    sc.id = "L2";
    sc.active_id = "L";
    sc.repl_key = repl_key;
    standby = std::make_unique<StandbyLeader>(sc, rng);
    standby->set_send(sender());

    net.attach("L", [this](const wire::Envelope& e) {
      if (e.label == wire::Label::ReplAck)
        replicator->handle(e);
      else
        leader.handle(e);
    });
    net.attach("L2", [this](const wire::Envelope& e) { standby->handle(e); });
  }

  core::SendFn sender() {
    return [this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    };
  }

  // One replicator tick ships whatever the leader's snapshot changed.
  void sync() {
    replicator->tick();
    net.run();
  }

  obs::MetricsRegistry metrics;
  obs::ScopedMetricsSink metrics_sink{metrics};
  net::SimNetwork net;
  DeterministicRng rng;
  crypto::SessionKey repl_key;
  Leader leader;
  std::unique_ptr<LeaderReplicator> replicator;
  std::unique_ptr<StandbyLeader> standby;
};

TEST(Replication, MirrorsActiveStateAtEveryReplicatedPoint) {
  ReplWorld w(10);
  w.replicator->start();
  w.net.run();
  ASSERT_TRUE(w.standby->has_baseline());
  EXPECT_EQ(w.standby->snapshot(), w.leader.snapshot());

  // After EVERY admin-state change the standby's reconstruction must equal
  // the active's crash snapshot exactly — this is the failover guarantee.
  DeterministicRng keys(99);
  for (const char* id : {"alice", "bob", "carol"}) {
    ASSERT_TRUE(
        w.leader.register_member(id, crypto::LongTermKey::random(keys)).ok());
    w.sync();
    EXPECT_EQ(w.standby->snapshot(), w.leader.snapshot()) << id;
  }
  ASSERT_TRUE(
      w.leader.update_credential("bob", crypto::LongTermKey::random(keys))
          .ok());
  w.sync();
  EXPECT_EQ(w.standby->snapshot(), w.leader.snapshot());

  w.leader.rekey();
  w.sync();
  w.leader.rekey();
  w.sync();
  EXPECT_EQ(w.standby->snapshot(), w.leader.snapshot());
  EXPECT_EQ(w.standby->epoch(), 2u);
  EXPECT_EQ(w.standby->applied_seq(), w.replicator->head());
  EXPECT_EQ(w.replicator->lag(), 0u) << "cumulative acks caught up";

  EXPECT_EQ(w.metrics.counter("ha", "L", "repl_deltas_total"),
            w.replicator->head());
  EXPECT_GE(w.metrics.counter("ha", "L2", "repl_deltas_total"),
            w.standby->stats().deltas_applied);
}

// The standby mirrors the whole snapshot, not only credentials and epoch: a
// tree-mode leader's key-tree depth and slots, and its parole list. Each
// delta's trace detail names the fields it changed.
TEST(Replication, MirrorsKeyTreeSlotsAndParole) {
  LeaderConfig lc{"L", RekeyPolicy::tree()};
  lc.parole_epochs = 4;
  ReplWorld w(16, lc);
  obs::EventStore trace;
  obs::ScopedEventSink trace_sink(trace);
  w.replicator->start();
  w.net.run();

  DeterministicRng keys(10);
  std::vector<std::unique_ptr<Member>> members;
  for (const char* id : {"alice", "bob", "carol"}) {
    auto pa = crypto::LongTermKey::random(keys);
    ASSERT_TRUE(w.leader.register_member(id, pa).ok());
    auto& m =
        members.emplace_back(std::make_unique<Member>(id, "L", pa, w.rng));
    m->set_send(w.sender());
    w.net.attach(id, [raw = m.get()](const wire::Envelope& e) {
      raw->handle(e);
    });
    ASSERT_TRUE(m->join().ok());
    w.net.run();
    w.sync();
    EXPECT_EQ(w.standby->snapshot(), w.leader.snapshot()) << id;
  }
  EXPECT_EQ(w.standby->snapshot().keytree_slots.size(), 3u);
  EXPECT_EQ(w.standby->snapshot().keytree_depth, 2u);

  ASSERT_TRUE(w.leader.expel("bob", "stalled").ok());  // onto parole
  w.net.run();
  w.sync();
  ASSERT_TRUE(w.leader.on_parole("bob"));
  EXPECT_EQ(w.standby->snapshot(), w.leader.snapshot());
  EXPECT_EQ(w.standby->snapshot().parole.count("bob"), 1u);
  EXPECT_EQ(w.standby->snapshot().keytree_slots.count("bob"), 0u);

  // The last delta on each side: the leave rekey, bob's pruned leaf, his
  // parole record.
  std::map<std::string, std::string> last_detail;
  for (const auto& e : trace.events())
    if (e.kind == obs::TraceKind::repl_delta) last_detail[e.agent] = e.detail;
  EXPECT_EQ(last_detail["L"], "epoch,slots,parole");
  EXPECT_EQ(last_detail["L2"], "epoch,slots,parole");
}

// One diff, one patch, for all three snapshot maps: entries added, changed
// and removed, plus the scalar fields.
TEST(SnapshotDiff, PatchOfDiffRebuildsTheTarget) {
  DeterministicRng rng(17);
  core::LeaderSnapshot from;
  from.epoch = 4;
  from.keytree_depth = 2;
  for (const char* id : {"alice", "bob", "carol"})
    ASSERT_TRUE(
        from.registry.add(id, {crypto::LongTermKey::random(rng), "snapshot"})
            .ok());
  from.keytree_slots = {{"alice", 4}, {"bob", 5}};
  from.parole["carol"] = {crypto::SessionKey::random(rng), 3};

  core::LeaderSnapshot to = from;
  to.epoch = 5;
  ASSERT_TRUE(to.registry.remove("alice").ok());
  ASSERT_TRUE(to.registry.remove("bob").ok());
  ASSERT_TRUE(
      to.registry.add("bob", {crypto::LongTermKey::random(rng), "snapshot"})
          .ok());
  ASSERT_TRUE(
      to.registry.add("dave", {crypto::LongTermKey::random(rng), "snapshot"})
          .ok());
  to.keytree_slots = {{"bob", 6}, {"dave", 4}};
  to.parole.clear();

  const wire::ReplDeltaPayload delta = diff(from, to);
  EXPECT_EQ(delta.credentials.set.size(), 2u);  // bob changed, dave added
  EXPECT_EQ(delta.credentials.erased, std::vector<std::string>{"alice"});
  EXPECT_EQ(delta.slots.set.size(), 2u);
  EXPECT_EQ(delta.slots.erased, std::vector<std::string>{"alice"});
  EXPECT_TRUE(delta.parole.set.empty());
  EXPECT_EQ(delta.parole.erased, std::vector<std::string>{"carol"});

  auto patched = wire::decode<wire::ReplDeltaPayload>(wire::encode(delta));
  ASSERT_TRUE(patched.ok());
  core::LeaderSnapshot rebuilt = from;
  EXPECT_EQ(patch(rebuilt, *patched), "epoch,credentials,slots,parole");
  EXPECT_EQ(rebuilt, to);
  EXPECT_EQ(patch(rebuilt, diff(to, to)), "") << "an empty diff is a no-op";
  EXPECT_EQ(rebuilt, to);
}

TEST(Replication, GapRepairedBySnapshotResync) {
  ReplWorld w(11);
  w.replicator->start();
  w.net.run();

  // Drop delta 1 and its retransmission, which the next tick sends ahead of
  // delta 2; delta 2 then arrives over a gap.
  int deltas_seen = 0;
  w.net.set_tap([&deltas_seen](const net::Packet& p) {
    if (p.envelope.label == wire::Label::ReplDelta && ++deltas_seen <= 2)
      return net::TapVerdict::drop;
    return net::TapVerdict::deliver;
  });
  DeterministicRng keys(5);
  ASSERT_TRUE(
      w.leader.register_member("alice", crypto::LongTermKey::random(keys))
          .ok());
  w.sync();
  EXPECT_EQ(w.standby->applied_seq(), 0u) << "delta 1 was dropped";

  ASSERT_TRUE(
      w.leader.register_member("bob", crypto::LongTermKey::random(keys)).ok());
  w.sync();  // delta 2 -> gap ack -> snapshot resync -> caught up
  EXPECT_GE(w.standby->stats().gaps_detected, 1u);
  EXPECT_EQ(w.standby->snapshot(), w.leader.snapshot());
  EXPECT_GE(w.metrics.counter("ha", "L2", "repl_gaps_total"), 1u);
  EXPECT_GE(w.metrics.counter("ha", "L", "repl_gaps_total"), 1u);
}

TEST(Replication, LostDeltaRepairedByRetransmission) {
  ReplWorld w(12);
  w.replicator->start();
  w.net.run();

  // Drop the only delta; with no later traffic the repair must come from
  // the replicator's own retry schedule, not from a gap report.
  int deltas_seen = 0;
  w.net.set_tap([&deltas_seen](const net::Packet& p) {
    if (p.envelope.label == wire::Label::ReplDelta && ++deltas_seen == 1)
      return net::TapVerdict::drop;
    return net::TapVerdict::deliver;
  });
  DeterministicRng keys(6);
  ASSERT_TRUE(
      w.leader.register_member("alice", crypto::LongTermKey::random(keys))
          .ok());
  w.sync();
  EXPECT_EQ(w.standby->applied_seq(), 0u);
  EXPECT_EQ(w.replicator->lag(), 1u);

  for (int t = 0; t < 4 && w.replicator->lag() > 0; ++t) {
    w.replicator->tick();
    w.net.run();
  }
  EXPECT_EQ(w.replicator->lag(), 0u);
  EXPECT_EQ(w.standby->snapshot(), w.leader.snapshot());
}

TEST(Replication, DuplicateDeltasSuppressed) {
  ReplWorld w(13);
  w.replicator->start();
  w.net.run();

  std::optional<wire::Envelope> captured;
  w.net.set_tap([&captured](const net::Packet& p) {
    if (p.envelope.label == wire::Label::ReplDelta && !captured)
      captured = p.envelope;
    return net::TapVerdict::deliver;
  });
  DeterministicRng keys(7);
  ASSERT_TRUE(
      w.leader.register_member("alice", crypto::LongTermKey::random(keys))
          .ok());
  w.sync();
  ASSERT_TRUE(captured.has_value());
  const auto state_before = w.standby->snapshot();

  w.net.inject("L2", *captured);  // byte-identical replay
  w.net.run();
  EXPECT_GE(w.standby->stats().duplicates, 1u);
  EXPECT_EQ(w.standby->snapshot(), state_before) << "replay changed state";
  EXPECT_EQ(w.metrics.counter("ha", "L2", "repl_duplicates_total"), 1u);
}

TEST(Replication, ForgedStreamRejectedWithoutEffect) {
  ReplWorld w(14);
  w.replicator->start();
  w.net.run();
  const auto state_before = w.standby->snapshot();

  // An attacker without the replication key cannot feed the standby.
  DeterministicRng attacker(666);
  wire::ReplDeltaPayload forged;
  forged.seq = 1;
  forged.credentials.set.push_back(
      {"mallory", {crypto::LongTermKey::random(attacker), "snapshot"}});
  auto wrong_key = crypto::SessionKey::random(attacker);
  w.net.inject("L2", wire::make_sealed(crypto::default_aead(),
                                       wrong_key.view(), attacker,
                                       wire::Label::ReplDelta, "L", "L2",
                                       wire::encode(forged)));
  w.net.run();
  EXPECT_EQ(w.standby->snapshot(), state_before);
  EXPECT_GE(w.standby->stats().rejects, 1u);
}

TEST(Replication, PeriodicSnapshotCompaction) {
  ReplWorld w(15);
  w.replicator->start();
  w.net.run();
  const std::uint64_t baselines_before =
      w.metrics.counter("ha", "L2", "repl_snapshots_total");

  DeterministicRng keys(8);
  constexpr auto kInterval = LeaderReplicator::kSnapshotInterval;
  for (std::uint64_t i = 0; i < 2 * kInterval + 1; ++i) {
    ASSERT_TRUE(w.leader
                    .register_member("m" + std::to_string(i),
                                     crypto::LongTermKey::random(keys))
                    .ok());
    w.sync();
  }
  // One delta per tick, so 2 * interval + 1 deltas -> at least 2 fresh
  // baselines beyond the opener.
  EXPECT_GE(w.metrics.counter("ha", "L2", "repl_snapshots_total"),
            baselines_before + 2);
  EXPECT_EQ(w.standby->snapshot(), w.leader.snapshot());
}

// ---------------------------------------------------------------------------
// Promotion, fencing, deposition.

TEST(Failover, PromotionFencesEpochAndInstallsCredentials) {
  ReplWorld w(20);
  obs::EventStore ledger;
  obs::ScopedEventSink ledger_sink(ledger);
  testing_support::FlightDumpDir dumps;
  obs::FlightRecorder recorder("L", dumps.path());
  ASSERT_TRUE(recorder.attach());
  w.replicator->start();
  w.net.run();

  DeterministicRng keys(9);
  auto pa = crypto::LongTermKey::random(keys);
  ASSERT_TRUE(w.leader.register_member("alice", pa).ok());
  w.leader.rekey();  // epoch 1
  w.sync();
  ASSERT_EQ(w.standby->epoch(), 1u);

  FailoverConfig fc;
  fc.suspect_after = 3;
  fc.epoch_fence = 1024;
  fc.promoted = LeaderConfig{"L2", RekeyPolicy::strict()};
  FailoverController controller(*w.standby, fc);

  // Silence from the active: the controller must fire exactly once.
  std::unique_ptr<Leader> promoted;
  bool hook_fired = false;
  controller.on_promote = [&hook_fired](Leader&) { hook_fired = true; };
  for (int t = 0; t < 6; ++t) {
    if (auto l = controller.tick()) promoted = std::move(l);
  }
  ASSERT_TRUE(promoted);
  EXPECT_TRUE(hook_fired);
  EXPECT_TRUE(controller.fired());
  EXPECT_TRUE(w.standby->promoted());
  EXPECT_EQ(w.standby->fenced_epoch(), 1u + 1024u);
  EXPECT_EQ(promoted->epoch(), 1u + 1024u) << "epoch floor installed";
  EXPECT_EQ(w.metrics.counter("ha", "L2", "promotions_total"), 1u);

  // The replicated credential works at the promoted leader: the survivor
  // re-authenticates with the same Pa and gets a fenced-fresh group key.
  promoted->set_send(w.sender());
  w.net.attach("L2", [&](const wire::Envelope& e) {
    if (e.label == wire::Label::ReplDelta ||
        e.label == wire::Label::ReplSnapshot ||
        e.label == wire::Label::ReplHeartbeat)
      w.standby->handle(e);
    else
      promoted->handle(e);
  });
  Member alice("alice", "L2", pa, w.rng);
  alice.set_send(w.sender());
  w.net.attach("alice", [&alice](const wire::Envelope& e) { alice.handle(e); });
  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  ASSERT_TRUE(alice.connected());
  EXPECT_GT(alice.epoch(), 1024u) << "group key must be above the fence";
  EXPECT_EQ(alice.epoch_floor(), alice.epoch());

  // The old incarnation resurfaces and replicates: the standby answers with
  // the fence and the replicator declares itself deposed.
  std::uint64_t deposed_epoch = 0;
  w.replicator->on_deposed = [&deposed_epoch](std::uint64_t e) {
    deposed_epoch = e;
  };
  w.leader.rekey();
  w.sync();  // ships the rekey's delta to L2
  EXPECT_TRUE(w.replicator->deposed());
  EXPECT_EQ(deposed_epoch, 1u + 1024u);
  EXPECT_EQ(w.metrics.counter("ha", "L", "deposed_total"), 1u);

  // The deposition is an incident: one flight dump, holding the evidence
  // the deposed incarnation filed against itself.
  recorder.detach();
  const auto blobs = dumps.dumps();
  ASSERT_EQ(blobs.size(), 1u);
  EXPECT_EQ(blobs[0].header.reason, "deposed_by_fence");
  EXPECT_TRUE(testing_support::has_ledger_line(blobs[0], "fenced_repl", "L",
                                               "L"));

  // Deposed means silent: no further replication traffic.
  const std::uint64_t sent_before = w.net.packets_sent();
  w.leader.rekey();
  for (int t = 0; t < 4; ++t) w.replicator->tick();
  w.net.run();
  EXPECT_EQ(w.net.packets_sent(), sent_before);
}

TEST(Failover, ControllerWaitsForBaseline) {
  DeterministicRng rng(21);
  StandbyConfig sc;
  sc.repl_key = crypto::SessionKey::random(rng);
  StandbyLeader standby(sc, rng);

  FailoverConfig fc;
  fc.suspect_after = 2;
  FailoverController controller(standby, fc);
  for (int t = 0; t < 10; ++t)
    EXPECT_EQ(controller.tick(), nullptr)
        << "promoted from nothing at tick " << t;
  EXPECT_FALSE(controller.fired());
}

TEST(Failover, RecoveryTimeHistogramRecordsOnce) {
  ReplWorld w(22);
  w.replicator->start();
  w.net.run();
  FailoverConfig fc;
  fc.suspect_after = 2;
  fc.promoted = LeaderConfig{"L2", RekeyPolicy::strict()};
  FailoverController controller(*w.standby, fc);

  controller.record_recovery(50);  // before promotion: ignored
  std::unique_ptr<Leader> promoted;
  for (int t = 0; t < 4 && !promoted; ++t) promoted = controller.tick();
  ASSERT_TRUE(promoted);
  const Tick at = *controller.promoted_at();
  controller.record_recovery(at + 7);
  controller.record_recovery(at + 9);  // second call: ignored
  auto hist = w.metrics.histogram("ha", "L2", "time_to_recovery_ticks");
  EXPECT_EQ(hist.count, 1u);
  EXPECT_EQ(hist.sum, 7u);
}

TEST(Failover, StandbyPromoteGuards) {
  DeterministicRng rng(23);
  StandbyConfig sc;
  sc.repl_key = crypto::SessionKey::random(rng);
  StandbyLeader standby(sc, rng);
  EXPECT_FALSE(standby.promote(LeaderConfig{}, 1024).ok())
      << "no baseline, nothing to promote";
}

// ---------------------------------------------------------------------------
// Member-side epoch fence.

TEST(MemberSessionRetarget, OnlyWhileNotConnected) {
  DeterministicRng rng(30);
  auto pa = crypto::LongTermKey::random(rng);
  core::MemberSession s("alice", "L", pa, rng);
  ASSERT_TRUE(s.retarget("L2").ok());
  EXPECT_EQ(s.leader_id(), "L2");
  ASSERT_TRUE(s.start_join().ok());
  auto r = s.retarget("L3");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::unexpected);
  EXPECT_EQ(s.leader_id(), "L2");
}

// A member that held a high-epoch group key refuses a lower-epoch key from
// a different (deposed or stale) leader: the split-brain guard, end to end.
TEST(MemberFence, RejectsStaleEpochFromDeposedLeader) {
  DeterministicRng rng(31);
  net::SimNetwork net;
  obs::EventStore ledger;
  obs::ScopedEventSink ledger_sink(ledger);
  testing_support::FlightDumpDir dumps;
  obs::FlightRecorder recorder("alice", dumps.path());
  ASSERT_TRUE(recorder.attach());
  auto pa = crypto::LongTermKey::random(rng);

  Leader high(LeaderConfig{"Lhigh", RekeyPolicy::strict()}, rng);
  Leader low(LeaderConfig{"Llow", RekeyPolicy::strict()}, rng);
  for (Leader* l : {&high, &low}) {
    l->set_send([&net](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    ASSERT_TRUE(l->register_member("alice", pa).ok());
  }
  net.attach("Lhigh", [&high](const wire::Envelope& e) { high.handle(e); });
  net.attach("Llow", [&low](const wire::Envelope& e) { low.handle(e); });
  for (int i = 0; i < 5; ++i) high.rekey();  // Lhigh's epoch races ahead

  Member alice("alice", "Lhigh", pa, rng);
  alice.set_send([&net](const std::string& to, wire::Envelope e) {
    net.send(to, std::move(e));
  });
  alice.set_failover_targets({"Lhigh", "Llow"});
  alice.set_retry_policy(RetryPolicy::bounded(3));
  alice.set_suspect_after(3);
  alice.enable_auto_rejoin(RetryPolicy::every_tick());
  std::vector<std::uint64_t> accepted_epochs;
  alice.set_event_handler([&accepted_epochs](const core::GroupEvent& ev) {
    if (const auto* e = std::get_if<core::EpochChanged>(&ev))
      accepted_epochs.push_back(e->epoch);
  });
  net.attach("alice", [&alice](const wire::Envelope& e) { alice.handle(e); });

  ASSERT_TRUE(alice.join().ok());
  net.run();
  ASSERT_TRUE(alice.connected());
  const std::uint64_t high_epoch = alice.epoch();
  ASSERT_GE(high_epoch, 6u);
  EXPECT_EQ(alice.epoch_floor(), high_epoch);

  // Lhigh dies; suspicion fires; the failover cycle retargets alice at
  // Llow, whose key is epochs behind — the fence must refuse it.
  net.detach("Lhigh");
  for (int t = 0; t < 12 && alice.epochs_fenced() == 0; ++t) {
    alice.tick();
    net.run();
  }
  EXPECT_GE(alice.epochs_fenced(), 1u);
  EXPECT_EQ(alice.epoch_floor(), high_epoch) << "fence must not regress";
  EXPECT_FALSE(alice.has_group_key()) << "stale key must not be installed";
  for (std::size_t i = 1; i < accepted_epochs.size(); ++i)
    EXPECT_LT(accepted_epochs[i - 1], accepted_epochs[i])
        << "an accepted epoch regressed: split brain";
  for (std::uint64_t e : accepted_epochs) EXPECT_GE(high_epoch, e);

  // The fenced key is an incident: one flight dump, holding the evidence
  // that accuses the stale leader.
  recorder.detach();
  const auto blobs = dumps.dumps();
  ASSERT_EQ(blobs.size(), 1u);
  EXPECT_EQ(blobs[0].header.reason, "epoch_fenced");
  EXPECT_TRUE(testing_support::has_ledger_line(blobs[0], "epoch_fenced",
                                               "alice", "Llow"));
}

}  // namespace
}  // namespace enclaves::ha
