// Partition-tolerant operation and reconciliation-on-heal (PROTOCOL.md §12):
// a suspected/expelled member keeps its group state, queues sends into the
// signed OpLog, and on heal replays it through the RECONCILE_OFFER /
// RECONCILE_VERDICT / OP_REPLAY exchange — admitted cleanly (fast rejoin, no
// rekey storm), quarantined when stale, or flagged as intrusion when forged.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/leader.h"
#include "core/member.h"
#include "core/oplog.h"
#include "net/fault.h"
#include "net/sim_network.h"
#include "net/trace_chart.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/record.h"
#include "obs/span.h"
#include "tests/flight_dumps.h"
#include "util/rng.h"
#include "wire/reconcile.h"
#include "wire/seal.h"

namespace enclaves::core {
namespace {

Bytes bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

// Leader + members over SimNetwork with a manual-partition fault tap and
// all three observability sinks installed, so every test can assert on
// metrics, traces, spans, and the security ledger.
struct PartitionWorld {
  explicit PartitionWorld(std::uint64_t seed, std::uint64_t parole_epochs = 4)
      : rng(seed),
        injector({}, seed ^ 0xFA017),
        leader(make_config(parole_epochs), rng),
        metrics_sink(metrics),
        event_sink(trace) {
    net.set_tap(injector.tap());
    leader.set_send([this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    net.attach("L", [this](const wire::Envelope& e) { leader.handle(e); });
  }

  static LeaderConfig make_config(std::uint64_t parole_epochs) {
    LeaderConfig c{"L", RekeyPolicy::strict()};
    c.parole_epochs = parole_epochs;
    c.auto_expel_attempts = 3;  // silent members fall off (onto parole)
    return c;
  }

  // Protocol-plane ledger view: the clockless crypto plane files its own
  // tag-mismatch evidence under group "crypto".
  std::vector<obs::SecurityEvidence> core_evidence() const {
    std::vector<obs::SecurityEvidence> out;
    for (const auto& e : ledger.entries())
      if (e.group != "crypto") out.push_back(e);
    return out;
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

  // Joins `m` and drains the network.
  void join(Member& m) {
    ASSERT_TRUE(m.join().ok());
    net.run();
    ASSERT_TRUE(m.connected());
  }

  // Drives member+leader ticks with full delivery until `done` or budget.
  template <typename Pred>
  void settle(Pred done, int budget = 40) {
    for (int i = 0; i < budget && !done(); ++i) {
      for (auto& [id, m] : members) m->tick();
      leader.tick();
      net.run();
    }
  }

  net::SimNetwork net;
  DeterministicRng rng;
  net::FaultInjector injector;
  Leader leader;
  obs::MetricsRegistry metrics;
  obs::EventStore trace;            // the one event store; `ledger` names
  obs::EventStore& ledger = trace;  // it where the ledger view is read
  obs::ScopedMetricsSink metrics_sink;
  obs::ScopedEventSink event_sink;
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

// --- Satellite regression: the expel path no longer unconditionally drops
// group state. A liveness ("stalled") expulsion with reconciliation enabled
// keeps Kg/epoch/view and enters disconnected mode; a for-cause expulsion
// still drops everything.
TEST(Reconcile, StallExpulsionKeepsGroupStateWhenEnabled) {
  PartitionWorld w(11);
  auto& alice = w.add("alice");
  alice.enable_reconciliation(RetryPolicy::bounded(8));
  w.join(alice);
  const auto epoch_before = alice.epoch();
  ASSERT_TRUE(alice.has_group_key());

  ASSERT_TRUE(w.leader.expel("alice", "stalled").ok());
  w.net.run();

  EXPECT_TRUE(alice.disconnected());
  EXPECT_TRUE(alice.has_group_key()) << "group state must survive the expel";
  EXPECT_EQ(alice.epoch(), epoch_before);
  EXPECT_EQ(alice.view(), std::vector<std::string>{"alice"});
  EXPECT_TRUE(w.leader.on_parole("alice"));
}

TEST(Reconcile, ForCauseExpulsionStillDropsGroupState) {
  PartitionWorld w(12);
  auto& alice = w.add("alice");
  alice.enable_reconciliation(RetryPolicy::bounded(8));
  w.join(alice);

  ASSERT_TRUE(w.leader.expel("alice", "policy violation").ok());
  w.net.run();

  EXPECT_FALSE(alice.disconnected());
  EXPECT_FALSE(alice.has_group_key()) << "for-cause expel is punitive";
  EXPECT_FALSE(w.leader.on_parole("alice"));
}

TEST(Reconcile, DisconnectedModeWithoutOptInIsUnchanged) {
  // Without enable_reconciliation the historical behaviour holds: the
  // stalled expel drops state and send_data refuses.
  PartitionWorld w(13);
  auto& alice = w.add("alice");
  w.join(alice);
  ASSERT_TRUE(w.leader.expel("alice", "stalled").ok());
  w.net.run();
  EXPECT_FALSE(alice.disconnected());
  EXPECT_FALSE(alice.has_group_key());
  EXPECT_FALSE(alice.send_data(bytes("x")).ok());
}

// --- The tentpole happy path: partition -> suspicion -> queue -> expel ->
// heal -> offer -> admit -> replay -> fast rejoin. The witness member must
// see every queued op exactly once, and the heal must not rekey beyond the
// expulsion's own on-leave rekey.
TEST(Reconcile, PartitionHealReplaysOpsWithoutRekeyStorm) {
  PartitionWorld w(21);
  auto& alice = w.add("alice");
  auto& bob = w.add("bob");
  alice.set_suspect_after(3);
  alice.enable_reconciliation(RetryPolicy::every_tick());
  std::vector<std::string> bob_saw;
  bob.set_event_handler([&](const GroupEvent& e) {
    if (const auto* d = std::get_if<DataReceived>(&e))
      bob_saw.push_back(std::string(d->payload.begin(), d->payload.end()));
  });
  w.join(alice);
  w.join(bob);

  // Partition alice away; her suspicion timer marks the disconnect.
  w.injector.partition({"alice"});
  w.settle([&] { return alice.disconnected(); }, 10);
  ASSERT_TRUE(alice.disconnected());
  EXPECT_TRUE(alice.has_group_key()) << "state retained through partition";

  // Offline sends queue into the op-log instead of failing.
  ASSERT_TRUE(alice.send_data(bytes("offline-1")).ok());
  ASSERT_TRUE(alice.send_data(bytes("offline-2")).ok());
  EXPECT_EQ(alice.oplog_depth(), 2u);

  // The leader eventually expels the silent member — onto the parole list.
  w.leader.probe_liveness();
  w.net.run();
  w.settle([&] { return !w.leader.is_member("alice"); }, 10);
  ASSERT_FALSE(w.leader.is_member("alice"));
  ASSERT_TRUE(w.leader.on_parole("alice"));
  const std::uint64_t epoch_at_expel = w.leader.epoch();

  // Heal: the queued ops replay, the chain verifies, alice fast-rejoins.
  w.injector.heal();
  w.settle([&] { return alice.connected() && !alice.disconnected(); }, 30);
  ASSERT_TRUE(alice.connected());
  EXPECT_EQ(alice.epoch(), w.leader.epoch());
  EXPECT_EQ(alice.oplog_depth(), 0u);
  EXPECT_FALSE(w.leader.on_parole("alice")) << "parole consumed by rejoin";

  // No rekey storm: the fast rejoin itself must not mint a new epoch.
  EXPECT_EQ(w.leader.epoch(), epoch_at_expel);
  EXPECT_EQ(w.metrics.counter("L", "L", "reconcile_fast_rejoins_total"), 1u);
  EXPECT_EQ(w.metrics.counter("L", "L", "reconcile_admits_total"), 1u);

  // The witness saw both offline ops, in order, exactly once.
  EXPECT_EQ(bob_saw,
            (std::vector<std::string>{"offline-1", "offline-2"}));

  // Live again: the replayed seqs are fenced off, so a fresh publish lands.
  ASSERT_TRUE(alice.send_data(bytes("online-again")).ok());
  w.net.run();
  EXPECT_EQ(bob_saw.back(), "online-again");
  EXPECT_EQ(bob_saw.size(), 3u) << "no duplicate deliveries";

  // The span builder stitches the whole episode into one reconcile span.
  auto spans = obs::SpanTracker::build(w.trace.events());
  const obs::Span* reconcile = nullptr;
  for (const auto& s : spans)
    if (s.kind == obs::SpanKind::reconcile) reconcile = &s;
  ASSERT_NE(reconcile, nullptr);
  EXPECT_TRUE(reconcile->complete);
  EXPECT_EQ(reconcile->agent, "alice");
  EXPECT_EQ(reconcile->detail, "suspected");
  bool saw_offer = false, saw_replay = false, saw_admit = false;
  for (const auto& a : reconcile->annotations) {
    if (a.kind == "reconcile_offer") saw_offer = true;
    if (a.kind == "op_replay") saw_replay = true;
    if (a.kind == "reconcile_verdict" && a.detail == "admit") saw_admit = true;
  }
  EXPECT_TRUE(saw_offer);
  EXPECT_TRUE(saw_replay);
  EXPECT_TRUE(saw_admit);

  // Zero refusals anywhere: a clean heal leaves no security evidence.
  EXPECT_TRUE(w.core_evidence().empty());
}

// --- Regression: when the FINAL op's admit verdict is lost, the leader has
// already completed the replay (parole inactive) while the member is still
// retransmitting that op. The retransmit must hit the re-answer path, not
// the "no active reconciliation" reject — otherwise both sides deadlock.
TEST(Reconcile, LostFinalVerdictIsReanswered) {
  PartitionWorld w(31);
  auto& alice = w.add("alice");
  auto& bob = w.add("bob");
  alice.set_suspect_after(3);
  alice.enable_reconciliation(RetryPolicy::every_tick());
  w.join(alice);
  w.join(bob);

  w.injector.partition({"alice"});
  w.settle([&] { return alice.disconnected(); }, 10);
  ASSERT_TRUE(alice.disconnected());
  ASSERT_TRUE(alice.send_data(bytes("solo")).ok());
  w.leader.probe_liveness();
  w.net.run();
  w.settle([&] { return !w.leader.is_member("alice"); }, 10);
  ASSERT_TRUE(w.leader.on_parole("alice"));

  // Heal, but swallow exactly one verdict: the first one sent AFTER the
  // leader verified the lone op — i.e. the final ack the member needs to
  // finish its reconciliation.
  w.injector.heal();
  bool dropped = false;
  w.net.set_tap([&](const net::Packet& p) -> net::TapDecision {
    if (!dropped && p.envelope.label == wire::Label::ReconcileVerdict &&
        w.metrics.counter("L", "L", "reconcile_ops_replayed_total") == 1) {
      dropped = true;
      return net::TapVerdict::drop;
    }
    return net::TapVerdict::deliver;
  });
  w.settle([&] { return alice.connected() && !alice.disconnected(); }, 30);

  ASSERT_TRUE(dropped) << "test premise: the final verdict was cut";
  ASSERT_TRUE(alice.connected()) << "member must recover via re-answer";
  EXPECT_EQ(alice.oplog_depth(), 0u);
  EXPECT_GE(w.metrics.counter("L", "L", "reanswers_total"), 1u);
  // The op was verified and relayed once; the retransmit was answered from
  // the verdict cache, not re-verified.
  EXPECT_EQ(w.metrics.counter("L", "L", "reconcile_ops_replayed_total"), 1u);
  EXPECT_EQ(w.metrics.counter("L", "L", "reconcile_fast_rejoins_total"), 1u);
}

// --- Golden chart: the observable event sequence of the heal itself
// (suspicion through fast rejoin), committed as text. Single member so the
// chart stays readable; trace cleared at the heal boundary.
TEST(Reconcile, GoldenHealChart) {
  PartitionWorld w(31);
  auto& alice = w.add("alice");
  alice.set_suspect_after(2);
  alice.enable_reconciliation(RetryPolicy::every_tick());
  w.join(alice);

  w.injector.partition({"alice"});
  w.settle([&] { return alice.disconnected(); }, 8);
  ASSERT_TRUE(alice.disconnected());
  ASSERT_TRUE(alice.send_data(bytes("queued")).ok());

  w.leader.probe_liveness();
  w.net.run();
  w.settle([&] { return !w.leader.is_member("alice"); }, 8);
  ASSERT_TRUE(w.leader.on_parole("alice"));

  w.trace.clear();
  w.injector.heal();
  w.settle([&] { return alice.connected() && !alice.disconnected(); }, 20);
  ASSERT_TRUE(alice.connected());

  // The committed heal story: the injector heals, the cached offer goes
  // through, the leader admits (minting one epoch first — the relay
  // seq-collision guard, since the epoch never moved while alice was dark),
  // the single queued op replays and is acked, the member closes its span
  // with the admitted verdict, and the fast-rejoin handshake re-attaches
  // alice at the current epoch with no further rekey.
  const std::string golden =
      "@15   fault      fault_partition [heal] =1\n"
      "@6    alice      retransmit      -> L          [ReconcileOffer]\n"
      "@6    L          reconcile_offer -> alice      [admit] =1\n"
      "@6    L          rekey           =2\n"
      "@6    L          reconcile_verdict -> alice      [admit]\n"
      "@6    alice      op_replay       -> L          =1\n"
      "@6    L          op_replay       -> alice      =1\n"
      "@6    L          reconcile_verdict -> alice      [admit] =1\n"
      "@6    alice      reconcile_verdict -> L          [admitted] =2\n"
      "@6    alice      member_phase    -> L          [NotConnected->WaitingForKey]\n"
      "@6    L          leader_phase    -> alice      [NotConnected->WaitingForKeyAck]\n"
      "@6    alice      member_phase    -> L          [WaitingForKey->Connected]\n"
      "@6    L          leader_phase    -> alice      [WaitingForKeyAck->Connected]\n"
      "@6    L          join            -> alice\n"
      "@6    L          rejoin          -> alice      [reconciled]\n"
      "@6    L          admin_send      -> alice      [new_group_key]\n"
      "@6    alice      rekey           -> L          =2\n"
      "@6    L          admin_ack       -> alice\n"
      "@6    L          admin_send      -> alice      [member_list]\n"
      "@6    L          admin_ack       -> alice\n";
  EXPECT_EQ(strip_trailing_blanks(net::format_event_chart(w.trace.events())),
            golden);
}

// --- Golden span tree: the same lifecycle uncleared, so the disconnect
// anchor survives and the whole episode stitches into one reconcile span
// with the offer / replay / verdict milestones as annotations.
TEST(Reconcile, GoldenHealSpanTree) {
  PartitionWorld w(31);
  auto& alice = w.add("alice");
  alice.set_suspect_after(2);
  alice.enable_reconciliation(RetryPolicy::every_tick());
  w.join(alice);

  w.injector.partition({"alice"});
  w.settle([&] { return alice.disconnected(); }, 8);
  ASSERT_TRUE(alice.disconnected());
  ASSERT_TRUE(alice.send_data(bytes("queued")).ok());
  w.leader.probe_liveness();
  w.net.run();
  w.settle([&] { return !w.leader.is_member("alice"); }, 8);
  ASSERT_TRUE(w.leader.on_parole("alice"));
  w.injector.heal();
  w.settle([&] { return alice.connected() && !alice.disconnected(); }, 20);
  ASSERT_TRUE(alice.connected());

  // One reconcile span (#6) carries the whole episode — queue, offers,
  // replay, verdicts — and the fast rejoin (#9) hangs off the same trace
  // with the single no-storm rekey (#8, the relay seq-collision guard).
  // #7 is the leader's heartbeat exchange the partition ate (hence open,
  // with its fault_drop verdicts attached).
  const std::string golden =
      "#1 join                  alice      -> L          @0..0 ok\n"
      "#2 rekey                 L                        @0..0 ok =1\n"
      "  #4 rekey_delivery      alice      -> L          @0..0 ok =1\n"
      "#3 admin_exchange        L          -> alice      @0..0 ok [new_group_key]\n"
      "#5 admin_exchange        L          -> alice      @0..0 ok [member_list]\n"
      "#6 reconcile             alice      -> L          @2..6 ok [suspected]\n"
      "  ! @2 reconcile_offer\n"
      "  ! @2 oplog_append =1\n"
      "  ! @3 reconcile_offer =1\n"
      "  ! @6 reconcile_offer [admit] =1\n"
      "  ! @6 reconcile_verdict [admit]\n"
      "  ! @6 op_replay =1\n"
      "  ! @6 op_replay =1\n"
      "  ! @6 reconcile_verdict [admit] =1\n"
      "  ! @6 reconcile_verdict [admitted] =2\n"
      "#7 admin_exchange        L          -> alice      @2..2 open retries=3 [notice]\n"
      "  ! @8 fault_drop [AdminMsg]\n"
      "  ! @10 fault_drop [AdminMsg]\n"
      "  ! @12 fault_drop [AdminMsg]\n"
      "  ! @14 fault_drop [AdminMsg]\n"
      "#8 rekey                 L                        @6..6 ok =2\n"
      "  #11 rekey_delivery     alice      -> L          @6..6 ok =2\n"
      "#9 join                  alice      -> L          @6..6 ok\n"
      "#10 admin_exchange       L          -> alice      @6..6 ok [new_group_key]\n"
      "#12 admin_exchange       L          -> alice      @6..6 ok [member_list]\n";
  EXPECT_EQ(obs::format_span_tree(obs::SpanTracker::build(w.trace.events())),
            golden);
}

// --- Negative golden: the quarantine heal. The offer's fence fell outside
// the parole window; the verdict sends alice down the standard rejoin path
// (with its on-join rekey) and the span closes quarantined.
TEST(Reconcile, GoldenQuarantineChart) {
  PartitionWorld w(31, /*parole_epochs=*/1);
  auto& alice = w.add("alice");
  alice.set_suspect_after(2);
  alice.enable_reconciliation(RetryPolicy::every_tick());
  alice.enable_auto_rejoin(RetryPolicy::every_tick());
  w.join(alice);

  w.injector.partition({"alice"});
  w.settle([&] { return alice.disconnected(); }, 8);
  ASSERT_TRUE(alice.disconnected());
  w.leader.probe_liveness();
  w.net.run();
  w.settle([&] { return !w.leader.is_member("alice"); }, 8);
  ASSERT_TRUE(w.leader.on_parole("alice"));
  w.leader.rekey();
  w.leader.rekey();

  w.trace.clear();
  w.injector.heal();
  w.settle([&] { return alice.connected() && !alice.disconnected(); }, 20);
  ASSERT_TRUE(alice.connected());

  // The quarantine story: the stale offer is answered (not ignored), the
  // member closes its span quarantined at the leader's epoch, drops state,
  // and the very next tick re-enters through the standard rejoin — with the
  // on-join rekey the fast path would have skipped.
  const std::string golden =
      "@15   fault      fault_partition [heal] =1\n"
      "@6    alice      retransmit      -> L          [ReconcileOffer]\n"
      "@6    L          reconcile_offer -> alice      [quarantine]\n"
      "@6    L          reconcile_verdict -> alice      [quarantine]\n"
      "@6    alice      reconcile_verdict -> L          [quarantined] =3\n"
      "@7    alice      rejoin          -> L\n"
      "@7    alice      member_phase    -> L          [NotConnected->WaitingForKey]\n"
      "@7    L          leader_phase    -> alice      [NotConnected->WaitingForKeyAck]\n"
      "@7    alice      member_phase    -> L          [WaitingForKey->Connected]\n"
      "@7    L          leader_phase    -> alice      [WaitingForKeyAck->Connected]\n"
      "@7    L          join            -> alice\n"
      "@7    L          rekey           =4\n"
      "@7    L          admin_send      -> alice      [new_group_key]\n"
      "@7    alice      rekey           -> L          =4\n"
      "@7    L          admin_ack       -> alice\n"
      "@7    L          admin_send      -> alice      [member_list]\n"
      "@7    L          admin_ack       -> alice\n";
  EXPECT_EQ(strip_trailing_blanks(net::format_event_chart(w.trace.events())),
            golden);
}

// --- Negative: an offer whose epoch fence fell outside the parole window is
// quarantined — ledger evidence, no replay, member falls back to the
// standard rejoin path (with its rekey).
TEST(Reconcile, StaleEpochOfferIsQuarantined) {
  PartitionWorld w(41, /*parole_epochs=*/2);
  auto& alice = w.add("alice");
  auto& bob = w.add("bob");
  alice.set_suspect_after(3);
  alice.enable_reconciliation(RetryPolicy::every_tick());
  alice.enable_auto_rejoin(RetryPolicy::every_tick());
  w.join(alice);
  w.join(bob);

  w.injector.partition({"alice"});
  w.settle([&] { return alice.disconnected(); }, 10);
  ASSERT_TRUE(alice.send_data(bytes("too-late")).ok());
  w.leader.probe_liveness();
  w.net.run();
  w.settle([&] { return !w.leader.is_member("alice"); }, 10);
  ASSERT_TRUE(w.leader.on_parole("alice"));

  // The group moves on: enough rekeys that alice's fence leaves the window.
  w.leader.rekey();
  w.leader.rekey();
  w.net.run();

  std::vector<std::string> bob_saw;
  bob.set_event_handler([&](const GroupEvent& e) {
    if (const auto* d = std::get_if<DataReceived>(&e))
      bob_saw.push_back(std::string(d->payload.begin(), d->payload.end()));
  });

  w.injector.heal();
  w.settle([&] { return alice.connected() && !alice.disconnected(); }, 30);
  ASSERT_TRUE(alice.connected()) << "standard rejoin after quarantine";

  EXPECT_EQ(w.metrics.counter("L", "L", "reconcile_quarantines_total"), 1u);
  EXPECT_EQ(w.metrics.counter("L", "alice", "reconcile_admits_total"), 0u);
  EXPECT_EQ(w.metrics.counter("L", "L", "reconcile_fast_rejoins_total"), 0u);
  EXPECT_TRUE(bob_saw.empty()) << "quarantined ops must not be delivered";

  bool ledgered = false;
  for (const auto& e : w.ledger.entries()) {
    if (e.kind == obs::EvidenceKind::stale_epoch && e.peer == "alice" &&
        e.agent == "L")
      ledgered = true;
  }
  EXPECT_TRUE(ledgered) << "quarantine leaves stale_epoch evidence";

  // The member-side span closed with the quarantine verdict.
  auto spans = obs::SpanTracker::build(w.trace.events());
  bool quarantined_span = false;
  for (const auto& s : spans) {
    if (s.kind == obs::SpanKind::reconcile && s.complete) {
      for (const auto& a : s.annotations)
        if (a.kind == "reconcile_verdict" && a.detail == "quarantine")
          quarantined_span = true;
    }
  }
  EXPECT_TRUE(quarantined_span);
}

// --- Negative: a replayed op that breaks the HMAC chain is intrusion, not
// staleness — forged_oplog evidence naming the accused, parole revoked from
// further replay.
TEST(Reconcile, ForgedOpReplayFlagsIntrusion) {
  PartitionWorld w(51);
  testing_support::FlightDumpDir dumps;
  obs::FlightRecorder recorder("L", dumps.path());
  ASSERT_TRUE(recorder.attach());
  auto& mallory = w.add("mallory");
  w.join(mallory);
  // Steal the session key while connected (the paper's Oops(Ka) threat).
  const auto kr = mallory.session().session_key();
  const auto fence = w.leader.epoch();

  ASSERT_TRUE(w.leader.expel("mallory", "stalled").ok());
  w.net.detach("mallory");  // the real member is out of the picture
  w.net.run();
  ASSERT_TRUE(w.leader.on_parole("mallory"));

  const auto& aead = crypto::default_aead();

  // A well-formed offer under the stolen Kr: one op, honest-looking head.
  OpLog log(kr);
  ASSERT_TRUE(log.append(fence, bytes("poison")).ok());
  auto nonce = crypto::ProtocolNonce::random(w.rng);
  wire::ReconcileOfferPayload offer{"mallory", "L",       nonce,
                                    fence,     log.size(), log.head()};
  w.net.inject("L", wire::make_sealed(aead, kr.view(), w.rng,
                                      wire::Label::ReconcileOffer, "mallory",
                                      "L", wire::encode(offer)));
  w.net.run();
  EXPECT_EQ(w.metrics.counter("L", "L", "reconcile_admits_total"), 1u);

  // The replayed op carries a forged MAC: the chain breaks at the leader.
  wire::OpReplayPayload op{"mallory", 1, fence, {}, bytes("poison")};
  op.mac.fill(0xFF);
  w.net.inject("L", wire::make_sealed(aead, kr.view(), w.rng,
                                      wire::Label::OpReplay, "mallory", "L",
                                      wire::encode(op)));
  w.net.run();

  EXPECT_EQ(w.metrics.counter("L", "L", "reconcile_intrusions_total"), 1u);
  bool ledgered = false;
  for (const auto& e : w.ledger.entries()) {
    if (e.kind == obs::EvidenceKind::forged_oplog && e.peer == "mallory" &&
        e.agent == "L")
      ledgered = true;
  }
  EXPECT_TRUE(ledgered) << "forged replay must be ledgered as intrusion";

  // The broken chain is an incident: one flight dump, holding the evidence.
  recorder.detach();
  const auto blobs = dumps.dumps();
  ASSERT_EQ(blobs.size(), 1u);
  EXPECT_EQ(blobs[0].header.reason, "forged_oplog");
  EXPECT_TRUE(testing_support::has_ledger_line(blobs[0], "forged_oplog", "L",
                                               "mallory"));

  // The parole is no longer replayable: a (now honest) retry is refused.
  wire::OpReplayPayload honest{"mallory", 1, fence,
                               log.entries()[0].mac, bytes("poison")};
  const auto rejects = w.metrics.counter("L", "L", "auth_rejects_total");
  w.net.inject("L", wire::make_sealed(aead, kr.view(), w.rng,
                                      wire::Label::OpReplay, "mallory", "L",
                                      wire::encode(honest)));
  w.net.run();
  EXPECT_GT(w.metrics.counter("L", "L", "auth_rejects_total"), rejects);
  EXPECT_EQ(w.metrics.counter("L", "L", "reconcile_ops_replayed_total"), 0u);
}

// --- Negative golden: the forged-op intrusion, as the leader's trace tells
// it — a clean admit followed by a replay whose chain MAC breaks, answered
// with the intrusion verdict.
TEST(Reconcile, GoldenIntrusionChart) {
  PartitionWorld w(51);
  auto& mallory = w.add("mallory");
  w.join(mallory);
  const auto kr = mallory.session().session_key();
  const auto fence = w.leader.epoch();
  ASSERT_TRUE(w.leader.expel("mallory", "stalled").ok());
  w.net.detach("mallory");
  w.net.run();
  ASSERT_TRUE(w.leader.on_parole("mallory"));

  const auto& aead = crypto::default_aead();
  OpLog log(kr);
  ASSERT_TRUE(log.append(fence, bytes("poison")).ok());
  auto nonce = crypto::ProtocolNonce::random(w.rng);
  wire::ReconcileOfferPayload offer{"mallory", "L",       nonce,
                                    fence,     log.size(), log.head()};
  wire::OpReplayPayload op{"mallory", 1, fence, {}, bytes("poison")};
  op.mac.fill(0xFF);

  w.trace.clear();
  w.net.inject("L", wire::make_sealed(aead, kr.view(), w.rng,
                                      wire::Label::ReconcileOffer, "mallory",
                                      "L", wire::encode(offer)));
  w.net.inject("L", wire::make_sealed(aead, kr.view(), w.rng,
                                      wire::Label::OpReplay, "mallory", "L",
                                      wire::encode(op)));
  w.net.run();

  // Four lines: a clean admit (with the seq-collision guard rekey), then
  // the forged replay answered with the intrusion verdict. Nothing was
  // relayed and no op_replay acceptance line appears.
  const std::string golden =
      "@0    L          reconcile_offer -> mallory    [admit] =1\n"
      "@0    L          rekey           =2\n"
      "@0    L          reconcile_verdict -> mallory    [admit]\n"
      "@0    L          reconcile_verdict -> mallory    [intrusion]\n";
  EXPECT_EQ(strip_trailing_blanks(net::format_event_chart(w.trace.events())),
            golden);
}

// --- An exhausted reconcile budget abandons the heal and falls back to the
// classic drop-state + auto-rejoin path: liveness never hinges on the heal.
TEST(Reconcile, ExhaustedBudgetFallsBackToRejoin) {
  PartitionWorld w(61);
  auto& alice = w.add("alice");
  alice.set_suspect_after(2);
  alice.enable_reconciliation(RetryPolicy::bounded(3));
  alice.enable_auto_rejoin(RetryPolicy::every_tick());
  w.join(alice);

  w.injector.partition({"alice"});
  w.settle([&] { return alice.disconnected(); }, 8);
  ASSERT_TRUE(alice.disconnected());

  // Stay partitioned past the whole reconcile budget.
  w.settle([&] { return !alice.disconnected(); }, 20);
  EXPECT_FALSE(alice.disconnected()) << "budget spent, heal abandoned";
  EXPECT_FALSE(alice.has_group_key()) << "fallback drops state";
  EXPECT_EQ(w.metrics.counter("L", "alice", "reconcile_abandons_total"), 1u);

  // Once the partition heals, the standard rejoin path recovers the member.
  // The leader still holds alice's stale session (it never probed during
  // the partition), so a heartbeat lets its stall detection clear it before
  // the fresh handshake can be accepted.
  w.injector.heal();
  w.leader.probe_liveness();
  w.settle([&] { return alice.connected(); }, 20);
  EXPECT_TRUE(alice.connected());
  EXPECT_EQ(alice.epoch(), w.leader.epoch());
}

// --- Replay-in-progress discipline: new sends are refused mid-replay (the
// log is already committed to the leader), and queueing past the cap fails.
TEST(Reconcile, OfferInvalidatedWhenLogGrows) {
  PartitionWorld w(71);
  auto& alice = w.add("alice");
  alice.set_suspect_after(2);
  alice.enable_reconciliation(RetryPolicy::every_tick());
  w.join(alice);
  w.injector.partition({"alice"});
  w.settle([&] { return alice.disconnected(); }, 8);

  ASSERT_TRUE(alice.send_data(bytes("a")).ok());
  const auto offers_before =
      w.metrics.counter("L", "alice", "reconcile_offers_total");
  alice.tick();  // re-seals the offer: the cached one covered an empty log
  EXPECT_GT(w.metrics.counter("L", "alice", "reconcile_offers_total"),
            offers_before)
      << "a grown log must invalidate the cached offer";
}

}  // namespace
}  // namespace enclaves::core
