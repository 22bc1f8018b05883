// Chaos suite: the paper's Section 5 properties as executable invariants
// under seeded adversarial network schedules.
//
// Every test drives full group lifecycles (join, app traffic, rekey,
// partition+heal, expulsion, leader crash-restart) through a FaultInjector
// that drops, duplicates, delays/reorders and partitions traffic, all
// reproducible from a single seed. Tracked invariants, per member, across
// the WHOLE run (sessions, expulsions and restarts included):
//
//   in-order / no-duplicate — numbered admin notices arrive in strictly
//     increasing order; delivered data sequences per origin strictly
//     increase (within an epoch);
//   no stale group key — accepted epochs strictly increase, even across a
//     leader restart (epoch floor from the crash snapshot), and data sealed
//     under a pre-restart key is rejected by everyone;
//   view convergence — once the network quiesces, every member's view
//     equals the leader's membership.
//
// A failing seed reproduces deterministically: the fault schedule is a pure
// function of (plan, seed) and all protocol randomness flows from the same
// seeded DeterministicRng.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/leader.h"
#include "core/member.h"
#include "core/registry.h"
#include "net/fault.h"
#include "net/sim_network.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/record.h"
#include "obs/span.h"
#include "util/rng.h"
#include "wire/payloads.h"
#include "wire/seal.h"

namespace enclaves::core {
namespace {

// ---------------------------------------------------------------------------
// FaultInjector unit behaviour (the engine itself, before the chaos runs).

wire::Envelope plain_env(const std::string& from, const std::string& to,
                         const std::string& body) {
  return wire::Envelope{wire::Label::GroupData, from, to, to_bytes(body)};
}

TEST(FaultInjector, ReproducibleFromSeed) {
  SCOPED_TRACE("seed=99");
  net::FaultPlan plan;
  plan.faults = {30, 20, 20, 4};
  auto run_schedule = [&plan] {
    net::FaultInjector inj(plan, 99);
    std::vector<int> verdicts;
    for (int i = 0; i < 200; ++i) {
      auto d = inj.decide(net::Packet{static_cast<std::uint64_t>(i), "b",
                                      plain_env("a", "b", "x")});
      verdicts.push_back(static_cast<int>(d.verdict) * 100 +
                         static_cast<int>(d.delay_steps));
    }
    return verdicts;
  };
  EXPECT_EQ(run_schedule(), run_schedule());
}

TEST(FaultInjector, HonoursPerLinkOverrides) {
  SCOPED_TRACE("seed=1");
  net::FaultPlan plan;
  plan.faults = {0, 0, 0, 4};                  // default: faultless
  plan.per_link[{"a", "b"}] = {100, 0, 0, 4};  // a->b: always dropped
  net::FaultInjector inj(plan, 1);
  net::SimNetwork net;
  int b_got = 0, c_got = 0;
  net.attach("b", [&](const wire::Envelope&) { ++b_got; });
  net.attach("c", [&](const wire::Envelope&) { ++c_got; });
  net.set_tap(inj.tap());
  for (int i = 0; i < 20; ++i) {
    net.send("b", plain_env("a", "b", "x"));
    net.send("c", plain_env("a", "c", "x"));
  }
  net.run();
  EXPECT_EQ(b_got, 0);
  EXPECT_EQ(c_got, 20);
  EXPECT_EQ(inj.stats().dropped, 20u);
}

TEST(FaultInjector, ScheduledPartitionCutsAndHeals) {
  SCOPED_TRACE("seed=7");
  net::FaultPlan plan;
  plan.partitions.push_back({/*from_packet=*/5, /*until_packet=*/10, {"b"}});
  net::FaultInjector inj(plan, 7);
  net::SimNetwork net;
  int delivered = 0;
  net.attach("b", [&](const wire::Envelope&) { ++delivered; });
  net.set_tap(inj.tap());
  for (int i = 0; i < 15; ++i) net.send("b", plain_env("a", "b", "x"));
  net.run();
  EXPECT_EQ(delivered, 10);  // packets 5..9 died in the partition window
  EXPECT_EQ(inj.stats().partition_dropped, 5u);
}

TEST(FaultInjector, ManualPartitionOnlyCutsCrossingTraffic) {
  SCOPED_TRACE("seed=3");
  net::FaultPlan plan;
  net::FaultInjector inj(plan, 3);
  inj.partition({"a", "b"});
  net::SimNetwork net;
  std::map<std::string, int> got;
  for (const char* id : {"a", "b", "c", "d"})
    net.attach(id, [&got, id](const wire::Envelope&) { ++got[id]; });
  net.set_tap(inj.tap());
  net.send("b", plain_env("a", "b", "island-internal"));
  net.send("d", plain_env("c", "d", "mainland-internal"));
  net.send("c", plain_env("a", "c", "crossing"));
  net.run();
  EXPECT_EQ(got["b"], 1);
  EXPECT_EQ(got["d"], 1);
  EXPECT_EQ(got["c"], 0);
  inj.heal();
  net.send("c", plain_env("a", "c", "after heal"));
  net.run();
  EXPECT_EQ(got["c"], 1);
}

// ---------------------------------------------------------------------------
// The chaos world.

struct Tracker {
  std::vector<std::uint64_t> notice_nums;  // numbered notices, arrival order
  std::vector<std::uint64_t> epochs;       // accepted epochs, arrival order
  std::map<std::string, std::vector<std::uint64_t>> data_seqs;  // per origin
  std::uint64_t hb = 0;
};

struct ChaosWorld {
  static constexpr int kMembers = 4;

  ChaosWorld(std::uint64_t seed, net::FaultPlan plan)
      : rng(seed), injector(std::move(plan), seed ^ 0xFA17) {
    net.set_tap(injector.tap());
    make_leader(/*snapshot=*/nullptr);
    for (int i = 0; i < kMembers; ++i) {
      const std::string id = member_id(i);
      auto pa = crypto::LongTermKey::random(rng);
      EXPECT_TRUE(leader->register_member(id, pa).ok());
      auto m = std::make_unique<Member>(id, "L", pa, rng);
      m->set_send([this](const std::string& to, wire::Envelope e) {
        net.send(to, std::move(e));
      });
      m->set_retry_policy(RetryPolicy::exponential(1, 8, /*jitter=*/2));
      m->set_close_retry_policy(RetryPolicy::exponential(1, 4, 1, 5));
      m->enable_auto_rejoin(RetryPolicy::exponential(2, 16, 3));
      m->set_suspect_after(60);
      Tracker* tr = &trackers[id];
      m->set_event_handler([tr](const GroupEvent& ev) {
        if (const auto* a = std::get_if<AdminAccepted>(&ev)) {
          if (const auto* n = std::get_if<wire::Notice>(&a->body)) {
            if (n->text == "hb") {
              ++tr->hb;
            } else if (n->text.size() > 1 && n->text[0] == 'n') {
              tr->notice_nums.push_back(
                  std::stoull(n->text.substr(1)));
            }
          }
        } else if (const auto* e2 = std::get_if<EpochChanged>(&ev)) {
          tr->epochs.push_back(e2->epoch);
        } else if (const auto* d = std::get_if<DataReceived>(&ev)) {
          const std::string s = enclaves::to_string(d->payload);
          auto at = s.find('#');
          if (at != std::string::npos)
            tr->data_seqs[d->origin].push_back(
                std::stoull(s.substr(at + 1)));
        }
      });
      auto* raw = m.get();
      net.attach(id, [raw](const wire::Envelope& e) { raw->handle(e); });
      members[id] = std::move(m);
    }
  }

  static std::string member_id(int i) { return "m" + std::to_string(i); }

  void make_leader(const LeaderSnapshot* snapshot) {
    LeaderConfig config;
    config.id = "L";
    config.rekey = RekeyPolicy::strict();
    config.retry = RetryPolicy::exponential(1, 8, /*jitter=*/2);
    config.auto_expel_attempts = 8;
    leader = std::make_unique<Leader>(config, rng);
    leader->set_send([this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    if (snapshot) snapshot->install(*leader);
    net.attach("L", [this](const wire::Envelope& e) { leader->handle(e); });
  }

  // One time step: heartbeat every 8 steps, drain, fire all timers, drain.
  void step() {
    if (leader && step_count % 8 == 0) leader->probe_liveness();
    net.run(1u << 16);
    if (leader) leader->tick();
    for (auto& [id, m] : members) m->tick();
    net.run(1u << 16);
    ++step_count;
  }

  bool converged() const {
    if (!leader) return false;
    if (leader->member_count() != static_cast<std::size_t>(kMembers))
      return false;
    const auto expect = leader->members();
    for (const auto& [id, m] : members) {
      const LeaderSession* s = leader->session(id);
      if (!s || s->state() != LeaderSession::State::connected ||
          s->queue_depth() != 0)
        return false;
      if (!m->connected() || m->epoch() != leader->epoch()) return false;
      if (m->view() != expect) return false;
    }
    return true;
  }

  // Drives steps until converged (faults stay on the whole time). Returns
  // false if the bound was hit.
  bool settle(int max_steps = 3000) {
    for (int t = 0; t < max_steps; ++t) {
      if (converged() && net.queue_size() == 0 && net.held_size() == 0)
        return true;
      step();
    }
    return converged();
  }

  void broadcast_numbered(int count) {
    for (int i = 0; i < count; ++i) {
      leader->broadcast_notice("n" + std::to_string(notice_counter++));
      step();
    }
  }

  // Observability sinks live for the whole world: every chaos run records
  // the full metrics + trace history, and the invariant tests below
  // cross-check them against the injector's fault schedule. Declared first
  // so the RAII sinks attach before any traffic and detach last.
  obs::MetricsRegistry metrics;
  obs::EventStore store;
  obs::ScopedMetricsSink metrics_sink{metrics};
  obs::ScopedEventSink event_sink{store};

  net::SimNetwork net;
  DeterministicRng rng;
  net::FaultInjector injector;
  std::unique_ptr<Leader> leader;
  std::map<std::string, std::unique_ptr<Member>> members;
  std::map<std::string, Tracker> trackers;
  std::uint64_t step_count = 0;
  std::uint64_t notice_counter = 0;
};

net::FaultPlan plan_for_seed(std::uint64_t seed) {
  net::FaultPlan plan;
  plan.faults.drop_pct = static_cast<std::uint32_t>((seed * 7) % 31);  // <=30%
  plan.faults.duplicate_pct = static_cast<std::uint32_t>((seed * 3) % 16);
  plan.faults.delay_pct = static_cast<std::uint32_t>((seed * 5) % 21);
  plan.faults.max_delay_steps = 1 + static_cast<std::uint32_t>(seed % 6);
  return plan;
}

void assert_strictly_increasing(const std::vector<std::uint64_t>& xs,
                                const std::string& what) {
  for (std::size_t i = 1; i < xs.size(); ++i) {
    ASSERT_LT(xs[i - 1], xs[i])
        << what << " out of order / duplicated at index " << i;
  }
}

// The flagship: 50 seeds, each a full adversarial lifecycle with loss,
// duplication, delay/reorder, one partition+heal, and one leader
// crash-restart, with every Section 5 invariant asserted at the end.
class ChaosLifecycle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosLifecycle, InvariantsHoldUnderSeededFaultSchedule) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  ChaosWorld w(seed, plan_for_seed(seed));

  // Lifecycle runs only assert end-state invariants, never the raw trace,
  // so they double as coverage for the bounded ring-buffer mode: eviction
  // of old events must not disturb any protocol behaviour.
  w.store.set_capacity(4096);

  // Phase 1: everyone joins through the fault storm.
  for (auto& [id, m] : w.members) ASSERT_TRUE(m->join().ok());
  ASSERT_TRUE(w.settle()) << "join phase did not converge, seed=" << seed;

  // Phase 2: numbered admin traffic + app data under continuous faults.
  w.broadcast_numbered(5);
  for (int i = 0; i < 12; ++i) {
    auto& m = *w.members[ChaosWorld::member_id(i % ChaosWorld::kMembers)];
    if (m.connected() && m.has_group_key())
      (void)m.send_data(to_bytes("d" + std::to_string(i) + "#" +
                                 std::to_string(i)));
    w.step();
  }

  // Phase 3: partition one member away, let the leader degrade gracefully
  // (suspect -> backoff -> expel), then heal; auto-rejoin brings it back.
  w.injector.partition({ChaosWorld::member_id(2)});
  for (int t = 0; t < 60; ++t) w.step();
  w.injector.heal();
  ASSERT_TRUE(w.settle()) << "post-heal convergence failed, seed=" << seed;
  w.broadcast_numbered(3);
  ASSERT_TRUE(w.settle()) << "notice fanout failed, seed=" << seed;

  // Phase 4: leader crash-restart from its snapshot. Members suspect the
  // silence and rejoin by themselves; the epoch floor keeps keys fresh.
  const crypto::GroupKey old_kg = w.leader->group_key();
  const std::uint64_t old_epoch = w.leader->epoch();
  const Bytes snapshot_blob =
      wire::mac_encode(w.leader->snapshot(), to_bytes("chaos-storage-key"));
  w.leader.reset();
  w.net.detach("L");
  for (int t = 0; t < 80; ++t) w.step();  // downtime: suspicion kicks in

  auto restored = wire::mac_decode<LeaderSnapshot>(
      snapshot_blob, to_bytes("chaos-storage-key"));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->registry.size(),
            static_cast<std::size_t>(ChaosWorld::kMembers));
  w.make_leader(&*restored);
  ASSERT_TRUE(w.settle(4000)) << "post-restart convergence failed, seed="
                              << seed;
  EXPECT_GT(w.leader->epoch(), old_epoch)
      << "epoch floor must survive the crash";
  w.broadcast_numbered(3);
  ASSERT_TRUE(w.settle()) << "post-restart fanout failed, seed=" << seed;

  // Stale-key probe: data sealed under the pre-crash group key must be
  // rejected by the leader and every member.
  DeterministicRng stale_rng(seed ^ 0x57A1E);
  const std::string origin = ChaosWorld::member_id(0);
  wire::GroupDataPayload stale{origin, old_epoch, 10'000, to_bytes("stale")};
  auto stale_env = wire::make_sealed(crypto::default_aead(), old_kg.view(),
                                     stale_rng, wire::Label::GroupData,
                                     origin, wire::kGroupRecipient,
                                     wire::encode(stale));
  const std::uint64_t leader_rejects_before = w.leader->rejected_inputs();
  std::map<std::string, std::uint64_t> member_rejects_before;
  for (auto& [id, m] : w.members)
    member_rejects_before[id] = m->data_rejects();
  w.net.inject("L", stale_env);
  for (auto& [id, m] : w.members) w.net.inject(id, stale_env);
  w.net.run();
  EXPECT_GT(w.leader->rejected_inputs(), leader_rejects_before)
      << "leader accepted pre-crash-keyed data";
  for (auto& [id, m] : w.members) {
    EXPECT_GT(m->data_rejects(), member_rejects_before[id])
        << id << " accepted pre-crash-keyed data";
  }

  // Section 5 invariants over the whole run.
  const auto final_view = w.leader->members();
  for (auto& [id, m] : w.members) {
    EXPECT_TRUE(m->connected()) << id;
    EXPECT_EQ(m->epoch(), w.leader->epoch()) << id;
    EXPECT_EQ(m->view(), final_view) << id << " view diverged";
    const Tracker& tr = w.trackers[id];
    assert_strictly_increasing(tr.notice_nums, id + " notices");
    assert_strictly_increasing(tr.epochs, id + " epochs");
    for (const auto& [origin2, seqs] : tr.data_seqs)
      assert_strictly_increasing(seqs, id + " data from " + origin2);
    EXPECT_GT(tr.hb, 0u) << id << " never saw a heartbeat";
  }

  // Ring-buffer accounting: the cap held, and every eviction was counted.
  EXPECT_LE(w.store.size(), 4096u);
  if (w.store.dropped_events() > 0) {
    EXPECT_EQ(w.store.size(), 4096u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosLifecycle,
                         ::testing::Range<std::uint64_t>(1, 51));

// ---------------------------------------------------------------------------
// Metrics invariants: the observability layer's counters and traces must
// reconcile with the injected fault schedule, for every seed.
//
// The timer-covered labels are the stop-and-wait exchanges the protocol
// retransmits: AuthInitReq (member join retry), AuthKeyDist (leader handshake
// retry), AdminMsg (leader admin retry). Every injected drop of one of those
// is part of an exchange that either completed (so at least one later send —
// a counted retransmit — got through, or a duplicate was re-answered) or was
// abandoned (counted at expulsion / join exhaustion). Fire-and-forget labels
// (GroupData, Ack, AuthAckKey, ReqClose) are excluded: dropping them is paid
// for by the peer's retransmit of the *other* half of the exchange.
class ChaosMetricsInvariants
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosMetricsInvariants, CountersReconcileWithFaultSchedule) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  ChaosWorld w(seed, plan_for_seed(seed));

  // A crash-free lifecycle: join storm, admin + data traffic, partition and
  // heal. (A leader crash forgets in-flight exchanges without counting an
  // abandonment, so the drop/retransmit ledger below only balances for a
  // crash-free run; ChaosLifecycle covers the crash path.)
  for (auto& [id, m] : w.members) ASSERT_TRUE(m->join().ok());
  ASSERT_TRUE(w.settle()) << "join phase did not converge, seed=" << seed;
  w.broadcast_numbered(4);
  for (int i = 0; i < 8; ++i) {
    auto& m = *w.members[ChaosWorld::member_id(i % ChaosWorld::kMembers)];
    if (m.connected() && m.has_group_key())
      (void)m.send_data(to_bytes("d#" + std::to_string(i)));
    w.step();
  }
  w.injector.partition({ChaosWorld::member_id(1)});
  for (int t = 0; t < 60; ++t) w.step();
  w.injector.heal();
  ASSERT_TRUE(w.settle(4000)) << "post-heal convergence failed, seed="
                              << seed;

  const auto events = w.store.events();

  // 1. The fault-injector's own statistics and its metrics/trace output are
  //    three views of one schedule; they must agree exactly.
  const auto& stats = w.injector.stats();
  EXPECT_EQ(w.metrics.counter("net", "fault", "fault_drops_total"),
            stats.dropped);
  EXPECT_EQ(w.metrics.counter("net", "fault", "fault_partition_drops_total"),
            stats.partition_dropped);
  EXPECT_EQ(w.metrics.counter("net", "fault", "fault_duplicates_total"),
            stats.duplicated);
  EXPECT_EQ(w.metrics.counter("net", "fault", "fault_delays_total"),
            stats.delayed);
  EXPECT_EQ(w.metrics.counter("net", "sim", "packets_dropped_total"),
            stats.dropped + stats.partition_dropped);
  std::uint64_t drop_events = 0;
  for (const auto& e : events)
    if (e.kind == obs::TraceKind::fault_drop) ++drop_events;
  EXPECT_EQ(drop_events, stats.dropped + stats.partition_dropped);

  // 2. Retransmission ledger: every injected drop of a timer-covered label
  //    is answered by a counted retransmit, re-answer, or abandonment.
  const std::set<std::string> covered = {"AuthInitReq", "AuthKeyDist",
                                         "AdminMsg"};
  std::uint64_t covered_drops = 0;
  for (const auto& e : events) {
    if (e.kind == obs::TraceKind::fault_drop && covered.count(e.detail))
      ++covered_drops;
  }
  const std::uint64_t repair = w.metrics.counter_total("retransmits_total") +
                               w.metrics.counter_total("reanswers_total") +
                               w.metrics.counter_total(
                                   "exchanges_abandoned_total");
  EXPECT_LE(covered_drops, repair)
      << "dropped stop-and-wait traffic was never repaired, seed=" << seed;
  if (covered_drops > 0) {
    EXPECT_GT(w.metrics.counter_total("retransmits_total"), 0u)
        << "drops occurred but no timer ever fired, seed=" << seed;
  }

  // 3. No duplicate application delivery: the (member, origin, epoch, seq)
  //    coordinates of every data_deliver event are unique, regardless of
  //    how often the injector duplicated the underlying packets.
  std::set<std::tuple<std::string, std::string, std::string, std::uint64_t>>
      deliveries;
  for (const auto& e : events) {
    if (e.kind != obs::TraceKind::data_deliver) continue;
    auto key = std::tuple(e.agent, e.peer, e.detail, e.value);
    EXPECT_TRUE(deliveries.insert(key).second)
        << e.agent << " delivered twice: origin=" << e.peer << " "
        << e.detail << " seq=" << e.value << ", seed=" << seed;
  }

  // 4. Rekey accounting: the leader's counter, its trace events, and its
  //    epoch (which starts at 0 and advances by one per rekey) all tell the
  //    same story.
  std::uint64_t leader_rekey_events = 0;
  for (const auto& e : events)
    if (e.kind == obs::TraceKind::rekey && e.agent == "L")
      ++leader_rekey_events;
  EXPECT_EQ(w.metrics.counter("L", "L", "rekeys_total"), leader_rekey_events);
  EXPECT_EQ(w.metrics.counter("L", "L", "rekeys_total"), w.leader->epoch());
  EXPECT_GT(leader_rekey_events, 0u);

  // 5. Converged end state is reflected in the gauges.
  EXPECT_EQ(w.metrics.gauge("L", "L", "members"),
            static_cast<std::int64_t>(ChaosWorld::kMembers));
  EXPECT_EQ(w.metrics.gauge("L", "L", "epoch"),
            static_cast<std::int64_t>(w.leader->epoch()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosMetricsInvariants,
                         ::testing::Range<std::uint64_t>(1, 51));

// ---------------------------------------------------------------------------
// Causality invariants: the span graph stitched from the trace and the
// security ledger must reconcile with the raw event stream and the fault
// schedule, for every seed. Every exchange the protocol ran appears as
// exactly one span; every fault verdict a span claims really happened;
// every refusal in the run is attributed in the ledger.
class ChaosCausality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosCausality, SpanGraphAndLedgerReconcileWithTrace) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  ChaosWorld w(seed, plan_for_seed(seed));

  // Crash-free lifecycle (a crash clears no trace but forgets in-flight
  // exchanges; the exact pairing invariants below want every exchange to
  // have both ends in the stream).
  for (auto& [id, m] : w.members) ASSERT_TRUE(m->join().ok());
  ASSERT_TRUE(w.settle()) << "join phase did not converge, seed=" << seed;
  w.broadcast_numbered(4);
  for (int i = 0; i < 8; ++i) {
    auto& m = *w.members[ChaosWorld::member_id(i % ChaosWorld::kMembers)];
    if (m.connected() && m.has_group_key())
      (void)m.send_data(to_bytes("d#" + std::to_string(i)));
    w.step();
  }
  w.injector.partition({ChaosWorld::member_id(2)});
  for (int t = 0; t < 60; ++t) w.step();
  w.injector.heal();
  ASSERT_TRUE(w.settle(4000)) << "post-heal convergence failed, seed="
                              << seed;

  const auto events = w.store.events();
  auto spans = obs::SpanTracker::build(events);

  // Event census from the raw stream.
  std::uint64_t join_starts = 0, join_completions = 0;
  std::uint64_t admin_sends = 0, admin_acks = 0;
  std::uint64_t rekey_mints = 0, rekey_applies = 0;
  std::uint64_t retry_events = 0;
  std::multiset<std::tuple<Tick, std::string, std::string>> fault_events;
  for (const auto& e : events) {
    switch (e.kind) {
      case obs::TraceKind::member_phase:
        if (e.detail == "NotConnected->WaitingForKey") ++join_starts;
        if (e.detail == "WaitingForKey->Connected") ++join_completions;
        break;
      case obs::TraceKind::admin_send: ++admin_sends; break;
      case obs::TraceKind::admin_ack: ++admin_acks; break;
      case obs::TraceKind::rekey:
        (e.agent == e.group ? rekey_mints : rekey_applies)++;
        break;
      case obs::TraceKind::retransmit:
      case obs::TraceKind::reanswer: ++retry_events; break;
      case obs::TraceKind::fault_drop:
      case obs::TraceKind::fault_duplicate:
      case obs::TraceKind::fault_delay:
        fault_events.emplace(e.tick,
                             std::string(obs::trace_kind_name(e.kind)),
                             e.detail);
        break;
      default: break;
    }
  }

  // 1. Exchange pairing: one join span per handshake start, one completion
  //    per Connected transition; one admin span per send, one completion
  //    per accepted ack; one rekey root per mint, one delivery child per
  //    member application, each linked to its root.
  std::uint64_t join_spans = 0, join_complete = 0;
  std::uint64_t admin_spans = 0, admin_complete = 0;
  std::uint64_t rekey_roots = 0, deliveries = 0;
  std::uint64_t span_retries = 0;
  for (const auto& s : spans) {
    span_retries += s.retries;
    switch (s.kind) {
      case obs::SpanKind::join:
        ++join_spans;
        join_complete += s.complete ? 1 : 0;
        break;
      case obs::SpanKind::admin_exchange:
        ++admin_spans;
        admin_complete += s.complete ? 1 : 0;
        break;
      case obs::SpanKind::rekey: ++rekey_roots; break;
      case obs::SpanKind::rekey_delivery:
        ++deliveries;
        EXPECT_NE(s.parent, 0u)
            << "delivery of epoch " << s.value << " has no rekey root";
        break;
      default: break;
    }
  }
  EXPECT_EQ(join_spans, join_starts);
  EXPECT_EQ(join_complete, join_completions);
  EXPECT_EQ(admin_spans, admin_sends);
  EXPECT_EQ(admin_complete, admin_acks);
  EXPECT_EQ(rekey_roots, rekey_mints);
  EXPECT_EQ(deliveries, rekey_applies);

  // 2. Retry accounting: a span retry is a retransmit/reanswer event that
  //    hit an open exchange — never more than the stream recorded, and
  //    impossible in a fault-free schedule.
  EXPECT_LE(span_retries, retry_events);
  const auto& stats = w.injector.stats();
  if (stats.dropped + stats.duplicated + stats.delayed +
          stats.partition_dropped ==
      0) {
    EXPECT_EQ(span_retries, 0u);
  }

  // 3. Every fault verdict a span carries really happened: the annotation
  //    multiset embeds into the injector's trace output.
  for (const auto& s : spans) {
    for (const auto& a : s.annotations) {
      if (a.kind != "fault_drop" && a.kind != "fault_duplicate" &&
          a.kind != "fault_delay")
        continue;
      auto it = fault_events.find(std::tuple(a.tick, a.kind, a.detail));
      ASSERT_NE(it, fault_events.end())
          << "span #" << s.id << " claims a " << a.kind << " of " << a.detail
          << " at @" << a.tick << " the injector never issued";
      fault_events.erase(it);  // each verdict annotates at most one span
    }
  }

  // 4. Ledger/metrics agreement: every refusal in the run is one attributed
  //    ledger entry, crypto-plane tag failures included.
  EXPECT_EQ(w.store.entries().size(),
            w.metrics.counter_total("refusals_total"));
  std::uint64_t crypto_entries = 0;
  const std::set<std::string> agents = {"L", "m0", "m1", "m2", "m3"};
  for (const auto& e : w.store.entries()) {
    if (e.group == "crypto") {
      ++crypto_entries;
      continue;
    }
    EXPECT_TRUE(agents.count(e.agent))
        << "refusal observed by a stranger: " << e.agent;
    EXPECT_TRUE(e.peer.empty() || agents.count(e.peer))
        << "network faults can only replay group traffic, yet " << e.peer
        << " was accused";
    EXPECT_NE(e.kind, obs::EvidenceKind::fenced_repl)
        << "no HA plane in this world";
  }
  EXPECT_EQ(crypto_entries,
            w.metrics.counter_total("open_failures_total"));
  std::uint64_t attributed = 0;
  for (const auto& e : w.store.entries())
    if (!e.peer.empty()) ++attributed;
  std::uint64_t suspicion_total = 0;
  for (const auto& [accused, n] : w.store.suspicion_counts())
    suspicion_total += n;
  EXPECT_EQ(suspicion_total, attributed);

  // 5. Evidence attaches into the span graph (an entry may miss only when
  //    its exchange closed before the refusal tick), and both artifacts
  //    export cleanly.
  const std::size_t attached = obs::attach_evidence(spans, w.store.entries());
  EXPECT_LE(attached, w.store.entries().size());
  const std::string jsonl = obs::spans_to_jsonl(spans);
  std::size_t lines = 0;
  for (char c : jsonl) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, spans.size());
  EXPECT_EQ(spans.size(), obs::SpanTracker::build(events).size())
      << "attach_evidence must not add or drop spans";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosCausality,
                         ::testing::Range<std::uint64_t>(1, 51));

// Same seed, two runs: bit-identical observable histories. This is the
// "any failing seed reproduces deterministically" guarantee.
TEST(Chaos, SameSeedReplaysIdentically) {
  auto run = [](std::uint64_t seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ChaosWorld w(seed, plan_for_seed(seed));
    for (auto& [id, m] : w.members) EXPECT_TRUE(m->join().ok());
    EXPECT_TRUE(w.settle());
    w.broadcast_numbered(4);
    for (int i = 0; i < 8; ++i) {
      auto& m = *w.members[ChaosWorld::member_id(i % ChaosWorld::kMembers)];
      if (m.connected() && m.has_group_key())
        (void)m.send_data(to_bytes("d#" + std::to_string(i)));
      w.step();
    }
    EXPECT_TRUE(w.settle());
    return std::tuple(w.leader->epoch(), w.net.packets_sent(),
                      w.trackers["m0"].notice_nums,
                      w.trackers["m3"].epochs);
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(std::get<1>(run(5)), std::get<1>(run(6)))
      << "different seeds should produce different traffic";
}

// Close handshake under loss, routed through the budgeted RetryPolicy: the
// leaver's ReqClose is dropped repeatedly; backoff re-sends it until the
// leader processes the close, and the budget stops the stream afterwards.
TEST(Chaos, CloseHandshakeSurvivesLossWithBudgetedRetry) {
  SCOPED_TRACE("seed=77");
  net::FaultPlan plan;  // faultless; we drop ReqClose by hand below
  ChaosWorld w(77, plan);
  for (auto& [id, m] : w.members) ASSERT_TRUE(m->join().ok());
  ASSERT_TRUE(w.settle());

  int closes_seen = 0;
  w.net.set_tap([&closes_seen](const net::Packet& p) {
    if (p.envelope.label == wire::Label::ReqClose && ++closes_seen <= 3)
      return net::TapVerdict::drop;  // first three attempts die on the wire
    return net::TapVerdict::deliver;
  });
  auto& leaver = *w.members["m0"];
  leaver.set_close_retry_policy(RetryPolicy::bounded(5));
  ASSERT_TRUE(leaver.leave().ok());
  for (int t = 0; t < 10 && w.leader->is_member("m0"); ++t) w.step();
  EXPECT_FALSE(w.leader->is_member("m0"))
      << "close never arrived despite retries";
  EXPECT_GE(closes_seen, 4);

  // The budget caps the stream: once it drains, ticks add nothing — the
  // member cannot observe whether the leader processed the close, so the
  // policy is what stops the retransmissions.
  for (int t = 0; t < 12; ++t) w.step();
  const std::uint64_t sent_before = w.net.packets_sent();
  bool sent_any = false;
  for (int t = 0; t < 10; ++t) sent_any = leaver.tick() > 0 || sent_any;
  EXPECT_FALSE(sent_any);
  EXPECT_EQ(w.net.packets_sent(), sent_before);
}

// Expelled-then-rejoining member gets a fresh session key and never sees
// the old group key again (satellite: Leader::expel_stalled + rejoin).
TEST(Chaos, ExpelledMemberRejoinsWithFreshKeysOnly) {
  SCOPED_TRACE("seed=88");
  net::FaultPlan plan;
  ChaosWorld w(88, plan);
  for (auto& [id, m] : w.members) ASSERT_TRUE(m->join().ok());
  ASSERT_TRUE(w.settle());

  auto& victim = *w.members["m1"];
  const crypto::SessionKey old_ka = victim.session().session_key();
  const crypto::GroupKey old_kg = w.leader->group_key();
  const std::uint64_t old_epoch = w.leader->epoch();

  // Cut m1 off; the leader's heartbeats stall on it and auto-expulsion
  // (config.auto_expel_attempts) fires without any manual call.
  w.injector.partition({"m1"});
  for (int t = 0; t < 120 && w.leader->is_member("m1"); ++t) w.step();
  EXPECT_FALSE(w.leader->is_member("m1"));
  EXPECT_GE(w.metrics.counter("L", "L", "expulsions_total"), 1u);

  // Survivors rekeyed (strict policy): the old Kg is already stale.
  EXPECT_GT(w.leader->epoch(), old_epoch);

  // Heal; auto-rejoin brings m1 back with a FRESH Ka and the CURRENT Kg.
  w.injector.heal();
  ASSERT_TRUE(w.settle(4000));
  EXPECT_GE(victim.rejoins(), 1u);
  EXPECT_NE(victim.session().session_key(), old_ka)
      << "session key must be fresh after expulsion";
  EXPECT_EQ(victim.epoch(), w.leader->epoch());

  // The old group key opens nothing it receives now.
  DeterministicRng stale_rng(4242);
  wire::GroupDataPayload stale{"m0", old_epoch, 9'999, to_bytes("old")};
  auto stale_env = wire::make_sealed(crypto::default_aead(), old_kg.view(),
                                     stale_rng, wire::Label::GroupData, "m0",
                                     wire::kGroupRecipient,
                                     wire::encode(stale));
  const std::uint64_t rejects_before = victim.data_rejects();
  w.net.inject("m1", stale_env);
  w.net.run();
  EXPECT_GT(victim.data_rejects(), rejects_before)
      << "rejoined member accepted the pre-expulsion group key";
  // And the epochs it accepted never regressed.
  assert_strictly_increasing(w.trackers["m1"].epochs, "m1 epochs");
}

// HealthMonitor under chaos: for every seeded fault schedule the live
// verdict pipeline must (a) score at least one window non-healthy while the
// injector is interfering, (b) attribute the scripted partition to the
// member it actually cut off, and (c) walk back to healthy once the faults
// stop — all reconciled against the injector's own statistics, so a verdict
// can never claim trouble the network didn't cause or miss trouble it did.
class ChaosHealth : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosHealth, VerdictTracksInjectedFaultsAndRecovery) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  ChaosWorld w(seed, plan_for_seed(seed));

  obs::HealthConfig config;
  config.window = 8;  // one heartbeat interval per window
  obs::HealthMonitor monitor(config);
  obs::HealthState worst_seen = obs::HealthState::healthy;
  obs::HealthState worst_m2 = obs::HealthState::healthy;
  auto pump = [&] {
    if (!monitor.observe(static_cast<Tick>(w.step_count),
                         w.metrics.snapshot()))
      return;
    worst_seen = obs::worse(worst_seen, monitor.verdict().worst());
    worst_m2 = obs::worse(worst_m2, monitor.peer_state("L", "m2"));
  };

  // Phase 1+2: join storm and admin traffic under the seed's fault
  // schedule, with the monitor watching every step.
  for (auto& [id, m] : w.members) ASSERT_TRUE(m->join().ok());
  bool joined = false;
  for (int t = 0; t < 3000 && !joined; ++t) {
    w.step();
    pump();
    joined = w.converged() && w.net.queue_size() == 0 &&
             w.net.held_size() == 0;
  }
  ASSERT_TRUE(joined) << "join phase did not converge, seed=" << seed;
  for (int i = 0; i < 4; ++i) {
    w.leader->broadcast_notice("n" + std::to_string(w.notice_counter++));
    w.step();
    pump();
  }

  // Phase 3: partition m2 until the leader's budgeted retries expel it,
  // then heal and let auto-rejoin repair the group.
  w.injector.partition({ChaosWorld::member_id(2)});
  for (int t = 0; t < 400 && w.leader->is_member("m2"); ++t) {
    w.step();
    pump();
  }
  EXPECT_FALSE(w.leader->is_member("m2"))
      << "auto-expel never fired, seed=" << seed;
  w.injector.heal();
  bool recovered = false;
  for (int t = 0; t < 4000 && !recovered; ++t) {
    w.step();
    pump();
    recovered = w.converged() && w.net.queue_size() == 0 &&
                w.net.held_size() == 0;
  }
  ASSERT_TRUE(recovered) << "post-heal convergence failed, seed=" << seed;

  // Quiet phase: stop all faults and run enough windows for (i) the last
  // in-flight window — convergence can land mid-window, so m2's rejoin
  // delta may still be pending — and (ii) the hysteresis to clear.
  w.net.set_tap([](const net::Packet&) { return net::TapVerdict::deliver; });
  const int quiet_steps =
      static_cast<int>((obs::kHealthClearWindows + 3) * config.window) + 1;
  for (int t = 0; t < quiet_steps; ++t) {
    w.step();
    pump();
  }

  // Reconciliation (a): the injector provably interfered (the partition
  // drops heartbeats at minimum), so some window must have scored the
  // group non-healthy.
  const net::FaultInjector::Stats& stats = w.injector.stats();
  EXPECT_GT(stats.dropped + stats.partition_dropped, 0u);
  EXPECT_NE(worst_seen, obs::HealthState::healthy)
      << "faults were injected but every window scored healthy";

  // (b) Attribution: the cut-off member itself reached partitioned (or
  // worse) — its suspicion/expulsion/rejoin signals all name m2.
  EXPECT_GE(static_cast<int>(worst_m2),
            static_cast<int>(obs::HealthState::partitioned))
      << "partitioned member was never attributed, seed=" << seed;

  // No fabricated intrusion: pure network faults may only escalate to
  // under_attack if the security ledger really accumulated that much
  // windowed suspicion.
  if (worst_seen == obs::HealthState::under_attack) {
    EXPECT_GE(w.metrics.counter_total("suspicion_total"),
              obs::kHealthAttackSuspicion);
  }

  // (c) Recovery: after the quiet windows the verdict must have walked
  // back to healthy everywhere.
  EXPECT_EQ(monitor.group_state("L"), obs::HealthState::healthy)
      << "verdict did not de-escalate after recovery, seed=" << seed;
  ASSERT_EQ(monitor.verdict().groups.count("L"), 1u);
  for (const auto& [peer, ph] : monitor.verdict().groups.at("L").peers)
    EXPECT_EQ(ph.state, obs::HealthState::healthy)
        << "peer " << peer << " stuck at " << obs::health_state_name(ph.state)
        << " (" << ph.why << "), seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosHealth,
                         ::testing::Range<std::uint64_t>(1, 51));

// The zero-false-positive half of the gate: a fault-free schedule must
// never leave healthy — no window may invent degradation, let alone an
// intrusion, out of clean traffic.
TEST(ChaosHealthClean, FaultFreeScheduleStaysHealthyThroughout) {
  ChaosWorld w(/*seed=*/424242, net::FaultPlan{});

  obs::HealthConfig config;
  config.window = 8;
  obs::HealthMonitor monitor(config);
  obs::HealthState worst_seen = obs::HealthState::healthy;
  auto pump = [&] {
    if (monitor.observe(static_cast<Tick>(w.step_count),
                        w.metrics.snapshot()))
      worst_seen = obs::worse(worst_seen, monitor.verdict().worst());
  };

  for (auto& [id, m] : w.members) ASSERT_TRUE(m->join().ok());
  bool joined = false;
  for (int t = 0; t < 3000 && !joined; ++t) {
    w.step();
    pump();
    joined = w.converged() && w.net.queue_size() == 0 &&
             w.net.held_size() == 0;
  }
  ASSERT_TRUE(joined);
  for (int i = 0; i < 24; ++i) {
    if (i % 3 == 0)
      w.leader->broadcast_notice("n" + std::to_string(w.notice_counter++));
    auto& m = *w.members[ChaosWorld::member_id(i % ChaosWorld::kMembers)];
    if (m.connected() && m.has_group_key())
      (void)m.send_data(to_bytes("d" + std::to_string(i) + "#" +
                                 std::to_string(i)));
    w.step();
    pump();
  }

  const net::FaultInjector::Stats& stats = w.injector.stats();
  EXPECT_EQ(stats.dropped + stats.partition_dropped + stats.duplicated +
                stats.delayed,
            0u);
  EXPECT_EQ(worst_seen, obs::HealthState::healthy)
      << "clean schedule produced a non-healthy window: "
      << obs::health_state_name(worst_seen);
}

}  // namespace
}  // namespace enclaves::core
