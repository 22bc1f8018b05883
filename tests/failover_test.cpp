// Chaos failover suite: warm-standby promotion under seeded adversarial
// schedules (PROTOCOL.md §11).
//
// Each seed drives a full failover lifecycle through a FaultInjector, once
// per configuration in {flat, tree} rekey x {parole off, on}: the group
// forms on the active leader while its snapshot streams to a warm standby
// (with parole on, one member goes silent until it is auto-expelled onto
// parole first); the active crashes at a seed-dependent point mid-churn;
// the failover controller suspects the silence and promotes the standby;
// survivors suspect, cycle their failover targets, re-authenticate with the
// promoted leader and exchange data under a fresh fenced Kg; finally the old
// incarnation resurrects and is deposed by the standby's fence. Invariants,
// per seed:
//
//   state equality — the standby's reconstruction at promotion equals the
//     active's `Leader::snapshot()` at the last replicated point, exactly:
//     credentials, epoch, key-tree slots and parole;
//   seating — in tree mode, survivors rejoin the promoted leader at the
//     key-tree leaves they held before the crash;
//   zero split-brain — per member, accepted epochs strictly increase across
//     the whole run and every delivered (epoch, seq) pair per origin is
//     lexicographically strictly increasing: nothing the deposed leader
//     issued is ever delivered after promotion;
//   fencing — the promoted leader's epochs sit above the fence, and the
//     resurrected active is deposed by a fenced ack, after which it
//     replicates nothing.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/leader.h"
#include "core/member.h"
#include "ha/failover.h"
#include "ha/replicator.h"
#include "ha/standby.h"
#include "net/fault.h"
#include "net/sim_network.h"
#include "obs/metrics.h"
#include "obs/record.h"
#include "util/rng.h"
#include "wire/repl.h"

namespace enclaves::ha {
namespace {

using core::Leader;
using core::LeaderConfig;
using core::Member;
using core::RekeyPolicy;
using core::RetryPolicy;

struct Tracker {
  std::vector<std::uint64_t> epochs;  // accepted epochs, arrival order
  // Per origin: (epoch at delivery, seq), arrival order. Sequence counters
  // restart after a rejoin, so the pair — not the bare seq — is what must
  // strictly increase.
  std::map<std::string, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      data;
};

// The leader configuration under test: rekey algorithm and parole window.
struct Mode {
  bool tree = false;
  std::uint64_t parole_epochs = 0;

  std::string name() const {
    return std::string(tree ? "tree" : "flat") + "/parole=" +
           std::to_string(parole_epochs);
  }
};

constexpr Mode kModes[] = {{false, 0}, {false, 4}, {true, 0}, {true, 4}};

struct FailoverWorld {
  static constexpr int kMembers = 4;

  FailoverWorld(std::uint64_t seed, net::FaultPlan plan, Mode mode = {})
      : mode(mode), rng(seed), injector(std::move(plan), seed ^ 0xFA170) {
    net.set_tap(injector.tap());
    repl_key = crypto::SessionKey::random(rng);

    // Active leader + replication source.
    active = std::make_unique<Leader>(leader_config("L"), rng);
    active->set_send(sender());
    make_replicator();
    net.attach("L", [this](const wire::Envelope& e) { route_active(e); });

    // Warm standby + failover controller.
    StandbyConfig sc;
    sc.id = "L2";
    sc.active_id = "L";
    sc.repl_key = repl_key;
    standby = std::make_unique<StandbyLeader>(sc, rng);
    standby->set_send(sender());
    FailoverConfig fc;
    fc.suspect_after = 25;
    fc.epoch_fence = 1024;
    fc.promoted = leader_config("L2");
    controller = std::make_unique<FailoverController>(*standby, fc);
    net.attach("L2", [this](const wire::Envelope& e) { route_standby(e); });

    replicator->start();
    recorded[0] = active->snapshot();

    for (int i = 0; i < kMembers; ++i) {
      const std::string id = member_id(i);
      auto pa = crypto::LongTermKey::random(rng);
      EXPECT_TRUE(active->register_member(id, pa).ok());
      auto m = std::make_unique<Member>(id, "L", pa, rng);
      m->set_send(sender());
      // Bounded join budget: a handshake aimed at a dead leader exhausts,
      // the rejoin backoff re-arms, and the failover cycle advances to the
      // next target — this is what makes the member reach the standby.
      m->set_retry_policy(RetryPolicy::exponential(1, 8, /*jitter=*/2,
                                                   /*budget=*/6));
      m->set_close_retry_policy(RetryPolicy::exponential(1, 4, 1, 5));
      m->enable_auto_rejoin(RetryPolicy::exponential(2, 16, 3));
      m->set_suspect_after(30);
      m->set_failover_targets({"L", "L2"});
      Tracker* tr = &trackers[id];
      Member* raw = m.get();
      m->set_event_handler([tr, raw](const core::GroupEvent& ev) {
        if (const auto* e = std::get_if<core::EpochChanged>(&ev)) {
          tr->epochs.push_back(e->epoch);
        } else if (const auto* d = std::get_if<core::DataReceived>(&ev)) {
          const std::string s = enclaves::to_string(d->payload);
          auto at = s.find('#');
          if (at != std::string::npos)
            tr->data[d->origin].emplace_back(raw->epoch(),
                                             std::stoull(s.substr(at + 1)));
        }
      });
      net.attach(id, [raw](const wire::Envelope& e) { raw->handle(e); });
      members[id] = std::move(m);
    }
  }

  static std::string member_id(int i) { return "m" + std::to_string(i); }

  LeaderConfig leader_config(const std::string& id) const {
    LeaderConfig lc;
    lc.id = id;
    lc.rekey = mode.tree ? RekeyPolicy::tree() : RekeyPolicy::strict();
    lc.retry = RetryPolicy::exponential(1, 8, /*jitter=*/2);
    lc.auto_expel_attempts = 8;
    lc.parole_epochs = mode.parole_epochs;
    return lc;
  }

  // A replicator for the current active leader; start() is the caller's.
  void make_replicator() {
    ReplicatorConfig rc;
    rc.standby_id = "L2";
    rc.repl_key = repl_key;
    rc.retry = RetryPolicy::exponential(1, 8, /*jitter=*/2);
    rc.heartbeat_interval = 2;
    replicator = std::make_unique<LeaderReplicator>(*active, rc, rng);
    replicator->set_send(sender());
    // The ground truth for the state-equality invariant: the active's own
    // snapshot as of every replication index.
    replicator->on_delta = [this](const wire::ReplDeltaPayload& d) {
      recorded[d.seq] = active->snapshot();
    };
  }

  core::SendFn sender() {
    return [this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    };
  }

  void route_active(const wire::Envelope& e) {
    if (e.label == wire::Label::ReplAck)
      replicator->handle(e);
    else
      active->handle(e);
  }

  void route_standby(const wire::Envelope& e) {
    if (e.label == wire::Label::ReplDelta ||
        e.label == wire::Label::ReplSnapshot ||
        e.label == wire::Label::ReplHeartbeat) {
      standby->handle(e);
    } else if (promoted) {
      promoted->handle(e);
    }
    // Before promotion, member traffic at the standby is dropped on the
    // floor: a warm standby is not a leader yet.
  }

  void step() {
    Leader* live = promoted ? promoted.get() : active_alive ? active.get()
                                                            : nullptr;
    if (live && step_count % 8 == 0) live->probe_liveness();
    net.run(1u << 16);
    if (active_alive) {
      active->tick();
      replicator->tick();
    }
    if (promoted) promoted->tick();
    if (auto l = controller->tick()) {
      promoted = std::move(l);
      promoted->set_send(sender());
    }
    for (auto& [id, m] : members) m->tick();
    net.run(1u << 16);
    ++step_count;
  }

  void crash_active() {
    active_alive = false;
    net.detach("L");
  }

  void resurrect_active() {
    active_alive = true;
    net.attach("L", [this](const wire::Envelope& e) { route_active(e); });
  }

  // The other resurrection shape: the old leader's PROCESS restarts from its
  // pre-crash snapshot — fresh sessions, fresh replicator, same identity.
  // Its replication opener meets the promoted standby's fence immediately.
  void restart_active_from(const core::LeaderSnapshot& snap) {
    active = std::make_unique<Leader>(leader_config("L"), rng);
    active->set_send(sender());
    snap.install(*active);
    make_replicator();
    replicator->start();
    resurrect_active();
  }

  bool converged_on(const Leader& l) const {
    if (l.member_count() != static_cast<std::size_t>(kMembers)) return false;
    const auto expect = l.members();
    for (const auto& [id, m] : members) {
      const core::LeaderSession* s = l.session(id);
      if (!s || s->state() != core::LeaderSession::State::connected ||
          s->queue_depth() != 0)
        return false;
      if (!m->connected() || m->epoch() != l.epoch()) return false;
      if (m->view() != expect) return false;
    }
    return true;
  }

  bool settle_on(const Leader& l, int max_steps = 3000) {
    for (int t = 0; t < max_steps; ++t) {
      if (converged_on(l) && net.queue_size() == 0 && net.held_size() == 0)
        return true;
      step();
    }
    return converged_on(l);
  }

  // Sinks first, so they attach before any traffic and detach last.
  obs::MetricsRegistry metrics;
  obs::EventStore trace;
  obs::ScopedMetricsSink metrics_sink{metrics};
  obs::ScopedEventSink trace_sink{trace};

  Mode mode;
  net::SimNetwork net;
  DeterministicRng rng;
  net::FaultInjector injector;
  crypto::SessionKey repl_key;
  std::unique_ptr<Leader> active;
  std::unique_ptr<LeaderReplicator> replicator;
  std::unique_ptr<StandbyLeader> standby;
  std::unique_ptr<FailoverController> controller;
  std::unique_ptr<Leader> promoted;
  bool active_alive = true;
  std::map<std::string, std::unique_ptr<Member>> members;
  std::map<std::string, Tracker> trackers;
  std::map<std::uint64_t, core::LeaderSnapshot> recorded;
  std::uint64_t step_count = 0;
};

// Milder than the chaos suite's plan: the failover run already contains a
// crash, a promotion, and a full re-join storm; the faults are here to vary
// the crash/replication interleaving, not to starve convergence.
net::FaultPlan failover_plan(std::uint64_t seed) {
  net::FaultPlan plan;
  plan.faults.drop_pct = static_cast<std::uint32_t>((seed * 5) % 16);
  plan.faults.duplicate_pct = static_cast<std::uint32_t>((seed * 3) % 11);
  plan.faults.delay_pct = static_cast<std::uint32_t>((seed * 7) % 16);
  plan.faults.max_delay_steps = 1 + static_cast<std::uint32_t>(seed % 4);
  return plan;
}

void assert_strictly_increasing(const std::vector<std::uint64_t>& xs,
                                const std::string& what) {
  for (std::size_t i = 1; i < xs.size(); ++i) {
    ASSERT_LT(xs[i - 1], xs[i])
        << what << " out of order / duplicated at index " << i;
  }
}

constexpr int kMembersInt = FailoverWorld::kMembers;

// One failover lifecycle under `mode`; fatal failures return early.
void run_failover(std::uint64_t seed, Mode mode) {
  FailoverWorld w(seed, failover_plan(seed), mode);

  // Phase 1: the group forms on the active leader, replication flowing.
  for (auto& [id, m] : w.members) ASSERT_TRUE(m->join().ok());
  ASSERT_TRUE(w.settle_on(*w.active)) << "join phase did not converge";

  // With parole on, the last member goes silent until the active expels it
  // onto parole, and stays cut off until after the promotion: the standby
  // must carry its parole record across the failover.
  const std::string silent = FailoverWorld::member_id(kMembersInt - 1);
  if (mode.parole_epochs > 0) {
    w.injector.partition({silent});
    for (int t = 0; t < 600 && !w.standby->snapshot().parole.count(silent);
         ++t)
      w.step();
    ASSERT_TRUE(w.active->on_parole(silent)) << "never paroled";
    ASSERT_TRUE(w.standby->snapshot().parole.count(silent))
        << "parole never replicated";
  }

  // Phase 2: churn, with the crash at a seed-dependent point mid-stream.
  const int crash_after = static_cast<int>(seed % 10);
  for (int i = 0; i < 10; ++i) {
    if (i == crash_after) {
      w.crash_active();
      break;  // everything after the crash is the failover's problem
    }
    if (i % 3 == 0) {
      w.active->broadcast_notice("n" + std::to_string(i));
    } else if (i % 3 == 1) {
      w.active->rekey();
    } else {
      auto& m = *w.members[FailoverWorld::member_id(i % kMembersInt)];
      if (m.connected() && m.has_group_key())
        (void)m.send_data(to_bytes("c#" + std::to_string(i)));
    }
    w.step();
  }
  if (w.active_alive) w.crash_active();  // seeds whose crash point is 10

  // Phase 3: the controller suspects the silence and promotes.
  for (int t = 0; t < 400 && !w.promoted; ++t) w.step();
  ASSERT_TRUE(w.promoted) << "standby never promoted";
  ASSERT_TRUE(w.standby->promoted());

  // THE state-equality invariant: the reconstruction equals the active's
  // own snapshot at the last replicated index, bit for bit.
  const std::uint64_t at = w.standby->applied_seq();
  ASSERT_TRUE(w.recorded.count(at)) << "no ground truth for seq " << at;
  const core::LeaderSnapshot handed_over = w.standby->snapshot();
  EXPECT_EQ(handed_over, w.recorded.at(at))
      << "standby state diverged from the replicated prefix at seq " << at;
  EXPECT_EQ(handed_over.keytree_slots.empty(), !mode.tree);
  EXPECT_EQ(handed_over.parole.count(silent), mode.parole_epochs > 0 ? 1u : 0u);

  // Phase 4: survivors cycle onto the promoted leader and re-form the group
  // above the fence. In tree mode each sits at its pre-crash leaf, even
  // though the paroled member (no slot in the handed-over snapshot) is
  // healed first and may be seated before them.
  if (mode.parole_epochs > 0) w.injector.heal();
  const auto seated = [&w, &handed_over] {
    const core::KeyTree* tree = w.promoted->keytree();
    for (const auto& [id, leaf] : handed_over.keytree_slots)
      if (!tree || !tree->has_member(id)) return false;
    return true;
  };
  for (int t = 0; t < 6000 && !seated(); ++t) w.step();
  ASSERT_TRUE(seated()) << "survivors did not rejoin the promoted tree";
  for (const auto& [id, leaf] : handed_over.keytree_slots)
    EXPECT_EQ(w.promoted->keytree()->leaf_of(id), leaf)
        << id << " re-seated away from its pre-crash leaf";
  ASSERT_TRUE(w.settle_on(*w.promoted, 6000))
      << "survivors did not re-form on the promoted leader";
  EXPECT_GE(w.promoted->epoch(), w.standby->fenced_epoch())
      << "first post-promotion Kg must clear the fence";
  w.controller->record_recovery(w.controller->now());

  // Phase 5: fresh data under the fenced Kg.
  for (int i = 0; i < kMembersInt; ++i) {
    auto& m = *w.members[FailoverWorld::member_id(i)];
    if (m.connected() && m.has_group_key())
      (void)m.send_data(to_bytes("r#" + std::to_string(i)));
    w.step();
  }
  ASSERT_TRUE(w.settle_on(*w.promoted, 3000));

  // Phase 6: the old incarnation resurrects, tries to act, and is deposed
  // by the standby's fence; nobody follows it anywhere.
  const std::uint64_t promoted_epoch_before = w.promoted->epoch();
  w.resurrect_active();
  w.active->rekey();  // its next replicator tick ships a delta -> fenced ack
  for (int t = 0; t < 80 && !w.replicator->deposed(); ++t) w.step();
  EXPECT_TRUE(w.replicator->deposed())
      << "resurrected leader was never deposed";
  for (int t = 0; t < 20; ++t) w.step();

  // Invariants over the whole run.
  EXPECT_EQ(w.promoted->epoch(), promoted_epoch_before)
      << "resurrection must not disturb the promoted group";
  for (auto& [id, m] : w.members) {
    EXPECT_TRUE(m->connected()) << id;
    EXPECT_EQ(m->leader_id(), "L2")
        << id << " follows the deposed leader: split brain";
    EXPECT_EQ(m->epoch(), w.promoted->epoch()) << id;
    EXPECT_GE(m->epoch_floor(), w.standby->fenced_epoch()) << id;
    const Tracker& tr = w.trackers[id];
    assert_strictly_increasing(tr.epochs, id + " epochs");
    for (const auto& [origin, pairs] : tr.data) {
      for (std::size_t i = 1; i < pairs.size(); ++i) {
        ASSERT_LT(pairs[i - 1], pairs[i])
            << id << " data from " << origin
            << " regressed at index " << i << ": split-brain delivery";
      }
    }
  }

  // The ha.* ledger agrees.
  EXPECT_EQ(w.metrics.counter("ha", "L2", "promotions_total"), 1u);
  EXPECT_EQ(w.metrics.counter("ha", "L", "deposed_total"), 1u);
  EXPECT_GE(w.metrics.counter("ha", "L2", "suspicions_total"), 1u);
  EXPECT_EQ(
      w.metrics.histogram("ha", "L2", "time_to_recovery_ticks").count, 1u);
}

class ChaosFailover : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosFailover, StandbyTakesOverWithExactStateAndNoSplitBrain) {
  const std::uint64_t seed = GetParam();
  for (const Mode& mode : kModes) {
    SCOPED_TRACE("seed=" + std::to_string(seed) + " mode=" + mode.name());
    run_failover(seed, mode);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosFailover,
                         ::testing::Range<std::uint64_t>(1, 51));

// Deterministic rollback scenario: a survivor is partitioned away from the
// promoted leader, lands on the resurrected old incarnation, and the epoch
// fence — not luck — is what refuses the stale group key.
TEST(Failover, ResurrectedLeaderCannotRollBackSurvivors) {
  SCOPED_TRACE("seed=424");
  FailoverWorld w(424, net::FaultPlan{});  // faultless: pure state machine

  for (auto& [id, m] : w.members) ASSERT_TRUE(m->join().ok());
  ASSERT_TRUE(w.settle_on(*w.active));
  w.active->rekey();
  w.step();
  ASSERT_TRUE(w.settle_on(*w.active));
  const core::LeaderSnapshot pre_crash = w.active->snapshot();

  w.crash_active();
  for (int t = 0; t < 400 && !w.promoted; ++t) w.step();
  ASSERT_TRUE(w.promoted);
  ASSERT_TRUE(w.settle_on(*w.promoted, 6000));
  const std::uint64_t fenced = w.standby->fenced_epoch();

  // The old leader's process restarts from its pre-crash snapshot. Its very
  // first replication baseline is answered with the fence: deposed on
  // arrival, before it ever touches a member.
  w.restart_active_from(pre_crash);
  for (int t = 0; t < 20 && !w.replicator->deposed(); ++t) w.step();
  EXPECT_TRUE(w.replicator->deposed());

  // Cut m1 off from everyone but the old leader: suspicion fires, the
  // failover cycle walks its target list, and the only leader it can reach
  // is the deposed one.
  auto& m1 = *w.members["m1"];
  const std::uint64_t floor_before = m1.epoch_floor();
  ASSERT_GE(floor_before, fenced);
  w.injector.partition({"m1", "L"});
  for (int t = 0; t < 600 && m1.epochs_fenced() == 0; ++t) w.step();
  EXPECT_GE(m1.epochs_fenced(), 1u)
      << "m1 never reached (or never refused) the deposed leader";
  EXPECT_GE(m1.epoch_floor(), floor_before) << "the fence regressed";
  EXPECT_GE(w.metrics.counter("L", "m1", "epoch_fenced_total") +
                w.metrics.counter("L2", "m1", "epoch_fenced_total"),
            1u);

  // Heal: the cycle brings m1 back to the promoted leader at a live epoch.
  w.injector.heal();
  ASSERT_TRUE(w.settle_on(*w.promoted, 6000))
      << "m1 did not find its way back to the promoted leader";
  EXPECT_EQ(m1.leader_id(), "L2");
  EXPECT_EQ(m1.epoch(), w.promoted->epoch());
  assert_strictly_increasing(w.trackers["m1"].epochs, "m1 epochs");
}

}  // namespace
}  // namespace enclaves::ha
