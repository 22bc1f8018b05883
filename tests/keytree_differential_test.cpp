// Differential oracle: the flat O(N) rekey and the LKH key tree are two
// implementations of ONE abstract protocol — the paper's group-management
// guarantees must be observationally indistinguishable between them.
//
// Phase (a), lossless: the same seeded churn schedule (joins, voluntary
// leaves, expulsions, manual rekeys, data bursts, notices) is driven through
// a flat-mode world and a tree-mode world. Everything a member application
// can observe must be BIT-IDENTICAL: the delivered (origin, plaintext)
// stream per member, the accepted epoch ladder per member, the leader's
// epoch ladder, and the final views. The security ledger stays empty in
// both — an honest lossless run produces zero refusals.
//
// Phase (b), lossy: under seeded drop/duplicate/delay schedules the two
// modes may take different repair paths (flat retransmits stop-and-wait
// admin exchanges; the tree re-broadcasts and heals via KEY_TREE_RECOVER),
// so the assertion weakens to per-mode convergence invariants: the world
// settles, every member ends on the leader's epoch and view, accepted
// epochs strictly increase, delivered sequences per origin strictly
// increase, and the honest tree run never produces forged_keytree evidence.
//
// The tree is sized (depth 3 = 8 leaves for 6 members) so capacity growth
// never fires in phase (a): growth inserts an extra rebuild epoch that flat
// mode has no counterpart for, which would make the ladders trivially
// different. Growth itself is covered by keytree_attacks_test.cpp and the
// lossy phase here (where only per-mode invariants are asserted).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/leader.h"
#include "core/member.h"
#include "net/fault.h"
#include "net/sim_network.h"
#include "obs/metrics.h"
#include "obs/record.h"
#include "util/rng.h"

namespace enclaves::core {
namespace {

// splitmix64: schedule decisions are a pure function of (seed, index), so
// both modes see the exact same churn without sharing an Rng stream (the
// protocol itself consumes randomness at different rates per mode).
std::uint64_t mix(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (i + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct Seen {
  std::vector<std::pair<std::string, std::string>> delivered;  // origin, text
  std::vector<std::uint64_t> epochs;
};

struct DiffWorld {
  static constexpr int kMembers = 6;

  DiffWorld(std::uint64_t seed, RekeyAlgo algo, net::FaultPlan plan,
            bool lossy)
      : rng(seed), injector(std::move(plan), seed ^ 0xD1FF), lossy_(lossy) {
    net.set_tap(injector.tap());
    LeaderConfig config;
    config.id = "L";
    config.rekey = algo == RekeyAlgo::tree ? RekeyPolicy::tree()
                                           : RekeyPolicy::strict();
    config.retry = RetryPolicy::exponential(1, 8, /*jitter=*/2);
    config.auto_expel_attempts = 0;  // churn is scripted, never emergent
    config.keytree_depth = 3;        // 8 leaves: no growth at 6 members
    leader = std::make_unique<Leader>(config, rng);
    leader->set_send([this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    net.attach("L", [this](const wire::Envelope& e) { leader->handle(e); });

    for (int i = 0; i < kMembers; ++i) {
      const std::string id = member_id(i);
      auto pa = crypto::LongTermKey::random(rng);
      EXPECT_TRUE(leader->register_member(id, pa).ok());
      auto m = std::make_unique<Member>(id, "L", pa, rng);
      m->set_send([this](const std::string& to, wire::Envelope e) {
        net.send(to, std::move(e));
      });
      m->set_retry_policy(RetryPolicy::exponential(1, 8, /*jitter=*/2));
      m->enable_auto_rejoin(RetryPolicy::exponential(2, 16, 3));
      // The liveness/repair plane (heartbeats, suspicion, ReqClose
      // retransmission) exists to mend LOSS. A lossless run keeps it off:
      // ReqClose is fire-and-forget (no ack ever stops its retransmits), so
      // a single voluntary leave would otherwise re-offer the close to an
      // already-closed leader session — a benign duplicate, but it would
      // dirty the refusal-free ledger the lossless phase asserts.
      if (lossy) {
        m->set_close_retry_policy(RetryPolicy::exponential(1, 4, 1, 5));
        m->set_suspect_after(60);
      } else {
        m->set_close_retry_policy(
            RetryPolicy::exponential(1 << 20, 1 << 20, 0, 1));
      }
      Seen* tr = &seen[id];
      m->set_event_handler([tr](const GroupEvent& ev) {
        if (const auto* d = std::get_if<DataReceived>(&ev)) {
          tr->delivered.emplace_back(d->origin,
                                     enclaves::to_string(d->payload));
        } else if (const auto* e2 = std::get_if<EpochChanged>(&ev)) {
          tr->epochs.push_back(e2->epoch);
        }
      });
      auto* raw = m.get();
      net.attach(id, [raw](const wire::Envelope& e) { raw->handle(e); });
      members[id] = std::move(m);
    }
  }

  static std::string member_id(int i) { return "m" + std::to_string(i); }

  void step() {
    if (lossy_ && step_count % 8 == 0) leader->probe_liveness();
    net.run(1u << 16);
    leader->tick();
    for (auto& [id, m] : members) m->tick();
    net.run(1u << 16);
    ++step_count;
  }

  bool converged() const {
    for (const auto& [id, m] : members) {
      const bool should_be_in = wanted.count(id) > 0;
      if (should_be_in !=
          (m->connected() && leader->is_member(id)))
        return false;
      if (should_be_in && m->epoch() != leader->epoch()) return false;
      if (should_be_in && m->view() != leader->members()) return false;
    }
    return leader->member_count() == wanted.size();
  }

  bool settle(int max_steps = 4000) {
    for (int t = 0; t < max_steps; ++t) {
      if (converged() && net.queue_size() == 0 && net.held_size() == 0)
        return true;
      step();
    }
    return converged();
  }

  obs::MetricsRegistry metrics;
  obs::EventStore ledger;
  obs::ScopedMetricsSink metrics_sink{metrics};
  obs::ScopedEventSink ledger_sink{ledger};

  net::SimNetwork net;
  DeterministicRng rng;
  net::FaultInjector injector;
  std::unique_ptr<Leader> leader;
  std::map<std::string, std::unique_ptr<Member>> members;
  std::map<std::string, Seen> seen;
  std::set<std::string> wanted;  // members the schedule wants in-session
  std::uint64_t step_count = 0;
  bool lossy_ = false;
};

struct RunResult {
  std::map<std::string, Seen> seen;
  std::vector<std::uint64_t> leader_epochs;  // after each schedule op
  std::vector<std::string> final_view;
  std::uint64_t final_epoch = 0;
  bool converged = false;
  std::size_t ledger_size = 0;
  std::string ledger_jsonl;
  bool forged_keytree = false;
};

// Drives one seeded churn schedule through one world. The schedule is a
// pure function of the seed; `ops` scripted ops interleaved with settles.
RunResult run_schedule(std::uint64_t seed, RekeyAlgo algo,
                       net::FaultPlan plan, int ops, bool settle_each) {
  DiffWorld w(seed, algo, std::move(plan), /*lossy=*/!settle_each);
  RunResult out;

  for (int i = 0; i < DiffWorld::kMembers; ++i) {
    const std::string id = DiffWorld::member_id(i);
    EXPECT_TRUE(w.members[id]->join().ok());
    w.wanted.insert(id);
  }
  out.converged = w.settle();
  if (!out.converged) return out;

  std::uint64_t data_counter = 0, notice_counter = 0;
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t r = mix(seed, static_cast<std::uint64_t>(op));
    const std::string target =
        DiffWorld::member_id(static_cast<int>((r >> 8) % DiffWorld::kMembers));
    switch (r % 5) {
      case 0: {  // data burst from every in-session member
        for (const std::string& id : std::vector<std::string>(
                 w.wanted.begin(), w.wanted.end())) {
          auto& m = *w.members[id];
          if (m.connected() && m.has_group_key())
            EXPECT_TRUE(
                m.send_data(to_bytes("p" + std::to_string(op) + "#" +
                                     std::to_string(data_counter++)))
                    .ok());
        }
        break;
      }
      case 1:  // manual rekey (the Oops(Kg) response / periodic hygiene)
        w.leader->rekey();
        break;
      case 2: {  // voluntary leave, then come back
        if (w.wanted.size() > 2 && w.wanted.count(target)) {
          auto& m = *w.members[target];
          if (m.connected()) {
            EXPECT_TRUE(m.leave().ok());
            w.wanted.erase(target);
            if (settle_each) w.settle();
            EXPECT_TRUE(m.join().ok());
            w.wanted.insert(target);
          }
        }
        break;
      }
      case 3: {  // expulsion (for cause), auto-rejoin brings them back
        if (w.wanted.size() > 2 && w.wanted.count(target) &&
            w.leader->is_member(target)) {
          EXPECT_TRUE(w.leader->expel(target, "scripted").ok());
          // The expelled member's want_membership_ stays true, so its
          // auto-rejoin policy re-admits it; keep it in `wanted`.
        }
        break;
      }
      default:
        w.leader->broadcast_notice("n" + std::to_string(notice_counter++));
        break;
    }
    if (settle_each) {
      EXPECT_TRUE(w.settle()) << "op " << op << " did not settle";
    } else {
      w.step();
    }
    out.leader_epochs.push_back(w.leader->epoch());
  }
  out.converged = w.settle(8000);
  if (!out.converged && ::getenv("DIFF_DEBUG")) {
    fprintf(stderr, "NOT CONVERGED: leader epoch %llu members %zu wanted %zu queue %zu held %zu\n",
            (unsigned long long)w.leader->epoch(), w.leader->member_count(),
            w.wanted.size(), w.net.queue_size(), w.net.held_size());
    for (auto& [id, m] : w.members)
      fprintf(stderr, "  %s wanted=%d connected=%d leader_has=%d epoch=%llu view=%zu\n",
              id.c_str(), (int)w.wanted.count(id), (int)m->connected(),
              (int)w.leader->is_member(id), (unsigned long long)m->epoch(),
              m->view().size());
  }
  out.seen = w.seen;
  out.final_view = w.leader->members();
  out.final_epoch = w.leader->epoch();
  out.ledger_size = w.ledger.entries().size();
  out.ledger_jsonl = w.ledger.to_jsonl(obs::View::ledger);
  for (const auto& e : w.ledger.entries())
    if (e.kind == obs::EvidenceKind::forged_keytree)
      out.forged_keytree = true;
  return out;
}

void assert_strictly_increasing(const std::vector<std::uint64_t>& xs,
                                const std::string& what) {
  for (std::size_t i = 1; i < xs.size(); ++i)
    ASSERT_LT(xs[i - 1], xs[i]) << what << " regressed at index " << i;
}

// ---------------------------------------------------------------------------
// Phase (a): lossless, 50 seeds — bit-identical observable behaviour.

class KeyTreeDifferentialLossless
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KeyTreeDifferentialLossless, FlatAndTreeAreObservationallyIdentical) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));

  RunResult flat = run_schedule(seed, RekeyAlgo::flat, net::FaultPlan{},
                                /*ops=*/18, /*settle_each=*/true);
  RunResult tree = run_schedule(seed, RekeyAlgo::tree, net::FaultPlan{},
                                /*ops=*/18, /*settle_each=*/true);
  ASSERT_TRUE(flat.converged) << "flat world did not settle";
  ASSERT_TRUE(tree.converged) << "tree world did not settle";

  // The leader's epoch ladder: same schedule, same rekey count, same epoch
  // after every single op.
  EXPECT_EQ(flat.leader_epochs, tree.leader_epochs);
  EXPECT_EQ(flat.final_epoch, tree.final_epoch);
  EXPECT_EQ(flat.final_view, tree.final_view);

  // Per member: bit-identical delivered plaintext streams and identical
  // accepted-epoch ladders.
  for (int i = 0; i < DiffWorld::kMembers; ++i) {
    const std::string id = DiffWorld::member_id(i);
    EXPECT_EQ(flat.seen[id].delivered, tree.seen[id].delivered)
        << id << " delivered a different plaintext stream under the tree";
    EXPECT_EQ(flat.seen[id].epochs, tree.seen[id].epochs)
        << id << " walked a different epoch ladder under the tree";
  }

  // An honest lossless run refuses nothing, in either mode.
  EXPECT_EQ(flat.ledger_size, 0u) << flat.ledger_jsonl;
  EXPECT_EQ(tree.ledger_size, 0u) << tree.ledger_jsonl;
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyTreeDifferentialLossless,
                         ::testing::Range<std::uint64_t>(1, 51));

// ---------------------------------------------------------------------------
// Phase (b): lossy, 50 seeds — per-mode convergence invariants.

net::FaultPlan lossy_plan(std::uint64_t seed) {
  net::FaultPlan plan;
  plan.faults.drop_pct = static_cast<std::uint32_t>((seed * 7) % 21);
  plan.faults.duplicate_pct = static_cast<std::uint32_t>((seed * 3) % 16);
  plan.faults.delay_pct = static_cast<std::uint32_t>((seed * 5) % 21);
  plan.faults.max_delay_steps = 1 + static_cast<std::uint32_t>(seed % 5);
  return plan;
}

class KeyTreeDifferentialLossy
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KeyTreeDifferentialLossy, BothModesConvergeUnderSeededFaults) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));

  for (RekeyAlgo algo : {RekeyAlgo::flat, RekeyAlgo::tree}) {
    const char* mode = algo == RekeyAlgo::tree ? "tree" : "flat";
    SCOPED_TRACE(mode);
    RunResult r = run_schedule(seed, algo, lossy_plan(seed),
                               /*ops=*/14, /*settle_each=*/false);
    ASSERT_TRUE(r.converged) << mode << " world did not converge";
    for (const auto& [id, tr] : r.seen) {
      assert_strictly_increasing(tr.epochs, id + " accepted epochs");
      // Delivered payloads carry a global strictly-increasing counter per
      // burst; per-origin they must arrive in order and without dupes.
      std::map<std::string, std::vector<std::uint64_t>> per_origin;
      for (const auto& [origin, text] : tr.delivered) {
        auto at = text.find('#');
        ASSERT_NE(at, std::string::npos);
        per_origin[origin].push_back(std::stoull(text.substr(at + 1)));
      }
      for (const auto& [origin, seqs] : per_origin)
        assert_strictly_increasing(seqs, id + " data from " + origin);
    }
    // Network faults can replay honest traffic (stale evidence is fine)
    // but can never manufacture a confirmable forged tree update.
    EXPECT_FALSE(r.forged_keytree)
        << mode << ": honest faults produced forged_keytree evidence";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyTreeDifferentialLossy,
                         ::testing::Range<std::uint64_t>(1, 51));

// ---------------------------------------------------------------------------
// Determinism: the tree mode replays bit-identically from a seed, exactly
// like the rest of the chaos stack.

TEST(KeyTreeDifferential, TreeModeReplaysIdenticallyFromSeed) {
  auto run = [](std::uint64_t seed) {
    RunResult r = run_schedule(seed, RekeyAlgo::tree, lossy_plan(seed),
                               /*ops=*/10, /*settle_each=*/false);
    return std::tuple(r.final_epoch, r.leader_epochs,
                      r.seen["m0"].delivered, r.seen["m3"].epochs);
  };
  EXPECT_EQ(run(7), run(7));
}

}  // namespace
}  // namespace enclaves::core
