// ChaosMigration: a seeded sweep of live migrations under message drops,
// duplicates, and delays, finished off with a resurrected source leader,
// once per configuration in {flat, tree} rekey x {parole off, on}.
// Every seed must converge — all members re-authenticated at the real
// owner, the data plane intact with no plaintext divergence — while the
// zombie's stale ownership claims are refused with exact ledger
// attribution, and nothing sealed in the pre-migration era ever
// authenticates at the new shard. When the group moves, the target's
// snapshot at commit is the source's frozen one (epoch raised by the
// fence), and in tree mode every member rejoins at its old leaf. A failing
// seed replays deterministically from (plan, seed, mode).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "core/member.h"
#include "fed/federation.h"
#include "net/fault.h"
#include "net/sim_network.h"
#include "obs/metrics.h"
#include "obs/record.h"
#include "util/rng.h"

namespace enclaves::fed {
namespace {

using core::DataReceived;
using core::GroupEvent;
using core::Member;

constexpr int kMembers = 3;

// The group's leader configuration: rekey algorithm and parole window.
struct Mode {
  bool tree = false;
  std::uint64_t parole_epochs = 0;

  std::string name() const {
    return std::string(tree ? "tree" : "flat") + "/parole=" +
           std::to_string(parole_epochs);
  }
};

// The parole window exceeds MigratorConfig::epoch_fence_jump (1000): a
// smaller one quarantines every migrated parole on arrival (FedNodeConfig),
// and the parole half of the check would test nothing.
constexpr Mode kModes[] = {{false, 0}, {false, 2000}, {true, 0}, {true, 2000}};

net::FaultPlan plan_for_seed(std::uint64_t seed) {
  net::FaultPlan plan;
  plan.faults.drop_pct = 4 + seed % 11;            // 4..14%
  plan.faults.duplicate_pct = 2 + (seed / 11) % 8;  // 2..9%
  plan.faults.delay_pct = 2 + (seed / 88) % 7;      // 2..8%
  plan.faults.max_delay_steps = 4 + seed % 5;
  return plan;
}

struct MigrationChaosWorld {
  MigrationChaosWorld(std::uint64_t seed, net::FaultPlan plan, Mode mode)
      : mode(mode),
        rng(seed),
        injector(std::move(plan), seed ^ 0x51ED),
        fed_key(crypto::LongTermKey::random(rng)),
        shards({"s1", "s2", "s3"}) {
    net.set_tap(injector.tap());
    for (const auto& s : shards) add_node(s);
  }

  FedNode& add_node(const std::string& s) {
    FedNodeConfig cfg;
    cfg.shard_id = s;
    cfg.fed_key = fed_key;
    cfg.rekey = mode.tree ? core::RekeyPolicy::tree()
                          : core::RekeyPolicy::strict();
    cfg.parole_epochs = mode.parole_epochs;
    auto owned = std::make_unique<FedNode>(std::move(cfg), rng);
    FedNode* n = owned.get();
    n->set_send([this](const std::string& to, wire::Envelope e) {
      // The first commit leaves the source right after its handover, before
      // any member can reach the target: the target's state is still
      // exactly what it adopted.
      if (e.label == wire::Label::FedMigrateCommit && !at_commit)
        if (core::Leader* l = nodes.at(to)->host().group(group))
          at_commit = l->snapshot();
      net.send(to, std::move(e));
    });
    for (const auto& other : shards) n->add_shard(other);
    net.attach(s, [n, s](const wire::Envelope& e) { n->handle(s, e); });
    if (!group.empty()) {
      const std::string addr = s + "/" + group;
      net.attach(addr,
                 [n, addr](const wire::Envelope& e) { n->handle(addr, e); });
    }
    nodes[s] = std::move(owned);
    return *n;
  }

  FedNode& node(const std::string& s) { return *nodes.at(s); }

  void create_group() {
    for (int i = 0;; ++i) {
      const std::string g = "grp" + std::to_string(i);
      if (nodes.begin()->second->placement(g) == "s1") {
        group = g;
        break;
      }
    }
    ASSERT_TRUE(node("s1").create_group(group).ok());
    for (auto& [s, n] : nodes) {
      const std::string addr = s + "/" + group;
      FedNode* raw = n.get();
      net.attach(addr,
                 [raw, addr](const wire::Envelope& e) { raw->handle(addr, e); });
    }
  }

  static std::string member_id(int i) { return "m" + std::to_string(i); }

  void enroll_members() {
    core::Leader* leader = node("s1").host().group(group);
    ASSERT_NE(leader, nullptr);
    for (int i = 0; i < kMembers; ++i) {
      const std::string id = member_id(i);
      auto pa = crypto::LongTermKey::random(rng);
      ASSERT_TRUE(leader->register_member(id, pa).ok());
      auto m = std::make_unique<Member>(id, "s1/" + group, pa, rng);
      m->set_send([this](const std::string& to, wire::Envelope e) {
        if (e.label == wire::Label::GroupData && !old_era_seal)
          old_era_seal = e;
        net.send(to, std::move(e));
      });
      m->set_retry_policy(core::RetryPolicy::exponential(1, 8, /*jitter=*/2));
      m->set_suspect_after(25);
      m->enable_auto_rejoin(core::RetryPolicy::every_tick());
      // Capture the map, not a node pointer: the test clears inbox between
      // phases, which would dangle any cached &inbox[id].
      m->set_event_handler([this, id](const GroupEvent& ev) {
        if (const auto* d = std::get_if<DataReceived>(&ev))
          inbox[id].push_back(d->origin + ":" + to_string(d->payload));
      });
      Member* raw = m.get();
      net.attach(id, [raw](const wire::Envelope& e) { raw->handle(e); });
      members[id] = std::move(m);
      (void)raw->join();
    }
  }

  /// The one node whose host holds the group; null when zero-or-several do.
  FedNode* sole_owner() {
    FedNode* owner = nullptr;
    for (auto& [s, n] : nodes) {
      if (!n->owns(group)) continue;
      if (owner) return nullptr;
      owner = n.get();
    }
    return owner;
  }

  bool converged() {
    FedNode* owner = sole_owner();
    if (!owner) return false;
    core::Leader* leader = owner->host().group(group);
    for (auto& [id, m] : members)
      if (!m->connected() || !leader->is_member(id)) return false;
    return true;
  }

  void step() {
    // Heartbeats keep a quiet-but-alive leader from tripping suspicion; a
    // frozen or dead one goes silent and the members re-route themselves.
    if (step_count % 8 == 0)
      for (auto& [s, n] : nodes)
        if (auto* l = n->host().group(group)) l->probe_liveness();
    net.run();
    for (auto& [s, n] : nodes) n->tick();
    for (auto& [id, m] : members) m->tick();
    net.run();
    ++step_count;
  }

  bool settle(int max_steps = 400) {
    for (int i = 0; i < max_steps; ++i) {
      step();
      if (converged()) {
        // A few extra steps so in-flight commits/dir-syncs drain too.
        for (int j = 0; j < 8; ++j) step();
        return converged();
      }
    }
    return false;
  }

  Mode mode;
  net::SimNetwork net;
  DeterministicRng rng;
  net::FaultInjector injector;
  crypto::LongTermKey fed_key;
  std::vector<std::string> shards;
  std::string group;
  std::map<std::string, std::unique_ptr<FedNode>> nodes;
  std::map<std::string, std::unique_ptr<Member>> members;
  std::map<std::string, std::vector<std::string>> inbox;
  std::optional<wire::Envelope> old_era_seal;  // first pre-migration seal
  std::optional<core::LeaderSnapshot> at_commit;  // the target's, see add_node
  std::uint64_t step_count = 0;
};

// One migration lifecycle under `mode`; fatal failures return early.
void run_migration(std::uint64_t seed, Mode mode) {
  obs::MetricsRegistry metrics;
  obs::ScopedMetricsSink msink(metrics);
  obs::EventStore ledger;
  obs::ScopedEventSink lguard(ledger);

  MigrationChaosWorld w(seed, plan_for_seed(seed), mode);
  w.create_group();
  if (::testing::Test::HasFatalFailure()) return;
  w.enroll_members();
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_TRUE(w.settle()) << "initial joins never converged";

  // One data round under the source shard, so an old-era sealed envelope
  // exists to replay later.
  ASSERT_TRUE(
      w.members["m0"]->send_data(to_bytes("era1#" + std::to_string(seed)))
          .ok());
  for (int i = 0; i < 6; ++i) w.step();
  ASSERT_TRUE(w.old_era_seal.has_value());

  // With parole on, the last member is cut off and expelled as stalled, so
  // the frozen snapshot carries its parole record; it heals right after.
  const std::string silent = MigrationChaosWorld::member_id(kMembers - 1);
  core::Leader* source = w.node("s1").host().group(w.group);
  if (mode.parole_epochs > 0) {
    w.injector.partition({silent});
    ASSERT_TRUE(source->expel(silent, "stalled").ok());
    ASSERT_TRUE(source->on_parole(silent));
  }

  // Migrate under fire. Drops may abort the offer (the group then stays on
  // s1) — both outcomes must converge to ONE owner serving every member.
  // migrate_out freezes the group, so this is the snapshot it ships.
  const core::LeaderSnapshot frozen = source->snapshot();
  EXPECT_EQ(frozen.keytree_slots.size(),
            mode.tree ? static_cast<std::size_t>(kMembers) -
                            (mode.parole_epochs > 0 ? 1 : 0)
                      : 0u);
  EXPECT_EQ(frozen.parole.size(), mode.parole_epochs > 0 ? 1u : 0u);
  ASSERT_TRUE(w.node("s1").migrate_out(w.group, "s2").ok());
  if (mode.parole_epochs > 0) w.injector.heal();
  ASSERT_TRUE(w.settle()) << "post-migration convergence failed";

  // Heal the network for the deterministic endgame.
  w.net.set_tap(net::Tap{});
  ASSERT_TRUE(w.settle(100)) << "post-heal convergence failed";
  FedNode* owner = w.sole_owner();
  ASSERT_NE(owner, nullptr);
  const bool migrated = owner->shard_id() == "s2";
  EXPECT_TRUE(migrated || owner->shard_id() == "s1");

  // The snapshot differential: what the target held at commit is what the
  // source froze, above the fence; tree-mode members keep their leaves.
  if (migrated) {
    ASSERT_TRUE(w.at_commit.has_value()) << "migrated without a commit";
    core::LeaderSnapshot expected = frozen;
    expected.epoch += MigratorConfig{}.epoch_fence_jump;
    EXPECT_EQ(*w.at_commit, expected)
        << "target state diverged from the frozen source snapshot";
    const core::KeyTree* tree = owner->host().group(w.group)->keytree();
    ASSERT_EQ(tree != nullptr, mode.tree);
    for (const auto& [id, leaf] : frozen.keytree_slots)
      EXPECT_EQ(tree->leaf_of(id), leaf) << id << " lost its leaf";
  }

  // Resurrection: a zombie s1 with its pre-migration worldview re-creates
  // the group and re-offers it. Only meaningful when the group actually
  // left s1 — otherwise s1 legitimately owns it and there is no zombie.
  if (migrated) {
    FedNode& zombie = w.add_node("s1");
    ASSERT_TRUE(zombie.create_group(w.group).ok());
    ASSERT_TRUE(zombie.migrate_out(w.group, "s2").ok());
    for (int i = 0; i < 30; ++i) w.step();

    // The stale offer was refused; ownership and directory never moved.
    EXPECT_TRUE(w.node("s2").owns(w.group));
    EXPECT_EQ(w.node("s2").owner(w.group), "s2");
    EXPECT_EQ(zombie.migrator().completed(), 0u);
    EXPECT_EQ(zombie.migrator().inflight(), 0u);
    EXPECT_GE(metrics.counter("fed", "s2", "migrations_refused_total"), 1u);
    bool offer_fenced = false;
    for (const auto& ev : ledger.entries())
      if (ev.kind == obs::EvidenceKind::fenced_migration &&
          ev.agent == "s2" && ev.peer == "s1")
        offer_fenced = true;
    EXPECT_TRUE(offer_fenced) << "stale offer left no ledger attribution";
  }

  // Zero cross-shard seal acceptance: the old-era envelope replayed at the
  // current owner is refused and relays nothing.
  core::Leader* leader = owner->host().group(w.group);
  const std::uint64_t relayed_before = leader->relayed_count();
  w.inbox.clear();
  w.net.send(owner->shard_id() + "/" + w.group, *w.old_era_seal);
  w.net.run();
  for (int i = 0; i < 4; ++i) w.step();
  if (migrated) {
    EXPECT_EQ(leader->relayed_count(), relayed_before);
  }
  for (const auto& [id, box] : w.inbox)
    EXPECT_TRUE(box.empty()) << id << " surfaced a replayed old-era payload";

  // No plaintext divergence: a final round reaches every other member
  // exactly once, byte-identical.
  w.inbox.clear();
  const std::string final_payload = "final#" + std::to_string(seed);
  ASSERT_TRUE(w.members["m0"]->send_data(to_bytes(final_payload)).ok());
  for (int i = 0; i < 6; ++i) w.step();
  for (int i = 1; i < kMembers; ++i)
    EXPECT_EQ(w.inbox[MigrationChaosWorld::member_id(i)],
              std::vector<std::string>{"m0:" + final_payload});

  // Empty-or-attributed ledger: redirect evidence is deliberately
  // unattributed (routine aftermath of a migration); every fencing entry
  // names the zombie shard; everything else names its envelope origin.
  // The raw crypto plane (group "crypto") is exempt — a cipher has no
  // envelope to attribute; the protocol layer above it records its own
  // attributed entry for the same refusal.
  for (const auto& ev : ledger.entries()) {
    if (ev.group == "crypto") continue;
    if (ev.kind == obs::EvidenceKind::wrong_shard) {
      EXPECT_TRUE(ev.peer.empty());
    } else if (ev.kind == obs::EvidenceKind::fenced_migration) {
      EXPECT_EQ(ev.peer, "s1");
    } else {
      EXPECT_FALSE(ev.peer.empty())
          << evidence_kind_name(ev.kind) << " entry lost its attribution";
    }
  }
}

class ChaosMigration : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosMigration, ConvergesAndFencesTheResurrectedSource) {
  const std::uint64_t seed = GetParam();
  for (const Mode& mode : kModes) {
    SCOPED_TRACE("seed=" + std::to_string(seed) + " mode=" + mode.name());
    run_migration(seed, mode);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChaosMigration,
                         ::testing::Range<std::uint64_t>(1, 51));

}  // namespace
}  // namespace enclaves::fed
