// The pinned key-tree break classes (docs/KEYTREE.md attack catalog): the
// subgroup-key-hierarchy mistakes cataloged by the PAPERS.md break papers,
// each mounted against the real Leader/Member protocol over SimNetwork and
// each refused with the right SecurityLedger attribution:
//
//   1. sibling-KEK reuse    — a captured sealed entry from an older update
//                             spliced into a newer one (the carrier KEK is
//                             reused across rotations) → forged_keytree;
//   2. stale-path replay    — a pre-expel KEY_TREE_UPDATE replayed after
//                             the expulsion rotated the path → stale_epoch;
//   3. non-leader forgery   — a structurally valid update claiming a
//                             different leader identity → identity_mismatch
//                             (and a garbage body → malformed);
//   4. quarantined member   — an evictee retaining its revoked leaf/path
//                             keys: its recover request is refused at the
//                             leader (bad_label), its replayed data hits
//                             unknown_sender, and data sealed under the
//                             revoked Kg is refused by members
//                             (aead_open_failure) — who then self-heal.
//
// Every attack also asserts the negative space: the victim keeps its
// session (no eviction-by-refusal), stays on the honest epoch, and the next
// honest rotation still applies.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <memory>
#include <string>
#include <vector>

#include "core/keytree.h"
#include "core/leader.h"
#include "core/member.h"
#include "crypto/aead.h"
#include "net/sim_network.h"
#include "obs/metrics.h"
#include "obs/record.h"
#include "util/rng.h"
#include "wire/keytree.h"
#include "wire/payloads.h"
#include "wire/seal.h"

namespace enclaves::core {
namespace {

using obs::EvidenceKind;
using obs::SecurityEvidence;

std::vector<SecurityEvidence> core_entries(const obs::EventStore& ledger) {
  std::vector<SecurityEvidence> out;
  for (const auto& e : ledger.entries())
    if (e.group != "crypto") out.push_back(e);
  return out;
}

// Tree-mode world that also snoops every KEY_TREE_UPDATE broadcast (and
// every GroupData relay) delivered to m0 — the attacker's packet capture.
struct TreeWorld {
  explicit TreeWorld(std::uint64_t seed, int member_count = 4) : rng(seed) {
    LeaderConfig config;
    config.id = "L";
    config.rekey = RekeyPolicy::tree();
    config.keytree_depth = 3;
    leader = std::make_unique<Leader>(config, rng);
    leader->set_send([this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    net.attach("L", [this](const wire::Envelope& e) { leader->handle(e); });
    for (int i = 0; i < member_count; ++i) add("m" + std::to_string(i));
  }

  Member& add(const std::string& id) {
    auto pa = crypto::LongTermKey::random(rng);
    EXPECT_TRUE(leader->register_member(id, pa).ok());
    auto m = std::make_unique<Member>(id, "L", pa, rng);
    m->set_send([this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    auto* raw = m.get();
    net.attach(id, [this, raw, id](const wire::Envelope& e) {
      if (id == "m0") {
        if (e.label == wire::Label::KeyTreeUpdate) captured_updates.push_back(e);
        if (e.label == wire::Label::GroupData) captured_data.push_back(e);
      }
      raw->handle(e);
    });
    members[id] = std::move(m);
    return *raw;
  }

  void join_all() {
    for (auto& [id, m] : members) ASSERT_TRUE(m->join().ok()) << id;
    settle();
    for (auto& [id, m] : members) {
      ASSERT_TRUE(m->connected()) << id;
      ASSERT_EQ(m->epoch(), leader->epoch()) << id;
    }
  }

  void settle(int steps = 64) {
    for (int t = 0; t < steps; ++t) {
      net.run(1u << 14);
      leader->tick();
      for (auto& [id, m] : members) m->tick();
      net.run(1u << 14);
    }
  }

  Member& m(const std::string& id) { return *members.at(id); }

  obs::MetricsRegistry metrics;
  obs::EventStore ledger;
  obs::ScopedMetricsSink metrics_sink{metrics};
  obs::ScopedEventSink ledger_sink{ledger};

  net::SimNetwork net;
  DeterministicRng rng;
  std::unique_ptr<Leader> leader;
  std::map<std::string, std::unique_ptr<Member>> members;
  std::vector<wire::Envelope> captured_updates;
  std::vector<wire::Envelope> captured_data;
};

// --------------------------------------------------------------------------
// 1. Sibling-KEK reuse: splice a captured entry (sealed under a carrier KEK
// that survived across rotations) into a newer update. The chain decrypts —
// the carrier still opens it — but the embedded (node, epoch) binding and
// the confirmation tag expose the reuse. Refused atomically as forged.
TEST(KeyTreeAttacks, SiblingKekReuseSpliceIsForged) {
  TreeWorld w(1);
  w.join_all();
  // Two honest root rotations: same carrier KEKs (the root's children are
  // untouched by a root-only rotation), different epochs — the reuse setup.
  w.leader->rekey();
  w.settle();
  w.leader->rekey();
  w.settle();
  // The leader's anti-entropy plane rebroadcasts the LATEST update, so the
  // capture holds duplicates: select the two epochs by decoding.
  const std::uint64_t honest_epoch = w.m("m0").epoch();
  std::optional<wire::KeyTreeUpdatePayload> old_p, new_p;
  for (const auto& env : w.captured_updates) {
    auto p = wire::decode<wire::KeyTreeUpdatePayload>(env.body);
    ASSERT_TRUE(p.ok());
    if (p->epoch == honest_epoch) new_p = *p;
    if (p->epoch == honest_epoch - 1) old_p = *p;
  }
  ASSERT_TRUE(old_p && new_p);
  w.ledger.clear();

  // Mallory reuses the old sealed entry inside a "fresh" update one epoch
  // ahead (anything <= the member's epoch would be refused as stale before
  // the forgery is even examined).
  wire::KeyTreeUpdatePayload forged = *new_p;
  ASSERT_FALSE(forged.entries.empty());
  ASSERT_FALSE(old_p->entries.empty());
  forged.entries[0] = old_p->entries[0];
  forged.epoch = honest_epoch + 1;
  w.net.inject("m0", wire::Envelope{wire::Label::KeyTreeUpdate, "mallory",
                                    "m0", wire::encode(forged)});
  w.net.run();

  auto core = core_entries(w.ledger);
  ASSERT_EQ(core.size(), 1u);
  EXPECT_EQ(core[0].kind, EvidenceKind::forged_keytree);
  EXPECT_EQ(core[0].agent, "m0");
  EXPECT_EQ(core[0].peer, "mallory");
  EXPECT_EQ(core[0].group, "L");
  EXPECT_EQ(w.ledger.suspicion("mallory"), 1u);
  // Refusal is not eviction: m0 keeps its session and honest epoch, and the
  // next honest rotation still applies.
  EXPECT_TRUE(w.m("m0").connected());
  EXPECT_EQ(w.m("m0").epoch(), honest_epoch);
  w.leader->rekey();
  w.settle();
  EXPECT_EQ(w.m("m0").epoch(), w.leader->epoch());
}

// --------------------------------------------------------------------------
// 2. Stale-path replay after expel: the pre-expulsion update re-offered to
// a surviving member. Epoch freshness refuses it BEFORE any decryption, the
// evidence names the replayer, and the session survives (a broadcast replay
// must never be an eviction lever).
TEST(KeyTreeAttacks, StalePathReplayAfterExpelIsStaleEpoch) {
  TreeWorld w(2);
  w.join_all();
  w.leader->rekey();
  w.settle();
  ASSERT_FALSE(w.captured_updates.empty());
  const wire::Envelope pre_expel = w.captured_updates.back();

  ASSERT_TRUE(w.leader->expel("m3", "compromised").ok());
  w.settle();
  const std::uint64_t honest_epoch = w.m("m0").epoch();
  ASSERT_EQ(honest_epoch, w.leader->epoch());
  w.ledger.clear();

  wire::Envelope replay = pre_expel;
  replay.sender = "mallory";
  w.net.inject("m0", replay);
  w.net.run();

  auto core = core_entries(w.ledger);
  ASSERT_EQ(core.size(), 1u);
  EXPECT_EQ(core[0].kind, EvidenceKind::stale_epoch);
  EXPECT_EQ(core[0].agent, "m0");
  EXPECT_EQ(core[0].peer, "mallory");
  auto old_p = wire::decode<wire::KeyTreeUpdatePayload>(pre_expel.body);
  ASSERT_TRUE(old_p.ok());
  EXPECT_EQ(core[0].value, old_p->epoch);
  EXPECT_TRUE(w.m("m0").connected());
  EXPECT_EQ(w.m("m0").epoch(), honest_epoch);
}

// --------------------------------------------------------------------------
// 3. Forged subtree update from a non-leader: leader-origin is checked
// before any entry is touched.
TEST(KeyTreeAttacks, NonLeaderUpdateIsIdentityMismatch) {
  TreeWorld w(3);
  w.join_all();
  ASSERT_FALSE(w.captured_updates.empty());
  auto p = wire::decode<wire::KeyTreeUpdatePayload>(w.captured_updates.back().body);
  ASSERT_TRUE(p.ok());
  const std::uint64_t honest_epoch = w.m("m0").epoch();
  w.ledger.clear();

  // Structurally honest update re-issued under mallory's own "leadership".
  wire::KeyTreeUpdatePayload forged = *p;
  forged.l = "mallory";
  forged.epoch = honest_epoch + 1;
  w.net.inject("m0", wire::Envelope{wire::Label::KeyTreeUpdate, "mallory",
                                    "m0", wire::encode(forged)});
  // And a garbage-body variant.
  w.net.inject("m0", wire::Envelope{wire::Label::KeyTreeUpdate, "mallory",
                                    "m0", to_bytes("not a payload")});
  w.net.run();

  auto core = core_entries(w.ledger);
  ASSERT_EQ(core.size(), 2u);
  EXPECT_EQ(core[0].kind, EvidenceKind::identity_mismatch);
  EXPECT_EQ(core[0].agent, "m0");
  EXPECT_EQ(core[0].peer, "mallory");
  EXPECT_EQ(core[1].kind, EvidenceKind::malformed);
  EXPECT_EQ(core[1].peer, "mallory");
  EXPECT_EQ(w.ledger.suspicion("mallory"), 2u);
  EXPECT_EQ(w.m("m0").epoch(), honest_epoch);
}

// --------------------------------------------------------------------------
// 4. Quarantined member retaining revoked keys: before the expulsion we
// snapshot everything a dishonest m3 would keep (leaf KEK via the leader's
// diagnostic accessor, the current Kg, a captured data frame). After the
// expulsion every use of that material is refused and attributed.
TEST(KeyTreeAttacks, QuarantinedMemberRevokedKeysAreUseless) {
  TreeWorld w(4);
  w.join_all();
  ASSERT_TRUE(w.m("m1").send_data(to_bytes("pre#1")).ok());
  w.settle();

  // Mallory (= m3, dishonest) hoards her revoked material.
  ASSERT_NE(w.leader->keytree(), nullptr);
  const crypto::GroupKey* leaf = w.leader->keytree()->leaf_kek("m3");
  ASSERT_NE(leaf, nullptr);
  const crypto::GroupKey revoked_leaf = *leaf;
  const crypto::GroupKey revoked_kg = w.leader->group_key();
  ASSERT_FALSE(w.captured_data.empty());
  const wire::Envelope hoarded_frame = w.captured_data.back();

  ASSERT_TRUE(w.leader->expel("m3", "quarantined").ok());
  w.settle();
  const std::uint64_t honest_epoch = w.leader->epoch();
  w.ledger.clear();

  DeterministicRng mallory_rng(999);
  // 4a. KEY_TREE_RECOVER under the revoked leaf KEK: the leader no longer
  // has a leaf for m3 — refused before decryption, attributed to the
  // claimed sender.
  wire::KeyTreeRecoverPayload recover{
      "m3", "L", crypto::ProtocolNonce::random(mallory_rng), honest_epoch};
  w.net.inject("L", wire::make_sealed(crypto::default_aead(),
                                      revoked_leaf.view(), mallory_rng,
                                      wire::Label::KeyTreeRecover, "m3", "L",
                                      wire::encode(recover)));
  w.net.run();
  {
    auto core = core_entries(w.ledger);
    ASSERT_EQ(core.size(), 1u);
    EXPECT_EQ(core[0].kind, EvidenceKind::bad_label);
    EXPECT_EQ(core[0].agent, "L");
    EXPECT_EQ(core[0].peer, "m3");
    EXPECT_EQ(core[0].detail, "keytree recover without a leaf");
  }
  w.ledger.clear();

  // 4b. Replaying a hoarded pre-expel data frame at the leader: the data
  // relay checks membership before anything else, so the frame dies as a
  // relay_reject attributed to the expelled origin.
  wire::Envelope replay = hoarded_frame;
  replay.sender = "m3";  // the relay routes by claimed origin
  w.net.inject("L", replay);
  w.net.run();
  {
    auto core = core_entries(w.ledger);
    ASSERT_EQ(core.size(), 1u);
    EXPECT_EQ(core[0].kind, EvidenceKind::relay_reject);
    EXPECT_EQ(core[0].agent, "L");
    EXPECT_EQ(core[0].peer, "m3");
  }
  w.ledger.clear();

  // 4c. Fresh data sealed under the revoked Kg pushed straight at a member:
  // the expulsion rotated m3's path, so the revoked root (and thus Kg) is
  // dead — the frame does not open, the member ledgers it and self-heals
  // (the failed open doubles as the missed-broadcast symptom, so it asks
  // the leader for its path; with the honest epoch already installed the
  // answer is a harmless refresh).
  wire::GroupDataPayload stale_body{"m3", honest_epoch, 99,
                                    to_bytes("quarantine escape")};
  w.net.inject("m0", wire::make_sealed(crypto::default_aead(),
                                       revoked_kg.view(), mallory_rng,
                                       wire::Label::GroupData, "m3",
                                       wire::kGroupRecipient,
                                       wire::encode(stale_body)));
  w.net.run();
  {
    auto core = core_entries(w.ledger);
    ASSERT_GE(core.size(), 1u);
    EXPECT_EQ(core[0].kind, EvidenceKind::aead_open_failure);
    EXPECT_EQ(core[0].agent, "m0");
    EXPECT_EQ(core[0].peer, "m3");
  }

  // The group is unharmed: everyone still converges and chats.
  w.settle();
  for (const std::string id : {"m0", "m1", "m2"}) {
    EXPECT_TRUE(w.m(id).connected()) << id;
    EXPECT_EQ(w.m(id).epoch(), w.leader->epoch()) << id;
  }
  ASSERT_TRUE(w.m("m0").send_data(to_bytes("post#2")).ok());
  w.settle();
}

}  // namespace
}  // namespace enclaves::core
