// KeyTree / KeyTreeView unit mechanics (PROTOCOL.md §13): the LKH key
// schedule, the O(log N) rotation shape, and the member-side apply rules
// (atomic install, stale/forged/unreachable refusal, path recovery) —
// exercised directly on the classes, below the Leader/Member protocol glue.
#include <gtest/gtest.h>
#include <openssl/evp.h>
#include <openssl/hmac.h>
#include <openssl/kdf.h>

#include <map>
#include <set>
#include <string>

#include "core/keytree.h"
#include "crypto/aead.h"
#include "util/rng.h"
#include "wire/keytree.h"

namespace enclaves::core {
namespace {

TEST(KeyTreeSchedule, LeafKekIsDeterministicAndPairwise) {
  DeterministicRng rng(1);
  auto ka = crypto::SessionKey::random(rng);
  auto kb = crypto::SessionKey::random(rng);
  EXPECT_EQ(derive_leaf_kek(ka, "alice"), derive_leaf_kek(ka, "alice"));
  EXPECT_NE(derive_leaf_kek(ka, "alice"), derive_leaf_kek(ka, "bob"));
  EXPECT_NE(derive_leaf_kek(ka, "alice"), derive_leaf_kek(kb, "alice"));
}

TEST(KeyTreeSchedule, GroupKeyBindsEpochToRoot) {
  DeterministicRng rng(2);
  auto root = crypto::GroupKey::random(rng);
  auto other = crypto::GroupKey::random(rng);
  EXPECT_EQ(derive_group_key(root, 7), derive_group_key(root, 7));
  EXPECT_NE(derive_group_key(root, 7), derive_group_key(root, 8));
  EXPECT_NE(derive_group_key(root, 7), derive_group_key(other, 7));
}

// Known answers from OpenSSL, with the salts and contexts spelled out here:
// a cached keyed extractor (or any other shortcut) that changed a key
// would fail these, not just the determinism checks above.
Bytes openssl_hkdf(std::string_view salt, BytesView ikm, BytesView info) {
  Bytes out(crypto::kKeyBytes);
  std::size_t out_len = out.size();
  EVP_PKEY_CTX* ctx = EVP_PKEY_CTX_new_id(EVP_PKEY_HKDF, nullptr);
  const bool ok =
      ctx && EVP_PKEY_derive_init(ctx) == 1 &&
      EVP_PKEY_CTX_set_hkdf_md(ctx, EVP_sha256()) == 1 &&
      EVP_PKEY_CTX_set1_hkdf_salt(
          ctx, reinterpret_cast<const unsigned char*>(salt.data()),
          static_cast<int>(salt.size())) == 1 &&
      EVP_PKEY_CTX_set1_hkdf_key(ctx, ikm.data(),
                                 static_cast<int>(ikm.size())) == 1 &&
      EVP_PKEY_CTX_add1_hkdf_info(ctx, info.data(),
                                  static_cast<int>(info.size())) == 1 &&
      EVP_PKEY_derive(ctx, out.data(), &out_len) == 1;
  EVP_PKEY_CTX_free(ctx);
  EXPECT_TRUE(ok);
  return out;
}

Bytes be64(std::uint64_t v) {
  Bytes b(8);
  for (int i = 7; i >= 0; --i, v >>= 8)
    b[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v);
  return b;
}

TEST(KeyTreeSchedule, LeafKekMatchesOpenSslHkdf) {
  DeterministicRng rng(3);
  for (const char* id : {"alice", "bob", ""}) {
    auto ka = crypto::SessionKey::random(rng);
    EXPECT_EQ(derive_leaf_kek(ka, id).to_bytes(),
              openssl_hkdf("enclaves keytree leaf v1", ka.view(), to_bytes(id)))
        << "member '" << id << "'";
  }
}

TEST(KeyTreeSchedule, GroupKeyMatchesOpenSslHkdf) {
  DeterministicRng rng(4);
  for (std::uint64_t epoch : {0ull, 1ull, 7ull, 0x0102030405060708ull}) {
    auto root = crypto::GroupKey::random(rng);
    EXPECT_EQ(derive_group_key(root, epoch).to_bytes(),
              openssl_hkdf("enclaves keytree kg v1", root.view(), be64(epoch)))
        << "epoch " << epoch;
  }
}

TEST(KeyTreeSchedule, ConfirmTagMatchesOpenSslHmac) {
  DeterministicRng rng(5);
  for (std::uint64_t epoch : {1ull, 42ull}) {
    auto kg = crypto::GroupKey::random(rng);
    Bytes data = concat({to_bytes("enclaves keytree confirm v1"), be64(epoch)});
    std::uint8_t ref[EVP_MAX_MD_SIZE];
    unsigned int ref_len = 0;
    ASSERT_NE(nullptr, HMAC(EVP_sha256(), kg.view().data(),
                            static_cast<int>(kg.view().size()), data.data(),
                            data.size(), ref, &ref_len));
    auto tag = keytree_confirm_tag(kg, epoch);
    EXPECT_EQ(Bytes(tag.begin(), tag.end()), Bytes(ref, ref + ref_len))
        << "epoch " << epoch;
  }
}

// Leader tree + member views wired together without any network: the
// smallest world in which the broadcast/apply contract can be checked.
struct TreeWorld {
  DeterministicRng rng{42};
  const crypto::Aead& aead = crypto::default_aead();
  KeyTree tree{"L", aead, rng, /*depth=*/3};  // 8 leaves
  std::map<std::string, crypto::SessionKey> ka;
  std::map<std::string, KeyTreeView> view;
  std::map<std::string, std::uint64_t> member_epoch;
  std::uint64_t epoch = 0;

  // Grafts a member and returns the join rotation broadcast.
  wire::KeyTreeUpdatePayload add(const std::string& id) {
    ka.emplace(id, crypto::SessionKey::random(rng));
    const std::uint32_t leaf = tree.assign(id, derive_leaf_kek(ka.at(id), id));
    view[id].assign(leaf, ka.at(id), id);
    return tree.rotate_join(id, ++epoch);
  }

  // Fans a broadcast out to every assigned view; every current member must
  // land on the same Kg as the leader.
  void apply_all(const wire::KeyTreeUpdatePayload& p,
                 const std::set<std::string>& expect_applied) {
    for (auto& [id, v] : view) {
      if (!v.assigned()) continue;
      auto r = v.apply_update(aead, p, member_epoch[id]);
      if (expect_applied.count(id)) {
        ASSERT_EQ(r.outcome, KeyTreeView::Outcome::applied) << id;
        EXPECT_EQ(r.kg, tree.group_key(p.epoch)) << id;
        member_epoch[id] = r.epoch;
      } else {
        EXPECT_NE(r.outcome, KeyTreeView::Outcome::applied) << id;
      }
    }
  }
};

TEST(KeyTree, JoinRotationReachesEveryMember) {
  TreeWorld w;
  std::set<std::string> in;
  for (const std::string id : {"a", "b", "c", "d", "e"}) {
    auto update = w.add(id);
    EXPECT_EQ(update.reason, wire::KeyTreeReason::join);
    in.insert(id);
    w.apply_all(update, in);
  }
  EXPECT_EQ(w.tree.leaf_count(), 5u);
}

TEST(KeyTree, RotationIsLogarithmicNotLinear) {
  // depth-3 tree: a join/leave rotation touches at most `depth` nodes, each
  // shipping at most 2 sealed entries (one per child carrier) plus the
  // joiner's leaf-carried copies — far below one entry per member, which is
  // what the flat path pays.
  TreeWorld w;
  for (const std::string id : {"a", "b", "c", "d", "e", "f", "g", "h"})
    w.add(id);
  auto update = w.tree.rotate_join("h", ++w.epoch);
  EXPECT_LE(update.entries.size(), 2u * w.tree.depth());
  auto manual = w.tree.rotate_root(++w.epoch);
  EXPECT_LE(manual.entries.size(), 2u);  // root: two child carriers
  EXPECT_EQ(manual.reason, wire::KeyTreeReason::manual);
}

TEST(KeyTree, LeaveRotationLocksOutThePrunedLeaf) {
  TreeWorld w;
  std::set<std::string> in;
  for (const std::string id : {"a", "b", "c"}) {
    auto up = w.add(id);
    in.insert(id);
    w.apply_all(up, in);  // earlier members ride the joiner's rotation too
  }
  // Everyone catches up first.
  w.apply_all(w.tree.rotate_root(++w.epoch), in);

  auto update = w.tree.rotate_leave("b", ++w.epoch);
  EXPECT_EQ(update.reason, wire::KeyTreeReason::leave);
  EXPECT_FALSE(w.tree.has_member("b"));
  // b's old path KEKs were all rotated away from it: the update is
  // unreachable from b's view (no entry is carried by a KEK b still holds
  // that leads to the new root).
  in.erase("b");
  w.apply_all(update, in);
  auto r = w.view["b"].apply_update(w.aead, update, w.member_epoch["b"]);
  EXPECT_EQ(r.outcome, KeyTreeView::Outcome::unreachable);
}

TEST(KeyTree, StaleUpdateRefusedWithoutStateChange) {
  TreeWorld w;
  auto first = w.add("a");
  auto& v = w.view["a"];
  ASSERT_EQ(v.apply_update(w.aead, first, 0).outcome,
            KeyTreeView::Outcome::applied);
  // Replay of the exact same epoch: stale, nothing changes.
  auto replay = v.apply_update(w.aead, first, first.epoch);
  EXPECT_EQ(replay.outcome, KeyTreeView::Outcome::stale);
  // A later rotation still applies on top.
  auto next = w.tree.rotate_root(++w.epoch);
  EXPECT_EQ(v.apply_update(w.aead, next, first.epoch).outcome,
            KeyTreeView::Outcome::applied);
}

TEST(KeyTree, SplicedEntryFailsConfirmationAtomically) {
  TreeWorld w;
  w.apply_all(w.add("a"), {"a"});
  w.apply_all(w.add("b"), {"a", "b"});

  auto honest = w.tree.rotate_root(++w.epoch);
  // Mallory (who holds some subtree KEK) replaces one sealed entry with a
  // same-shape blob from a different update: the chain may still decrypt
  // for some members, but the confirmation tag was minted under the honest
  // new Kg, so the spliced set is refused as forged — never half-installed.
  auto spliced = honest;
  ASSERT_FALSE(spliced.entries.empty());
  auto other = w.tree.rotate_root(++w.epoch);
  spliced.entries[0] = other.entries[0];
  spliced.epoch = other.epoch;  // keep freshness plausible

  auto before_epoch = w.member_epoch["a"];
  auto r = w.view["a"].apply_update(w.aead, spliced, before_epoch);
  EXPECT_NE(r.outcome, KeyTreeView::Outcome::applied);
  // The honest successor (at the same target epoch) still applies: the view
  // kept its pre-attack path intact.
  EXPECT_EQ(w.view["a"].apply_update(w.aead, other, before_epoch).outcome,
            KeyTreeView::Outcome::applied);
}

TEST(KeyTree, TamperedConfirmTagIsForged) {
  TreeWorld w;
  w.apply_all(w.add("a"), {"a"});
  auto update = w.tree.rotate_root(++w.epoch);
  update.confirm[0] ^= 0x01;
  EXPECT_EQ(w.view["a"].apply_update(w.aead, update, 1).outcome,
            KeyTreeView::Outcome::forged);
}

TEST(KeyTree, MissedUpdateIsUnreachableAndPathRecoveryHeals) {
  TreeWorld w;
  std::set<std::string> in;
  for (const std::string id : {"a", "b"}) {
    auto up = w.add(id);
    in.insert(id);
    w.apply_all(up, in);
  }
  w.apply_all(w.tree.rotate_root(++w.epoch), in);

  // a misses one rotation that touches its own path (a and b share inner
  // ancestors, so b's join-path rotation re-keys nodes a also holds)...
  auto missed = w.tree.rotate_join("b", ++w.epoch);
  ASSERT_EQ(w.view["b"].apply_update(w.aead, missed, w.member_epoch["b"])
                .outcome,
            KeyTreeView::Outcome::applied);
  // ...so the next one no longer decrypts from a's stale path.
  auto next = w.tree.rotate_root(++w.epoch);
  auto r = w.view["a"].apply_update(w.aead, next, w.member_epoch["a"]);
  EXPECT_EQ(r.outcome, KeyTreeView::Outcome::unreachable);

  // KEY_TREE_RECOVER/KEY_TREE_PATH: the solicited path answer heals a.
  DeterministicRng nrng(7);
  auto nr = crypto::ProtocolNonce::random(nrng);
  auto path = w.tree.path_for("a", w.epoch, nr);
  auto healed = w.view["a"].apply_path(path, w.member_epoch["a"], nr);
  ASSERT_EQ(healed.outcome, KeyTreeView::Outcome::applied);
  EXPECT_EQ(healed.kg, w.tree.group_key(w.epoch));
  // And the broadcast channel works again afterwards.
  w.apply_all(w.tree.rotate_root(++w.epoch), in);
}

TEST(KeyTree, SolicitedPathMayRewindUnsolicitedMayNot) {
  TreeWorld w;
  w.apply_all(w.add("a"), {"a"});
  w.apply_all(w.tree.rotate_root(++w.epoch), {"a"});
  const std::uint64_t honest = w.epoch;

  // The member was desynced forward (it believes epoch 1000). An
  // unsolicited path at the honest epoch must NOT regress it...
  auto unsolicited = w.tree.path_for("a", honest, crypto::ProtocolNonce{});
  EXPECT_EQ(w.view["a"].apply_path(unsolicited, 1000, std::nullopt).outcome,
            KeyTreeView::Outcome::stale);
  // ...but the solicited answer (nonce echoed) is authoritative at any
  // epoch: it is the rollback that heals a forged-forward-epoch desync.
  DeterministicRng nrng(9);
  auto nr = crypto::ProtocolNonce::random(nrng);
  auto solicited = w.tree.path_for("a", honest, nr);
  auto r = w.view["a"].apply_path(solicited, 1000, nr);
  ASSERT_EQ(r.outcome, KeyTreeView::Outcome::applied);
  EXPECT_EQ(r.epoch, honest);
}

TEST(KeyTree, TamperedPathIsForged) {
  TreeWorld w;
  w.apply_all(w.add("a"), {"a"});
  DeterministicRng nrng(11);
  auto nr = crypto::ProtocolNonce::random(nrng);
  auto path = w.tree.path_for("a", w.epoch, nr);
  ASSERT_FALSE(path.path.empty());
  DeterministicRng krng(12);
  path.path[0].kek = crypto::GroupKey::random(krng);
  EXPECT_EQ(w.view["a"].apply_path(path, 0, nr).outcome,
            KeyTreeView::Outcome::forged);
}

TEST(KeyTree, GrowRebuildPreservesMembership) {
  DeterministicRng rng(5);
  const crypto::Aead& aead = crypto::default_aead();
  KeyTree tree("L", aead, rng, /*depth=*/1);  // 2 leaves
  std::map<std::string, crypto::SessionKey> ka;
  std::map<std::string, KeyTreeView> view;
  std::uint64_t epoch = 0;
  for (const std::string id : {"a", "b"}) {
    ka.emplace(id, crypto::SessionKey::random(rng));
    const auto leaf = tree.assign(id, derive_leaf_kek(ka.at(id), id));
    view[id].assign(leaf, ka.at(id), id);
    auto up = tree.rotate_join(id, ++epoch);
    for (auto& [vid, v] : view)
      if (v.assigned()) v.apply_update(aead, up, epoch - 1);
  }
  ASSERT_TRUE(tree.full());

  tree.grow();
  EXPECT_EQ(tree.depth(), 2u);
  EXPECT_FALSE(tree.full());
  // Leaf KEKs survive growth; indices are re-dealt, so views re-assign
  // (the Leader ships this as a KeyTreeAssign admin message).
  for (const std::string id : {"a", "b"})
    view[id].assign(tree.leaf_of(id), ka.at(id), id);
  auto rebuild = tree.rebuild(++epoch);
  EXPECT_EQ(rebuild.reason, wire::KeyTreeReason::rebuild);
  for (const std::string id : {"a", "b"}) {
    auto r = view[id].apply_update(aead, rebuild, epoch - 1);
    ASSERT_EQ(r.outcome, KeyTreeView::Outcome::applied) << id;
    EXPECT_EQ(r.kg, tree.group_key(epoch));
  }
  // Room for a third member now.
  ka.emplace("c", crypto::SessionKey::random(rng));
  const auto leaf = tree.assign("c", derive_leaf_kek(ka.at("c"), "c"));
  view["c"].assign(leaf, ka.at("c"), "c");
  auto up = tree.rotate_join("c", ++epoch);
  for (const std::string id : {"a", "b", "c"})
    EXPECT_EQ(view[id].apply_update(aead, up, epoch - 1).outcome,
              KeyTreeView::Outcome::applied)
        << id;
}

TEST(KeyTree, SnapshotSlotsRestoreAsHints) {
  DeterministicRng rng(6);
  const crypto::Aead& aead = crypto::default_aead();
  KeyTree tree("L", aead, rng, /*depth=*/3);
  std::map<std::string, crypto::SessionKey> ka;
  for (const std::string id : {"a", "b", "c"}) {
    ka.emplace(id, crypto::SessionKey::random(rng));
    tree.assign(id, derive_leaf_kek(ka.at(id), id));
  }
  const auto slots = tree.slots();

  // A restarted leader re-assigns with the persisted slots as hints: every
  // member gets its old subtree back, so rejoin churn stays local.
  KeyTree restored("L", aead, rng, /*depth=*/3);
  for (const auto& [id, leaf] : slots)
    EXPECT_EQ(restored.assign(id, derive_leaf_kek(ka.at(id), id), leaf), leaf)
        << id;
}

// A joiner with no hint skips leaves still hinted to members that have not
// rejoined, so a survivor seated later still finds its old leaf free.
TEST(KeyTree, UnhintedJoinerSkipsReservedLeaves) {
  DeterministicRng rng(8);
  const crypto::Aead& aead = crypto::default_aead();
  KeyTree tree("L", aead, rng, /*depth=*/2);  // leaves 4..7
  auto kek = [&rng] { return crypto::GroupKey::random(rng); };
  const std::set<std::uint32_t> reserved = {4, 6};
  EXPECT_EQ(tree.assign("newcomer", kek(), 0, reserved), 5u);
  EXPECT_EQ(tree.assign("survivor", kek(), 4, {6}), 4u);
  EXPECT_EQ(tree.assign("late", kek(), 0, {6}), 7u);
}

// Only when every free leaf is reserved does the joiner take the first
// free one (the tree never refuses a seat it has room for).
TEST(KeyTree, AllFreeLeavesReservedFallsBackToFirstFree) {
  DeterministicRng rng(9);
  const crypto::Aead& aead = crypto::default_aead();
  KeyTree tree("L", aead, rng, /*depth=*/2);  // leaves 4..7
  auto kek = [&rng] { return crypto::GroupKey::random(rng); };
  EXPECT_EQ(tree.assign("a", kek(), 0, {}), 4u);
  EXPECT_EQ(tree.assign("b", kek(), 0, {5, 6, 7}), 5u);
  EXPECT_EQ(tree.assign("c", kek(), 0, {4, 5, 6, 7}), 6u);
}

}  // namespace
}  // namespace enclaves::core
