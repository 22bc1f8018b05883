// KeyTree / KeyTreeView unit mechanics (PROTOCOL.md §13): the LKH key
// schedule, the O(log N) rotation shape, and the member-side apply rules
// (atomic install, stale/forged/unreachable refusal, path recovery) —
// exercised directly on the classes, below the Leader/Member protocol glue.
#include <gtest/gtest.h>
#include <openssl/evp.h>
#include <openssl/hmac.h>
#include <openssl/kdf.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/keytree.h"
#include "crypto/aead.h"
#include "crypto/ct.h"
#include "tests/alloc_hook.h"
#include "util/rng.h"
#include "wire/keytree.h"
#include "wire/seal.h"

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

// The whole-path tag of a KEY_TREE_PATH answer, recomputed with OpenSSL
// over context || be64(epoch) || be64(leaf) || (be64(node) || be64(epoch)
// || kek) for each entry, leaf parent first.
TEST(KeyTreeSchedule, PathTagMatchesOpenSslHmac) {
  DeterministicRng rng(6);
  const crypto::Aead& aead = crypto::default_aead();
  KeyTree tree("L", aead, rng, /*depth=*/4);
  for (const std::string id : {"a", "b", "c"})
    tree.assign(id, crypto::GroupKey::random(rng));
  (void)tree.rebuild(5);
  const auto path = tree.path_for("b", 5, crypto::ProtocolNonce::random(rng));
  ASSERT_EQ(path.path.size(), 4u);
  Bytes data = concat({to_bytes("enclaves keytree path v1"), be64(path.epoch),
                       be64(path.leaf)});
  for (const auto& nk : path.path)
    append(data, concat({be64(nk.node), be64(nk.epoch), nk.kek.view()}));
  const auto kg = tree.group_key(5);
  std::uint8_t ref[EVP_MAX_MD_SIZE];
  unsigned int ref_len = 0;
  ASSERT_NE(nullptr, HMAC(EVP_sha256(), kg.view().data(),
                          static_cast<int>(kg.view().size()), data.data(),
                          data.size(), ref, &ref_len));
  EXPECT_EQ(Bytes(path.confirm.begin(), path.confirm.end()),
            Bytes(ref, ref + ref_len));
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

// ---------------------------------------------------------------------------
// The member-side walk (KeyTreeView::apply_update) against a reference: the
// decrypt-to-fixpoint rule, which opens every entry whose carrier KEK it
// holds or has learned, over a plain map of path KEKs.

using Outcome = KeyTreeView::Outcome;

struct FixpointView {
  std::uint32_t leaf = 0;
  crypto::GroupKey leaf_kek;
  std::map<std::uint32_t, crypto::GroupKey> path;  // ancestor -> KEK
};

// The reference state equal to a view's: its leaf and the KEK it holds for
// each of the leaf's ancestors.
FixpointView fixpoint_state(const KeyTreeView& v) {
  FixpointView f{v.leaf(), v.leaf_kek(), {}};
  for (std::uint32_t n = v.leaf() >> 1; n >= 1; n >>= 1)
    if (const auto* kek = v.path_kek(n)) f.path[n] = *kek;
  return f;
}

bool is_ancestor(std::uint32_t node, std::uint32_t leaf) {
  for (std::uint32_t n = leaf >> 1; n >= 1; n >>= 1)
    if (n == node) return true;
  return false;
}

KeyTreeView::ApplyResult fixpoint_apply(FixpointView& f,
                                        const crypto::Aead& aead,
                                        const wire::KeyTreeUpdatePayload& p,
                                        std::uint64_t current_epoch) {
  if (f.leaf == 0) return {Outcome::unreachable, {}, 0};
  if (p.epoch <= current_epoch) return {Outcome::stale, {}, 0};
  std::map<std::uint32_t, crypto::GroupKey> learned;
  std::vector<bool> used(p.entries.size(), false);
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < p.entries.size(); ++i) {
      if (used[i]) continue;
      const auto& e = p.entries[i];
      const crypto::GroupKey* carrier = nullptr;
      if (auto it = learned.find(e.carrier); it != learned.end())
        carrier = &it->second;
      else if (e.carrier == f.leaf)
        carrier = &f.leaf_kek;
      else if (auto it = f.path.find(e.carrier); it != f.path.end())
        carrier = &it->second;
      if (!carrier) continue;
      auto plain = wire::open_body(aead, carrier->view(),
                                   wire::Label::KeyTreeUpdate, p.l,
                                   wire::kGroupRecipient, e.sealed);
      if (!plain) continue;
      auto kek = wire::decode<wire::KeyTreeNodeKek>(*plain);
      if (!kek || kek->node != e.node || kek->epoch != p.epoch)
        return {Outcome::forged, {}, 0};
      learned[e.node] = kek->kek;
      used[i] = true;
      progress = true;
    }
  }
  auto root = learned.find(1);
  if (root == learned.end()) return {Outcome::unreachable, {}, 0};
  crypto::GroupKey kg = derive_group_key(root->second, p.epoch);
  auto expect = keytree_confirm_tag(kg, p.epoch);
  if (!crypto::ct_equal(BytesView{expect.data(), expect.size()},
                        BytesView{p.confirm.data(), p.confirm.size()}))
    return {Outcome::forged, {}, 0};
  for (const auto& [node, kek] : learned)
    if (is_ancestor(node, f.leaf)) f.path[node] = kek;
  return {Outcome::applied, kg, p.epoch};
}

// Counts every open (open_into forwards to open), like perfbench's decorator.
class CountingAead final : public crypto::Aead {
 public:
  const char* name() const override { return inner_.name(); }
  Bytes seal(BytesView key, BytesView nonce, BytesView aad,
             BytesView plaintext) const override {
    return inner_.seal(key, nonce, aad, plaintext);
  }
  Result<Bytes> open(BytesView key, BytesView nonce, BytesView aad,
                     BytesView ct) const override {
    ++opens;
    return inner_.open(key, nonce, aad, ct);
  }
  mutable std::size_t opens = 0;

 private:
  const crypto::Aead& inner_ = crypto::default_aead();
};

bool carriers_are_children(const wire::KeyTreeUpdatePayload& p) {
  return std::all_of(p.entries.begin(), p.entries.end(), [](const auto& e) {
    return e.carrier >= 2 && e.carrier >> 1 == e.node;
  });
}

// A leader tree plus, for every member (current and departed since the last
// growth), its view and the reference state, kept equal step by step.
struct WalkWorld {
  struct Seat {
    crypto::SessionKey ka;
    KeyTreeView view;
    FixpointView ref;
    std::uint64_t epoch = 0;
    bool current = true;
  };

  WalkWorld(std::uint64_t seed, std::uint32_t depth)
      : rng(seed), tree("L", aead, rng, depth) {}

  wire::KeyTreeUpdatePayload join() {
    const std::string id = "m" + std::to_string(next_id++);
    Seat seat{crypto::SessionKey::random(rng), {}, {}, 0, true};
    const auto leaf = tree.assign(id, derive_leaf_kek(seat.ka, id));
    seat.view.assign(leaf, seat.ka, id);
    seat.ref = fixpoint_state(seat.view);
    seats[id] = std::move(seat);
    return tree.rotate_join(id, ++epoch);
  }

  wire::KeyTreeUpdatePayload leave() {
    std::vector<std::string> current;
    for (const auto& [id, seat] : seats)
      if (seat.current) current.push_back(id);
    const std::string& id = current[rng.below(current.size())];
    seats[id].current = false;
    return tree.rotate_leave(id, ++epoch);
  }

  // Deepening re-deals every leaf: departed views have nothing left to
  // test, current ones are re-seated (KeyTreeAssign) and drop a stale path.
  wire::KeyTreeUpdatePayload grow_and_rebuild() {
    tree.grow();
    for (auto it = seats.begin(); it != seats.end();) {
      if (!it->second.current) {
        it = seats.erase(it);
        continue;
      }
      Seat& seat = it->second;
      const auto leaf = tree.leaf_of(it->first);
      if (leaf != seat.ref.leaf) seat.ref.path.clear();
      seat.ref.leaf = leaf;
      seat.view.assign(leaf, seat.ka, it->first);
      ++it;
    }
    return tree.rebuild(++epoch);
  }

  wire::KeyTreeUpdatePayload step() {
    if (tree.leaf_count() == 0) return join();
    switch (rng.below(12)) {
      case 0: case 1: case 2: case 3: case 4:
        if (!tree.full()) return join();
        return grow_and_rebuild();
      case 5: case 6: case 7:
        return leave();
      case 8: case 9:
        return tree.rotate_root(++epoch);
      case 10:
        if (tree.depth() < 10) return grow_and_rebuild();
        return tree.rotate_root(++epoch);
      default:
        if (!tree.full()) return join();
        return tree.rotate_root(++epoch);
    }
  }

  std::size_t pick(const wire::KeyTreeUpdatePayload& p) {
    return static_cast<std::size_t>(rng.below(p.entries.size()));
  }

  // The honest update and its mutations. Every mutation keeps each entry's
  // carrier a child of its node; a splice replaces an entry in place by one
  // with the same (node, carrier) from an earlier update.
  std::vector<std::pair<std::string, wire::KeyTreeUpdatePayload>> variants(
      const wire::KeyTreeUpdatePayload& honest) {
    std::vector<std::pair<std::string, wire::KeyTreeUpdatePayload>> out;
    out.emplace_back("honest", honest);
    if (honest.entries.empty()) return out;
    auto mutated = [&](const char* name) -> wire::KeyTreeUpdatePayload& {
      return out.emplace_back(name, honest).second;
    };
    auto shuffle = [this](wire::KeyTreeUpdatePayload& p) {
      for (std::size_t i = p.entries.size(); i > 1; --i)
        std::swap(p.entries[i - 1], p.entries[rng.below(i)]);
    };
    auto duplicate = [this](wire::KeyTreeUpdatePayload& p) {
      const auto copy = p.entries[pick(p)];
      p.entries.insert(p.entries.begin() +
                           static_cast<std::ptrdiff_t>(
                               rng.below(p.entries.size() + 1)),
                       copy);
    };
    // The carrier moves to the sibling child; a sibling entry of the same
    // node takes the first one's carrier.
    auto swap_carriers = [this](wire::KeyTreeUpdatePayload& p) {
      auto& e = p.entries[pick(p)];
      const std::uint32_t sibling = e.carrier ^ 1;
      for (auto& other : p.entries)
        if (other.node == e.node && other.carrier == sibling)
          other.carrier = e.carrier;
      e.carrier = sibling;
    };

    { auto& p = mutated("drop"); p.entries.erase(p.entries.begin() +
                                   static_cast<std::ptrdiff_t>(pick(p))); }
    duplicate(mutated("duplicate"));
    shuffle(mutated("reorder"));
    swap_carriers(mutated("swap_carriers"));
    auto flip_byte = [this](Bytes& b) {
      b[rng.below(b.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    };
    flip_byte(mutated("flip_sealed_byte").entries[pick(honest)].sealed);
    mutated("flip_confirm").confirm[rng.below(honest.confirm.size())] ^= 0x80;
    {
      // A copy that does not open, ahead of the entry it copies.
      auto& p = mutated("broken_copy_ahead");
      const std::size_t i = pick(p);
      auto copy = p.entries[i];
      flip_byte(copy.sealed);
      p.entries.insert(p.entries.begin() + static_cast<std::ptrdiff_t>(i),
                       copy);
    }
    // Re-sealed under the true carrier KEK with one plaintext field wrong;
    // a wrong KEK is what an insider holding the carrier could forge.
    for (const char* what : {"wrong_epoch", "wrong_node", "wrong_kek"}) {
      auto& p = mutated(what);
      auto& e = p.entries[pick(p)];
      wire::KeyTreeNodeKek plain{e.node, p.epoch, *tree.kek_at(e.node)};
      if (what == std::string_view("wrong_epoch"))
        plain.epoch = rng.below(2) ? p.epoch + 1 : p.epoch - 1;
      else if (what == std::string_view("wrong_node"))
        plain.node = e.node ^ 1;
      else
        plain.kek = crypto::GroupKey::random(rng);
      e.sealed = wire::seal_body(aead, tree.kek_at(e.carrier)->view(), rng,
                                 wire::Label::KeyTreeUpdate, "L",
                                 wire::kGroupRecipient, wire::encode(plain));
    }
    {
      const std::size_t i = pick(honest);
      const auto& target = honest.entries[i];
      for (auto old = history.rbegin(); old != history.rend(); ++old) {
        auto same = std::find_if(
            old->entries.begin(), old->entries.end(), [&](const auto& e) {
              return e.node == target.node && e.carrier == target.carrier;
            });
        if (same == old->entries.end()) continue;
        mutated("splice").entries[i] = *same;
        break;
      }
    }
    {
      auto& p = mutated("reorder_duplicate_swap");
      duplicate(p);
      swap_carriers(p);
      shuffle(p);
    }
    return out;
  }

  // Applies every variant to a copy of every seat, walk vs reference, then
  // commits the honest update.
  void check(const wire::KeyTreeUpdatePayload& honest) {
    ASSERT_TRUE(carriers_are_children(honest));
    const auto all = variants(honest);
    for (auto& [id, seat] : seats) {
      const Seat before = seat;
      for (const auto& [name, p] : all) {
        SCOPED_TRACE(id + " " + name + " epoch " + std::to_string(p.epoch));
        ASSERT_TRUE(carriers_are_children(p));
        const Bytes body = wire::encode(p);
        auto view = wire::decode<wire::KeyTreeUpdateView>(body);
        ASSERT_TRUE(view.ok());
        KeyTreeView walked = before.view;
        const auto w = walked.apply_update(aead, *view, before.epoch);
        KeyTreeView owned = before.view;
        const auto o = owned.apply_update(aead, p, before.epoch);
        FixpointView ref = before.ref;
        const auto r = fixpoint_apply(ref, aead, p, before.epoch);
        ASSERT_EQ(w.outcome, r.outcome);
        EXPECT_EQ(o.outcome, r.outcome);
        ++outcomes[r.outcome];
        if (r.outcome == Outcome::applied) {
          EXPECT_EQ(w.kg, r.kg);
          EXPECT_EQ(w.epoch, r.epoch);
        }
        EXPECT_EQ(fixpoint_state(walked).path, ref.path);
        EXPECT_EQ(fixpoint_state(owned).path, ref.path);
        if (name == "honest") {
          // Current members land on the leader's Kg; departed ones are
          // locked out.
          EXPECT_EQ(w.outcome == Outcome::applied, seat.current);
          if (w.outcome == Outcome::applied) {
            EXPECT_EQ(w.kg, tree.group_key(p.epoch));
            seat.epoch = w.epoch;
          }
          seat.view = walked;
          seat.ref = ref;
        }
      }
    }
    history.push_back(honest);
  }

  DeterministicRng rng;
  const crypto::Aead& aead = crypto::default_aead();
  KeyTree tree;
  std::map<std::string, Seat> seats;
  std::vector<wire::KeyTreeUpdatePayload> history;
  std::map<Outcome, std::size_t> outcomes;
  std::uint64_t epoch = 0;
  int next_id = 0;
};

class KeyTreeWalkDifferential
    : public ::testing::TestWithParam<std::uint32_t> {};

// Random join/leave/rotate_root/grow+rebuild schedules: on the honest
// update and every mutation, the walk and the fixpoint reach the same
// outcome and install the same keys, for every member and departed member.
TEST_P(KeyTreeWalkDifferential, MatchesFixpointOnRandomSchedules) {
  const std::uint32_t depth = GetParam();
  WalkWorld w(1000 + depth, depth);
  for (int step = 0; step < 48; ++step) {
    const auto update = w.step();
    w.check(update);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Every variant was fresh, and the sweep reached every other verdict.
  EXPECT_EQ(w.outcomes[Outcome::stale], 0u);
  for (const auto outcome :
       {Outcome::applied, Outcome::unreachable, Outcome::forged})
    EXPECT_GT(w.outcomes[outcome], 0u) << static_cast<int>(outcome);
}

INSTANTIATE_TEST_SUITE_P(Depths, KeyTreeWalkDifferential,
                         ::testing::Range<std::uint32_t>(1, 9));

// The walk opens fewer entries than the fixpoint in three cases, each pinned
// by one test below; the honest KeyTree produces none of them, and the
// differential mutations above avoid them. First, an entry whose carrier is
// not a child of its node. The fixpoint opens it whenever it holds the
// carrier KEK (here the leaf KEK carries the new root KEK straight past the
// leaf's ancestors); the walk never opens it. The honest KeyTree never
// emits one.
TEST(KeyTreeMemberApply, WalkNeverOpensANonChildCarrier) {
  TreeWorld w;
  w.apply_all(w.add("a"), {"a"});
  w.apply_all(w.add("b"), {"a", "b"});
  const KeyTreeView& a = w.view["a"];

  auto honest = w.tree.rotate_root(++w.epoch);
  ASSERT_TRUE(carriers_are_children(honest));
  wire::KeyTreeUpdatePayload shortcut = honest;
  wire::KeyTreeNodeKek root{1, honest.epoch, *w.tree.kek_at(1)};
  shortcut.entries = {wire::KeyTreeEntry{
      1, a.leaf(),
      wire::seal_body(w.aead, a.leaf_kek().view(), w.rng,
                      wire::Label::KeyTreeUpdate, "L", wire::kGroupRecipient,
                      wire::encode(root))}};
  ASSERT_FALSE(carriers_are_children(shortcut));

  CountingAead counting;
  FixpointView ref = fixpoint_state(a);
  EXPECT_EQ(fixpoint_apply(ref, counting, shortcut, w.member_epoch["a"])
                .outcome,
            Outcome::applied);
  EXPECT_EQ(counting.opens, 1u);

  counting.opens = 0;
  KeyTreeView walked = a;
  EXPECT_EQ(walked.apply_update(counting, shortcut, w.member_epoch["a"])
                .outcome,
            Outcome::unreachable);
  EXPECT_EQ(counting.opens, 0u);

  // Appended to the honest update, the same entry with a wrong plaintext
  // is forged to the fixpoint and invisible to the walk.
  auto with_junk = honest;
  with_junk.entries.push_back(shortcut.entries[0]);
  with_junk.entries.back().node = 2;
  FixpointView ref2 = fixpoint_state(a);
  EXPECT_EQ(fixpoint_apply(ref2, w.aead, with_junk, w.member_epoch["a"])
                .outcome,
            Outcome::forged);
  KeyTreeView walked2 = a;
  const auto r = walked2.apply_update(w.aead, with_junk, w.member_epoch["a"]);
  EXPECT_EQ(r.outcome, Outcome::applied);
  EXPECT_EQ(r.kg, w.tree.group_key(honest.epoch));

  // Every rotation kind the leader mints keeps carriers children.
  EXPECT_TRUE(carriers_are_children(w.add("c")));
  EXPECT_TRUE(carriers_are_children(w.tree.rotate_leave("b", ++w.epoch)));
  w.tree.grow();
  EXPECT_TRUE(carriers_are_children(w.tree.rebuild(++w.epoch)));
}

// The walk opens each level's entry under the newest carrier KEK it has:
// an entry from an earlier update, sealed under the carrier's previous KEK
// and placed ahead of the entry that rotates that carrier, is never opened.
// The fixpoint tries it under the held (previous) KEK first and calls the
// update forged; the walk applies the honest entries around it. Where the
// spliced entry replaces the honest one in place, both call it forged
// (KeyTreeWalkDifferential's "splice").
TEST(KeyTreeMemberApply, EntryAheadOfItsCarrierRotationIsNotOpenedUnderTheOldKek) {
  TreeWorld w;
  w.apply_all(w.add("a"), {"a"});
  w.apply_all(w.add("b"), {"a", "b"});
  const auto older = w.tree.rotate_join("b", ++w.epoch);
  w.apply_all(older, {"a", "b"});
  const auto newer = w.tree.rotate_join("b", ++w.epoch);
  const std::uint32_t parent = w.view["a"].leaf() >> 1;
  auto stale = std::find_if(older.entries.begin(), older.entries.end(),
                            [&](const auto& e) {
                              return e.carrier == parent;
                            });
  ASSERT_NE(stale, older.entries.end());
  auto spliced = newer;
  spliced.entries.insert(spliced.entries.begin(), *stale);

  FixpointView ref = fixpoint_state(w.view["a"]);
  EXPECT_EQ(fixpoint_apply(ref, w.aead, spliced, w.member_epoch["a"]).outcome,
            Outcome::forged);
  KeyTreeView walked = w.view["a"];
  const auto r = walked.apply_update(w.aead, spliced, w.member_epoch["a"]);
  EXPECT_EQ(r.outcome, Outcome::applied);
  EXPECT_EQ(r.kg, w.tree.group_key(newer.epoch));
}

// Once an entry for (node, carrier) opens, the walk moves up a level: a
// later entry claiming the same pair is never opened. Here an insider who
// holds the carrier KEK appends one with a wrong plaintext epoch. The
// fixpoint opens it too and calls the update forged; the walk applies the
// honest entry ahead of it. Ahead of the honest entry, both call it forged.
TEST(KeyTreeMemberApply, LaterEntryForAnOpenedPairIsNotOpened) {
  TreeWorld w;
  w.apply_all(w.add("a"), {"a"});
  w.apply_all(w.add("b"), {"a", "b"});
  const auto honest = w.tree.rotate_root(++w.epoch);
  const std::uint32_t child = w.view["a"].leaf() >> (w.tree.depth() - 1);
  const auto on_path = std::find_if(
      honest.entries.begin(), honest.entries.end(),
      [&](const auto& e) { return e.node == 1 && e.carrier == child; });
  ASSERT_NE(on_path, honest.entries.end());
  wire::KeyTreeEntry forged = *on_path;
  forged.sealed = wire::seal_body(
      w.aead, w.tree.kek_at(child)->view(), w.rng, wire::Label::KeyTreeUpdate,
      "L", wire::kGroupRecipient,
      wire::encode(wire::KeyTreeNodeKek{1, honest.epoch + 1,
                                        *w.tree.kek_at(1)}));

  for (const bool ahead : {false, true}) {
    SCOPED_TRACE(ahead ? "ahead" : "behind");
    auto p = honest;
    p.entries.insert(ahead ? p.entries.begin() : p.entries.end(), forged);
    FixpointView ref = fixpoint_state(w.view["a"]);
    EXPECT_EQ(fixpoint_apply(ref, w.aead, p, w.member_epoch["a"]).outcome,
              Outcome::forged);
    KeyTreeView walked = w.view["a"];
    const auto r = walked.apply_update(w.aead, p, w.member_epoch["a"]);
    EXPECT_EQ(r.outcome, ahead ? Outcome::forged : Outcome::applied);
    if (!ahead) {
      EXPECT_EQ(r.kg, w.tree.group_key(honest.epoch));
    }
  }
}

// Decoding an encoded broadcast and applying it — what Member does per
// KEY_TREE_UPDATE — allocates the same at depth 3 and depth 14: the view
// borrows the sealed entries from the body, and each opened entry is
// decrypted into a stack buffer.
std::size_t decode_and_apply_allocations(std::uint32_t depth,
                                         const std::string& who) {
  DeterministicRng rng(77);
  const crypto::Aead& aead = crypto::default_aead();
  KeyTree tree("L", aead, rng, depth);
  const std::uint32_t first_leaf = 1u << depth;
  // a and b share every ancestor; c sits under the root's other child.
  const std::map<std::string, std::uint32_t> hints = {
      {"a", first_leaf}, {"b", first_leaf + 1},
      {"c", first_leaf + (first_leaf >> 1)}};
  std::map<std::string, KeyTreeView> views;
  for (const auto& [id, hint] : hints) {
    const auto ka = crypto::SessionKey::random(rng);
    const auto leaf = tree.assign(id, derive_leaf_kek(ka, id), hint);
    EXPECT_EQ(leaf, hint);
    views[id].assign(leaf, ka, id);
  }
  const auto rebuild = tree.rebuild(1);
  for (auto& [id, v] : views)
    EXPECT_EQ(v.apply_update(aead, rebuild, 0).outcome, Outcome::applied);

  const Bytes body = wire::encode(tree.rotate_join("b", 2));
  KeyTreeView& view = views.at(who);
  testing_support::g_allocations = 0;
  testing_support::g_count_allocations = true;
  auto p = wire::decode<wire::KeyTreeUpdateView>(body);
  const auto r = view.apply_update(aead, *p, 1);
  testing_support::g_count_allocations = false;
  EXPECT_EQ(r.outcome, Outcome::applied) << who << " depth " << depth;
  EXPECT_EQ(r.kg, tree.group_key(2));
  return testing_support::g_allocations;
}

TEST(KeyTreeMemberApply, AllocationsDoNotGrowWithDepth) {
  // a opens one entry per level; c opens only the root's.
  for (const std::string who : {"a", "c"}) {
    const std::size_t shallow = decode_and_apply_allocations(3, who);
    const std::size_t deep = decode_and_apply_allocations(14, who);
    EXPECT_EQ(shallow, deep) << who;
  }
}

}  // namespace
}  // namespace enclaves::core
