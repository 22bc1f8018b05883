#include "core/keytree.h"

#include <algorithm>

#include "crypto/ct.h"
#include "crypto/hkdf.h"
#include "wire/seal.h"

namespace enclaves::core {

namespace {

constexpr std::string_view kLeafSalt = "enclaves keytree leaf v1";
constexpr std::string_view kKgSalt = "enclaves keytree kg v1";
constexpr std::string_view kConfirmContext = "enclaves keytree confirm v1";
constexpr std::string_view kPathContext = "enclaves keytree path v1";

Bytes be64(std::uint64_t v) {
  Bytes b(8);
  for (int i = 7; i >= 0; --i) {
    b[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v & 0xff);
    v >>= 8;
  }
  return b;
}

bool is_ancestor(std::uint32_t node, std::uint32_t leaf) {
  for (std::uint32_t n = leaf >> 1; n >= 1; n >>= 1)
    if (n == node) return true;
  return false;
}

}  // namespace

// Both derivations extract under a constant salt, so each keeps the salt's
// keyed HMAC (built once, thread-safe, read-only after) and copies it.
crypto::GroupKey derive_leaf_kek(const crypto::SessionKey& ka,
                                 std::string_view member_id) {
  static const crypto::HmacSha256 extract(to_bytes(kLeafSalt));
  Bytes okm = crypto::hkdf(extract, ka.view(), to_bytes(member_id),
                           crypto::kKeyBytes);
  return crypto::GroupKey::from_bytes(okm);
}

crypto::GroupKey derive_group_key(const crypto::GroupKey& root_kek,
                                  std::uint64_t epoch) {
  static const crypto::HmacSha256 extract(to_bytes(kKgSalt));
  Bytes okm =
      crypto::hkdf(extract, root_kek.view(), be64(epoch), crypto::kKeyBytes);
  return crypto::GroupKey::from_bytes(okm);
}

crypto::HmacSha256::Tag keytree_confirm_tag(const crypto::GroupKey& kg,
                                            std::uint64_t epoch) {
  Bytes data = concat({to_bytes(kConfirmContext), be64(epoch)});
  return crypto::HmacSha256::mac(kg.view(), data);
}

/// Path answers bind EVERY entry into the tag, not just the root-derived
/// Kg: a tampered intermediate KEK would otherwise install silently and
/// only surface later as unreachability on the broadcast channel.
crypto::HmacSha256::Tag keytree_path_tag(const crypto::GroupKey& kg,
                                         const wire::KeyTreePathPayload& p) {
  Bytes data = concat({to_bytes(kPathContext), be64(p.epoch), be64(p.leaf)});
  for (const auto& nk : p.path) {
    Bytes part = concat({be64(nk.node), be64(nk.epoch), nk.kek.view()});
    data.insert(data.end(), part.begin(), part.end());
  }
  return crypto::HmacSha256::mac(kg.view(), data);
}

// ---------------------------------------------------------------------------
// KeyTree (leader side)

KeyTree::KeyTree(std::string leader_id, const crypto::Aead& aead, Rng& rng,
                 std::uint32_t depth)
    : leader_id_(std::move(leader_id)),
      aead_(&aead),
      rng_(&rng),
      depth_(std::max<std::uint32_t>(depth, 1)) {
  keks_.resize(std::size_t{2} << depth_);
  live_.resize(std::size_t{2} << depth_, 0);
}

std::uint32_t KeyTree::leaf_of(const std::string& id) const {
  auto it = leaf_of_.find(id);
  return it == leaf_of_.end() ? 0 : it->second;
}

std::uint32_t KeyTree::assign(const std::string& id,
                              crypto::GroupKey leaf_kek, std::uint32_t hint) {
  std::uint32_t leaf = 0;
  if (hint >= capacity() && hint < 2 * capacity() && live_[hint] == 0) {
    leaf = hint;
  } else {
    for (std::uint32_t n = static_cast<std::uint32_t>(capacity());
         n < 2 * capacity(); ++n) {
      if (live_[n] == 0) {
        leaf = n;
        break;
      }
    }
  }
  keks_[leaf] = leaf_kek;
  leaf_of_[id] = leaf;
  for (std::uint32_t n = leaf; n >= 1; n >>= 1) ++live_[n];
  return leaf;
}

void KeyTree::remove(const std::string& id) {
  auto it = leaf_of_.find(id);
  if (it == leaf_of_.end()) return;
  std::uint32_t leaf = it->second;
  leaf_of_.erase(it);
  keks_[leaf].reset();
  for (std::uint32_t n = leaf; n >= 1; n >>= 1) --live_[n];
}

wire::KeyTreeEntry KeyTree::seal_entry(std::uint32_t node,
                                       std::uint32_t carrier,
                                       const crypto::GroupKey& fresh,
                                       std::uint64_t epoch) const {
  wire::KeyTreeNodeKek plain{node, epoch, fresh};
  wire::KeyTreeEntry e;
  e.node = node;
  e.carrier = carrier;
  e.sealed = wire::seal_body(*aead_, keks_[carrier]->view(), *rng_,
                             wire::Label::KeyTreeUpdate, leader_id_,
                             wire::kGroupRecipient, wire::encode(plain));
  return e;
}

void KeyTree::rotate_upward(std::uint32_t start, std::uint64_t epoch,
                            wire::KeyTreeUpdatePayload& out) {
  // Bottom-up: when node n is processed its rotated child already holds its
  // NEW KEK in keks_, so every carrier key is simply the stored one.
  for (std::uint32_t n = start; n >= 1; n >>= 1) {
    if (live_[n] == 0) {
      keks_[n].reset();
      continue;
    }
    auto fresh = crypto::GroupKey::random(*rng_);
    for (std::uint32_t c : {2 * n, 2 * n + 1}) {
      if (!live(c)) continue;
      out.entries.push_back(seal_entry(n, c, fresh, epoch));
    }
    keks_[n] = fresh;
  }
}

void KeyTree::finish(std::uint64_t epoch,
                     wire::KeyTreeUpdatePayload& out) const {
  out.l = leader_id_;
  out.epoch = epoch;
  out.depth = depth_;
  if (keks_[1])
    out.confirm = keytree_confirm_tag(derive_group_key(*keks_[1], epoch),
                                      epoch);
}

wire::KeyTreeUpdatePayload KeyTree::rotate_join(const std::string& id,
                                                std::uint64_t epoch) {
  wire::KeyTreeUpdatePayload out;
  out.reason = wire::KeyTreeReason::join;
  rotate_upward(leaf_of(id) >> 1, epoch, out);
  finish(epoch, out);
  return out;
}

wire::KeyTreeUpdatePayload KeyTree::rotate_leave(const std::string& id,
                                                 std::uint64_t epoch) {
  std::uint32_t leaf = leaf_of(id);
  remove(id);
  wire::KeyTreeUpdatePayload out;
  out.reason = wire::KeyTreeReason::leave;
  if (leaf != 0) rotate_upward(leaf >> 1, epoch, out);
  finish(epoch, out);
  return out;
}

wire::KeyTreeUpdatePayload KeyTree::rotate_root(std::uint64_t epoch) {
  wire::KeyTreeUpdatePayload out;
  out.reason = wire::KeyTreeReason::manual;
  rotate_upward(1, epoch, out);
  finish(epoch, out);
  return out;
}

void KeyTree::grow() {
  std::vector<std::pair<std::uint32_t, std::string>> order;
  order.reserve(leaf_of_.size());
  for (const auto& [id, leaf] : leaf_of_) order.emplace_back(leaf, id);
  std::sort(order.begin(), order.end());

  std::vector<std::optional<crypto::GroupKey>> old_keks = std::move(keks_);
  ++depth_;
  keks_.assign(std::size_t{2} << depth_, std::nullopt);
  live_.assign(std::size_t{2} << depth_, 0);
  leaf_of_.clear();

  std::uint32_t next = static_cast<std::uint32_t>(capacity());
  for (const auto& [old_leaf, id] : order) {
    leaf_of_[id] = next;
    keks_[next] = old_keks[old_leaf];  // leaf KEKs are index-independent
    for (std::uint32_t n = next; n >= 1; n >>= 1) ++live_[n];
    ++next;
  }
}

wire::KeyTreeUpdatePayload KeyTree::rebuild(std::uint64_t epoch) {
  wire::KeyTreeUpdatePayload out;
  out.reason = wire::KeyTreeReason::rebuild;
  // Descending index order is bottom-up: children are re-minted before
  // their parent's entries are sealed under them.
  for (std::uint32_t n = static_cast<std::uint32_t>(capacity()) - 1; n >= 1;
       --n) {
    if (live_[n] == 0) {
      keks_[n].reset();
      continue;
    }
    auto fresh = crypto::GroupKey::random(*rng_);
    for (std::uint32_t c : {2 * n, 2 * n + 1}) {
      if (!live(c)) continue;
      out.entries.push_back(seal_entry(n, c, fresh, epoch));
    }
    keks_[n] = fresh;
  }
  finish(epoch, out);
  return out;
}

crypto::GroupKey KeyTree::group_key(std::uint64_t epoch) const {
  return derive_group_key(keks_[1].value(), epoch);
}

wire::KeyTreePathPayload KeyTree::path_for(
    const std::string& id, std::uint64_t epoch,
    const crypto::ProtocolNonce& nr) const {
  wire::KeyTreePathPayload p;
  p.l = leader_id_;
  p.a = id;
  p.nr = nr;
  p.epoch = epoch;
  p.leaf = leaf_of(id);
  for (std::uint32_t n = p.leaf >> 1; n >= 1; n >>= 1)
    p.path.push_back({n, epoch, keks_[n].value()});
  if (keks_[1])
    p.confirm = keytree_path_tag(derive_group_key(*keks_[1], epoch), p);
  return p;
}

const crypto::GroupKey* KeyTree::leaf_kek(const std::string& id) const {
  std::uint32_t leaf = leaf_of(id);
  if (leaf == 0 || !keks_[leaf]) return nullptr;
  return &*keks_[leaf];
}

const crypto::GroupKey* KeyTree::kek_at(std::uint32_t node) const {
  if (node >= keks_.size() || !keks_[node]) return nullptr;
  return &*keks_[node];
}

// ---------------------------------------------------------------------------
// KeyTreeView (member side)

void KeyTreeView::assign(std::uint32_t leaf, const crypto::SessionKey& ka,
                         std::string_view member_id) {
  if (leaf != leaf_) path_.clear();  // re-index (tree growth): stale path
  leaf_ = leaf;
  leaf_kek_ = derive_leaf_kek(ka, member_id);
}

void KeyTreeView::reset() {
  leaf_ = 0;
  leaf_kek_ = crypto::GroupKey();
  path_.clear();
}

KeyTreeView::ApplyResult KeyTreeView::apply_update(
    const crypto::Aead& aead, const wire::KeyTreeUpdatePayload& p,
    std::uint64_t current_epoch) {
  if (!assigned()) return {Outcome::unreachable, {}, 0};
  if (p.epoch <= current_epoch) return {Outcome::stale, {}, 0};

  // Decrypt reachable entries to a fixpoint. Carrier preference is
  // learned-first: an on-path child's entry is always sealed under that
  // child's NEW KEK, an off-path child's under its current one.
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
      else if (e.carrier == leaf_)
        carrier = &leaf_kek_;
      else if (auto it = path_.find(e.carrier); it != path_.end())
        carrier = &it->second;
      if (!carrier) continue;
      auto plain = wire::open_body(aead, carrier->view(),
                                   wire::Label::KeyTreeUpdate, p.l,
                                   wire::kGroupRecipient, e.sealed);
      if (!plain) continue;  // sealed under a KEK version we do not hold
      auto kek = wire::decode_keytree_node_kek(*plain);
      if (!kek || kek->node != e.node || kek->epoch != p.epoch)
        return {Outcome::forged, {}, 0};  // spliced from another update
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
    if (is_ancestor(node, leaf_)) path_[node] = kek;
  return {Outcome::applied, kg, p.epoch};
}

KeyTreeView::ApplyResult KeyTreeView::apply_path(
    const wire::KeyTreePathPayload& p, std::uint64_t current_epoch,
    const std::optional<crypto::ProtocolNonce>& expected_nonce) {
  if (!assigned()) return {Outcome::unreachable, {}, 0};

  bool solicited = expected_nonce && p.nr == *expected_nonce;
  if (!solicited) {
    // Unsolicited paths (zero nonce) hand a joiner its initial path; they
    // must never regress the epoch. A solicited answer IS allowed to — it
    // is how a member desynced past the leader rolls back.
    if (p.nr != crypto::ProtocolNonce() || p.epoch < current_epoch)
      return {Outcome::stale, {}, 0};
  }

  // The path must be exactly the ancestor chain of the claimed leaf,
  // bottom-up, ending at the root.
  if (p.leaf < 2 || p.path.empty()) return {Outcome::forged, {}, 0};
  std::uint32_t expect_node = p.leaf >> 1;
  for (const auto& nk : p.path) {
    if (nk.node != expect_node) return {Outcome::forged, {}, 0};
    expect_node >>= 1;
  }
  if (p.path.back().node != 1 || expect_node != 0)
    return {Outcome::forged, {}, 0};

  crypto::GroupKey kg = derive_group_key(p.path.back().kek, p.epoch);
  auto expect = keytree_path_tag(kg, p);
  if (!crypto::ct_equal(BytesView{expect.data(), expect.size()},
                        BytesView{p.confirm.data(), p.confirm.size()}))
    return {Outcome::forged, {}, 0};

  leaf_ = p.leaf;
  path_.clear();
  for (const auto& nk : p.path) path_[nk.node] = nk.kek;
  return {Outcome::applied, kg, p.epoch};
}

const crypto::GroupKey* KeyTreeView::path_kek(std::uint32_t node) const {
  auto it = path_.find(node);
  return it == path_.end() ? nullptr : &it->second;
}

}  // namespace enclaves::core
