#include "core/keytree.h"

#include <algorithm>
#include <array>
#include <bit>

#include "crypto/ct.h"
#include "crypto/hkdf.h"
#include "wire/seal.h"

namespace enclaves::core {

namespace {

constexpr std::string_view kLeafSalt = "enclaves keytree leaf v1";
constexpr std::string_view kKgSalt = "enclaves keytree kg v1";
constexpr std::string_view kConfirmContext = "enclaves keytree confirm v1";
constexpr std::string_view kPathContext = "enclaves keytree path v1";

// encode(KeyTreeNodeKek): type octet, node, epoch, KEK.
constexpr std::size_t kNodeKekBytes = 1 + 4 + 8 + crypto::kKeyBytes;

// Heap level of node n >= 1 (root = 0); a leaf at level L has L ancestors.
std::uint32_t heap_level(std::uint32_t n) {
  return static_cast<std::uint32_t>(std::bit_width(n)) - 1;
}

BytesView as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// Big-endian u64 into `out` (8 bytes).
void put_be64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 7; i >= 0; --i, v >>= 8)
    out[i] = static_cast<std::uint8_t>(v & 0xff);
}

std::array<std::uint8_t, 8> be64(std::uint64_t v) {
  std::array<std::uint8_t, 8> b;
  put_be64(b.data(), v);
  return b;
}

}  // namespace

// Both derivations extract under a constant salt, so each keeps the salt's
// keyed HMAC (built once, thread-safe, read-only after) and copies it.
crypto::GroupKey derive_leaf_kek(const crypto::SessionKey& ka,
                                 std::string_view member_id) {
  static const crypto::HmacSha256 extract(as_bytes(kLeafSalt));
  Bytes okm = crypto::hkdf(extract, ka.view(), as_bytes(member_id),
                           crypto::kKeyBytes);
  return crypto::GroupKey::from_bytes(okm);
}

crypto::GroupKey derive_group_key(const crypto::GroupKey& root_kek,
                                  std::uint64_t epoch) {
  static const crypto::HmacSha256 extract(as_bytes(kKgSalt));
  Bytes okm =
      crypto::hkdf(extract, root_kek.view(), be64(epoch), crypto::kKeyBytes);
  return crypto::GroupKey::from_bytes(okm);
}

crypto::HmacSha256::Tag keytree_confirm_tag(const crypto::GroupKey& kg,
                                            std::uint64_t epoch) {
  std::array<std::uint8_t, kConfirmContext.size() + 8> data;
  std::copy(kConfirmContext.begin(), kConfirmContext.end(), data.begin());
  put_be64(data.data() + kConfirmContext.size(), epoch);
  return crypto::HmacSha256::mac(kg.view(), data);
}

/// Path answers bind EVERY entry into the tag, not just the root-derived
/// Kg: a tampered intermediate KEK would otherwise install silently and
/// only surface later as unreachability on the broadcast channel. The MAC
/// runs over context || be64(epoch) || be64(leaf) || (be64(node) ||
/// be64(epoch) || kek) per entry, fed part by part.
crypto::HmacSha256::Tag keytree_path_tag(const crypto::GroupKey& kg,
                                         const wire::KeyTreePathPayload& p) {
  crypto::HmacSha256 mac(kg.view());
  mac.update(as_bytes(kPathContext));
  std::array<std::uint8_t, 16 + crypto::kKeyBytes> part;
  put_be64(part.data(), p.epoch);
  put_be64(part.data() + 8, p.leaf);
  mac.update(BytesView{part}.first(16));
  for (const auto& nk : p.path) {
    put_be64(part.data(), nk.node);
    put_be64(part.data() + 8, nk.epoch);
    std::copy(nk.kek.view().begin(), nk.kek.view().end(), part.begin() + 16);
    mac.update(part);
  }
  return mac.finish();
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
                              crypto::GroupKey leaf_kek, std::uint32_t hint,
                              const std::set<std::uint32_t>& reserved) {
  std::uint32_t leaf = 0;
  if (hint >= capacity() && hint < 2 * capacity() && live_[hint] == 0) {
    leaf = hint;
  } else {
    std::uint32_t first_free = 0;
    for (std::uint32_t n = static_cast<std::uint32_t>(capacity());
         n < 2 * capacity(); ++n) {
      if (live_[n] != 0) continue;
      if (first_free == 0) first_free = n;
      if (!reserved.count(n)) {
        leaf = n;
        break;
      }
    }
    if (leaf == 0) leaf = first_free;
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

void KeyTreeView::seat(std::uint32_t leaf) {
  leaf_ = leaf;
  path_.assign(leaf == 0 ? 0 : heap_level(leaf), crypto::GroupKey());
  held_ = 0;
}

void KeyTreeView::assign(std::uint32_t leaf, const crypto::SessionKey& ka,
                         std::string_view member_id) {
  if (leaf != leaf_) seat(leaf);  // re-index (tree growth): stale path
  leaf_kek_ = derive_leaf_kek(ka, member_id);
}

void KeyTreeView::reset() {
  seat(0);
  leaf_kek_ = crypto::GroupKey();
}

KeyTreeView::ApplyResult KeyTreeView::apply_update(
    const crypto::Aead& aead, const wire::KeyTreeUpdateView& p,
    std::uint64_t current_epoch) {
  return walk(aead, p, current_epoch);
}

KeyTreeView::ApplyResult KeyTreeView::apply_update(
    const crypto::Aead& aead, const wire::KeyTreeUpdatePayload& p,
    std::uint64_t current_epoch) {
  return walk(aead, p, current_epoch);
}

template <class Blob>
KeyTreeView::ApplyResult KeyTreeView::walk(
    const crypto::Aead& aead, const wire::BasicKeyTreeUpdate<Blob>& p,
    std::uint64_t current_epoch) {
  if (!assigned()) return {Outcome::unreachable, {}, 0};
  if (p.epoch <= current_epoch) return {Outcome::stale, {}, 0};

  // Our leaf sits at heap level `levels`. At ancestor level k the node is
  // leaf_ >> (levels - k) and its child on our path leaf_ >> (levels-k-1);
  // the only entry we can use there is (node, carrier = that child). One
  // pass finds the first such entry of every level.
  const std::uint32_t levels = heap_level(leaf_);
  constexpr std::size_t kNone = SIZE_MAX;
  std::array<std::size_t, kMaxLevels> first;
  first.fill(kNone);
  for (std::size_t i = p.entries.size(); i-- > 0;) {
    const auto& e = p.entries[i];
    if (e.carrier < 2 || e.node != e.carrier >> 1) continue;
    const std::uint32_t level = heap_level(e.carrier);
    if (level > levels || leaf_ >> (levels - level) != e.carrier) continue;
    first[level - 1] = i;
  }

  // Bottom-up: the carrier at level k is the child's KEK learned one level
  // below, else the leaf KEK or the path KEK we hold for the child. Several
  // entries may claim the same (node, carrier): the first that opens wins.
  const Bytes aad = wire::envelope_aad(wire::Label::KeyTreeUpdate, p.l,
                                       wire::kGroupRecipient);
  std::array<crypto::GroupKey, kMaxLevels> learned;
  std::uint32_t learned_mask = 0;
  for (std::uint32_t k = levels; k-- > 0;) {
    const std::uint32_t child = leaf_ >> (levels - k - 1);
    const std::uint32_t node = child >> 1;
    const crypto::GroupKey* carrier =
        child == leaf_ ? &leaf_kek_
        : (learned_mask >> (k + 1) & 1) ? &learned[k + 1]
                                         : held(k + 1);
    if (!carrier) continue;
    for (std::size_t i = first[k]; i < p.entries.size(); ++i) {
      const auto& e = p.entries[i];
      if (e.node != node || e.carrier != child) continue;
      const BytesView sealed = e.sealed;
      // An honest plaintext is one encoded KeyTreeNodeKek; only a forged
      // entry needs the heap.
      std::array<std::uint8_t, kNodeKekBytes> small;
      Bytes large;
      std::span<std::uint8_t> plain = small;
      const std::size_t n = sealed.size() > wire::kSealOverhead
                                ? sealed.size() - wire::kSealOverhead
                                : 0;
      if (n != small.size()) {
        large.resize(n);
        plain = large;
      }
      if (!wire::open_body_into(aead, carrier->view(), aad, sealed, plain))
        continue;  // sealed under a KEK version we do not hold
      auto kek = wire::decode<wire::KeyTreeNodeKek>(plain);
      if (!kek || kek->node != node || kek->epoch != p.epoch)
        return {Outcome::forged, {}, 0};  // spliced from another update
      learned[k] = kek->kek;
      learned_mask |= 1u << k;
      break;
    }
  }

  if (!(learned_mask & 1)) return {Outcome::unreachable, {}, 0};
  crypto::GroupKey kg = derive_group_key(learned[0], p.epoch);
  auto expect = keytree_confirm_tag(kg, p.epoch);
  if (!crypto::ct_equal(BytesView{expect.data(), expect.size()},
                        BytesView{p.confirm.data(), p.confirm.size()}))
    return {Outcome::forged, {}, 0};

  for (std::uint32_t k = 0; k < levels; ++k)
    if (learned_mask >> k & 1) path_[k] = learned[k];
  held_ |= learned_mask;
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

  seat(p.leaf);
  for (const auto& nk : p.path) {
    const std::uint32_t k = heap_level(nk.node);
    path_[k] = nk.kek;
    held_ |= 1u << k;
  }
  return {Outcome::applied, kg, p.epoch};
}

const crypto::GroupKey* KeyTreeView::held(std::uint32_t level) const {
  return held_ >> level & 1 ? &path_[level] : nullptr;
}

const crypto::GroupKey* KeyTreeView::path_kek(std::uint32_t node) const {
  if (node == 0 || !assigned()) return nullptr;
  const std::uint32_t levels = heap_level(leaf_);
  const std::uint32_t k = heap_level(node);
  if (k >= levels || leaf_ >> (levels - k) != node) return nullptr;
  return held(k);
}

}  // namespace enclaves::core
