// LKH-style logical key hierarchy (PROTOCOL.md §13, docs/KEYTREE.md).
//
// The flat rekey path re-seals Kg once per member — N AEAD seals and N
// stop-and-wait admin exchanges per membership change. The key tree brings
// that to O(log N): the leader keeps a binary tree of key-encrypting keys
// (KEKs), every member holds exactly the KEKs on its root-to-leaf path, and
// the group key is HKDF-derived from the root KEK and the epoch. A
// join/leave/expel rekey rotates only the KEKs on the affected path and
// ships the rotation as ONE broadcast whose entries are each sealed under a
// KEK the receiving subtree already holds (wire/keytree.h).
//
// Tree shape: heap indexing. Node 1 is the root, node n has children 2n and
// 2n+1, leaves live at heap level `depth` (indices [2^depth, 2^(depth+1))).
// Index 0 is never a node, which lets "leaf 0" mean "unassigned".
//
// Key schedule (all via the existing HKDF/HMAC primitives):
//   leaf KEK   = HKDF(salt="enclaves keytree leaf v1", ikm=Ka, info=member)
//                — pairwise with the leader, dies with the session.
//   inner KEKs = fresh random per rotation.
//   Kg         = HKDF(salt="enclaves keytree kg v1", ikm=root KEK,
//                info=be64(epoch)) — binds each epoch's Kg to that epoch.
//   confirm    = HMAC(Kg, "enclaves keytree confirm v1" || be64(epoch))
//                — an update/path whose entries were spliced or forged
//                yields a different root, fails this check, and is refused
//                atomically (no partial key install).
//
// KeyTree is the leader's side (authoritative tree, mints rotations);
// KeyTreeView is the member's side (path only, applies rotations).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/aead.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "util/rng.h"
#include "wire/keytree.h"

namespace enclaves::core {

/// Derives a member's leaf KEK from the pairwise session key. Both sides
/// compute this independently — leaf KEKs never travel on the wire.
crypto::GroupKey derive_leaf_kek(const crypto::SessionKey& ka,
                                 std::string_view member_id);

/// Derives the group key for `epoch` from the current root KEK.
crypto::GroupKey derive_group_key(const crypto::GroupKey& root_kek,
                                  std::uint64_t epoch);

/// The confirmation tag carried by every update/path payload.
crypto::HmacSha256::Tag keytree_confirm_tag(const crypto::GroupKey& kg,
                                            std::uint64_t epoch);

/// The leader's authoritative key tree.
class KeyTree {
 public:
  /// `depth` >= 1; capacity is 2^depth leaves. The aead/rng must outlive
  /// the tree (they are the leader's own).
  KeyTree(std::string leader_id, const crypto::Aead& aead, Rng& rng,
          std::uint32_t depth);

  std::uint32_t depth() const { return depth_; }
  std::size_t leaf_count() const { return leaf_of_.size(); }
  std::size_t capacity() const { return std::size_t{1} << depth_; }
  bool full() const { return leaf_count() >= capacity(); }
  bool has_member(const std::string& id) const { return leaf_of_.count(id); }
  std::uint32_t leaf_of(const std::string& id) const;  // 0 when absent
  /// Member -> leaf slot map (persisted in LeaderSnapshot as rejoin hints).
  const std::map<std::string, std::uint32_t>& slots() const {
    return leaf_of_;
  }

  /// Grafts `id` onto a free leaf (prefers `hint` when it is a free leaf at
  /// the current depth — snapshot-restored members get their old subtree
  /// back). Otherwise the first free leaf not in `reserved` (leaves hinted
  /// to members that have not rejoined yet); the first free leaf only when
  /// every free leaf is reserved. Precondition: !full() and
  /// !has_member(id). Returns the leaf.
  std::uint32_t assign(const std::string& id, crypto::GroupKey leaf_kek,
                       std::uint32_t hint = 0,
                       const std::set<std::uint32_t>& reserved = {});

  /// Prunes `id`'s leaf without rotating (manual rekey policy). The stale
  /// path KEKs stay until the next rotation touches them.
  void remove(const std::string& id);

  /// Rotations. Each mints fresh KEKs into epoch `epoch` and returns the
  /// broadcast payload (entries + confirmation tag).
  ///   rotate_join  — rotate the path above `id`'s (already assigned) leaf.
  ///   rotate_leave — prune `id`'s leaf, then rotate its former path.
  ///   rotate_root  — rotate the root only (manual/periodic rekey).
  wire::KeyTreeUpdatePayload rotate_join(const std::string& id,
                                         std::uint64_t epoch);
  wire::KeyTreeUpdatePayload rotate_leave(const std::string& id,
                                          std::uint64_t epoch);
  wire::KeyTreeUpdatePayload rotate_root(std::uint64_t epoch);

  /// Deepens the tree by one level: leaves are re-indexed in slot order
  /// (leaf KEKs survive — they are index-independent), every inner KEK is
  /// discarded. Follow with rebuild() to re-mint and get the broadcast.
  void grow();

  /// Re-mints every live inner KEK and returns a full-tree update
  /// (reason=rebuild). O(N) seals — used only after grow().
  wire::KeyTreeUpdatePayload rebuild(std::uint64_t epoch);

  /// Kg for `epoch` under the current root. Requires a non-empty tree.
  crypto::GroupKey group_key(std::uint64_t epoch) const;

  /// The member's current root-to-leaf path, for a KEY_TREE_PATH answer
  /// (solicited: echo the recover nonce; unsolicited: zero nonce).
  wire::KeyTreePathPayload path_for(const std::string& id,
                                    std::uint64_t epoch,
                                    const crypto::ProtocolNonce& nr) const;

  /// The leaf KEK the leader shares with `id` (seals KEY_TREE_PATH, opens
  /// KEY_TREE_RECOVER). Null when the member has no leaf.
  const crypto::GroupKey* leaf_kek(const std::string& id) const;

  /// Diagnostics / test hook: the current KEK at a heap index (null when
  /// the node is dead or out of range).
  const crypto::GroupKey* kek_at(std::uint32_t node) const;

 private:
  bool is_leaf_index(std::uint32_t n) const { return n >= capacity(); }
  bool live(std::uint32_t n) const {
    return n < live_.size() && live_[n] > 0;
  }
  wire::KeyTreeEntry seal_entry(std::uint32_t node, std::uint32_t carrier,
                                const crypto::GroupKey& fresh,
                                std::uint64_t epoch) const;
  /// Rotates `start` and every ancestor up to the root; appends entries.
  void rotate_upward(std::uint32_t start, std::uint64_t epoch,
                     wire::KeyTreeUpdatePayload& out);
  void finish(std::uint64_t epoch, wire::KeyTreeUpdatePayload& out) const;

  std::string leader_id_;
  const crypto::Aead* aead_;
  Rng* rng_;
  std::uint32_t depth_;
  /// Heap-indexed KEKs, size 2^(depth+1); [0] unused. A node has a KEK iff
  /// it is live (has an occupied leaf beneath it) — except transiently
  /// after remove(), where stale inner KEKs linger by design.
  std::vector<std::optional<crypto::GroupKey>> keks_;
  /// Live-leaf counters per node (O(1) liveness during rotation).
  std::vector<std::uint32_t> live_;
  std::map<std::string, std::uint32_t> leaf_of_;
};

/// The member's side: its leaf, its path KEKs, and the apply rules.
class KeyTreeView {
 public:
  enum class Outcome : std::uint8_t {
    applied,      // new keys installed, kg is valid
    stale,        // epoch not newer than ours — refused, no state change
    unreachable,  // could not reach the root (missed update?) — recover
    forged,       // entries inconsistent or confirmation failed — refused
  };
  struct ApplyResult {
    Outcome outcome = Outcome::unreachable;
    crypto::GroupKey kg;       // valid iff outcome == applied
    std::uint64_t epoch = 0;   // valid iff outcome == applied
  };

  bool assigned() const { return leaf_ != 0; }
  std::uint32_t leaf() const { return leaf_; }
  const crypto::GroupKey& leaf_kek() const { return leaf_kek_; }

  /// Installs the leaf slot and derives the leaf KEK from Ka. A re-assign
  /// to a different leaf (tree growth) clears the stale path.
  void assign(std::uint32_t leaf, const crypto::SessionKey& ka,
              std::string_view member_id);

  void reset();

  /// Applies a broadcast KEY_TREE_UPDATE: decrypts every reachable entry
  /// to a fixpoint, requires the new root, checks the confirmation tag,
  /// and only then commits. Never partially installs.
  ApplyResult apply_update(const crypto::Aead& aead,
                           const wire::KeyTreeUpdatePayload& p,
                           std::uint64_t current_epoch);

  /// Applies a KEY_TREE_PATH answer (already opened from under the leaf
  /// KEK — leader origin is established by that seal). A solicited answer
  /// (`expected_nonce` echoed) is authoritative at ANY epoch: it is how a
  /// member desynced past the leader (forged forward epoch) rolls back.
  /// Unsolicited answers (zero nonce) must not regress the epoch.
  ApplyResult apply_path(const wire::KeyTreePathPayload& p,
                         std::uint64_t current_epoch,
                         const std::optional<crypto::ProtocolNonce>&
                             expected_nonce);

  /// Diagnostics / test hook: the KEK this view holds for `node`.
  const crypto::GroupKey* path_kek(std::uint32_t node) const;

 private:
  std::uint32_t leaf_ = 0;
  crypto::GroupKey leaf_kek_;
  std::map<std::uint32_t, crypto::GroupKey> path_;  // ancestor -> KEK
};

}  // namespace enclaves::core
