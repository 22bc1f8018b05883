// Key-tree rekey payload family (labels 120–122) — the LKH-style logical
// key hierarchy that replaces the flat O(N) per-member Kg fan-out
// (PROTOCOL.md §13, docs/KEYTREE.md).
//
// The leader maintains a binary tree of key-encrypting keys (KEKs); every
// member holds the KEKs on its root-to-leaf path, and the group key Kg is
// derived from the root KEK and the epoch via HKDF. A join/leave/expel/Oops
// rekey rotates only the O(log N) KEKs on the affected path and fans the
// rotation out as ONE broadcast KEY_TREE_UPDATE whose entries are each
// sealed (seal.h) under a KEK the intended subtree already holds — the
// paper's leader-origin and per-epoch freshness guarantees, per subtree:
//
//   leader origin  — leaf KEKs are HKDF-derived from the pairwise session
//     key Ka, so an entry carried by a leaf KEK can only come from the
//     leader (or the member itself). Internal-node carriers are shared by a
//     subtree; a corrupt subtree member could forge an entry for a key it
//     already holds, but the update's confirmation tag (an HMAC under the
//     NEW Kg, which honest forgers cannot reach) makes any such splice
//     detectable: members reject the whole update and ledger the evidence.
//   freshness — every sealed entry's plaintext carries (node, epoch); the
//     update's epoch must strictly exceed the member's current epoch, so a
//     replayed update (e.g. the pre-expel path re-offered to a quarantined
//     member) is refused as stale.
//
// Updates are fire-and-forget (no per-member stop-and-wait): a member that
// cannot reach the new root — a lost broadcast, a missed epoch — asks for
// its current path with KEY_TREE_RECOVER (sealed under its leaf KEK, fresh
// nonce) and the leader answers with KEY_TREE_PATH, the member's O(log N)
// path re-sealed under the same leaf KEK with the nonce echoed.
//
// Like payloads.h, every payload starts with a distinct type octet and
// wire::decode<T> refuses trailing bytes (codec.h).
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "util/bytes.h"
#include "wire/codec.h"

namespace enclaves::wire {

/// Why a tree rekey happened — carried in the clear for observability; all
/// security decisions rest on the sealed entries and the confirmation tag.
enum class KeyTreeReason : std::uint8_t {
  join = 1,    // a new leaf was grafted, its path rotated
  leave = 2,   // a leaf was pruned (leave/expel/Oops), its path rotated
  manual = 3,  // periodic/manual rekey: root rotated only
  rebuild = 4, // capacity growth: whole tree re-minted
};

template <>
struct EnumNames<KeyTreeReason> {
  static constexpr std::pair<KeyTreeReason, const char*> names[] = {
      {KeyTreeReason::join, "join"},
      {KeyTreeReason::leave, "leave"},
      {KeyTreeReason::manual, "manual"},
      {KeyTreeReason::rebuild, "rebuild"},
  };
};
static_assert(std::size(EnumNames<KeyTreeReason>::names) ==
              static_cast<std::size_t>(KeyTreeReason::rebuild));

// A tree of depth 20 holds 1M leaves; anything deeper is a forged header.
constexpr std::uint32_t kMaxKeyTreeDepth = 20;
// An update rotates at most one path (2 entries/level) or rebuilds the tree
// (one entry per occupied child); cap well above both for 2^20 leaves.
constexpr std::uint32_t kMaxKeyTreeEntries = 1 << 21;
constexpr std::uint32_t kMaxKeyTreePathLen = kMaxKeyTreeDepth + 1;

/// One rotated node: the node's NEW KEK, sealed under the current KEK of
/// `carrier` (one of the node's children, or a leaf). The sealed blob is a
/// seal.h body whose plaintext is encode(KeyTreeNodeKek{node, epoch, kek}).
struct KeyTreeEntry {
  std::uint32_t node = 0;     // heap index of the rotated node (1 = root)
  std::uint32_t carrier = 0;  // heap index whose current KEK seals this entry
  Bytes sealed;               // aead_nonce || ciphertext || tag
  auto fields() { return std::tie(node, carrier, sealed); }
  friend bool operator==(const KeyTreeEntry&, const KeyTreeEntry&) = default;
};

/// Plaintext inside one sealed entry. The (node, epoch) binding prevents an
/// entry from being spliced into a different update or onto a different
/// node; the KEK itself is 32 raw bytes.
struct KeyTreeNodeKek {
  static constexpr std::uint8_t kType = 0x60;
  std::uint32_t node = 0;
  std::uint64_t epoch = 0;
  crypto::GroupKey kek;  // 32-byte KEK (GroupKey wrapper reused for size)
  auto fields() { return std::tie(node, epoch, kek); }
  friend bool operator==(const KeyTreeNodeKek&,
                         const KeyTreeNodeKek&) = default;
};

/// Leader -> group (broadcast): one tree rotation. `confirm` is
/// HMAC-SHA256(Kg_new, "enclaves keytree confirm" || epoch); only the
/// leader (and members who faithfully reach the new root) can compute it,
/// so a forged or spliced entry set fails confirmation atomically.
struct KeyTreeUpdatePayload {
  static constexpr std::uint8_t kType = 0x61;
  std::string l;              // leader id
  std::uint64_t epoch = 0;    // the NEW epoch this update establishes
  KeyTreeReason reason = KeyTreeReason::manual;
  std::uint32_t depth = 0;    // tree depth (leaves live at heap level depth)
  std::vector<KeyTreeEntry> entries;
  crypto::HmacSha256::Tag confirm = {};
  auto fields() {
    return tie_fields(l, epoch, reason, capped<kMaxKeyTreeDepth>(depth),
                      capped<kMaxKeyTreeEntries>(entries), confirm);
  }
  friend bool operator==(const KeyTreeUpdatePayload&,
                         const KeyTreeUpdatePayload&) = default;
};

/// Member -> leader: "I cannot reach the current root" (lost broadcast,
/// missed epoch). Sealed under the member's leaf KEK; `have_epoch` is the
/// newest epoch the member did apply, `nr` is echoed in the answer.
struct KeyTreeRecoverPayload {
  static constexpr std::uint8_t kType = 0x62;
  std::string a;                 // member id
  std::string l;                 // leader id
  crypto::ProtocolNonce nr;      // freshness nonce, echoed in KEY_TREE_PATH
  std::uint64_t have_epoch = 0;  // newest epoch the member holds
  auto fields() { return std::tie(a, l, nr, have_epoch); }
  friend bool operator==(const KeyTreeRecoverPayload&,
                         const KeyTreeRecoverPayload&) = default;
};

/// Leader -> one member: the member's full current root-to-leaf path (leaf
/// parent first, root last), sealed as a whole under the member's leaf KEK.
/// Also used unsolicited (zero nonce) to hand a joiner its initial path
/// when the rekey policy does not rotate on join.
struct KeyTreePathPayload {
  static constexpr std::uint8_t kType = 0x63;
  std::string l;             // leader id
  std::string a;             // member id
  crypto::ProtocolNonce nr;  // echo of the recover nonce (zero if unsolicited)
  std::uint64_t epoch = 0;   // epoch this path belongs to
  std::uint32_t leaf = 0;    // the member's leaf heap index
  std::vector<KeyTreeNodeKek> path;  // path KEKs, bottom-up, root last
  // HMAC(Kg, "enclaves keytree path" || epoch || leaf || every path entry):
  // unlike the update's root-only tag, this binds each intermediate KEK, so
  // a tampered entry is refused at install instead of surfacing later as
  // an undecryptable subtree.
  crypto::HmacSha256::Tag confirm = {};
  auto fields() {
    return tie_fields(l, a, nr, epoch, leaf, capped<kMaxKeyTreePathLen>(path),
                      confirm);
  }
  friend bool operator==(const KeyTreePathPayload&,
                         const KeyTreePathPayload&) = default;
};

}  // namespace enclaves::wire
