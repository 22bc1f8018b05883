// One fixed instance of every wire shape: the 29 sealed or clear payloads,
// the seven AdminBody alternatives and the envelope, then the stored blobs
// and app payloads that go through the same codec from outside src/wire.
// Every byte is a fixed pattern, so encodings are reproducible; the
// pinned-bytes test, the fuzz corpus and the cross-decode matrix all start
// from these.
#pragma once

#include <cstdint>
#include <tuple>
#include <utility>

#include "app/group_chat.h"
#include "app/shared_state.h"
#include "core/oplog.h"
#include "core/registry.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "util/bytes.h"
#include "wire/admin_body.h"
#include "wire/all_payloads.h"
#include "wire/envelope.h"
#include "wire/fed.h"
#include "wire/keytree.h"
#include "wire/legacy_payloads.h"
#include "wire/payloads.h"
#include "wire/reconcile.h"
#include "wire/repl.h"

namespace enclaves::wire_samples {

/// `n` bytes counting up from `first`.
inline Bytes pattern(std::size_t n, std::uint8_t first) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = static_cast<std::uint8_t>(first + i);
  return b;
}

inline crypto::ProtocolNonce nonce(std::uint8_t first) {
  return crypto::ProtocolNonce::from_bytes(pattern(crypto::kNonceBytes, first));
}

template <class Key>
Key key(std::uint8_t first) {
  return Key::from_bytes(pattern(crypto::kKeyBytes, first));
}

inline crypto::HmacSha256::Tag tag(std::uint8_t first) {
  crypto::HmacSha256::Tag t{};
  const Bytes b = pattern(t.size(), first);
  std::copy(b.begin(), b.end(), t.begin());
  return t;
}

/// The seven AdminBody alternatives, in tag order.
inline std::tuple<wire::NewGroupKey, wire::MemberJoined, wire::MemberLeft,
                  wire::MemberList, wire::Notice, wire::Expelled,
                  wire::KeyTreeAssign>
admin_bodies() {
  return {wire::NewGroupKey{key<crypto::GroupKey>(0x40), 7},
          wire::MemberJoined{"bob"},
          wire::MemberLeft{"carol"},
          wire::MemberList{{"alice", "bob"}},
          wire::Notice{"hi"},
          wire::Expelled{"oops"},
          wire::KeyTreeAssign{9, 3}};
}

/// One instance of every payload type, in family order (protocol, key
/// tree, legacy, federation, replication, reconciliation), then the
/// AdminBody (one alternative) and the envelope.
inline auto payloads() {
  using namespace wire;
  const auto kek = [](std::uint32_t node, std::uint8_t first) {
    return KeyTreeNodeKek{node, 5, key<crypto::GroupKey>(first)};
  };
  return std::make_tuple(
      AuthInitPayload{"alice", "L", nonce(0x01)},
      AuthKeyDistPayload{"L", "alice", nonce(0x01), nonce(0x11),
                         key<crypto::SessionKey>(0x21)},
      AuthAckPayload{nonce(0x11), nonce(0x31)},
      AdminPayload{"L", "alice", nonce(0x31), nonce(0x41),
                   AdminBody(MemberJoined{"bob"})},
      AckPayload{"alice", "L", nonce(0x41), nonce(0x51)},
      ReqClosePayload{"alice", "L"},
      GroupDataPayload{"alice", 4, 2, pattern(5, 0x61)},
      kek(3, 0x70),
      KeyTreeUpdatePayload{"L", 6, KeyTreeReason::leave, 2,
                           {KeyTreeEntry{2, 4, pattern(3, 0x80)},
                            KeyTreeEntry{1, 2, pattern(2, 0x90)}},
                           tag(0xA0)},
      KeyTreeRecoverPayload{"alice", "L", nonce(0x02), 5},
      KeyTreePathPayload{"L", "alice", nonce(0x02), 5, 4,
                         {kek(2, 0x12), kek(1, 0x32)}, tag(0x52)},
      LegacyAuthInitPayload{"alice", "L", nonce(0x03)},
      LegacyAuthReplyPayload{"L", "alice", nonce(0x03), nonce(0x13),
                             key<crypto::SessionKey>(0x23), pattern(16, 0x43),
                             key<crypto::GroupKey>(0x53), 1},
      LegacyAuthAckPayload{nonce(0x13)},
      LegacyNewKeyPayload{key<crypto::GroupKey>(0x63), pattern(16, 0x83), 2},
      LegacyNewKeyAckPayload{key<crypto::GroupKey>(0x63)},
      LegacyMembershipPayload{"bob"},
      FedRedirectPayload{"g", "s1/g", "s2/g", 3},
      FedMigrateOfferPayload{"g", "s1", "s2", 11, 12, 13, pattern(4, 0x04)},
      FedMigrateAckPayload{"g", 11, FedMigrateVerdict::accept, 1012},
      FedMigrateCommitPayload{"g", 11, 14},
      FedDirSyncPayload{"g", "s2", 14},
      ReplDeltaPayload{
          8, 21, 2,
          {{{"dave", {key<crypto::LongTermKey>(0x05), "snapshot"}}}, {"erin"}},
          {{{"dave", 5}}, {}},
          {{{"frank", {key<crypto::SessionKey>(0x25), 3}}}, {"gus"}}},
      ReplSnapshotPayload{8, 21, pattern(4, 0x25)},
      ReplAckPayload{21, 8, false, true},
      ReplHeartbeatPayload{8, 22},
      ReconcileOfferPayload{"alice", "L", nonce(0x06), 3, 2, tag(0x16)},
      ReconcileVerdictPayload{"L", "alice", nonce(0x06),
                              ReconcileVerdictKind::admit, 4, 1},
      OpReplayPayload{"alice", 1, 3, tag(0x36), pattern(3, 0x56)},
      AdminBody(MemberList{{"alice", "bob"}}),
      Envelope{Label::AdminMsg, "L", "alice", pattern(6, 0x07)});
}

/// The types defined outside src/wire that wire::decode<T> reads: the two
/// stored blobs (core) and the app payloads, one StateMessage alternative
/// each. Listed here, next to wire::AllPayloads, so src/wire need not know
/// core or app.
using BlobPayloads =
    std::tuple<core::LeaderSnapshot, core::OpLog, app::ChatMessage,
               app::StateUpdate, app::SnapshotRequest, app::SnapshotReply>;

static_assert(wire::kDistinctTypeOctets<decltype(std::tuple_cat(
                  std::declval<wire::AllPayloads>(),
                  std::declval<BlobPayloads>()))>,
              "a stored or app payload shares a wire payload's type octet");

/// One instance of each BlobPayloads type, in the same order.
inline BlobPayloads blobs() {
  core::LeaderSnapshot snap;
  snap.epoch = 9;
  (void)snap.registry.add("alice", {key<crypto::LongTermKey>(0x08), "pw"});
  snap.keytree_depth = 2;
  snap.keytree_slots = {{"alice", 3}};
  snap.parole = {{"bob", {key<crypto::SessionKey>(0x28), 4}}};
  core::OpLog log(key<crypto::SessionKey>(0x48));
  (void)log.append(2, pattern(3, 0x68));
  return {snap,
          log,
          app::ChatMessage{app::ChatKind::text, "alice", "hi", 7},
          app::StateUpdate{"k", {"v", {1, "alice"}, false}},
          app::SnapshotRequest{},
          app::SnapshotReply{{{"k", {"v", {1, "alice"}, true}}}}};
}

}  // namespace enclaves::wire_samples
