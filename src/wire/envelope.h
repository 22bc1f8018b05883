// Message envelope: label, apparent sender, intended recipient, body.
//
// This mirrors the paper's message space exactly (Section 4: "Each message
// consists of a label, an apparent sender, an intended recipient, and a
// content"). The label, sender, and recipient travel in the clear and are
// UNTRUSTED — an attacker can put anything there. All security decisions rest
// on what the body decrypts to.
#pragma once

#include <cstdint>
#include <string>

#include "util/bytes.h"
#include "util/result.h"

namespace enclaves::wire {

enum class Label : std::uint8_t {
  // Improved intrusion-tolerant protocol (Section 3.2).
  AuthInitReq = 1,
  AuthKeyDist = 2,
  AuthAckKey = 3,
  AdminMsg = 4,
  Ack = 5,
  ReqClose = 6,

  // Legacy Enclaves protocol (Section 2.2) — the vulnerable baseline.
  LegacyReqOpen = 32,
  LegacyAckOpen = 33,
  LegacyConnectionDenied = 34,
  LegacyAuthInit = 35,
  LegacyAuthReply = 36,
  LegacyAuthAck = 37,
  LegacyNewKey = 38,
  LegacyNewKeyAck = 39,
  LegacyMemRemoved = 40,
  LegacyMemAdded = 41,
  LegacyReqClose = 42,
  LegacyCloseConnection = 43,

  // Group data plane (shared shape; keyed under Kg).
  GroupData = 64,

  // HA replication plane (active leader <-> warm standby; sealed under the
  // pairwise replication key — see src/ha/ and PROTOCOL.md §11). Not part
  // of the paper's message space: members never see these labels.
  ReplDelta = 96,      // one admin-state delta, keyed by (epoch, seq)
  ReplSnapshot = 97,   // sealed LeaderSnapshot baseline covering seq
  ReplAck = 98,        // standby -> active: applied floor / gap / fence
  ReplHeartbeat = 99,  // active -> standby: liveness + current log head

  // Reconciliation plane (partition-healed member <-> leader; sealed under
  // the pre-partition pairwise key Kr — see wire/reconcile.h, core/oplog.h
  // and PROTOCOL.md §12). Not part of the paper's message space either: it
  // is the Coda-style disconnected-operation extension.
  ReconcileOffer = 112,    // member -> leader: fence epoch + op-log head
  ReconcileVerdict = 113,  // leader -> member: admit/quarantine/intrusion
  OpReplay = 114,          // member -> leader: one chained queued op

  // Key-tree rekey plane (LKH-style logical key hierarchy; entries sealed
  // under subtree KEKs — see wire/keytree.h, core/keytree.h and
  // PROTOCOL.md §13). Replaces the flat per-member NewGroupKey fan-out
  // when RekeyPolicy selects the tree algorithm.
  KeyTreeUpdate = 120,   // leader -> group: one O(log N) path rotation
  KeyTreeRecover = 121,  // member -> leader: "cannot reach the new root"
  KeyTreePath = 122,     // leader -> member: full path under the leaf KEK

  // Federation plane (sharded multi-leader operation — src/fed/,
  // PROTOCOL.md §14). FedRedirect travels in the clear and is a ROUTING
  // HINT only (following a forged one ends at a leader that cannot
  // authenticate you — equivalent to a dropped packet); the migration and
  // directory payloads travel sealed under the pairwise inter-shard key.
  FedRedirect = 128,       // shard -> member: "group g lives at leader X"
  FedMigrateOffer = 129,   // source -> target: sealed group snapshot
  FedMigrateAck = 130,     // target -> source: accept / refuse + fence
  FedMigrateCommit = 131,  // source -> target: ownership handed over
  FedDirSync = 132,        // shard -> shard: versioned ownership claim
};

/// Stable label name for logs and attack narration.
const char* label_name(Label label);
bool is_known_label(std::uint8_t raw);

/// Recipient value used for messages addressed to the whole group.
inline constexpr const char* kGroupRecipient = "*";

struct Envelope {
  Label label = Label::AuthInitReq;
  std::string sender;     // apparent sender — untrusted
  std::string recipient;  // intended recipient — untrusted
  Bytes body;             // label-specific content

  friend bool operator==(const Envelope&, const Envelope&) = default;
};

Bytes encode(const Envelope& e);
/// frame(encode(e)) built in one buffer: the u32 length prefix, then the
/// encoding.
Bytes encode_framed(const Envelope& e);
Result<Envelope> decode_envelope(BytesView raw);

/// Short one-line description for narration, e.g. "AdminMsg L->A (52B)".
std::string describe(const Envelope& e);

}  // namespace enclaves::wire
