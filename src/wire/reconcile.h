// Reconciliation payload family (labels 112–114) — heal-time merge of a
// partitioned member's offline op-log back into the group (PROTOCOL.md §12,
// docs/PARTITIONS.md).
//
// A member that loses its leader to a partition keeps its group state and
// queues application sends into an HMAC-chained OpLog (core/oplog.h). On
// heal it offers the log head to the leader (RECONCILE_OFFER); the leader
// answers with a verdict (RECONCILE_VERDICT: admit / quarantine / intrusion)
// and, on admit, the member replays ops one at a time (OP_REPLAY),
// stop-and-wait on the verdict's cumulative `ack_seq` — the same discipline
// as the AdminMsg/Ack channel.
//
// All three payloads travel sealed (seal.h) under Kr, the pairwise session
// key the member held when the partition began, which the leader retains in
// its parole list. Freshness comes from the offer nonce (echoed in every
// verdict) and from the epoch fence carried in offer and ops; the chain MACs
// bind each replayed op to its predecessor so the leader can tell a faithful
// replay from a forged or reordered one.
//
// Like payloads.h, every payload starts with a distinct type octet (0xC0
// range) and wire::decode<T> refuses trailing bytes (codec.h).
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>

#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "util/bytes.h"
#include "wire/codec.h"

namespace enclaves::wire {

/// Leader's ruling on a reconciliation offer or a replayed op.
enum class ReconcileVerdictKind : std::uint8_t {
  admit = 1,       // clean partition: replay accepted, fast-path rejoin
  quarantine = 2,  // stale epoch / expired parole: standard rejoin required
  intrusion = 3,   // chain or epoch forgery: evidence ledgered, parole revoked
};

/// Stable snake_case names for traces and logs (enum_name).
template <>
struct EnumNames<ReconcileVerdictKind> {
  static constexpr std::pair<ReconcileVerdictKind, const char*> names[] = {
      {ReconcileVerdictKind::admit, "admit"},
      {ReconcileVerdictKind::quarantine, "quarantine"},
      {ReconcileVerdictKind::intrusion, "intrusion"},
  };
};
static_assert(std::size(EnumNames<ReconcileVerdictKind>::names) ==
              static_cast<std::size_t>(ReconcileVerdictKind::intrusion));

/// Member -> leader: "I survived a partition under `fence_epoch` and hold
/// `oplog_len` queued ops whose chain head is `chain_head`." Rebuilt (with a
/// fresh nonce) whenever the log grows; byte-identical between rebuilds.
struct ReconcileOfferPayload {
  static constexpr std::uint8_t kType = 0xC1;
  std::string a;                    // member id
  std::string l;                    // leader id
  crypto::ProtocolNonce nr;         // freshness nonce, echoed in verdicts
  std::uint64_t fence_epoch = 0;    // epoch held when the partition began
  std::uint64_t oplog_len = 0;      // queued ops awaiting replay
  crypto::HmacSha256::Tag chain_head = {};  // MAC of the last queued op
  auto fields() {
    return std::tie(a, l, nr, fence_epoch, oplog_len, chain_head);
  }
  friend bool operator==(const ReconcileOfferPayload&,
                         const ReconcileOfferPayload&) = default;
};

/// Leader -> member: verdict on the offer, and on admit the cumulative
/// replay acknowledgement (`ack_seq` = highest contiguously accepted op).
struct ReconcileVerdictPayload {
  static constexpr std::uint8_t kType = 0xC2;
  std::string l;                    // leader id
  std::string a;                    // member id
  crypto::ProtocolNonce nr;         // echo of the offer nonce
  ReconcileVerdictKind verdict = ReconcileVerdictKind::quarantine;
  std::uint64_t epoch = 0;          // leader's current epoch
  std::uint64_t ack_seq = 0;        // replay floor (0 = send op 1)
  auto fields() { return std::tie(l, a, nr, verdict, epoch, ack_seq); }
  friend bool operator==(const ReconcileVerdictPayload&,
                         const ReconcileVerdictPayload&) = default;
};

/// Member -> leader: one queued op, replayed in order. `mac` is the op's
/// HMAC chain link (core/oplog.h chain_next), verified by the leader against
/// its own running chain under Kr.
struct OpReplayPayload {
  static constexpr std::uint8_t kType = 0xC3;
  std::string a;                    // member id (origin)
  std::uint64_t seq = 0;            // 1-based position in the op-log
  std::uint64_t epoch = 0;          // epoch the op was queued under
  crypto::HmacSha256::Tag mac = {}; // chain MAC over (prev, seq, epoch, payload)
  Bytes payload;                    // the application bytes
  auto fields() { return std::tie(a, seq, epoch, mac, payload); }
  friend bool operator==(const OpReplayPayload&,
                         const OpReplayPayload&) = default;
};

}  // namespace enclaves::wire
