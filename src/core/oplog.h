// Offline op-log for disconnected operation (Coda-CML-style, PROTOCOL.md
// §12): the queue of application sends a partitioned Member accumulates
// while it has no leader, replayed through the reconciliation exchange on
// heal.
//
// Two integrity mechanisms, for two different adversaries:
//
//  - Each entry carries an HMAC *chain* link over (previous MAC, seq, epoch,
//    payload) under Kr — the pairwise session key held when the partition
//    began. The leader, which retains Kr in its parole list, recomputes the
//    chain during replay; any forged, reordered, dropped, or epoch-shifted
//    op breaks the chain and is ledgered as intrusion evidence
//    (EvidenceKind::forged_oplog). This is what makes naive "catch-up"
//    delivery safe: authenticity and order come from the chain, not from
//    trust in the healed member.
//
//  - serialize()/deserialize() store the whole log as one wire::mac_encode
//    blob under a storage key, as the leader snapshot is stored — so a
//    member that reboots mid-partition can persist and recover its queue.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "util/bytes.h"
#include "util/result.h"
#include "wire/codec.h"

namespace enclaves::core {

class OpLog {
 public:
  struct Entry {
    std::uint64_t seq = 0;    // 1-based position in the log
    std::uint64_t epoch = 0;  // group epoch held when the op was queued
    Bytes payload;            // the application bytes
    crypto::HmacSha256::Tag mac = {};  // chain link (see chain_next)
    auto fields() { return std::tie(seq, epoch, mac, payload); }
    friend bool operator==(const Entry&, const Entry&) = default;
  };

  /// Type octet of the stored blob (serialize).
  static constexpr std::uint8_t kType = 0x92;

  /// Hard cap on queued ops: a partition longer than this stops accepting
  /// sends rather than growing without bound.
  static constexpr std::size_t kMaxEntries = 1024;

  OpLog() = default;
  explicit OpLog(crypto::SessionKey chain_key)
      : chain_key_(std::move(chain_key)), keyed_(true) {}

  /// Queues one op under `epoch`, extending the MAC chain. Fails with
  /// Errc::oversized once kMaxEntries is reached and Errc::denied if the
  /// log has no chain key (default-constructed / freshly deserialized).
  Status append(std::uint64_t epoch, BytesView payload);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const std::vector<Entry>& entries() const { return entries_; }

  /// MAC of the last entry — the value offered to the leader so it can
  /// check the replayed chain arrived whole. All-zero while empty.
  const crypto::HmacSha256::Tag& head() const {
    return entries_.empty() ? kEmptyHead : entries_.back().mac;
  }

  /// Discards all entries (replay acknowledged, or reconciliation
  /// abandoned). The chain restarts from zero.
  void clear() { entries_.clear(); }

  /// The chain rule, shared between member (append) and leader (replay
  /// validation): HMAC(key, prev_mac || seq || epoch || payload), the
  /// input encoded as a wire record (u32 length before the payload).
  static crypto::HmacSha256::Tag chain_next(BytesView chain_key,
                                            const crypto::HmacSha256::Tag& prev,
                                            std::uint64_t seq,
                                            std::uint64_t epoch,
                                            BytesView payload);

  /// Sealed persistence: wire::mac_encode of the entries under
  /// `storage_key` (type octet, u32 count, then seq, epoch, chain MAC and
  /// payload per entry; one trailing HMAC). deserialize verifies the MAC
  /// before parsing anything, refuses more than kMaxEntries as
  /// Errc::oversized, and re-verifies the per-entry chain is internally
  /// consistent in shape (seq contiguity, else Errc::malformed); the chain
  /// MACs themselves can only be checked by a holder of Kr. A deserialized
  /// log is unkeyed: it can be replayed or cleared but not appended to.
  Bytes serialize(BytesView storage_key) const;
  static Result<OpLog> deserialize(BytesView data, BytesView storage_key);

  /// The stored blob's fields (wire/codec.h); deserialize adds the seq
  /// check that a bare wire::decode<OpLog> does not make.
  auto fields() {
    return wire::tie_fields(wire::capped<kMaxEntries>(entries_));
  }

 private:
  static constexpr crypto::HmacSha256::Tag kEmptyHead = {};

  crypto::SessionKey chain_key_;  // Kr; all-zero when !keyed_
  bool keyed_ = false;
  std::vector<Entry> entries_;
};

}  // namespace enclaves::core
