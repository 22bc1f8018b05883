// Replication payload family (labels 96–99) — the HA plane that streams the
// active leader's durable state to a warm standby (src/ha/, PROTOCOL.md §11).
//
// The replicated state is `Leader::snapshot()` itself. A delta is the diff
// between two snapshots: the new epoch and key-tree depth, plus the entries
// of the three snapshot maps (credentials, key-tree slots, parole) that were
// added, changed or removed. Deltas are keyed by (epoch, seq) where seq is a
// strictly increasing replication-log index; the standby applies them in
// order, suppresses duplicates, and detects gaps. All four payloads travel
// sealed (seal.h) under the pairwise replication key, which must be fresh
// per active/standby pairing — the seal gives confidentiality for the
// long-term keys and parole keys in deltas and authenticity for the stream.
//
// Like payloads.h, every payload starts with a distinct type octet (0xE0
// range) and wire::decode<T> refuses trailing bytes (codec.h).
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "crypto/keys.h"
#include "util/bytes.h"
#include "wire/codec.h"

namespace enclaves::wire {

/// Most entries one map diff may list: the largest snapshot map's own cap
/// (key-tree slots). Above it a delta is refused as oversized.
constexpr std::uint32_t kMaxReplEntries = 1 << 21;

/// One snapshot-map entry that was added or changed, with its new value.
template <class V>
struct ReplEntry {
  std::string key;
  V value{};
  auto fields() { return std::tie(key, value); }
  friend bool operator==(const ReplEntry&, const ReplEntry&) = default;
};

/// How one snapshot map changed: entries set (added or changed) and keys
/// erased.
template <class V>
struct ReplMapDiff {
  std::vector<ReplEntry<V>> set;
  std::vector<std::string> erased;
  auto fields() {
    return tie_fields(capped<kMaxReplEntries>(set),
                      capped<kMaxReplEntries>(erased));
  }
  friend bool operator==(const ReplMapDiff&, const ReplMapDiff&) = default;
};

/// A registry credential's value (the key is the member id).
struct ReplCredential {
  crypto::LongTermKey pa;
  std::string note;
  auto fields() { return std::tie(pa, note); }
  friend bool operator==(const ReplCredential&,
                         const ReplCredential&) = default;
};

/// A parole record's value (the key is the member id).
struct ReplParole {
  crypto::SessionKey kr;
  std::uint64_t fence_epoch = 0;
  auto fields() { return std::tie(kr, fence_epoch); }
  friend bool operator==(const ReplParole&, const ReplParole&) = default;
};

/// The active's snapshot changed since the previous delta.
struct ReplDeltaPayload {
  static constexpr std::uint8_t kType = 0xE1;
  std::uint64_t epoch = 0;  // the snapshot's epoch
  std::uint64_t seq = 0;    // log index, 1-based, strictly increasing
  std::uint32_t keytree_depth = 0;
  ReplMapDiff<ReplCredential> credentials;
  ReplMapDiff<std::uint32_t> slots;  // member id -> key-tree leaf
  ReplMapDiff<ReplParole> parole;
  auto fields() {
    return std::tie(epoch, seq, keytree_depth, credentials, slots, parole);
  }
  friend bool operator==(const ReplDeltaPayload&,
                         const ReplDeltaPayload&) = default;
};

/// Full baseline: a sealed LeaderSnapshot blob covering the log up to `seq`.
/// Sent at stream start, periodically for compaction, and on gap resync.
struct ReplSnapshotPayload {
  static constexpr std::uint8_t kType = 0xE2;
  std::uint64_t epoch = 0;  // epoch inside the snapshot (redundant, checked)
  std::uint64_t seq = 0;    // log head this baseline covers
  Bytes snapshot;           // mac_encode(LeaderSnapshot, replication key)
  auto fields() { return std::tie(epoch, seq, snapshot); }
  friend bool operator==(const ReplSnapshotPayload&,
                         const ReplSnapshotPayload&) = default;
};

/// Standby -> active: cumulative acknowledgement and flow control. A
/// promoted standby answers any further replication traffic with
/// `fenced = true` and its (fenced) epoch — the old leader is deposed.
struct ReplAckPayload {
  static constexpr std::uint8_t kType = 0xE3;
  std::uint64_t seq = 0;    // highest contiguously applied log index
  std::uint64_t epoch = 0;  // acker's epoch view
  bool gap = false;         // sender should resync with a fresh snapshot
  bool fenced = false;      // acker is an active leader at a higher epoch
  auto fields() { return std::tie(seq, epoch, gap, fenced); }
  friend bool operator==(const ReplAckPayload&,
                         const ReplAckPayload&) = default;
};

/// Active -> standby: liveness probe carrying the current log head, so an
/// idle standby can detect gaps (and the failover controller can tell a
/// quiet leader from a dead one).
struct ReplHeartbeatPayload {
  static constexpr std::uint8_t kType = 0xE4;
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;  // current log head (0 = nothing emitted yet)
  auto fields() { return std::tie(epoch, seq); }
  friend bool operator==(const ReplHeartbeatPayload&,
                         const ReplHeartbeatPayload&) = default;
};

}  // namespace enclaves::wire
