// Replication payload family (labels 96–99) — the HA plane that streams the
// active leader's admin-state changes to a warm standby (src/ha/,
// PROTOCOL.md §11).
//
// The replicated state is exactly what `Leader::snapshot()` persists: the
// credential registry plus the epoch. Deltas are keyed by (epoch, seq) where
// seq is a strictly increasing replication-log index; the standby applies
// them in order, suppresses duplicates, and detects gaps. All four payloads
// travel sealed (seal.h) under the pairwise replication key, which must be
// fresh per active/standby pairing — the seal gives confidentiality for the
// long-term keys in credential deltas and authenticity for the stream.
//
// Like payloads.h, every payload starts with a distinct type octet (0xE0
// range) and wire::decode<T> refuses trailing bytes (codec.h).
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>

#include "crypto/keys.h"
#include "util/bytes.h"
#include "wire/codec.h"

namespace enclaves::wire {

/// One admin-state change at the active leader, in emission order.
enum class ReplDeltaKind : std::uint8_t {
  credential_add = 1,     // register_member: member_id + pa
  credential_update = 2,  // update_credential: member_id + pa
  member_joined = 3,      // membership view change (informational: sessions
  member_left = 4,        //   are never replicated; members re-authenticate
  member_expelled = 5,    //   with the promoted leader)
  rekey = 6,              // epoch advanced to `epoch`
};

/// Stable snake_case names for traces and logs (enum_name).
template <>
struct EnumNames<ReplDeltaKind> {
  static constexpr std::pair<ReplDeltaKind, const char*> names[] = {
      {ReplDeltaKind::credential_add, "credential_add"},
      {ReplDeltaKind::credential_update, "credential_update"},
      {ReplDeltaKind::member_joined, "member_joined"},
      {ReplDeltaKind::member_left, "member_left"},
      {ReplDeltaKind::member_expelled, "member_expelled"},
      {ReplDeltaKind::rekey, "rekey"},
  };
};
static_assert(std::size(EnumNames<ReplDeltaKind>::names) ==
              static_cast<std::size_t>(ReplDeltaKind::rekey));

struct ReplDeltaPayload {
  static constexpr std::uint8_t kType = 0xE1;
  std::uint64_t epoch = 0;  // active's epoch when the delta was produced
  std::uint64_t seq = 0;    // log index, 1-based, strictly increasing
  ReplDeltaKind kind = ReplDeltaKind::rekey;
  std::string member_id;    // empty for rekey
  crypto::LongTermKey pa;   // credential_* kinds only; all-zero otherwise
  auto fields() { return std::tie(epoch, seq, kind, member_id, pa); }
  friend bool operator==(const ReplDeltaPayload&,
                         const ReplDeltaPayload&) = default;
};

/// Full baseline: a sealed LeaderSnapshot blob covering the log up to `seq`.
/// Sent at stream start, periodically for compaction, and on gap resync.
struct ReplSnapshotPayload {
  static constexpr std::uint8_t kType = 0xE2;
  std::uint64_t epoch = 0;  // epoch inside the snapshot (redundant, checked)
  std::uint64_t seq = 0;    // log head this baseline covers
  Bytes snapshot;           // LeaderSnapshot::serialize(replication key)
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
