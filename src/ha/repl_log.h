// Replication log — the active leader's epoch-fenced record of snapshot
// deltas awaiting standby acknowledgement (PROTOCOL.md §11) — and the diff
// and patch that make and apply a delta.
//
// Each delta is keyed by a 1-based, strictly increasing sequence number
// assigned at append time; (epoch, seq) uniquely names one snapshot change
// for the lifetime of the active/standby pairing. The log retains only the
// unacknowledged suffix: a cumulative ack from the standby prunes
// everything at or below it, so memory is bounded by the replication lag,
// not by group history. Anything the standby missed beyond the retained
// suffix is repaired with a full snapshot resync, never by rewinding seq.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/registry.h"
#include "wire/repl.h"

namespace enclaves::ha {

/// The delta that turns snapshot `from` into `to`, seq left unset: `to`'s
/// epoch and key-tree depth, and per snapshot map the entries added or
/// changed and the keys removed.
wire::ReplDeltaPayload diff(const core::LeaderSnapshot& from,
                            const core::LeaderSnapshot& to);

/// Applies `delta` to `snap`: patch(from, diff(from, to)) leaves `from`
/// equal to `to`. Returns the names of the fields that changed, comma
/// separated, e.g. "epoch,slots" (the repl_delta event's detail).
std::string patch(core::LeaderSnapshot& snap,
                  const wire::ReplDeltaPayload& delta);

class ReplLog {
 public:
  /// Appends one delta, assigning it the next sequence number (returned).
  /// The caller fills every field except `seq`.
  std::uint64_t append(wire::ReplDeltaPayload delta);

  /// Highest sequence number ever assigned (0 = empty history).
  std::uint64_t head() const { return head_; }

  /// Highest cumulatively acknowledged sequence number.
  std::uint64_t acked() const { return acked_; }

  /// Records a cumulative acknowledgement and prunes entries <= seq.
  /// Acks never regress: a stale (lower) ack is a no-op.
  void ack(std::uint64_t seq);

  /// Deltas above the ack floor by seq (the retransmission set).
  const std::map<std::uint64_t, wire::ReplDeltaPayload>& unacked() const {
    return entries_;
  }

 private:
  std::map<std::uint64_t, wire::ReplDeltaPayload> entries_;
  std::uint64_t head_ = 0;
  std::uint64_t acked_ = 0;
};

}  // namespace enclaves::ha
