// SharedState — a replicated key/value store over the Enclaves data plane
// (the groupware "shared whiteboard" the paper's introduction motivates).
//
// Consistency model: each entry is a last-writer-wins register versioned by
// a Lamport-style counter with the author id as tie-breaker, so every honest
// member converges to the same contents regardless of when it observed the
// updates. Members joining mid-session request a snapshot; existing members
// answer with their full state, and the LWW merge makes duplicate or
// crossing answers harmless.
//
// Trust inherited from the data plane: updates are confidential against
// outsiders and authenticated as "from some current member"; a malicious
// INSIDER can forge authorship or spam updates (the paper's explicit
// non-goal). Membership and keys ride the intrusion-tolerant admin channel.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/member.h"
#include "util/result.h"
#include "wire/codec.h"

namespace enclaves::app {

struct Version {
  std::uint64_t clock = 0;   // Lamport-ish update counter
  std::string author;        // tie-breaker

  auto fields() { return std::tie(clock, author); }
  friend bool operator==(const Version&, const Version&) = default;
  friend bool operator<(const Version& a, const Version& b) {
    if (a.clock != b.clock) return a.clock < b.clock;
    return a.author < b.author;
  }
};

struct Entry {
  std::string value;
  Version version;
  bool tombstone = false;  // deleted entries keep their version for LWW

  auto fields() { return std::tie(value, version, tombstone); }
  friend bool operator==(const Entry&, const Entry&) = default;
};

/// Wire payloads (inside the sealed data plane), encoded with wire::encode.
struct StateUpdate {
  static constexpr std::uint8_t kType = 0xD1;
  std::string key;
  Entry entry;
  auto fields() { return std::tie(key, entry); }
  friend bool operator==(const StateUpdate&, const StateUpdate&) = default;
};
struct SnapshotRequest {
  static constexpr std::uint8_t kType = 0xD2;
  auto fields() { return std::tie(); }
  friend bool operator==(const SnapshotRequest&,
                         const SnapshotRequest&) = default;
};
struct SnapshotReply {
  static constexpr std::uint8_t kType = 0xD3;
  std::vector<StateUpdate> entries;
  auto fields() { return wire::tie_fields(wire::capped<1u << 16>(entries)); }
  friend bool operator==(const SnapshotReply&,
                         const SnapshotReply&) = default;
};

/// Any of the three payloads: wire::decode<StateMessage> dispatches on the
/// type octet.
using StateMessage = std::variant<StateUpdate, SnapshotRequest, SnapshotReply>;

class SharedState {
 public:
  explicit SharedState(core::Member& member);

  /// Writes `key` = `value`, replicating to the group. Errors when not in
  /// session.
  Status set(const std::string& key, const std::string& value);

  /// Deletes `key` (a tombstone write). Errors when not in session.
  Status erase(const std::string& key);

  /// Asks the group for a full snapshot (call after joining mid-session).
  Status request_snapshot();

  std::optional<std::string> get(const std::string& key) const;
  bool contains(const std::string& key) const;
  /// Live keys, sorted.
  std::vector<std::string> keys() const;
  std::size_t size() const;

  /// Fired whenever a key's visible value changes due to a REMOTE update.
  std::function<void(const std::string& key)> on_change;

  /// Also forward the raw core events.
  void set_event_passthrough(core::EventHandler handler) {
    passthrough_ = std::move(handler);
  }

  std::uint64_t decode_failures() const { return decode_failures_; }

 private:
  void on_event(const core::GroupEvent& ev);
  bool apply(const StateUpdate& update);  // true if the entry changed
  Status publish(BytesView payload);
  std::uint64_t next_clock() const;

  core::Member& member_;
  std::map<std::string, Entry> entries_;
  std::uint64_t decode_failures_ = 0;
  core::EventHandler passthrough_;
};

}  // namespace enclaves::app
