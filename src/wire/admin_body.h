// Group-management message contents — the field X of an AdminMsg.
//
// Section 3.2: "The field X is the actual group-management message. For
// example, X may specify a new group key and initialization vector, or
// indicate that a member has joined or left the session."
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "crypto/keys.h"
#include "util/bytes.h"
#include "wire/codec.h"

namespace enclaves::wire {

/// New group key Kg with its epoch. Epochs increase monotonically; members
/// discard data-plane traffic from older epochs after a rekey.
struct NewGroupKey {
  static constexpr std::uint8_t kType = 1;
  crypto::GroupKey key;
  std::uint64_t epoch = 0;
  auto fields() { return std::tie(key, epoch); }
  friend bool operator==(const NewGroupKey&, const NewGroupKey&) = default;
};

struct MemberJoined {
  static constexpr std::uint8_t kType = 2;
  std::string member;
  auto fields() { return std::tie(member); }
  friend bool operator==(const MemberJoined&, const MemberJoined&) = default;
};

struct MemberLeft {
  static constexpr std::uint8_t kType = 3;
  std::string member;
  auto fields() { return std::tie(member); }
  friend bool operator==(const MemberLeft&, const MemberLeft&) = default;
};

/// Largest member list a decoder accepts.
constexpr std::uint32_t kMaxMembers = 1 << 16;

/// Full membership snapshot, sent to a member right after it joins so it can
/// initialize its view (Section 2.2: "sends to A the identity of all the
/// other group members").
struct MemberList {
  static constexpr std::uint8_t kType = 4;
  std::vector<std::string> members;
  auto fields() { return tie_fields(capped<kMaxMembers>(members)); }
  friend bool operator==(const MemberList&, const MemberList&) = default;
};

/// Free-form administrative notice (leader announcements, application-level
/// control traffic).
struct Notice {
  static constexpr std::uint8_t kType = 5;
  std::string text;
  auto fields() { return std::tie(text); }
  friend bool operator==(const Notice&, const Notice&) = default;
};

/// Final message of an administrative expulsion (the paper: "A variation of
/// this protocol can be used to expel some members of the group"). Arrives
/// on the authenticated admin channel, so unlike the legacy protocol's
/// close handling it cannot be forged by insiders.
struct Expelled {
  static constexpr std::uint8_t kType = 6;
  std::string reason;
  auto fields() { return std::tie(reason); }
  friend bool operator==(const Expelled&, const Expelled&) = default;
};

/// Key-tree leaf assignment (PROTOCOL.md §13): tells a freshly authenticated
/// member which leaf slot it occupies in the leader's key hierarchy. Travels
/// on the authenticated admin channel, so the assignment carries the
/// leader-origin and freshness guarantees of §3.2; the member derives its
/// leaf KEK locally from the session key Ka (HKDF), so no key material
/// rides in this message at all.
struct KeyTreeAssign {
  static constexpr std::uint8_t kType = 7;
  std::uint32_t leaf = 0;   // heap index of the member's leaf node
  std::uint32_t depth = 0;  // tree depth the index lives in
  auto fields() { return std::tie(leaf, depth); }
  friend bool operator==(const KeyTreeAssign&, const KeyTreeAssign&) = default;
};

/// Each alternative leads with its own tag octet (kType, 1..7): the
/// decoder dispatches on it.
using AdminBody = std::variant<NewGroupKey, MemberJoined, MemberLeft,
                               MemberList, Notice, Expelled, KeyTreeAssign>;
static_assert(kDistinctTypeOctets<AdminBody>);

/// Human-readable description for narration/logging.
std::string describe(const AdminBody& body);

/// Stable snake_case kind tag (static storage, never allocates) — used by
/// the observability layer to label admin traffic without formatting.
const char* admin_kind_name(const AdminBody& body);

}  // namespace enclaves::wire
