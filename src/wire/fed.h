// Federation payload family (labels 128–132) — the sharded multi-leader
// plane that places groups onto leader shards, migrates a group between
// shards, and keeps a versioned cross-shard ownership directory (src/fed/,
// PROTOCOL.md §14).
//
// Trust model, per payload:
//   FedRedirect     travels IN THE CLEAR and is a routing hint only. A shard
//                   that receives traffic for a group it no longer (or never)
//                   owned answers with the owner it believes in; the member
//                   retargets and re-authenticates THERE. Following a forged
//                   redirect lands at a leader that cannot authenticate you —
//                   operationally a dropped packet, never a key compromise.
//                   Members bound redirects-per-join so a forger cannot even
//                   starve the join (the failover rotation keeps running).
//   FedMigrate*     sealed under the pairwise inter-shard key (fed_pair_key).
//                   The offer carries the group's sealed LeaderSnapshot —
//                   credentials, epoch, key-tree slots, parole — so the
//                   seal's confidentiality matters, not just authenticity.
//   FedDirSync      sealed likewise; carries a versioned ownership claim.
//                   Versions only move forward, so a resurrected source
//                   shard replaying its pre-migration claim is refused with
//                   ledger evidence rather than rolling the directory back.
//
// Like payloads.h/repl.h, every payload starts with a distinct type octet
// (0xF0 range) and wire::decode<T> refuses trailing bytes (codec.h).
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>

#include "util/bytes.h"
#include "wire/codec.h"

namespace enclaves::wire {

/// Shard -> member routing hint: "the group behind `stale_leader` is served
/// by `owner_leader`". Unsealed and advisory (see the header comment).
struct FedRedirectPayload {
  static constexpr std::uint8_t kType = 0xF1;
  std::string group;         // bare group name, e.g. "research"
  std::string stale_leader;  // the leader id the member targeted
  std::string owner_leader;  // where the group actually lives ("shard/g")
  std::uint64_t dir_version = 0;  // sender's directory version for the group
  auto fields() {
    return std::tie(group, stale_leader, owner_leader, dir_version);
  }
  friend bool operator==(const FedRedirectPayload&,
                         const FedRedirectPayload&) = default;
};

/// Source -> target: the frozen group, offered for adoption. `snapshot` is
/// mac_encode(LeaderSnapshot) under the SAME pairwise key that seals this
/// payload's envelope.
struct FedMigrateOfferPayload {
  static constexpr std::uint8_t kType = 0xF2;
  std::string group;
  std::string source_shard;
  std::string target_shard;
  std::uint64_t migration_id = 0;  // fresh per attempt; echoed by the ack
  std::uint64_t epoch = 0;         // source's epoch at freeze
  std::uint64_t dir_version = 0;   // source's ownership version for `group`
  Bytes snapshot;                  // sealed LeaderSnapshot blob
  auto fields() {
    return std::tie(group, source_shard, target_shard, migration_id, epoch,
                    dir_version, snapshot);
  }
  friend bool operator==(const FedMigrateOfferPayload&,
                         const FedMigrateOfferPayload&) = default;
};

enum class FedMigrateVerdict : std::uint8_t {
  accept = 1,   // installed; source must commit and drop the group
  refuse = 2,   // target refuses (stale version / bad snapshot / duplicate
                //   group at higher epoch — the resurrected-source case)
};

template <>
struct EnumNames<FedMigrateVerdict> {
  static constexpr std::pair<FedMigrateVerdict, const char*> names[] = {
      {FedMigrateVerdict::accept, "accept"},
      {FedMigrateVerdict::refuse, "refuse"},
  };
};
static_assert(std::size(EnumNames<FedMigrateVerdict>::names) ==
              static_cast<std::size_t>(FedMigrateVerdict::refuse));

/// Target -> source: answer to an offer. On accept, `fenced_epoch` is the
/// epoch floor the target installed (offer epoch + fence jump) — everything
/// the target ever distributes for the group exceeds it, so members' epoch
/// floors depose the source if it resurfaces.
struct FedMigrateAckPayload {
  static constexpr std::uint8_t kType = 0xF3;
  std::string group;
  std::uint64_t migration_id = 0;
  FedMigrateVerdict verdict = FedMigrateVerdict::refuse;
  std::uint64_t fenced_epoch = 0;  // 0 on refuse
  auto fields() { return std::tie(group, migration_id, verdict, fenced_epoch); }
  friend bool operator==(const FedMigrateAckPayload&,
                         const FedMigrateAckPayload&) = default;
};

/// Source -> target: the source dropped the group and tombstoned its
/// directory entry; ownership is the target's alone from here.
struct FedMigrateCommitPayload {
  static constexpr std::uint8_t kType = 0xF4;
  std::string group;
  std::uint64_t migration_id = 0;
  std::uint64_t dir_version = 0;  // the version the new ownership carries
  auto fields() { return std::tie(group, migration_id, dir_version); }
  friend bool operator==(const FedMigrateCommitPayload&,
                         const FedMigrateCommitPayload&) = default;
};

/// Shard -> shard: one versioned ownership claim for the directory.
struct FedDirSyncPayload {
  static constexpr std::uint8_t kType = 0xF5;
  std::string group;
  std::string owner_shard;
  std::uint64_t version = 0;
  auto fields() { return std::tie(group, owner_shard, version); }
  friend bool operator==(const FedDirSyncPayload&,
                         const FedDirSyncPayload&) = default;
};

}  // namespace enclaves::wire
