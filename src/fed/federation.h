// FedNode — one federation shard: a MultiGroupHost plus the placement ring,
// the versioned ownership directory, and the migration state machine
// (PROTOCOL.md §14).
//
// Every shard holds the SAME federation master key (distributed out of band,
// like the member passwords the paper assumes). The pairwise inter-shard key
// for shards {a, b} is HKDF(master, info = min||"|"||max) — so migration and
// directory traffic between two shards is sealed and mutually authenticated,
// while compromise of one pairwise conversation never exposes another's
// derivation input directly. Redirects to members are UNSEALED advisory
// hints (see wire/fed.h for why that is sound).
//
// Routing: the node owns every leader identity "shard/g" for groups it
// holds. Traffic addressed to a group it does NOT hold is answered with a
// FedRedirect when the directory knows the owner (and recorded as
// EvidenceKind::wrong_shard — observed, never processed), or dropped when
// nobody does. Traffic addressed to the bare shard id is the federation
// plane itself.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/multi_group.h"
#include "crypto/aead.h"
#include "fed/directory.h"
#include "fed/migration.h"
#include "fed/ring.h"
#include "obs/event.h"

namespace enclaves::fed {

struct FedNodeConfig {
  std::string shard_id;
  /// Federation master key, shared by every legitimate shard.
  crypto::LongTermKey fed_key;
  /// Virtual points per shard on the placement ring.
  std::uint32_t ring_vnodes = 64;
  /// Rekey policy for groups created on (or migrated into) this shard.
  core::RekeyPolicy rekey = core::RekeyPolicy::strict();
  /// Parole window for groups on this shard (0 = parole disabled). Migrated
  /// parole lists survive only if this window EXCEEDS
  /// migrate.epoch_fence_jump: the adopting leader's epoch starts at the
  /// fenced floor, so a window smaller than the jump quarantines every
  /// outstanding parole the moment the group lands.
  std::uint64_t parole_epochs = 0;
  /// Migration retransmission / fencing knobs (shard_id is filled in).
  MigratorConfig migrate;
};

class FedNode {
 public:
  FedNode(FedNodeConfig config, Rng& rng,
          const crypto::Aead& aead = crypto::default_aead());

  const std::string& shard_id() const { return config_.shard_id; }
  core::MultiGroupHost& host() { return host_; }
  const core::MultiGroupHost& host() const { return host_; }
  const HashRing& ring() const { return ring_; }
  const Directory& directory() const { return directory_; }
  Migrator& migrator() { return migrator_; }

  /// Ring membership. Every node must be told the same shard set (in any
  /// order — the ring is order-independent); the node adds itself.
  void add_shard(const std::string& shard_id) { ring_.add_shard(shard_id); }
  void remove_shard(const std::string& shard_id) {
    ring_.remove_shard(shard_id);
  }

  /// Default placement for `group` (the ring), independent of ownership.
  std::string placement(const std::string& group) const {
    return ring_.owner(group);
  }
  /// Actual owner per the directory; empty when unknown.
  std::string owner(const std::string& group) const {
    return directory_.owner(group);
  }
  bool owns(const std::string& group) const {
    return host_.group(group) != nullptr;
  }
  std::size_t groups_owned() const { return host_.groups().size(); }

  /// Node-level transport: `to` is a shard id, a leader id ("shard/g"), or
  /// a member id (redirects).
  void set_send(core::SendFn send);

  /// Creates a group HERE, which must be where the ring places it —
  /// Errc::wrong_shard (message = owning shard) otherwise. Claims directory
  /// version 1 and announces the claim to every other shard.
  Result<core::Leader*> create_group(const std::string& group);

  /// Source side of a live migration: freeze `group`, snapshot it (sealed
  /// under the pairwise key with `target_shard`), and start the
  /// offer/ack/commit exchange. The group stays frozen (inbound traffic
  /// dropped) until the target accepts or the offer budget runs out.
  Status migrate_out(const std::string& group, const std::string& target_shard);

  /// Everything the transport delivers to this node.
  void handle(const std::string& to, const wire::Envelope& e);

  /// Advances all groups' and the migrator's timers; returns envelopes sent.
  std::size_t tick();

 private:
  Bytes pair_key(const std::string& other_shard) const;
  void sealed_send(const std::string& to_shard, wire::Label label,
                   BytesView payload);
  void broadcast_dir(const std::string& group);
  void handle_fed(const wire::Envelope& e);
  void send_redirect(const std::string& member, const std::string& group,
                     const std::string& stale_leader,
                     const std::string& owner_leader);
  void gauge_groups() const;
  core::Leader* build_group(const std::string& group);

  FedNodeConfig config_;
  Rng& rng_;
  const crypto::Aead& aead_;
  VirtualClock clock_;  // advanced by tick(); timestamps traces/evidence
  obs::EventCounters counters_;  // obs::emit's cached counter cells
  core::MultiGroupHost host_;
  HashRing ring_;
  Directory directory_;
  Migrator migrator_;
  core::SendFn send_;
};

}  // namespace enclaves::fed
