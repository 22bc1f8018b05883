// Epoch-fenced live migration — moving one group between leader shards.
//
// Three sealed messages over the pairwise inter-shard key (wire/fed.h):
//
//   source                                target
//     | freeze group, snapshot              |
//     |---- FedMigrateOffer (snapshot) ---->| verify directory version
//     |                                     | install snapshot, fence epoch
//     |<--- FedMigrateAck accept/refuse ----|   floor = offer.epoch + jump
//     | drop group, bump directory          |
//     |---- FedMigrateCommit (version) ---->| final ownership claim
//
// Fencing, twice over: the DIRECTORY version only moves forward (a
// resurrected source re-offering its pre-migration state is refused with
// EvidenceKind::fenced_migration), and the target installs an EPOCH floor
// of offer.epoch + epoch_fence_jump, so every group key it ever distributes
// exceeds anything the old incarnation could have issued — members' own
// epoch floors (PROTOCOL.md §11) then depose the old leader if it
// resurfaces, with epoch_fenced ledger evidence.
//
// The Migrator is the per-shard state machine: retransmitting offers and
// commits on a RetryPolicy over a virtual clock, answering duplicate offers
// idempotently, and delegating everything stateful about the node (sealing,
// the directory, the MultiGroupHost) to FedNode through Hooks. There is no
// commit-ack: the commit is retransmitted a bounded number of times and
// duplicates are idempotent at the target.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "core/retry.h"
#include "obs/event.h"
#include "util/bytes.h"
#include "util/clock.h"
#include "util/result.h"
#include "util/rng.h"
#include "wire/envelope.h"
#include "wire/fed.h"

namespace enclaves::fed {

struct MigratorConfig {
  std::string shard_id;
  /// Retransmission schedule for the offer (until acked) and the commit.
  core::RetryPolicy retry = core::RetryPolicy::exponential(1, 8, 0, 16);
  /// Commit (re)transmissions before the source declares the migration done.
  std::uint32_t commit_attempts = 3;
  /// Epoch headroom fenced above the offer's epoch on install. Must exceed
  /// any plausible number of rekeys a zombie source could perform while
  /// partitioned (same sizing rule as the HA fence, PROTOCOL.md §11).
  std::uint64_t epoch_fence_jump = 1000;
};

class Migrator {
 public:
  struct Hooks {
    /// Seal `payload` under the pairwise key with `to_shard` and deliver.
    std::function<void(const std::string& to_shard, wire::Label label,
                       Bytes payload)>
        send;
    /// Target side: is this offer's ownership claim fresh per the
    /// directory? Returning false refuses the offer (the caller records
    /// the fenced_migration evidence; the Migrator sends the refuse ack).
    std::function<bool(const wire::FedMigrateOfferPayload& offer)> offer_fresh;
    /// Target side: adopt the group — deserialize the snapshot, build the
    /// leader, install the epoch fence. Returns the fenced epoch floor.
    std::function<Result<std::uint64_t>(
        const wire::FedMigrateOfferPayload& offer)>
        install;
    /// Source side, on an accept ack: drop the group locally and bump the
    /// directory. Returns the directory version the new ownership carries.
    std::function<std::uint64_t(const std::string& group,
                                const std::string& target_shard)>
        handover;
    /// Target side, on commit: finalize the directory claim.
    std::function<void(const std::string& group, std::uint64_t dir_version)>
        committed;
    /// Source side, on a refuse ack (or an exhausted offer budget): the
    /// group stays here; unfreeze it.
    std::function<void(const std::string& group, const std::string& reason)>
        aborted;
  };

  Migrator(MigratorConfig config, Rng& rng);

  void set_hooks(Hooks hooks) { hooks_ = std::move(hooks); }

  /// Source side: start migrating `group` (snapshot already frozen and
  /// sealed by the caller) to `target_shard`. Errc::already_exists while a
  /// migration for the group is in flight. Returns the migration id.
  Result<std::uint64_t> begin(const std::string& group,
                              const std::string& target_shard, Bytes snapshot,
                              std::uint64_t epoch, std::uint64_t dir_version);

  /// Wire ingress (payloads already unsealed + decoded by the caller).
  void handle_offer(const wire::FedMigrateOfferPayload& offer);
  void handle_ack(const wire::FedMigrateAckPayload& ack);
  void handle_commit(const wire::FedMigrateCommitPayload& commit);

  /// Advances the clock; retransmits due offers/commits. Returns sends.
  std::size_t tick();

  /// True while an outbound migration holds the group frozen.
  bool frozen(const std::string& group) const {
    return outbound_.count(group) > 0;
  }
  std::size_t inflight() const { return outbound_.size(); }

  /// Source-side migrations that reached the commit stage.
  std::uint64_t completed() const { return completed_; }
  /// Target-side installs performed.
  std::uint64_t installed() const { return installed_count_; }

 private:
  enum class Phase : std::uint8_t { offering, committing };

  struct Outbound {
    std::string target;
    std::uint64_t id = 0;
    Phase phase = Phase::offering;
    Bytes payload;  // encoded offer, then encoded commit
    core::RetryState retry;
  };

  /// Target-side record of an adopted group, kept for idempotent re-acks
  /// against duplicate offers and re-applied commits.
  struct Adopted {
    std::string source;
    std::uint64_t id = 0;
    std::uint64_t fenced_epoch = 0;
    bool committed = false;
  };

  void send_ack(const std::string& to_shard, const std::string& group,
                std::uint64_t id, wire::FedMigrateVerdict verdict,
                std::uint64_t fenced_epoch);
  void gauge_inflight() const;

  MigratorConfig config_;
  Rng& rng_;
  Hooks hooks_;
  VirtualClock clock_;
  obs::EventCounters counters_;  // obs::emit's cached counter cells
  std::map<std::string, Outbound> outbound_;  // by group (source side)
  std::map<std::string, Adopted> adopted_;    // by group (target side)
  std::uint64_t completed_ = 0;
  std::uint64_t installed_count_ = 0;
};

}  // namespace enclaves::fed
