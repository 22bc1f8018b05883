#include "fed/migration.h"

#include "core/retry.h"
#include "obs/event.h"
#include "obs/prof.h"

namespace enclaves::fed {

Migrator::Migrator(MigratorConfig config, Rng& rng)
    : config_(std::move(config)), rng_(rng) {}

void Migrator::gauge_inflight() const {
  obs::gauge_set("fed", config_.shard_id, "migrations_inflight",
                 static_cast<std::int64_t>(outbound_.size()));
}

Result<std::uint64_t> Migrator::begin(const std::string& group,
                                      const std::string& target_shard,
                                      Bytes snapshot, std::uint64_t epoch,
                                      std::uint64_t dir_version) {
  PROF_SCOPE("fed/migrate/begin");
  if (outbound_.count(group))
    return make_error(Errc::already_exists, "migration in flight: " + group);
  Outbound out;
  out.target = target_shard;
  // Fresh per attempt; 0 is reserved as "no id" so never hand it out.
  do { out.id = rng_.next_u64(); } while (out.id == 0);
  wire::FedMigrateOfferPayload offer{group,    config_.shard_id,
                                     target_shard, out.id,
                                     epoch,    dir_version,
                                     std::move(snapshot)};
  out.payload = wire::encode(offer);
  out.retry.arm(clock_.now(), core::stable_salt(group) ^ 0xF3D);
  out.retry.record_attempt(clock_.now(), config_.retry);
  const std::uint64_t id = out.id;
  if (hooks_.send)
    hooks_.send(target_shard, wire::Label::FedMigrateOffer, out.payload);
  outbound_.emplace(group, std::move(out));
  gauge_inflight();
  obs::emit(counters_, obs::Event::migrate_offer, clock_.now(), group,
            config_.shard_id, target_shard, "offer", id);
  return id;
}

void Migrator::send_ack(const std::string& to_shard, const std::string& group,
                        std::uint64_t id, wire::FedMigrateVerdict verdict,
                        std::uint64_t fenced_epoch) {
  wire::FedMigrateAckPayload ack{group, id, verdict, fenced_epoch};
  if (hooks_.send)
    hooks_.send(to_shard, wire::Label::FedMigrateAck, wire::encode(ack));
  obs::emit(counters_, obs::Event::migrate_step, clock_.now(), group,
            config_.shard_id, to_shard, wire::enum_name(verdict),
            id);
}

void Migrator::handle_offer(const wire::FedMigrateOfferPayload& offer) {
  PROF_SCOPE("fed/migrate/offer");
  if (offer.target_shard != config_.shard_id) return;  // misrouted
  // Duplicate of an offer we already installed (the ack was lost):
  // re-answer byte-equivalently instead of re-installing.
  if (auto it = adopted_.find(offer.group);
      it != adopted_.end() && it->second.id == offer.migration_id) {
    send_ack(offer.source_shard, offer.group, offer.migration_id,
             wire::FedMigrateVerdict::accept, it->second.fenced_epoch);
    return;
  }
  // Directory freshness: a version at or below what we already know about
  // the group is the resurrected-source case. The hook records the
  // fenced_migration ledger evidence; we answer with a refusal so the
  // (possibly honest-but-stale) source stops retransmitting.
  if (hooks_.offer_fresh && !hooks_.offer_fresh(offer)) {
    obs::emit(counters_, obs::Event::migrate_refuse, clock_.now(), offer.group,
              config_.shard_id, offer.source_shard, "refuse",
              offer.migration_id);
    send_ack(offer.source_shard, offer.group, offer.migration_id,
             wire::FedMigrateVerdict::refuse, 0);
    return;
  }
  auto fenced = hooks_.install
                    ? hooks_.install(offer)
                    : Result<std::uint64_t>(
                          make_error(Errc::unexpected, "no install hook"));
  if (!fenced) {
    obs::emit(counters_, obs::Event::migrate_refuse, clock_.now(), offer.group,
              config_.shard_id, offer.source_shard, "refuse",
              offer.migration_id);
    send_ack(offer.source_shard, offer.group, offer.migration_id,
             wire::FedMigrateVerdict::refuse, 0);
    return;
  }
  adopted_[offer.group] =
      Adopted{offer.source_shard, offer.migration_id, *fenced, false};
  ++installed_count_;
  obs::emit(counters_, obs::Event::migrate_install, clock_.now(), offer.group,
            config_.shard_id, offer.source_shard, "install",
            offer.migration_id);
  send_ack(offer.source_shard, offer.group, offer.migration_id,
           wire::FedMigrateVerdict::accept, *fenced);
}

void Migrator::handle_ack(const wire::FedMigrateAckPayload& ack) {
  PROF_SCOPE("fed/migrate/ack");
  auto it = outbound_.find(ack.group);
  if (it == outbound_.end() || it->second.id != ack.migration_id) return;
  Outbound& out = it->second;
  if (ack.verdict == wire::FedMigrateVerdict::refuse) {
    obs::emit(counters_, obs::Event::migrate_abort, clock_.now(), ack.group,
              config_.shard_id, out.target, "abort", out.id);
    if (hooks_.aborted) hooks_.aborted(ack.group, "refused by target");
    outbound_.erase(it);
    gauge_inflight();
    return;
  }
  if (out.phase == Phase::committing) {
    // Duplicate accept (our commit was lost): re-send the cached commit.
    if (hooks_.send)
      hooks_.send(out.target, wire::Label::FedMigrateCommit, out.payload);
    return;
  }
  // Accept: the target owns the members' future. Hand the group over —
  // drop it locally, bump the directory — and commit.
  const std::uint64_t new_version =
      hooks_.handover ? hooks_.handover(ack.group, out.target) : 0;
  wire::FedMigrateCommitPayload commit{ack.group, out.id, new_version};
  out.payload = wire::encode(commit);
  out.phase = Phase::committing;
  out.retry.arm(clock_.now(), core::stable_salt(ack.group) ^ 0xC0517);
  out.retry.record_attempt(clock_.now(), config_.retry);
  ++completed_;
  obs::emit(counters_, obs::Event::migrate_commit, clock_.now(), ack.group,
            config_.shard_id, out.target, "commit", out.id);
  if (hooks_.send)
    hooks_.send(out.target, wire::Label::FedMigrateCommit, out.payload);
}

void Migrator::handle_commit(const wire::FedMigrateCommitPayload& commit) {
  PROF_SCOPE("fed/migrate/commit");
  auto it = adopted_.find(commit.group);
  if (it == adopted_.end() || it->second.id != commit.migration_id) return;
  if (hooks_.committed) hooks_.committed(commit.group, commit.dir_version);
  if (!it->second.committed) {
    it->second.committed = true;
    obs::emit(counters_, obs::Event::migrate_step, clock_.now(), commit.group,
              config_.shard_id, it->second.source, "complete",
              commit.migration_id);
  }
}

std::size_t Migrator::tick() {
  clock_.advance();
  const Tick now = clock_.now();
  std::size_t sent = 0;
  for (auto it = outbound_.begin(); it != outbound_.end();) {
    Outbound& out = it->second;
    const bool committing = out.phase == Phase::committing;
    const std::uint32_t budget =
        committing ? config_.commit_attempts : config_.retry.attempt_budget;
    if (budget > 0 && out.retry.attempts() >= budget) {
      if (committing) {
        // No commit-ack by design: the budget spent, the handover already
        // happened, the migration is done from this side.
        it = outbound_.erase(it);
        gauge_inflight();
      } else {
        // Offer never answered: the target is unreachable. Unfreeze and
        // keep the group — nothing was handed over yet.
        obs::emit(counters_, obs::Event::migrate_abort, now, it->first,
                  config_.shard_id, out.target, "abort", out.id);
        if (hooks_.aborted) hooks_.aborted(it->first, "offer unanswered");
        it = outbound_.erase(it);
        gauge_inflight();
      }
      continue;
    }
    if (out.retry.due(now, config_.retry)) {
      out.retry.record_attempt(now, config_.retry);
      obs::count("fed", config_.shard_id, "retransmits_total");
      if (hooks_.send) {
        hooks_.send(out.target,
                    committing ? wire::Label::FedMigrateCommit
                               : wire::Label::FedMigrateOffer,
                    out.payload);
        ++sent;
      }
    }
    ++it;
  }
  return sent;
}

}  // namespace enclaves::fed
