#include "ha/replicator.h"

#include <utility>

#include "obs/event.h"
#include "obs/prof.h"
#include "util/logging.h"
#include "wire/seal.h"

namespace enclaves::ha {

namespace {
constexpr std::string_view kHaGroup = "ha";
}

LeaderReplicator::LeaderReplicator(core::Leader& leader,
                                   ReplicatorConfig config, Rng& rng,
                                   const crypto::Aead& aead)
    : leader_(leader), config_(std::move(config)), rng_(rng), aead_(aead) {}

void LeaderReplicator::start() {
  if (started_) return;
  started_ = true;

  // Chain over any handlers already installed: the replicator must observe
  // every durable change, but it must not silence other observers.
  auto prev_added = std::move(leader_.on_credential_added);
  leader_.on_credential_added = [this, prev_added = std::move(prev_added)](
                                    const std::string& id,
                                    const crypto::LongTermKey& pa) {
    if (prev_added) prev_added(id, pa);
    emit(wire::ReplDeltaKind::credential_add, id, pa);
  };
  auto prev_updated = std::move(leader_.on_credential_updated);
  leader_.on_credential_updated = [this, prev_updated = std::move(
                                             prev_updated)](
                                      const std::string& id,
                                      const crypto::LongTermKey& pa) {
    if (prev_updated) prev_updated(id, pa);
    emit(wire::ReplDeltaKind::credential_update, id, pa);
  };
  auto prev_rekey = std::move(leader_.on_rekey);
  leader_.on_rekey = [this, prev_rekey = std::move(prev_rekey)](
                         std::uint64_t epoch) {
    if (prev_rekey) prev_rekey(epoch);
    emit(wire::ReplDeltaKind::rekey, {}, {});
  };
  auto prev_joined = std::move(leader_.on_member_joined);
  leader_.on_member_joined = [this, prev_joined = std::move(prev_joined)](
                                 const std::string& id) {
    if (prev_joined) prev_joined(id);
    emit(wire::ReplDeltaKind::member_joined, id, {});
  };
  auto prev_left = std::move(leader_.on_member_left);
  leader_.on_member_left = [this, prev_left = std::move(prev_left)](
                               const std::string& id) {
    if (prev_left) prev_left(id);
    emit(wire::ReplDeltaKind::member_left, id, {});
  };
  auto prev_expelled = std::move(leader_.on_member_expelled);
  leader_.on_member_expelled = [this, prev_expelled = std::move(
                                          prev_expelled)](
                                   const std::string& id,
                                   const std::string& reason) {
    if (prev_expelled) prev_expelled(id, reason);
    emit(wire::ReplDeltaKind::member_expelled, id, {});
  };

  // Initial baseline: the standby must never apply deltas against nothing.
  send_snapshot();
}

void LeaderReplicator::emit(wire::ReplDeltaKind kind,
                            const std::string& member_id,
                            const crypto::LongTermKey& pa) {
  if (deposed_) return;  // a deposed leader replicates nothing
  wire::ReplDeltaPayload delta;
  delta.epoch = leader_.epoch();
  delta.kind = kind;
  delta.member_id = member_id;
  delta.pa = pa;
  const std::uint64_t seq = log_.append(delta);
  delta.seq = seq;
  send_delta(delta);
  retry_.arm(clock_.now(), core::stable_salt(leader_.id()) ^ 0x4EA7);
  if (config_.snapshot_interval > 0 &&
      ++deltas_since_snapshot_ >= config_.snapshot_interval) {
    send_snapshot();
  }
  if (on_delta) on_delta(delta);
}

void LeaderReplicator::send_delta(const wire::ReplDeltaPayload& delta) {
  PROF_SCOPE("ha/repl/delta");
  obs::gauge_set(kHaGroup, leader_.id(), "repl_lag",
                 static_cast<std::int64_t>(lag()));
  obs::emit(counters_, obs::Event::repl_delta, clock_.now(), kHaGroup,
            leader_.id(), config_.standby_id,
            wire::repl_delta_kind_name(delta.kind), delta.seq);
  if (!send_) return;
  send_(config_.standby_id,
        wire::make_sealed(aead_, config_.repl_key.view(), rng_,
                          wire::Label::ReplDelta, leader_.id(),
                          config_.standby_id, wire::encode(delta)));
  last_send_ = clock_.now();
}

void LeaderReplicator::send_snapshot() {
  PROF_SCOPE("ha/repl/snapshot");
  deltas_since_snapshot_ = 0;
  wire::ReplSnapshotPayload payload;
  payload.epoch = leader_.epoch();
  payload.seq = log_.head();
  payload.snapshot = leader_.snapshot().serialize(config_.repl_key.view());
  obs::emit(counters_, obs::Event::repl_snapshot, clock_.now(), kHaGroup,
            leader_.id(), config_.standby_id, {}, payload.seq);
  if (!send_) return;
  send_(config_.standby_id,
        wire::make_sealed(aead_, config_.repl_key.view(), rng_,
                          wire::Label::ReplSnapshot, leader_.id(),
                          config_.standby_id, wire::encode(payload)));
  last_send_ = clock_.now();
}

void LeaderReplicator::send_heartbeat() {
  wire::ReplHeartbeatPayload payload{leader_.epoch(), log_.head()};
  if (!send_) return;
  send_(config_.standby_id,
        wire::make_sealed(aead_, config_.repl_key.view(), rng_,
                          wire::Label::ReplHeartbeat, leader_.id(),
                          config_.standby_id, wire::encode(payload)));
  last_send_ = clock_.now();
}

void LeaderReplicator::handle(const wire::Envelope& e) {
  PROF_SCOPE("ha/repl/handle");
  if (e.label != wire::Label::ReplAck) return;
  auto plain = wire::open_sealed(aead_, config_.repl_key.view(), e);
  if (!plain) return;  // forged or mis-keyed: ignore
  auto ack = wire::decode_repl_ack(*plain);
  if (!ack) return;

  if (ack->fenced) {
    // The standby answered as an active leader at a fenced epoch: we have
    // been failed over. Anything this incarnation might still distribute
    // carries an epoch below the fence and dies at the members; stop
    // replicating and tell the host.
    if (!deposed_) {
      deposed_ = true;
      ENCLAVES_LOG(info) << leader_.id() << ": deposed by "
                         << config_.standby_id << " at epoch " << ack->epoch;
      obs::emit(counters_, obs::Event::deposed, clock_.now(), kHaGroup,
                leader_.id(), config_.standby_id, "deposed", ack->epoch);
      // Evidence against ourselves: this incarnation kept distributing
      // after a failover — exactly what a resurrected leader looks like.
      obs::emit(counters_, obs::Event::repl_fenced, clock_.now(), kHaGroup,
                leader_.id(), leader_.id(), "deposed by fenced ack",
                ack->epoch);
      // Flight-recorder incident hook: capture the deposed incarnation's
      // window before it stops mattering (dump-on-fence).
      obs::flight_incident(clock_.now(), "deposed_by_fence", kHaGroup,
                           leader_.id());
      retry_.disarm();
      if (on_deposed) on_deposed(ack->epoch);
    }
    return;
  }

  if (ack->gap) {
    // The standby cannot extend its contiguous prefix from what it holds —
    // repair with a full baseline (which covers every pruned delta).
    obs::emit(counters_, obs::Event::repl_gap, clock_.now(), kHaGroup,
              leader_.id(), config_.standby_id, "resync", ack->seq);
    send_snapshot();
    return;
  }

  const std::uint64_t before = log_.acked();
  log_.ack(ack->seq);
  if (log_.acked() != before) {
    // Progress: restart the backoff for whatever suffix remains.
    if (log_.acked() < log_.head())
      retry_.arm(clock_.now(), core::stable_salt(leader_.id()) ^ 0x4EA7);
    else
      retry_.disarm();
    obs::gauge_set(kHaGroup, leader_.id(), "repl_lag",
                   static_cast<std::int64_t>(lag()));
  }
}

std::size_t LeaderReplicator::tick() {
  clock_.advance();
  const Tick now = clock_.now();
  if (deposed_) return 0;
  std::size_t sent = 0;

  if (log_.acked() < log_.head() && retry_.due(now, config_.retry)) {
    for (const wire::ReplDeltaPayload* delta : log_.unacked()) {
      send_delta(*delta);
      ++sent;
    }
    retry_.record_attempt(now, config_.retry);
  }

  if (config_.heartbeat_interval > 0 &&
      now - last_send_ >= config_.heartbeat_interval) {
    send_heartbeat();
    ++sent;
  }
  return sent;
}

}  // namespace enclaves::ha
