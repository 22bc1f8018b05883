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
  // Initial baseline: the standby must never apply deltas against nothing.
  shipped_ = leader_.snapshot();
  send_snapshot();
}

void LeaderReplicator::send_delta(const wire::ReplDeltaPayload& delta,
                                  std::string_view detail) {
  PROF_SCOPE("ha/repl/delta");
  obs::gauge_set(kHaGroup, leader_.id(), "repl_lag",
                 static_cast<std::int64_t>(lag()));
  obs::emit(counters_, obs::Event::repl_delta, clock_.now(), kHaGroup,
            leader_.id(), config_.standby_id, detail, delta.seq);
  seal_and_send(wire::Label::ReplDelta, wire::encode(delta));
}

void LeaderReplicator::send_snapshot() {
  PROF_SCOPE("ha/repl/snapshot");
  deltas_since_snapshot_ = 0;
  wire::ReplSnapshotPayload payload;
  payload.epoch = shipped_.epoch;
  payload.seq = log_.head();
  payload.snapshot = wire::mac_encode(shipped_, config_.repl_key.view());
  obs::emit(counters_, obs::Event::repl_snapshot, clock_.now(), kHaGroup,
            leader_.id(), config_.standby_id, {}, payload.seq);
  seal_and_send(wire::Label::ReplSnapshot, wire::encode(payload));
}

void LeaderReplicator::seal_and_send(wire::Label label, const Bytes& body) {
  if (!send_) return;
  send_(config_.standby_id,
        wire::make_sealed(aead_, config_.repl_key.view(), rng_, label,
                          leader_.id(), config_.standby_id, body));
  last_send_ = clock_.now();
}

void LeaderReplicator::handle(const wire::Envelope& e) {
  PROF_SCOPE("ha/repl/handle");
  if (e.label != wire::Label::ReplAck) return;
  auto plain = wire::open_sealed(aead_, config_.repl_key.view(), e);
  if (!plain) return;  // forged or mis-keyed: ignore
  auto ack = wire::decode<wire::ReplAckPayload>(*plain);
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
      // Evidence against ourselves: this incarnation kept distributing
      // after a failover — exactly what a resurrected leader looks like.
      // Filed before `deposed`, whose incident dump should carry it.
      obs::emit(counters_, obs::Event::repl_fenced, clock_.now(), kHaGroup,
                leader_.id(), leader_.id(), "deposed by fenced ack",
                ack->epoch);
      obs::emit(counters_, obs::Event::deposed, clock_.now(), kHaGroup,
                leader_.id(), config_.standby_id, "deposed", ack->epoch);
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
    for (const auto& [seq, delta] : log_.unacked()) {
      send_delta(delta, "retransmit");
      ++sent;
    }
    retry_.record_attempt(now, config_.retry);
  }

  // Ship whatever the leader's snapshot changed since the last delta.
  core::LeaderSnapshot snap;
  if (started_ && (snap = leader_.snapshot()) != shipped_) {
    wire::ReplDeltaPayload delta = diff(shipped_, snap);
    delta.seq = log_.append(delta);
    // Patching rather than assigning keeps shipped_ exactly what the
    // standby reconstructs, and yields the changed fields for the trace.
    send_delta(delta, patch(shipped_, delta));
    ++sent;
    retry_.arm(now, core::stable_salt(leader_.id()) ^ 0x4EA7);
    if (++deltas_since_snapshot_ >= kSnapshotInterval) {
      send_snapshot();
      ++sent;
    }
    if (on_delta) on_delta(delta);
  }

  if (config_.heartbeat_interval > 0 &&
      now - last_send_ >= config_.heartbeat_interval) {
    seal_and_send(wire::Label::ReplHeartbeat,
                  wire::encode(wire::ReplHeartbeatPayload{leader_.epoch(),
                                                          log_.head()}));
    ++sent;
  }
  return sent;
}

}  // namespace enclaves::ha
