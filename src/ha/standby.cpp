#include "ha/standby.h"

#include <utility>

#include "obs/event.h"
#include "util/logging.h"
#include "wire/seal.h"

namespace enclaves::ha {

namespace {
constexpr std::string_view kHaGroup = "ha";
}

StandbyLeader::StandbyLeader(StandbyConfig config, Rng& rng,
                             const crypto::Aead& aead)
    : config_(std::move(config)), rng_(rng), aead_(aead) {}

void StandbyLeader::handle(const wire::Envelope& e) {
  if (e.label != wire::Label::ReplDelta &&
      e.label != wire::Label::ReplSnapshot &&
      e.label != wire::Label::ReplHeartbeat) {
    ++stats_.rejects;
    return;
  }
  // Authenticate before reacting in ANY way — a forgery must neither mutate
  // replicated state nor provoke a fenced ack (which deposes its receiver).
  auto plain = wire::open_sealed(aead_, config_.repl_key.view(), e);
  if (!plain) {
    ++stats_.rejects;
    return;
  }
  if (on_activity) on_activity();

  if (promoted_) {
    // We are the active leader now. Whatever the old incarnation streams is
    // void; answer with the fence so it learns it is deposed.
    obs::emit(counters_, obs::Event::repl_fence, now_, kHaGroup, config_.id,
              e.sender, "fenced_repl_traffic", fenced_epoch_);
    obs::emit(counters_, obs::Event::repl_fenced, now_, kHaGroup, config_.id,
              e.sender, "repl traffic after promotion", fenced_epoch_);
    send_fenced_ack();
    return;
  }

  switch (e.label) {
    case wire::Label::ReplSnapshot: {
      auto payload = wire::decode<wire::ReplSnapshotPayload>(*plain);
      if (!payload) {
        ++stats_.rejects;
        return;
      }
      if (payload->seq < applied_) {
        // A stale baseline retransmit must never rewind the reconstruction.
        ++stats_.duplicates;
        send_ack(false);
        return;
      }
      auto snap = core::LeaderSnapshot::deserialize(payload->snapshot,
                                                    config_.repl_key.view());
      if (!snap || snap->epoch != payload->epoch) {
        ++stats_.rejects;
        return;
      }
      registry_ = snap->registry;
      epoch_ = snap->epoch;
      applied_ = payload->seq;
      has_baseline_ = true;
      ++stats_.snapshots_installed;
      obs::emit(counters_, obs::Event::repl_snapshot, now_, kHaGroup,
                config_.id, e.sender, "installed", applied_);
      drain_buffer();
      send_ack(false);
      return;
    }
    case wire::Label::ReplDelta: {
      auto payload = wire::decode<wire::ReplDeltaPayload>(*plain);
      if (!payload) {
        ++stats_.rejects;
        return;
      }
      if (!has_baseline_ || payload->seq > applied_ + 1) {
        // Can't extend the contiguous prefix from here: hold the delta (it
        // may be the tail of a reordering) and ask for repair.
        if (payload->seq > applied_ && buffer_.size() < config_.max_buffered)
          buffer_.emplace(payload->seq, *std::move(payload));
        ++stats_.gaps_detected;
        obs::emit(counters_, obs::Event::repl_gap, now_, kHaGroup, config_.id,
                  e.sender, has_baseline_ ? "gap" : "no_baseline", applied_);
        send_ack(true);
        return;
      }
      if (payload->seq <= applied_) {
        ++stats_.duplicates;
        obs::count(kHaGroup, config_.id, "repl_duplicates_total");
        send_ack(false);
        return;
      }
      apply(*payload);
      drain_buffer();
      send_ack(false);
      return;
    }
    case wire::Label::ReplHeartbeat: {
      auto payload = wire::decode<wire::ReplHeartbeatPayload>(*plain);
      if (!payload) {
        ++stats_.rejects;
        return;
      }
      // The heartbeat names the log head; trailing it means deltas (or the
      // opening baseline) were lost in flight with nothing left to trigger
      // retransmission semantics on our side — ask for repair.
      const bool behind = !has_baseline_ || payload->seq > applied_;
      if (behind) {
        ++stats_.gaps_detected;
        obs::count(kHaGroup, config_.id, "repl_gaps_total");
      }
      send_ack(behind);
      return;
    }
    default:
      return;  // unreachable: filtered above
  }
}

void StandbyLeader::apply(const wire::ReplDeltaPayload& delta) {
  switch (delta.kind) {
    case wire::ReplDeltaKind::credential_add:
      // Note "snapshot" matches what Leader::snapshot() stamps, keeping the
      // reconstruction bit-identical to the active's snapshot.
      (void)registry_.add({delta.member_id, delta.pa, "snapshot"});
      break;
    case wire::ReplDeltaKind::credential_update:
      (void)registry_.remove(delta.member_id);
      (void)registry_.add({delta.member_id, delta.pa, "snapshot"});
      break;
    case wire::ReplDeltaKind::rekey:
      epoch_ = delta.epoch;
      break;
    case wire::ReplDeltaKind::member_joined:
    case wire::ReplDeltaKind::member_left:
    case wire::ReplDeltaKind::member_expelled:
      // Membership is session state, which is never replicated: survivors
      // re-authenticate with the promoted leader. Informational only.
      break;
  }
  applied_ = delta.seq;
  ++stats_.deltas_applied;
  obs::emit(counters_, obs::Event::repl_delta, now_, kHaGroup, config_.id,
            config_.active_id, wire::enum_name(delta.kind),
            delta.seq);
}

void StandbyLeader::drain_buffer() {
  // Anything at or below the prefix is now useless; anything contiguous
  // extends it.
  buffer_.erase(buffer_.begin(), buffer_.upper_bound(applied_));
  while (!buffer_.empty() && buffer_.begin()->first == applied_ + 1) {
    apply(buffer_.begin()->second);
    buffer_.erase(buffer_.begin());
  }
}

void StandbyLeader::send_ack(bool gap) {
  if (!send_) return;
  wire::ReplAckPayload ack{applied_, epoch_, gap, /*fenced=*/false};
  send_(config_.active_id,
        wire::make_sealed(aead_, config_.repl_key.view(), rng_,
                          wire::Label::ReplAck, config_.id, config_.active_id,
                          wire::encode(ack)));
}

void StandbyLeader::send_fenced_ack() {
  if (!send_) return;
  wire::ReplAckPayload ack{applied_, fenced_epoch_, /*gap=*/false,
                           /*fenced=*/true};
  send_(config_.active_id,
        wire::make_sealed(aead_, config_.repl_key.view(), rng_,
                          wire::Label::ReplAck, config_.id, config_.active_id,
                          wire::encode(ack)));
}

core::LeaderSnapshot StandbyLeader::snapshot() const {
  core::LeaderSnapshot snap;
  snap.registry = registry_;
  snap.epoch = epoch_;
  return snap;
}

Result<std::unique_ptr<core::Leader>> StandbyLeader::promote(
    core::LeaderConfig config, std::uint64_t epoch_fence) {
  if (promoted_) return make_error(Errc::unexpected, "already promoted");
  if (!has_baseline_)
    return make_error(Errc::unexpected, "promote without a baseline");
  if (epoch_fence == 0)
    return make_error(Errc::unexpected, "epoch fence must be positive");

  auto leader = std::make_unique<core::Leader>(std::move(config), rng_, aead_);
  registry_.install(*leader);
  // The fence: every epoch the promoted leader ever distributes exceeds
  // anything the old incarnation could plausibly have issued — members'
  // epoch floors then reject the old leader's keys outright (§11).
  fenced_epoch_ = epoch_ + epoch_fence;
  leader->set_epoch_floor(fenced_epoch_);
  promoted_ = true;
  ENCLAVES_LOG(info) << config_.id << ": promoted at replication seq "
                     << applied_ << ", epoch fenced to " << fenced_epoch_;
  obs::emit(counters_, obs::Event::promote, now_, kHaGroup, config_.id,
            config_.active_id, "promoted", fenced_epoch_);
  return leader;
}

}  // namespace enclaves::ha
