#include "ha/standby.h"

#include <utility>

#include "ha/repl_log.h"
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
  const auto reject = [this] { ++stats_.rejects; };
  if (e.label != wire::Label::ReplDelta &&
      e.label != wire::Label::ReplSnapshot &&
      e.label != wire::Label::ReplHeartbeat)
    return reject();
  // Authenticate before reacting in ANY way — a forgery must neither mutate
  // replicated state nor provoke a fenced ack (which deposes its receiver).
  auto plain = wire::open_sealed(aead_, config_.repl_key.view(), e);
  if (!plain) return reject();
  if (on_activity) on_activity();

  if (promoted_) {
    // We are the active leader now. Whatever the old incarnation streams is
    // void; answer with the fence so it learns it is deposed.
    obs::emit(counters_, obs::Event::repl_fence, now_, kHaGroup, config_.id,
              e.sender, "fenced_repl_traffic", fenced_epoch_);
    obs::emit(counters_, obs::Event::repl_fenced, now_, kHaGroup, config_.id,
              e.sender, "repl traffic after promotion", fenced_epoch_);
    send_ack(false);
    return;
  }

  switch (e.label) {
    case wire::Label::ReplSnapshot: {
      auto payload = wire::decode<wire::ReplSnapshotPayload>(*plain);
      if (!payload) return reject();
      if (payload->seq < applied_) {
        // A stale baseline retransmit must never rewind the reconstruction.
        ++stats_.duplicates;
        send_ack(false);
        return;
      }
      auto snap = wire::mac_decode<core::LeaderSnapshot>(
          payload->snapshot, config_.repl_key.view());
      if (!snap || snap->epoch != payload->epoch) return reject();
      snapshot_ = *std::move(snap);
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
      if (!payload) return reject();
      if (has_baseline_ && payload->seq <= applied_) {
        ++stats_.duplicates;
        obs::count(kHaGroup, config_.id, "repl_duplicates_total");
        send_ack(false);
        return;
      }
      // A delta that cannot extend the contiguous prefix is held (it may be
      // the tail of a reordering) while room lasts, and repair is asked for.
      const bool gap = !has_baseline_ || payload->seq > applied_ + 1;
      if (!gap || buffer_.size() < kMaxBuffered)
        buffer_.emplace(payload->seq, *std::move(payload));
      if (gap) {
        ++stats_.gaps_detected;
        obs::emit(counters_, obs::Event::repl_gap, now_, kHaGroup, config_.id,
                  e.sender, has_baseline_ ? "gap" : "no_baseline", applied_);
      } else {
        drain_buffer();
      }
      send_ack(gap);
      return;
    }
    case wire::Label::ReplHeartbeat: {
      auto payload = wire::decode<wire::ReplHeartbeatPayload>(*plain);
      if (!payload) return reject();
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

void StandbyLeader::drain_buffer() {
  // Anything at or below the prefix is now useless; anything contiguous
  // extends it.
  buffer_.erase(buffer_.begin(), buffer_.upper_bound(applied_));
  while (!buffer_.empty() && buffer_.begin()->first == applied_ + 1) {
    const std::string changed = patch(snapshot_, buffer_.begin()->second);
    applied_ = buffer_.begin()->first;
    buffer_.erase(buffer_.begin());
    ++stats_.deltas_applied;
    obs::emit(counters_, obs::Event::repl_delta, now_, kHaGroup, config_.id,
              config_.active_id, changed, applied_);
  }
}

void StandbyLeader::send_ack(bool gap) {
  if (!send_) return;
  // Once promoted, every ack is the fence.
  wire::ReplAckPayload ack{applied_,
                           promoted_ ? fenced_epoch_ : snapshot_.epoch, gap,
                           /*fenced=*/promoted_};
  send_(config_.active_id,
        wire::make_sealed(aead_, config_.repl_key.view(), rng_,
                          wire::Label::ReplAck, config_.id, config_.active_id,
                          wire::encode(ack)));
}

Result<std::unique_ptr<core::Leader>> StandbyLeader::promote(
    core::LeaderConfig config, std::uint64_t epoch_fence) {
  if (promoted_) return make_error(Errc::unexpected, "already promoted");
  if (!has_baseline_)
    return make_error(Errc::unexpected, "promote without a baseline");
  if (epoch_fence == 0)
    return make_error(Errc::unexpected, "epoch fence must be positive");

  auto leader = std::make_unique<core::Leader>(std::move(config), rng_, aead_);
  snapshot_.install(*leader);
  // The fence: every epoch the promoted leader ever distributes exceeds
  // anything the old incarnation could plausibly have issued — members'
  // epoch floors then reject the old leader's keys outright (§11).
  fenced_epoch_ = snapshot_.epoch + epoch_fence;
  leader->set_epoch_floor(fenced_epoch_);
  promoted_ = true;
  ENCLAVES_LOG(info) << config_.id << ": promoted at replication seq "
                     << applied_ << ", epoch fenced to " << fenced_epoch_;
  obs::emit(counters_, obs::Event::promote, now_, kHaGroup, config_.id,
            config_.active_id, "promoted", fenced_epoch_);
  return leader;
}

}  // namespace enclaves::ha
