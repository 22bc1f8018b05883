#include "ha/failover.h"

#include <utility>

#include "obs/event.h"
#include "util/logging.h"

namespace enclaves::ha {

namespace {
constexpr std::string_view kHaGroup = "ha";
}

FailoverController::FailoverController(StandbyLeader& standby,
                                       FailoverConfig config)
    : standby_(standby), config_(std::move(config)) {
  // Chain, not replace: the host may also be watching the stream.
  auto prev = std::move(standby_.on_activity);
  standby_.on_activity = [this, prev = std::move(prev)] {
    if (prev) prev();
    note_activity();
  };
}

std::unique_ptr<core::Leader> FailoverController::tick() {
  clock_.advance();
  const Tick now = clock_.now();
  standby_.set_now(now);
  if (promoted_at_) return nullptr;
  if (config_.suspect_after == 0) return nullptr;
  if (now - last_activity_ < config_.suspect_after) return nullptr;
  if (!standby_.has_baseline()) {
    // Nothing to promote from: a standby that never saw a baseline holds no
    // state and taking over would found an empty group. Keep waiting.
    return nullptr;
  }

  ENCLAVES_LOG(info) << config_.promoted.id << ": active silent for "
                     << (now - last_activity_) << " ticks, promoting standby";
  obs::emit(counters_, obs::Event::suspect, now, kHaGroup, config_.promoted.id,
            {}, "active_silent", now - last_activity_);
  auto leader = standby_.promote(config_.promoted, config_.epoch_fence);
  if (!leader) {
    // Only reachable if the host promoted the standby out-of-band; record
    // the firing anyway so tick() does not re-fire forever.
    promoted_at_ = now;
    return nullptr;
  }
  promoted_at_ = now;
  if (on_promote) on_promote(**leader);
  return *std::move(leader);
}

void FailoverController::record_recovery(Tick now_tick) {
  if (!promoted_at_ || recovery_recorded_) return;
  recovery_recorded_ = true;
  const Tick elapsed =
      now_tick > *promoted_at_ ? now_tick - *promoted_at_ : 0;
  obs::observe(kHaGroup, config_.promoted.id, "time_to_recovery_ticks",
               elapsed);
}

}  // namespace enclaves::ha
