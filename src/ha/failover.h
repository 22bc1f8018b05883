// FailoverController — the deterministic promotion decision of
// PROTOCOL.md §11.
//
// Watches the replication stream's liveness (every authentic message from
// the active leader counts as activity) on a virtual clock. When the active
// has been silent for `suspect_after` consecutive ticks, the controller
// promotes the standby: the replicated state becomes a live Leader whose
// epoch floor is fenced `epoch_fence` above the last replicated epoch, and
// the new leader is handed to on_promote. Because suspicion runs on ticks
// of the same virtual clock that drives the simulation, a seed + fault
// schedule reproduces the exact promotion point on every run.
//
// Recovery-time accounting: promoted_at() marks the promotion tick;
// record_recovery(now) — called by the host when the group has re-formed
// (survivors rejoined and exchanged data under the fresh Kg) — feeds the
// `ha` time_to_recovery_ticks histogram.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "core/leader.h"
#include "ha/standby.h"
#include "obs/event.h"
#include "util/clock.h"

namespace enclaves::ha {

struct FailoverConfig {
  /// Ticks of replication silence before the standby takes over. Must
  /// comfortably exceed the active's heartbeat interval plus worst-case
  /// network delay, or a slow-but-alive leader gets deposed (safe — the
  /// fence keeps it harmless — but needlessly disruptive).
  Tick suspect_after = 8;
  /// Epoch fence jump applied at promotion (see StandbyLeader::promote).
  std::uint64_t epoch_fence = 1024;
  /// Configuration for the promoted leader (id should match the standby's,
  /// so members' failover targets reach it).
  core::LeaderConfig promoted;
};

class FailoverController {
 public:
  FailoverController(StandbyLeader& standby, FailoverConfig config);

  /// Liveness evidence from the active leader. Wire the standby's
  /// on_activity here (the constructor does this automatically).
  void note_activity() { last_activity_ = clock_.now(); }

  /// Advances the virtual clock; fires the promotion once the silence
  /// budget is spent (and a baseline exists to promote from). Returns the
  /// promoted Leader on the firing tick, nullptr otherwise — the host owns
  /// it; on_promote (if set) observes it first.
  std::unique_ptr<core::Leader> tick();

  bool fired() const { return promoted_at_.has_value(); }
  /// Tick at which promotion fired (empty until then).
  std::optional<Tick> promoted_at() const { return promoted_at_; }
  Tick now() const { return clock_.now(); }

  /// Marks the group re-formed at `now_tick`; observes the elapsed ticks
  /// since promotion into the `ha` time_to_recovery_ticks histogram.
  /// No-op before promotion or when called twice.
  void record_recovery(Tick now_tick);

  /// Observes the promoted leader before tick() returns it.
  std::function<void(core::Leader&)> on_promote;

 private:
  StandbyLeader& standby_;
  FailoverConfig config_;
  VirtualClock clock_;
  obs::EventCounters counters_;  // obs::emit's cached counter cells
  Tick last_activity_ = 0;
  std::optional<Tick> promoted_at_;
  bool recovery_recorded_ = false;
};

}  // namespace enclaves::ha
