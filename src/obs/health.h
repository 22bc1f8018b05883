// Rolling-window health monitor: fuses the windowed `security.*` / `ha.*` /
// retry metrics and per-peer ledger suspicion into one typed verdict
// per group and per peer — the live answer to "is this group healthy,
// degraded, partitioned, or under attack, and because of whom?".
//
// The monitor is strictly read-only: it consumes MetricsSnapshot diffs and
// never feeds back into protocol decisions (DESIGN rule: evidence informs
// operators, the protocol's own refusal logic is the enforcement). Its
// outputs are a verdict object (the /health body), per-subject gauges in
// the metrics plane, and one health event (obs/event.h) per state
// transition; a transition to partitioned or under_attack is an incident
// row, so it dumps every attached flight recorder that covers the subject.
//
// Taxonomy and ranking (least to most severe):
//   healthy      — nothing notable inside the window
//   degraded     — the liveness layer is visibly paying for faults
//                  (retransmits/reanswers over threshold, refusals observed)
//   healing      — a previously partitioned peer is reconciling its offline
//                  op-log back into the group (reconcile.* counters moved in
//                  the window); ranks *below* partitioned so the verdict
//                  ladder reads partitioned → healing → healthy on a heal
//   partitioned  — someone is unreachable: a member suspected its leader,
//                  rejoined after expulsion, was expelled, retargeted to a
//                  standby, or the leader abandoned exchanges/expelled
//   under_attack — windowed ledger suspicion accusing one peer crossed the
//                  attack threshold (the Xu-style insider signal)
//
// Attribution caveat (same as the ledger's): `under_attack` names the peer
// the *envelope sender* fields accuse; a partitioned member is flagged by
// its own suspicion/rejoin evidence, which cannot distinguish "that member
// is cut off" from "the leader is cut off from everyone" — a fully
// partitioned leader simply flags every peer plus its own ha.* suspicion.
//
// Hysteresis: escalation applies the moment a window's evidence crosses a
// threshold (thresholds are set so one stray fault stays below them);
// de-escalation requires kHealthClearWindows consecutive quieter windows, so
// a verdict never flaps on the boundary of a fault burst.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "obs/export.h"
#include "obs/metrics.h"
#include "util/clock.h"

namespace enclaves::obs {

enum class HealthState : std::uint8_t {
  healthy = 0,
  degraded = 1,
  healing = 2,
  partitioned = 3,
  under_attack = 4,
};

/// Stable lowercase name ("healthy", "degraded", ...) for JSON and gauges.
std::string_view health_state_name(HealthState state);

inline HealthState worse(HealthState a, HealthState b) {
  return static_cast<std::uint8_t>(a) >= static_cast<std::uint8_t>(b) ? a : b;
}

// The verdict's thresholds, each on one window's evidence.
/// Retransmits+reanswers at/above which a peer is degraded (above 2, so a
/// single dropped packet and its repair never flap a state).
inline constexpr std::uint64_t kHealthDegradedRetransmits = 3;
/// Refusals observed by a peer at/above which it is degraded (it is seeing
/// traffic that fails authentication or freshness).
inline constexpr std::uint64_t kHealthDegradedRefusals = 1;
/// Connectivity-loss signals (suspicions, rejoins, expulsions, failover
/// retargets) at/above which a peer is partitioned.
inline constexpr std::uint64_t kHealthPartitionSignals = 1;
/// Answered reconciliation signals (admits, replayed ops — unanswered offer
/// retries are not healing evidence) at/above which a peer reads `healing`
/// instead of `partitioned`.
inline constexpr std::uint64_t kHealthHealingSignals = 1;
/// Ledger suspicion accusing one peer at/above which that peer is flagged
/// under_attack.
inline constexpr std::uint64_t kHealthAttackSuspicion = 5;
/// Consecutive quieter windows required before a state de-escalates.
inline constexpr int kHealthClearWindows = 2;

struct HealthConfig {
  /// Minimum ticks between evaluated windows; observe() calls inside a
  /// window only refresh the pending snapshot.
  Tick window = 16;
};

/// Per-peer window evidence and the resulting (hysteresis-filtered) state.
struct PeerHealth {
  HealthState state = HealthState::healthy;
  std::string why;  // dominant evidence, human-readable; empty when healthy
  std::uint64_t suspicion = 0;          // cumulative ledger suspicion
  std::uint64_t window_retransmits = 0; // retransmits+reanswers this window
  std::uint64_t window_refusals = 0;    // refusals this peer observed
  std::uint64_t window_suspicion = 0;   // new suspicion accusing this peer
  std::uint64_t window_partition_signals = 0;
  std::uint64_t window_reconcile_signals = 0;  // answered: admits/replays

  friend bool operator==(const PeerHealth&, const PeerHealth&) = default;
};

struct GroupHealth {
  HealthState state = HealthState::healthy;
  std::string why;
  std::map<std::string, PeerHealth> peers;

  friend bool operator==(const GroupHealth&, const GroupHealth&) = default;
};

struct HealthVerdict {
  Tick tick = 0;     // tick of the newest evaluated window
  std::uint64_t windows = 0;  // how many windows have been evaluated
  std::map<std::string, GroupHealth> groups;

  HealthState worst() const;

  /// The /health body: {"tick":..,"state":"..","groups":{..}} with every
  /// string escaped via json_escape.h (hostile agent ids survive).
  std::string to_json() const;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthConfig config = {}) : config_(config) {}

  /// Feeds one sample. When at least `config.window` ticks have passed
  /// since the last evaluated window (or on the first call), diffs the
  /// snapshot against the previous window's, re-derives every state, emits
  /// gauges (group "health") and a health event per transition, and
  /// returns true. Otherwise retains nothing and returns false.
  bool observe(Tick now, const MetricsSnapshot& snapshot);

  const HealthVerdict& verdict() const { return verdict_; }
  const HealthConfig& config() const { return config_; }

  /// healthy when the group/peer is unknown (never observed).
  HealthState group_state(std::string_view group) const;
  HealthState peer_state(std::string_view group,
                         std::string_view peer) const;

 private:
  struct Hysteresis {
    HealthState state = HealthState::healthy;
    int quiet = 0;  // consecutive windows with raw < state
  };

  void evaluate(Tick now, const MetricsSnapshot& prev,
                const MetricsSnapshot& cur);
  HealthState apply_hysteresis(Hysteresis& h, HealthState raw);

  HealthConfig config_;
  bool evaluated_ = false;
  Tick last_window_ = 0;
  MetricsSnapshot prev_;
  HealthVerdict verdict_;
  std::map<std::string, Hysteresis> group_hysteresis_;
  std::map<std::string, Hysteresis> peer_hysteresis_;  // "group/peer" keyed
};

}  // namespace enclaves::obs
