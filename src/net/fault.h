// Deterministic fault-injection engine for SimNetwork.
//
// The paper's whole claim (Sections 3.2, 5) is that group management stays
// correct on an asynchronous network where messages are dropped, delayed,
// reordered, and replayed. The FaultInjector turns that adversarial channel
// into a reproducible test fixture: a FaultPlan describes per-link fault
// probabilities (drop / duplicate / delay-N-steps, delay past younger
// packets being how reordering happens) plus scheduled partitions, and a
// single DeterministicRng seed fixes every coin flip, so any failing
// schedule replays exactly from (plan, seed).
//
// The injector consumes exactly one RNG draw per packet inspected (plus one
// more when a delay length is needed), so the random stream — and therefore
// the entire fault schedule — is a pure function of the packet sequence.
//
// Partitions come in two forms: scheduled windows in the plan (indexed by
// packets-seen, the injector's own deterministic clock) and manual
// partition()/heal() calls for harnesses that script topology changes
// between phases. A partition silently eats everything crossing the island
// boundary, exactly like a severed link.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/sim_network.h"
#include "obs/event.h"
#include "util/rng.h"

namespace enclaves::net {

/// Fault probabilities for one link (percentages, 0..100; they are bands of
/// a single per-packet roll, so drop + duplicate + delay must be <= 100).
struct LinkFaults {
  std::uint32_t drop_pct = 0;
  std::uint32_t duplicate_pct = 0;
  std::uint32_t delay_pct = 0;
  std::uint32_t max_delay_steps = 8;  // delayed packets held 1..max steps
};

/// A scheduled partition: while `from_packet <= packets_seen < until_packet`
/// the agents in `island` are cut off from everyone else (both directions).
struct ScheduledPartition {
  std::uint64_t from_packet = 0;
  std::uint64_t until_packet = 0;
  std::set<AgentId> island;
};

struct FaultPlan {
  LinkFaults faults;  // default for every link
  /// Per-link override keyed by (claimed sender, destination).
  std::map<std::pair<AgentId, AgentId>, LinkFaults> per_link;
  std::vector<ScheduledPartition> partitions;
};

class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, std::uint64_t seed)
      : plan_(std::move(plan)), rng_(seed) {}

  struct Stats {
    std::uint64_t seen = 0;
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t delayed = 0;
    std::uint64_t partition_dropped = 0;
    std::uint64_t partitions_cut = 0;    // manual partition() calls
    std::uint64_t partitions_healed = 0; // manual heal() calls on a live cut
  };

  /// Decides the fate of one packet; advances the deterministic schedule.
  TapDecision decide(const Packet& p);

  /// Wraps this injector as a SimNetwork tap. The injector must outlive the
  /// network's use of the tap.
  Tap tap() {
    return [this](const Packet& p) { return decide(p); };
  }

  /// Manually cuts `island` off from the rest of the world (in addition to
  /// any scheduled partitions) until heal() is called. Cut and heal are
  /// themselves fault verdicts: both emit a `fault_partition` trace event
  /// against the injector's packet clock and count in stats(), so a healed
  /// long partition is reconcilable against the protocol's own reconcile
  /// evidence.
  void partition(std::set<AgentId> island);
  void heal();
  bool partitioned() const { return !manual_island_.empty(); }

  const Stats& stats() const { return stats_; }

 private:
  const LinkFaults& faults_for(const Packet& p) const;
  bool crosses_partition(const Packet& p, std::uint64_t n) const;

  FaultPlan plan_;
  DeterministicRng rng_;
  std::set<AgentId> manual_island_;
  Stats stats_;
  obs::EventCounters counters_;  // obs::emit's cached counter cells
};

}  // namespace enclaves::net
