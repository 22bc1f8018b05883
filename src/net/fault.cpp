#include "net/fault.h"

#include "obs/event.h"

namespace enclaves::net {

namespace {

// Crossing = exactly one endpoint inside the island. The claimed envelope
// sender stands in for the source: honest traffic fills it truthfully, and
// partitioning is a fault model for honest links, not a security mechanism.
bool crosses(const std::set<AgentId>& island, const Packet& p) {
  if (island.empty()) return false;
  const bool src_in = island.count(p.envelope.sender) > 0;
  const bool dst_in = island.count(p.to) > 0;
  return src_in != dst_in;
}

}  // namespace

void FaultInjector::partition(std::set<AgentId> island) {
  manual_island_ = std::move(island);
  ++stats_.partitions_cut;
  obs::emit(counters_, obs::Event::partition_cut, stats_.seen, "net",
            "fault", {}, "cut", manual_island_.size());
}

void FaultInjector::heal() {
  if (manual_island_.empty()) return;
  const std::uint64_t size = manual_island_.size();
  manual_island_.clear();
  ++stats_.partitions_healed;
  obs::emit(counters_, obs::Event::partition_heal, stats_.seen, "net",
            "fault", {}, "heal", size);
}

const LinkFaults& FaultInjector::faults_for(const Packet& p) const {
  auto it = plan_.per_link.find({p.envelope.sender, p.to});
  return it != plan_.per_link.end() ? it->second : plan_.faults;
}

bool FaultInjector::crosses_partition(const Packet& p,
                                      std::uint64_t n) const {
  if (crosses(manual_island_, p)) return true;
  for (const auto& sched : plan_.partitions) {
    if (n >= sched.from_packet && n < sched.until_packet &&
        crosses(sched.island, p))
      return true;
  }
  return false;
}

TapDecision FaultInjector::decide(const Packet& p) {
  const std::uint64_t n = stats_.seen++;
  // One roll per packet, always consumed, so the random stream is a pure
  // function of the packet sequence even as partitions come and go.
  const std::uint64_t roll = rng_.below(100);

  // Verdict events are recorded against the injector's own deterministic
  // clock (packets seen), since the tap has no view of any agent's ticks.
  if (crosses_partition(p, n)) {
    ++stats_.partition_dropped;
    obs::emit(counters_, obs::Event::partition_drop, n, "net",
              p.envelope.sender, p.to, wire::enum_name(p.envelope.label));
    return TapVerdict::drop;
  }

  const LinkFaults& f = faults_for(p);
  if (roll < f.drop_pct) {
    ++stats_.dropped;
    obs::emit(counters_, obs::Event::fault_drop, n, "net", p.envelope.sender,
              p.to, wire::enum_name(p.envelope.label));
    return TapVerdict::drop;
  }
  if (roll < f.drop_pct + f.duplicate_pct) {
    ++stats_.duplicated;
    obs::emit(counters_, obs::Event::fault_duplicate, n, "net",
              p.envelope.sender, p.to, wire::enum_name(p.envelope.label));
    return TapVerdict::duplicate;
  }
  if (roll < f.drop_pct + f.duplicate_pct + f.delay_pct) {
    ++stats_.delayed;
    const std::uint32_t max = f.max_delay_steps == 0 ? 1 : f.max_delay_steps;
    const std::uint32_t steps =
        1 + static_cast<std::uint32_t>(rng_.below(max));
    obs::emit(counters_, obs::Event::fault_delay, n, "net", p.envelope.sender,
              p.to, wire::enum_name(p.envelope.label), steps);
    return {TapVerdict::delay, steps};
  }
  return TapVerdict::deliver;
}

}  // namespace enclaves::net
