#include "obs/health.h"

#include <set>

#include "obs/event.h"
#include "obs/json_escape.h"

namespace enclaves::obs {

std::string_view health_state_name(HealthState state) {
  switch (state) {
    case HealthState::healthy: return "healthy";
    case HealthState::degraded: return "degraded";
    case HealthState::healing: return "healing";
    case HealthState::partitioned: return "partitioned";
    case HealthState::under_attack: return "under_attack";
  }
  return "unknown";
}

HealthState HealthVerdict::worst() const {
  HealthState w = HealthState::healthy;
  for (const auto& [group, gh] : groups) w = worse(w, gh.state);
  return w;
}

namespace {

// Infrastructure planes that never form a protocol group of their own.
// "health" is the monitor's output plane — excluded so the monitor can
// never be steered by its own gauges.
bool infrastructure_group(std::string_view group) {
  return group == "net" || group == "crypto" || group == "security" ||
         group == "ha" || group == "obs" || group == "health";
}

std::uint64_t counter_in(const MetricsSnapshot& snap, std::string_view group,
                         std::string_view agent, std::string_view name) {
  auto it = snap.counters.find(
      MetricKey{std::string(group), std::string(agent), std::string(name)});
  return it == snap.counters.end() ? 0 : it->second;
}

std::int64_t gauge_in(const MetricsSnapshot& snap, std::string_view group,
                      std::string_view agent, std::string_view name) {
  auto it = snap.gauges.find(
      MetricKey{std::string(group), std::string(agent), std::string(name)});
  return it == snap.gauges.end() ? 0 : it->second;
}

// Windowed counter increase, clamped at 0 (a registry reset or a restarted
// process behind the same endpoint must not produce phantom evidence).
std::uint64_t delta(const MetricsSnapshot& prev, const MetricsSnapshot& cur,
                    std::string_view group, std::string_view agent,
                    std::string_view name) {
  const std::uint64_t before = counter_in(prev, group, agent, name);
  const std::uint64_t after = counter_in(cur, group, agent, name);
  return after > before ? after - before : 0;
}

// One health event per transition (detail old->new, value the new state);
// the event rows make a transition to partitioned or under_attack an
// incident.
void emit_transition(Tick now, std::string_view group,
                     std::string_view subject, HealthState from,
                     HealthState to) {
  const Event event = to == HealthState::under_attack
                          ? Event::health_under_attack
                      : to == HealthState::partitioned
                          ? Event::health_partitioned
                          : Event::health;
  emit(event, now, group, subject, std::string_view{},
       std::string(health_state_name(from)) + "->" +
           std::string(health_state_name(to)),
       static_cast<std::uint64_t>(to));
}

void append_json_field(std::string& out, const char* name,
                       std::string_view value, bool& first) {
  if (!first) out += ',';
  first = false;
  out += '"';
  out += name;
  out += "\":";
  append_json_string(out, value);
}

}  // namespace

std::string HealthVerdict::to_json() const {
  std::string out = "{\"tick\":" + std::to_string(tick);
  out += ",\"windows\":" + std::to_string(windows);
  out += ",\"state\":";
  append_json_string(out, health_state_name(worst()));
  out += ",\"groups\":{";
  bool first_group = true;
  for (const auto& [group, gh] : groups) {
    if (!first_group) out += ',';
    first_group = false;
    append_json_string(out, group);
    out += ":{\"state\":";
    append_json_string(out, health_state_name(gh.state));
    if (!gh.why.empty()) {
      out += ",\"why\":";
      append_json_string(out, gh.why);
    }
    out += ",\"peers\":{";
    bool first_peer = true;
    for (const auto& [peer, ph] : gh.peers) {
      if (!first_peer) out += ',';
      first_peer = false;
      append_json_string(out, peer);
      out += ":{";
      bool first_field = true;
      append_json_field(out, "state", health_state_name(ph.state),
                        first_field);
      if (!ph.why.empty()) append_json_field(out, "why", ph.why, first_field);
      out += ",\"suspicion\":" + std::to_string(ph.suspicion);
      out += ",\"window\":{\"retransmits\":" +
             std::to_string(ph.window_retransmits);
      out += ",\"refusals\":" + std::to_string(ph.window_refusals);
      out += ",\"suspicion\":" + std::to_string(ph.window_suspicion);
      out += ",\"partition_signals\":" +
             std::to_string(ph.window_partition_signals);
      out += ",\"reconcile_signals\":" +
             std::to_string(ph.window_reconcile_signals);
      out += "}}";
    }
    out += "}}";
  }
  out += "}}";
  return out;
}

HealthState HealthMonitor::group_state(std::string_view group) const {
  auto it = verdict_.groups.find(std::string(group));
  return it == verdict_.groups.end() ? HealthState::healthy : it->second.state;
}

HealthState HealthMonitor::peer_state(std::string_view group,
                                      std::string_view peer) const {
  auto it = verdict_.groups.find(std::string(group));
  if (it == verdict_.groups.end()) return HealthState::healthy;
  auto pit = it->second.peers.find(std::string(peer));
  return pit == it->second.peers.end() ? HealthState::healthy
                                       : pit->second.state;
}

bool HealthMonitor::observe(Tick now, const MetricsSnapshot& snapshot) {
  if (evaluated_ && now < last_window_ + config_.window) return false;
  evaluate(now, prev_, snapshot);
  prev_ = snapshot;
  last_window_ = now;
  evaluated_ = true;
  return true;
}

HealthState HealthMonitor::apply_hysteresis(Hysteresis& h, HealthState raw) {
  if (static_cast<std::uint8_t>(raw) >= static_cast<std::uint8_t>(h.state)) {
    // Escalation (or steady state) is immediate; the thresholds are what
    // keep single faults from reaching here.
    h.state = raw;
    h.quiet = 0;
  } else if (h.state == HealthState::partitioned &&
             raw == HealthState::healing) {
    // Reconciliation traffic is the *resolution* of a partition, not quiet:
    // transition partitioned -> healing immediately rather than holding.
    h.state = raw;
    h.quiet = 0;
  } else if (++h.quiet >= kHealthClearWindows) {
    h.state = raw;
    h.quiet = 0;
  }
  return h.state;
}

void HealthMonitor::evaluate(Tick now, const MetricsSnapshot& prev,
                             const MetricsSnapshot& cur) {
  // Enumerate protocol groups and their member agents from the metric keys
  // themselves — anything that ever recorded a counter or gauge in a
  // non-infrastructure group is a peer of that group.
  std::map<std::string, std::set<std::string>> group_peers;
  for (const auto& [key, value] : cur.counters)
    if (!infrastructure_group(key.group))
      group_peers[key.group].insert(key.agent);
  for (const auto& [key, value] : cur.gauges)
    if (!infrastructure_group(key.group))
      group_peers[key.group].insert(key.agent);

  HealthVerdict next;
  next.tick = now;
  next.windows = verdict_.windows + 1;

  for (const auto& [group, peers] : group_peers) {
    GroupHealth gh;
    HealthState group_raw = HealthState::healthy;
    std::string group_why;
    std::uint64_t group_loss_signals = 0;  // abandons + expulsions anywhere
    std::uint64_t group_retransmits = 0;

    for (const std::string& peer : peers) {
      PeerHealth ph;
      ph.window_retransmits =
          delta(prev, cur, group, peer, "retransmits_total") +
          delta(prev, cur, group, peer, "reanswers_total");
      ph.window_refusals = delta(prev, cur, "security", peer,
                                 "refusals_total");
      ph.window_suspicion = delta(prev, cur, "security", peer,
                                  "suspicion_total");
      ph.suspicion = counter_in(cur, "security", peer, "suspicion_total");
      ph.window_partition_signals =
          delta(prev, cur, group, peer, "suspicions_total") +
          delta(prev, cur, group, peer, "rejoins_total") +
          delta(prev, cur, group, peer, "expelled_total") +
          delta(prev, cur, group, peer, "failover_retargets_total") +
          delta(prev, cur, "ha", peer, "suspicions_total");
      // Only signals that prove the leader answered count as healing:
      // the member re-sends its offer on every retry tick even into a dead
      // link, so offer counts alone must not mask `partitioned`.
      ph.window_reconcile_signals =
          delta(prev, cur, group, peer, "reconcile_admits_total") +
          delta(prev, cur, group, peer, "reconcile_ops_replayed_total");
      group_loss_signals +=
          delta(prev, cur, group, peer, "exchanges_abandoned_total") +
          delta(prev, cur, group, peer, "expulsions_total");
      group_retransmits += ph.window_retransmits;

      HealthState raw = HealthState::healthy;
      std::string why;
      if (ph.window_suspicion >= kHealthAttackSuspicion) {
        raw = HealthState::under_attack;
        why = std::to_string(ph.window_suspicion) +
              " refusals accuse this peer in window";
      } else if (ph.window_reconcile_signals >= kHealthHealingSignals) {
        // Checked ahead of the partition branch: a healing member's own
        // suspicion/rejoin evidence must not re-flag it partitioned while
        // its op-log is replaying.
        raw = HealthState::healing;
        why = std::to_string(ph.window_reconcile_signals) +
              " reconciliation signal(s) in window";
      } else if (ph.window_partition_signals >= kHealthPartitionSignals) {
        raw = HealthState::partitioned;
        why = std::to_string(ph.window_partition_signals) +
              " connectivity-loss signal(s) in window";
      } else if (gauge_in(cur, group, peer, "oplog_depth") > 0) {
        // A non-empty offline op-log is a level signal, not an event: the
        // peer is still operating disconnected, however long ago the
        // suspicion that cut it off aged out of the window.
        raw = HealthState::partitioned;
        why = std::to_string(gauge_in(cur, group, peer, "oplog_depth")) +
              " op(s) queued offline awaiting reconciliation";
      } else if (ph.window_retransmits >= kHealthDegradedRetransmits ||
                 ph.window_refusals >= kHealthDegradedRefusals) {
        raw = HealthState::degraded;
        if (ph.window_retransmits >= kHealthDegradedRetransmits)
          why = std::to_string(ph.window_retransmits) +
                " retransmits/reanswers in window";
        if (ph.window_refusals >= kHealthDegradedRefusals) {
          if (!why.empty()) why += ", ";
          why += std::to_string(ph.window_refusals) +
                 " refusals observed in window";
        }
      }

      Hysteresis& hyst = peer_hysteresis_[group + "/" + peer];
      const HealthState applied = apply_hysteresis(hyst, raw);
      ph.state = applied;
      if (applied == raw) {
        ph.why = why;
      } else {
        ph.why = "holding " + std::string(health_state_name(applied)) + " (" +
                 std::to_string(hyst.quiet) + "/" +
                 std::to_string(kHealthClearWindows) + " quiet windows)";
      }
      if (static_cast<std::uint8_t>(applied) >
          static_cast<std::uint8_t>(group_raw)) {
        group_raw = applied;
        group_why = "peer " + peer + ": " + ph.why;
      }
      gh.peers[peer] = std::move(ph);
    }

    // Group-level evidence the per-peer view cannot attribute: the leader
    // abandoning exchanges / expelling means *someone* was unreachable, and
    // retransmits spread thinly across peers still mean a lossy window.
    if (group_loss_signals >= kHealthPartitionSignals &&
        static_cast<std::uint8_t>(group_raw) <
            static_cast<std::uint8_t>(HealthState::partitioned)) {
      group_raw = HealthState::partitioned;
      group_why = std::to_string(group_loss_signals) +
                  " abandoned exchange(s)/expulsion(s) in window";
    }
    if (group_retransmits >= kHealthDegradedRetransmits &&
        group_raw == HealthState::healthy) {
      group_raw = HealthState::degraded;
      group_why = std::to_string(group_retransmits) +
                  " retransmits/reanswers across the group in window";
    }

    Hysteresis& hyst = group_hysteresis_[group];
    const HealthState applied = apply_hysteresis(hyst, group_raw);
    gh.state = applied;
    if (applied == group_raw) {
      gh.why = group_why;
    } else {
      gh.why = "holding " + std::string(health_state_name(applied)) + " (" +
               std::to_string(hyst.quiet) + "/" +
               std::to_string(kHealthClearWindows) + " quiet windows)";
    }
    next.groups[group] = std::move(gh);
  }

  // Emit: gauges for every subject, a health event per state transition.
  for (const auto& [group, gh] : next.groups) {
    const auto old_it = verdict_.groups.find(group);
    const HealthState old_state = old_it == verdict_.groups.end()
                                      ? HealthState::healthy
                                      : old_it->second.state;
    gauge_set("health", group, "group_state",
              static_cast<std::int64_t>(gh.state));
    if (gh.state != old_state) {
      emit_transition(now, group, "group", old_state, gh.state);
    }
    for (const auto& [peer, ph] : gh.peers) {
      HealthState old_peer = HealthState::healthy;
      if (old_it != verdict_.groups.end()) {
        auto pit = old_it->second.peers.find(peer);
        if (pit != old_it->second.peers.end()) old_peer = pit->second.state;
      }
      gauge_set("health", group + "/" + peer, "peer_state",
                static_cast<std::int64_t>(ph.state));
      if (ph.state != old_peer) {
        emit_transition(now, group, peer, old_peer, ph.state);
      }
    }
  }

  verdict_ = std::move(next);
}

}  // namespace enclaves::obs
