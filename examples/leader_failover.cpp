// Warm-standby leader failover (PROTOCOL.md §11), end to end:
//
//   1. An active leader "L" forms a four-member group while a LeaderReplicator
//      streams each change of its snapshot to the warm standby "L2".
//   2. "L" crashes mid-churn. The FailoverController suspects the replication
//      silence and promotes the standby into a live leader whose epoch floor
//      is fenced far above anything the dead incarnation issued.
//   3. The members suspect their silent leader, cycle to the next failover
//      target, re-authenticate with "L2", and receive a fresh Kg above the
//      fence.
//   4. The old leader comes back from the dead and tries to rekey; the
//      standby's fenced ReplAck deposes it, and the members' epoch floors
//      would reject its stale keys regardless. No split-brain.
//
// The run ends with the trace-chart tail of the promotion and the ha.*
// recovery counters.
//
// With ENCLAVES_OBS_OUT_DIR=<dir> set, both sides of the failover run a
// black-box flight recorder; the run ends by merging the two incident blobs
// with the enclaves_postmortem library into one causally ordered cross-node
// timeline — the same report `enclaves_postmortem <dir>/flight_*.jsonl`
// prints.
//
// Run: ./build/examples/leader_failover
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "core/leader.h"
#include "core/member.h"
#include "ha/failover.h"
#include "ha/replicator.h"
#include "ha/standby.h"
#include "net/sim_network.h"
#include "net/trace_chart.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/record.h"
#include "obs/span.h"
#include "tools/enclaves_postmortem_lib.h"
#include "util/rng.h"

using namespace enclaves;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return in ? out.str() : std::string();
}

}  // namespace

int main() {
  std::printf("Enclaves warm-standby leader failover\n");
  std::printf("=====================================\n\n");

  net::SimNetwork net;
  DeterministicRng rng(20010701);
  obs::EventStore store;
  obs::ScopedEventSink event_sink(store);
  obs::MetricsRegistry metrics;
  obs::ScopedMetricsSink metrics_sink(metrics);
  auto send = [&net](const std::string& to, wire::Envelope e) {
    net.send(to, std::move(e));
  };

  // Two black-box flight recorders, one per side of the failover: the
  // active-leader box keeps the agents it hosts (L + the members that homed
  // on it), the standby box keeps its own (L2 + the shared health/incident
  // plane). Both stamp the same process-wide incident id into their dumps —
  // that id is what lets enclaves_postmortem correlate the blobs.
  const char* obs_dir = std::getenv("ENCLAVES_OBS_OUT_DIR");
  const std::string flight_dir = obs_dir ? obs_dir : ".";
  obs::FlightRecorder box_l("L", flight_dir);
  obs::FlightRecorder box_l2("L2", flight_dir);
  box_l.set_local_agents({"L", "group", "m0", "m1"});
  box_l2.set_local_agents({"L2", "group", "m2", "m3"});
  box_l.attach();
  box_l2.attach();
  obs::FlightRecorder::install_signal_handlers();
  Tick flight_tick = 0;
  std::printf("flight recorders armed on both incarnations "
              "(SIGSEGV/SIGABRT/SIGUSR1 dump the last window)\n\n");

  // Active leader + replication stream to the standby.
  auto repl_key = crypto::SessionKey::random(rng);
  auto active = std::make_unique<core::Leader>(
      core::LeaderConfig{"L", core::RekeyPolicy::strict()}, rng);
  active->set_send(send);
  ha::ReplicatorConfig rc;
  rc.repl_key = repl_key;
  auto replicator =
      std::make_unique<ha::LeaderReplicator>(*active, rc, rng);
  replicator->set_send(send);
  bool active_alive = true;
  net.attach("L", [&](const wire::Envelope& e) {
    if (e.label == wire::Label::ReplAck)
      replicator->handle(e);
    else
      active->handle(e);
  });

  // Warm standby + deterministic failover controller.
  ha::StandbyConfig sc;
  sc.repl_key = repl_key;
  ha::StandbyLeader standby(sc, rng);
  standby.set_send(send);
  std::unique_ptr<core::Leader> promoted;
  ha::FailoverConfig fc;
  fc.suspect_after = 6;
  fc.epoch_fence = 1024;
  fc.promoted.id = "L2";
  fc.promoted.rekey = core::RekeyPolicy::strict();
  ha::FailoverController controller(standby, fc);
  net.attach("L2", [&](const wire::Envelope& e) {
    if (e.label == wire::Label::ReplDelta ||
        e.label == wire::Label::ReplSnapshot ||
        e.label == wire::Label::ReplHeartbeat)
      standby.handle(e);
    else if (promoted)
      promoted->handle(e);
  });
  replicator->start();

  // Four members, each armed with the failover target list {L, L2}.
  std::map<std::string, std::unique_ptr<core::Member>> members;
  for (int i = 0; i < 4; ++i) {
    const std::string id = "m" + std::to_string(i);
    auto pa = crypto::LongTermKey::random(rng);
    (void)active->register_member(id, pa);
    auto m = std::make_unique<core::Member>(id, "L", pa, rng);
    m->set_send(send);
    m->set_suspect_after(8);
    m->enable_auto_rejoin(core::RetryPolicy::exponential(1, 4, 1));
    m->set_failover_targets({"L", "L2"});
    auto* raw = m.get();
    net.attach(id, [raw](const wire::Envelope& e) { raw->handle(e); });
    members[id] = std::move(m);
  }

  auto step = [&]() {
    net.run();
    if (active_alive) {
      active->tick();
      replicator->tick();
    }
    if (promoted) promoted->tick();
    if (auto l = controller.tick()) {
      promoted = std::move(l);
      promoted->set_send(send);
      std::printf("  [tick %llu] standby promoted: epoch fence %llu\n",
                  static_cast<unsigned long long>(*controller.promoted_at()),
                  static_cast<unsigned long long>(standby.fenced_epoch()));
    }
    for (auto& [id, m] : members) m->tick();
    net.run();
    ++flight_tick;
    box_l.observe(flight_tick);  // windowed metric deltas into the rings
    box_l2.observe(flight_tick);
  };
  auto converged_on = [&](const core::Leader& l) {
    for (const auto& [id, m] : members)
      if (!m->connected() || m->epoch() != l.epoch() ||
          m->leader_id() != l.id())
        return false;
    return l.member_count() == members.size();
  };

  // --- Phase 1: group forms, replication keeps the standby current.
  for (auto& [id, m] : members) (void)m->join();
  int steps = 0;
  while (!converged_on(*active) && steps < 200) { step(); ++steps; }
  active->rekey();  // a little churn so the stream has history
  do { step(); ++steps; } while (replicator->lag() != 0 && steps < 220);
  const bool mirrored = standby.snapshot() == active->snapshot();
  std::printf("group formed at epoch %llu; standby applied seq %llu "
              "(replicator head %llu, lag %llu), mirror %s\n",
              static_cast<unsigned long long>(active->epoch()),
              static_cast<unsigned long long>(standby.applied_seq()),
              static_cast<unsigned long long>(replicator->head()),
              static_cast<unsigned long long>(replicator->lag()),
              mirrored ? "exact" : "DIVERGED");

  // --- Phase 2: the active leader crashes.
  std::printf("\ncrashing active leader \"L\"...\n");
  store.clear();  // chart and ledger only the failover itself
  net.detach("L");
  active_alive = false;
  steps = 0;
  while ((!promoted || !converged_on(*promoted)) && steps < 500) {
    step();
    ++steps;
  }
  if (!promoted || !converged_on(*promoted)) {
    std::printf("FAILED: group did not re-form on the standby\n");
    return 1;
  }
  controller.record_recovery(controller.now());
  std::printf("group re-formed on \"L2\" at epoch %llu "
              "(%d steps after the crash)\n",
              static_cast<unsigned long long>(promoted->epoch()), steps);

  // --- Phase 3: the dead leader resurfaces and is fenced out.
  std::printf("\nresurrecting the old leader...\n");
  active_alive = true;
  net.attach("L", [&](const wire::Envelope& e) {
    if (e.label == wire::Label::ReplAck)
      replicator->handle(e);
    else
      active->handle(e);
  });
  active->rekey();  // tries to push a stale-epoch key through replication
  steps = 0;
  while (!replicator->deposed() && steps < 50) { step(); ++steps; }
  std::printf("old leader deposed by fenced ack: %s "
              "(its epoch %llu < fence %llu)\n",
              replicator->deposed() ? "yes" : "NO",
              static_cast<unsigned long long>(active->epoch()),
              static_cast<unsigned long long>(standby.fenced_epoch()));

  // --- The post-incident display: promotion trace tail + ha.* counters.
  std::printf("\nfailover trace tail (last 14 events):\n%s\n",
              net::format_event_chart_tail(store.events(), 14).c_str());

  const auto hist =
      metrics.histogram("ha", "L2", "time_to_recovery_ticks");
  std::printf("recovery counters:\n");
  std::printf("  ha.promotions_total        = %llu\n",
              static_cast<unsigned long long>(
                  metrics.counter("ha", "L2", "promotions_total")));
  std::printf("  ha.suspicions_total        = %llu\n",
              static_cast<unsigned long long>(
                  metrics.counter("ha", "L2", "suspicions_total")));
  std::printf("  ha.deposed_total           = %llu\n",
              static_cast<unsigned long long>(
                  metrics.counter("ha", "L", "deposed_total")));
  std::printf("  ha.repl_deltas_total       = %llu\n",
              static_cast<unsigned long long>(
                  metrics.counter_total("repl_deltas_total")));
  std::printf("  ha.repl_snapshots_total    = %llu\n",
              static_cast<unsigned long long>(
                  metrics.counter_total("repl_snapshots_total")));
  std::printf("  ha.time_to_recovery_ticks  = %llu (over %llu promotion%s)\n",
              static_cast<unsigned long long>(hist.sum),
              static_cast<unsigned long long>(hist.count),
              hist.count == 1 ? "" : "s");
  std::printf("  ha.time_to_recovery p50/p99= %.0f / %.0f ticks\n",
              hist.quantile(0.5), hist.quantile(0.99));

  // The failover itself as a causal span graph: the failover root with its
  // suspect/promote/rejoin milestones and every post-crash handshake, plus
  // the fencing refusals the dead leader's resurrection provoked.
  auto spans = obs::SpanTracker::build(store.events());
  const auto evidence = store.entries();
  (void)obs::attach_evidence(spans, evidence);
  std::printf("\nfailover span graph:\n%s", obs::format_span_tree(spans).c_str());
  std::size_t fenced = 0;
  for (const auto& e : evidence)
    if (e.kind == obs::EvidenceKind::fenced_repl) ++fenced;
  std::printf("\nsecurity ledger: %zu refusal(s), %zu of them fencing "
              "refusals against the\ndeposed incarnation of \"L\".\n",
              evidence.size(), fenced);

  // --- Two-node postmortem: dump both black boxes and merge the blobs.
  // Each dump carries the shared incident id plus its own virtual/wall
  // clock pair; the merge aligns both nodes' rings onto one wall axis —
  // exactly what `enclaves_postmortem <dir>/flight_*.jsonl` does across
  // processes or machines.
  if (box_l.dump_now("failover_deposed") &&
      box_l2.dump_now("failover_deposed")) {
    std::printf("\ncross-node postmortem (incident %s):\n",
                obs::FlightRecorder::current_incident().c_str());
    auto dump_l = postmortem::FlightDump::parse(slurp(box_l.last_dump_path()));
    auto dump_l2 =
        postmortem::FlightDump::parse(slurp(box_l2.last_dump_path()));
    if (dump_l.ok() && dump_l2.ok()) {
      postmortem::ReportOptions options;
      options.timeline_tail = 10;
      options.hot_scopes = 0;
      const auto report = postmortem::render_report(
          postmortem::merge({*dump_l, *dump_l2}), options);
      std::printf("%s", report.c_str());
    } else {
      std::printf("  (could not parse the flight blobs back)\n");
    }
  }

  const bool ok =
      mirrored && replicator->deposed() && converged_on(*promoted);
  std::printf("\n%s\n",
              ok ? "Failover complete: exact state handoff, fenced epochs, "
                   "no split-brain."
                 : "FAILOVER INCOMPLETE — see above.");
  return ok ? 0 : 1;
}
