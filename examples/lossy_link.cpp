// Lossy-link demo: the protocol over a network that drops 40% of all
// packets. Narrates every retransmission round and shows the group
// converging anyway — the liveness layer (byte-identical resends +
// idempotent duplicate answers) at work, with the security ledger proving
// that none of the duplicates were mistaken for intrusions... and the reject
// counters showing which ones were (harmlessly) turned away.
//
// Run: ./build/examples/lossy_link
//
// With ENCLAVES_OBS_OUT_DIR=<dir> set, the run also dumps its full event
// trace, the stitched exchange spans, the security ledger, and the metrics
// snapshot as JSON/JSONL files into <dir> (the CI bench-smoke job archives
// these as artifacts; `enclaves_top --replay <dir> --prefix lossy_link_`
// renders them). With ENCLAVES_OBS_SERVE_PORT=<port> set, the process stays
// up after the run serving GET /metrics and /health on 127.0.0.1:<port> for
// ENCLAVES_OBS_SERVE_MS milliseconds (default 3000) — the CI smoke test
// scrapes both.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "core/leader.h"
#include "core/member.h"
#include "crypto/password.h"
#include "net/sim_network.h"
#include "net/trace_chart.h"
#include "obs/export_server.h"
#include "obs/flight.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/record.h"
#include "obs/span.h"
#include "util/rng.h"

using namespace enclaves;

namespace {

void dump_artifact(const std::string& dir, const char* file,
                   const std::string& content) {
  const std::string path = dir + "/" + file;
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
    std::printf("  wrote %s (%zu bytes)\n", path.c_str(), content.size());
  } else {
    std::printf("  could not open %s\n", path.c_str());
  }
}

}  // namespace

int main() {
  std::printf("Enclaves over a 40%%-loss link\n");
  std::printf("=============================\n\n");

  // Observability (docs/OBSERVABILITY.md): attach a metrics registry and an
  // event store (trace + ledger) for the whole run; both are dumped at the
  // end.
  obs::MetricsRegistry metrics;
  obs::Profiler prof;
  obs::EventStore store;
  obs::ScopedMetricsSink metrics_sink(metrics);
  obs::ScopedProfSink prof_sink(prof);
  obs::ScopedEventSink event_sink(store);

  // Black-box flight recorder (docs/OBSERVABILITY.md): keeps the event /
  // metrics window in bounded rings, dumps on health escalation
  // or on a fatal signal (try `kill -SEGV` or `kill -USR1` mid-run), and
  // feeds the /flight + /dump routes below. Blobs land next to the other
  // artifacts; `enclaves_postmortem <dir>/flight_*.jsonl` renders them.
  const char* obs_dir = std::getenv("ENCLAVES_OBS_OUT_DIR");
  obs::FlightRecorder flight("lossy_link", obs_dir ? obs_dir : ".");
  flight.attach();
  obs::FlightRecorder::install_signal_handlers();
  std::printf("flight recorder armed (SIGSEGV/SIGABRT dump the last window; "
              "SIGUSR1 dumps on demand)\n\n");

  net::SimNetwork net;
  DeterministicRng rng(7);
  DeterministicRng loss(99);
  std::uint64_t dropped = 0;
  net.set_tap([&](const net::Packet& p) {
    if (loss.below(100) < 40) {
      ++dropped;
      std::printf("  [link] DROPPED %s\n",
                  wire::describe(p.envelope).c_str());
      return net::TapVerdict::drop;
    }
    return net::TapVerdict::deliver;
  });

  core::Leader leader(core::LeaderConfig{"L", core::RekeyPolicy::strict()},
                      rng);
  leader.set_send([&net](const std::string& to, wire::Envelope e) {
    net.send(to, std::move(e));
  });
  net.attach("L", [&leader](const wire::Envelope& e) { leader.handle(e); });

  std::map<std::string, std::unique_ptr<core::Member>> members;
  auto add = [&](const std::string& id) -> core::Member& {
    auto pa = crypto::derive_long_term_key(id, "pw-" + id);
    (void)leader.register_member(id, pa);
    auto m = std::make_unique<core::Member>(id, "L", pa, rng);
    m->set_send([&net](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    auto* raw = m.get();
    net.attach(id, [raw](const wire::Envelope& e) { raw->handle(e); });
    members[id] = std::move(m);
    return *raw;
  };

  auto& alice = add("alice");
  auto& bob = add("bob");

  auto converged = [&] {
    for (const auto& [id, m] : members) {
      const auto* s = leader.session(id);
      if (!s || s->state() != core::LeaderSession::State::connected ||
          s->queue_depth() != 0)
        return false;
      if (!m->connected() || m->epoch() != leader.epoch()) return false;
    }
    return leader.member_count() == members.size();
  };

  (void)alice.join();
  (void)bob.join();
  net.run();

  // Live health verdict over the same metrics the registry collects: the
  // monitor re-evaluates every 4 ticks and narrates state transitions.
  obs::HealthConfig health_config;
  health_config.window = 4;
  obs::HealthMonitor monitor(health_config);
  obs::HealthState last_state = obs::HealthState::healthy;

  int rounds = 0;
  while (!converged() && rounds < 100) {
    ++rounds;
    std::size_t resent = leader.tick();
    for (auto& [id, m] : members) resent += m->tick();
    if (resent > 0)
      std::printf("  [tick %2d] %zu retransmissions\n", rounds, resent);
    net.run();
    flight.observe(static_cast<Tick>(rounds));  // windowed metric deltas
    if (monitor.observe(static_cast<Tick>(rounds), metrics.snapshot())) {
      const obs::HealthState state = monitor.group_state("L");
      if (state != last_state) {
        std::printf("  [health] group L: %s -> %s\n",
                    std::string(obs::health_state_name(last_state)).c_str(),
                    std::string(obs::health_state_name(state)).c_str());
        last_state = state;
      }
    }
  }

  std::printf("\nconverged after %d retransmission rounds; %llu packets "
              "were dropped by the link\n",
              rounds, static_cast<unsigned long long>(dropped));
  std::printf("leader: members=%zu epoch=%llu relayed=%llu rejected=%llu",
              leader.member_count(),
              static_cast<unsigned long long>(leader.epoch()),
              static_cast<unsigned long long>(leader.relayed_count()),
              static_cast<unsigned long long>(leader.rejected_inputs()));
  for (const char* name : {"joins_total", "leaves_total", "expulsions_total",
                           "rekeys_total", "join_denials_total"}) {
    std::printf(" %s=%llu", name,
                static_cast<unsigned long long>(
                    metrics.counter("L", "L", name)));
  }
  std::printf("\n");
  std::printf("alice: connected=%d epoch=%llu   bob: connected=%d "
              "epoch=%llu\n",
              alice.connected(),
              static_cast<unsigned long long>(alice.epoch()),
              bob.connected(),
              static_cast<unsigned long long>(bob.epoch()));

  // Chat across the lossy link (data plane is fire-and-forget; the admin
  // channel underneath keeps the keys and views in sync).
  int bob_got = 0;
  bob.set_event_handler([&bob_got](const core::GroupEvent& ev) {
    if (std::holds_alternative<core::DataReceived>(ev)) ++bob_got;
  });
  for (int i = 0; i < 10; ++i) {
    (void)alice.send_data(to_bytes("msg " + std::to_string(i)));
    net.run();
  }
  std::printf("\ndata plane: alice sent 10, bob received %d (loss is "
              "visible here — by design\nthe paper's guarantees cover "
              "group MANAGEMENT, which converged despite the link)\n",
              bob_got);

  // What the observability layer saw: the retransmit/reanswer ledger that
  // paid for the drops, and the tail of the protocol event trace.
  std::printf("\nprotocol counters (fleet-wide):\n");
  for (const char* name :
       {"retransmits_total", "reanswers_total", "rekeys_total",
        "data_delivered_total", "data_rejects_total"}) {
    std::printf("  %-22s %llu\n", name,
                static_cast<unsigned long long>(metrics.counter_total(name)));
  }
  // Join latency through the loss: the histogram the members recorded,
  // merged fleet-wide, with the tail the averages would hide.
  obs::HistogramData joined;
  for (const auto& [id, m] : members) {
    obs::HistogramData h = metrics.histogram("L", id, "join_latency_ticks");
    if (joined.bounds.empty()) joined = h;
    else if (h.bounds == joined.bounds) {
      for (std::size_t i = 0; i < h.counts.size(); ++i)
        joined.counts[i] += h.counts[i];
      joined.overflow += h.overflow;
      joined.count += h.count;
      joined.sum += h.sum;
    }
  }
  std::printf("\njoin latency over the lossy link: p50=%.0f p99=%.0f ticks "
              "(%llu joins)\n",
              joined.quantile(0.5), joined.quantile(0.99),
              static_cast<unsigned long long>(joined.count));

  auto events = store.events();
  const std::size_t tail = events.size() > 12 ? events.size() - 12 : 0;
  std::printf("\nlast %zu protocol events:\n%s", events.size() - tail,
              net::format_event_chart({events.begin() +
                                           static_cast<std::ptrdiff_t>(tail),
                                       events.end()})
                  .c_str());

  // The same run as a causal span graph: each handshake/admin exchange with
  // its retries, each fault verdict attached to the exchange it hit, and
  // every refusal the duplicates provoked linked in as evidence.
  auto spans = obs::SpanTracker::build(events);
  (void)obs::attach_evidence(spans, store.entries());
  std::printf("\nexchange spans:\n%s", obs::format_span_tree(spans).c_str());
  std::printf("\nsecurity ledger: %zu refusal(s) recorded — duplicates the "
              "liveness layer\nabsorbed are NOT here; only traffic that "
              "failed authentication or freshness.\n",
              store.entries().size());

  // The whole run judged as one health window: cumulative totals against
  // the thresholds. This is what /health serves and what the dump records —
  // by run's end the *live* monitor has (correctly) de-escalated back to
  // healthy, but the scraper and the replay viewer want the burst verdict.
  obs::HealthMonitor run_verdict(health_config);
  (void)run_verdict.observe(health_config.window, metrics.snapshot());
  std::printf("\nwhole-run health verdict: %s\n",
              std::string(obs::health_state_name(run_verdict.verdict().worst()))
                  .c_str());

  if (const char* dir = obs_dir) {
    std::printf("\ndumping observability artifacts to %s:\n", dir);
    dump_artifact(dir, "lossy_link_trace.jsonl",
                  store.to_jsonl(obs::View::trace));
    dump_artifact(dir, "lossy_link_spans.jsonl", obs::spans_to_jsonl(spans));
    dump_artifact(dir, "lossy_link_ledger.jsonl",
                  store.to_jsonl(obs::View::ledger));
    dump_artifact(dir, "lossy_link_metrics.json", metrics.to_json() + "\n");
    dump_artifact(dir, "lossy_link_profile.json", prof.to_json());
    dump_artifact(dir, "lossy_link_health.json",
                  run_verdict.verdict().to_json() + "\n");
    // The flight blob (full ring window) and the recorder status that
    // `enclaves_top --replay` renders as the incident banner.
    if (flight.dump_now("run_complete"))
      std::printf("  wrote %s (flight blob)\n",
                  flight.last_dump_path().c_str());
    dump_artifact(dir, "lossy_link_flight.json", flight.status_json() + "\n");
  }

  if (const char* port_env = std::getenv("ENCLAVES_OBS_SERVE_PORT")) {
    obs::ExpositionServer::Options options;
    options.port = static_cast<std::uint16_t>(std::atoi(port_env));
    obs::ExpositionServer server(metrics, &run_verdict, options);
    server.set_flight_recorder(&flight);  // GET /flight + POST-free /dump
    auto port = server.start();
    if (port) {
      int serve_ms = 3000;
      if (const char* ms_env = std::getenv("ENCLAVES_OBS_SERVE_MS"))
        serve_ms = std::atoi(ms_env);
      std::printf("\nserving /metrics and /health on 127.0.0.1:%u for %d ms\n",
                  static_cast<unsigned>(*port), serve_ms);
      std::fflush(stdout);
      server.run_for(serve_ms);
    } else {
      std::printf("\ncould not bind telemetry port %s\n", port_env);
    }
  }
  return converged() ? 0 : 1;
}
