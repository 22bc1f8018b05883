// E1 — full group lifecycle (Figure 1 / Section 2.1 semantics): N members
// join, exchange data, churn, and leave, over the simulated network. The
// real-socket measurement is perfbench's relay_tcp workload (one thread per
// side). Run: build/bench/bench_group_lifecycle
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "core/leader.h"
#include "core/member.h"
#include "net/sim_network.h"
#include "util/rng.h"

namespace {

using namespace enclaves;

// Complete lifecycle on SimNetwork: join all, everyone speaks once, all
// leave. Items processed = protocol messages delivered.
void BM_LifecycleSim(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    DeterministicRng rng(1);
    net::SimNetwork net;
    core::Leader leader(core::LeaderConfig{"L", core::RekeyPolicy::strict()},
                        rng);
    leader.set_send([&net](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    net.attach("L", [&leader](const wire::Envelope& e) { leader.handle(e); });

    std::map<std::string, std::unique_ptr<core::Member>> members;
    for (int i = 0; i < n; ++i) {
      std::string id = "m" + std::to_string(i);
      auto pa = crypto::LongTermKey::random(rng);
      (void)leader.register_member(id, pa);
      auto m = std::make_unique<core::Member>(id, "L", pa, rng);
      m->set_send([&net](const std::string& to, wire::Envelope e) {
        net.send(to, std::move(e));
      });
      auto* raw = m.get();
      net.attach(id, [raw](const wire::Envelope& e) { raw->handle(e); });
      members[id] = std::move(m);
      (void)raw->join();
      net.run();
    }
    for (auto& [id, m] : members) {
      (void)m->send_data(to_bytes("hello from " + id));
      net.run();
    }
    for (auto& [id, m] : members) {
      (void)m->leave();
      net.run();
    }
    if (leader.member_count() != 0) state.SkipWithError("lifecycle failed");
    state.counters["messages"] = static_cast<double>(net.packets_sent());
  }
}
BENCHMARK(BM_LifecycleSim)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

}  // namespace

#include "bench_json.h"

ENCLAVES_BENCH_JSON_MAIN("group_lifecycle")
