// Costs of the robustness layer: fault-injection overhead per packet,
// convergence time under faults for the two retransmission schedules, and
// crash-recovery round-trips (snapshot serialize/restore, full
// crash-restart-rejoin cycles).
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>

#include "core/leader.h"
#include "core/member.h"
#include "core/registry.h"
#include "net/fault.h"
#include "net/sim_network.h"
#include "util/rng.h"
#include "wire/seal.h"

namespace {

using namespace enclaves;

// One packet through the injector's decision path (the per-send tax a
// chaos-enabled SimNetwork pays).
void BM_FaultInjectorDecide(benchmark::State& state) {
  net::FaultPlan plan;
  plan.faults = {20, 10, 10, 4};
  net::FaultInjector inj(plan, 42);
  net::Packet p{0, "b",
                wire::Envelope{wire::Label::GroupData, "a", "b",
                               to_bytes("payload")}};
  for (auto _ : state) {
    p.seq++;
    benchmark::DoNotOptimize(inj.decide(p));
  }
}
BENCHMARK(BM_FaultInjectorDecide);

struct BenchWorld {
  BenchWorld(std::uint64_t seed, std::uint32_t drop_pct,
             core::RetryPolicy policy)
      : rng(seed) {
    net::FaultPlan plan;
    plan.faults.drop_pct = drop_pct;
    injector = std::make_unique<net::FaultInjector>(plan, seed ^ 0xFA17);
    net.set_tap(injector->tap());
    core::LeaderConfig config;
    config.retry = policy;
    leader = std::make_unique<core::Leader>(config, rng);
    leader->set_send([this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    net.attach("L", [this](const wire::Envelope& e) { leader->handle(e); });
    for (int i = 0; i < 4; ++i) {
      const std::string id = "m" + std::to_string(i);
      auto pa = crypto::LongTermKey::random(rng);
      (void)leader->register_member(id, pa);
      auto m = std::make_unique<core::Member>(id, "L", pa, rng);
      m->set_send([this](const std::string& to, wire::Envelope e) {
        net.send(to, std::move(e));
      });
      m->set_retry_policy(policy);
      auto* raw = m.get();
      net.attach(id, [raw](const wire::Envelope& e) { raw->handle(e); });
      members[id] = std::move(m);
    }
  }

  bool converged() const {
    for (const auto& [id, m] : members) {
      if (!m->connected() || m->epoch() != leader->epoch()) return false;
      const auto* s = leader->session(id);
      if (!s || s->state() != core::LeaderSession::State::connected ||
          s->queue_depth() != 0)
        return false;
    }
    return leader->member_count() == members.size();
  }

  // Steps until all four members converge; also counts packets spent.
  std::uint64_t join_all() {
    for (auto& [id, m] : members) (void)m->join();
    std::uint64_t steps = 0;
    while (!converged() && steps < 10'000) {
      net.run();
      leader->tick();
      for (auto& [id, m] : members) m->tick();
      net.run();
      ++steps;
    }
    return steps;
  }

  net::SimNetwork net;
  DeterministicRng rng;
  std::unique_ptr<net::FaultInjector> injector;
  std::unique_ptr<core::Leader> leader;
  std::map<std::string, std::unique_ptr<core::Member>> members;
};

// Full 4-member join to convergence under loss. arg0 = drop percent,
// arg1 = 0 (retransmit every tick) or 1 (exponential backoff, cap 8).
// Compare packets_per_join across the two schedules: backoff trades a few
// extra steps for a much quieter wire.
void BM_ChaosJoinConvergence(benchmark::State& state) {
  const auto drop = static_cast<std::uint32_t>(state.range(0));
  const bool backoff = state.range(1) != 0;
  std::uint64_t seed = 1, total_steps = 0, total_packets = 0;
  for (auto _ : state) {
    BenchWorld w(seed++, drop,
                 backoff ? core::RetryPolicy::exponential(1, 8, 2)
                         : core::RetryPolicy::every_tick());
    total_steps += w.join_all();
    total_packets += w.net.packets_sent();
    benchmark::DoNotOptimize(w.converged());
  }
  state.counters["steps_per_join"] = benchmark::Counter(
      static_cast<double>(total_steps), benchmark::Counter::kAvgIterations);
  state.counters["packets_per_join"] = benchmark::Counter(
      static_cast<double>(total_packets), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ChaosJoinConvergence)
    ->Args({0, 0})
    ->Args({20, 0})
    ->Args({20, 1})
    ->Args({30, 0})
    ->Args({30, 1});

// Snapshot persistence round-trip, arg = registered members.
void BM_LeaderSnapshotRoundTrip(benchmark::State& state) {
  DeterministicRng rng(7);
  core::Registry reg;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    (void)reg.add("m" + std::to_string(i),
                  {crypto::LongTermKey::random(rng), "pw"});
  }
  core::LeaderSnapshot snap;
  snap.registry = reg;
  snap.epoch = 1000;
  const Bytes key = to_bytes("bench-storage-key");
  for (auto _ : state) {
    Bytes blob = wire::mac_encode(snap, key);
    auto back = wire::mac_decode<core::LeaderSnapshot>(blob, key);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_LeaderSnapshotRoundTrip)->Arg(4)->Arg(64)->Arg(512);

// Whole crash-recovery cycle: snapshot, kill the leader, restore a fresh
// one from the blob, members re-authenticate until the group re-forms.
void BM_CrashRestartRecovery(benchmark::State& state) {
  std::uint64_t seed = 100;
  for (auto _ : state) {
    state.PauseTiming();
    BenchWorld w(seed++, 0, core::RetryPolicy::every_tick());
    w.join_all();
    for (auto& [id, m] : w.members) {
      m->set_suspect_after(4);
      m->enable_auto_rejoin(core::RetryPolicy::every_tick());
    }
    const Bytes key = to_bytes("bench-storage-key");
    state.ResumeTiming();

    Bytes blob = wire::mac_encode(w.leader->snapshot(), key);
    w.leader.reset();
    w.net.detach("L");
    for (int t = 0; t < 6; ++t) {  // downtime: members start suspecting
      w.net.run();
      for (auto& [id, m] : w.members) m->tick();
    }
    auto snap = wire::mac_decode<core::LeaderSnapshot>(blob, key);
    core::LeaderConfig config;
    w.leader = std::make_unique<core::Leader>(config, w.rng);
    w.leader->set_send([&w](const std::string& to, wire::Envelope e) {
      w.net.send(to, std::move(e));
    });
    snap->install(*w.leader);
    w.net.attach("L",
                 [&w](const wire::Envelope& e) { w.leader->handle(e); });
    std::uint64_t steps = 0;
    while (!w.converged() && steps < 1000) {
      w.net.run();
      w.leader->tick();
      for (auto& [id, m] : w.members) m->tick();
      w.net.run();
      ++steps;
    }
    benchmark::DoNotOptimize(steps);
  }
}
BENCHMARK(BM_CrashRestartRecovery);

}  // namespace

#include "bench_json.h"

ENCLAVES_BENCH_JSON_MAIN("chaos_recovery")
