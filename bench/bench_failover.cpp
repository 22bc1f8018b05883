// Costs of the HA layer (PROTOCOL.md §11): per-delta replication overhead
// (snapshot, diff, seal on the active's tick), baseline snapshot install on
// the standby, promotion latency, and the full crash -> suspect -> promote
// -> rejoin recovery cycle in virtual ticks.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/leader.h"
#include "core/member.h"
#include "ha/failover.h"
#include "ha/replicator.h"
#include "ha/standby.h"
#include "net/sim_network.h"
#include "util/rng.h"

namespace {

using namespace enclaves;

// Active leader + replicator + warm standby + controller + N members over a
// lossless SimNetwork. Members carry failover targets {"L", "L2"} so the
// recovery benchmark exercises the real retarget path.
struct HaWorld {
  explicit HaWorld(std::uint64_t seed, int member_count = 4)
      : rng(seed), repl_key(crypto::SessionKey::random(rng)) {
    active = std::make_unique<core::Leader>(
        core::LeaderConfig{"L", core::RekeyPolicy::strict()}, rng);
    active->set_send(sender());
    ha::ReplicatorConfig rc;
    rc.repl_key = repl_key;
    replicator = std::make_unique<ha::LeaderReplicator>(*active, rc, rng);
    replicator->set_send(sender());
    net.attach("L", [this](const wire::Envelope& e) {
      if (e.label == wire::Label::ReplAck)
        replicator->handle(e);
      else
        active->handle(e);
    });

    ha::StandbyConfig sc;
    sc.repl_key = repl_key;
    standby = std::make_unique<ha::StandbyLeader>(sc, rng);
    standby->set_send(sender());
    ha::FailoverConfig fc;
    fc.suspect_after = 4;
    fc.promoted.id = "L2";
    fc.promoted.rekey = core::RekeyPolicy::strict();
    controller = std::make_unique<ha::FailoverController>(*standby, fc);
    net.attach("L2", [this](const wire::Envelope& e) {
      if (e.label == wire::Label::ReplDelta ||
          e.label == wire::Label::ReplSnapshot ||
          e.label == wire::Label::ReplHeartbeat)
        standby->handle(e);
      else if (promoted)
        promoted->handle(e);
    });
    replicator->start();

    for (int i = 0; i < member_count; ++i) {
      const std::string id = "m" + std::to_string(i);
      auto pa = crypto::LongTermKey::random(rng);
      (void)active->register_member(id, pa);
      auto m = std::make_unique<core::Member>(id, "L", pa, rng);
      m->set_send(sender());
      m->set_suspect_after(6);
      m->enable_auto_rejoin(core::RetryPolicy::every_tick());
      m->set_failover_targets({"L", "L2"});
      auto* raw = m.get();
      net.attach(id, [raw](const wire::Envelope& e) { raw->handle(e); });
      members[id] = std::move(m);
    }
  }

  core::SendFn sender() {
    return [this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    };
  }

  bool converged_on(const core::Leader& l) const {
    for (const auto& [id, m] : members) {
      if (!m->connected() || m->epoch() != l.epoch()) return false;
      const auto* s = l.session(id);
      if (!s || s->state() != core::LeaderSession::State::connected ||
          s->queue_depth() != 0)
        return false;
    }
    return l.member_count() == members.size();
  }

  std::uint64_t join_all() {
    for (auto& [id, m] : members) (void)m->join();
    std::uint64_t steps = 0;
    while (!converged_on(*active) && steps < 10'000) {
      net.run();
      active->tick();
      replicator->tick();
      for (auto& [id, m] : members) m->tick();
      net.run();
      ++steps;
    }
    return steps;
  }

  net::SimNetwork net;
  DeterministicRng rng;
  crypto::SessionKey repl_key;
  std::unique_ptr<core::Leader> active;
  std::unique_ptr<ha::LeaderReplicator> replicator;
  std::unique_ptr<ha::StandbyLeader> standby;
  std::unique_ptr<ha::FailoverController> controller;
  std::unique_ptr<core::Leader> promoted;
  std::map<std::string, std::unique_ptr<core::Member>> members;
};

// One rekey delta end to end: snapshot + diff + seal on the active's tick,
// decrypt + patch on the standby, cumulative ack back. No members, so the
// admin fan-out is out of the picture and this isolates the replication tax
// per state change.
void BM_ReplRekeyDelta(benchmark::State& state) {
  HaWorld w(21, /*member_count=*/0);
  w.net.run();  // drain the initial baseline + ack
  for (auto _ : state) {
    w.active->rekey();
    w.replicator->tick();
    w.net.run();
    benchmark::DoNotOptimize(w.standby->applied_seq());
  }
  state.counters["standby_lag"] =
      static_cast<double>(w.replicator->lag());
}
BENCHMARK(BM_ReplRekeyDelta);

// Sealed baseline install on a fresh standby, arg = registered members.
// This is the resync path a gapped standby pays: decrypt, deserialize the
// LeaderSnapshot, swap it in.
void BM_StandbyBaselineInstall(benchmark::State& state) {
  DeterministicRng rng(11);
  auto repl_key = crypto::SessionKey::random(rng);
  core::Leader leader(core::LeaderConfig{"L", core::RekeyPolicy::strict()},
                      rng);
  for (std::int64_t i = 0; i < state.range(0); ++i)
    (void)leader.register_member("m" + std::to_string(i),
                                 crypto::LongTermKey::random(rng));
  std::vector<wire::Envelope> sent;
  ha::ReplicatorConfig rc;
  rc.repl_key = repl_key;
  ha::LeaderReplicator repl(leader, rc, rng);
  repl.set_send(
      [&](const std::string&, wire::Envelope e) { sent.push_back(std::move(e)); });
  repl.start();  // sent.front() is the sealed baseline snapshot

  for (auto _ : state) {
    ha::StandbyConfig sc;
    sc.repl_key = repl_key;
    ha::StandbyLeader standby(sc, rng);
    standby.handle(sent.front());
    benchmark::DoNotOptimize(standby.has_baseline());
  }
}
BENCHMARK(BM_StandbyBaselineInstall)->Arg(4)->Arg(64)->Arg(512);

// Promotion proper: replicated state -> live fenced Leader, arg = members
// in the baseline. The standby construction + baseline feed is untimed.
void BM_StandbyPromotion(benchmark::State& state) {
  DeterministicRng rng(12);
  auto repl_key = crypto::SessionKey::random(rng);
  core::Leader leader(core::LeaderConfig{"L", core::RekeyPolicy::strict()},
                      rng);
  for (std::int64_t i = 0; i < state.range(0); ++i)
    (void)leader.register_member("m" + std::to_string(i),
                                 crypto::LongTermKey::random(rng));
  std::vector<wire::Envelope> sent;
  ha::ReplicatorConfig rc;
  rc.repl_key = repl_key;
  ha::LeaderReplicator repl(leader, rc, rng);
  repl.set_send(
      [&](const std::string&, wire::Envelope e) { sent.push_back(std::move(e)); });
  repl.start();

  for (auto _ : state) {
    state.PauseTiming();
    ha::StandbyConfig sc;
    sc.repl_key = repl_key;
    ha::StandbyLeader standby(sc, rng);
    standby.handle(sent.front());
    state.ResumeTiming();
    auto promoted = standby.promote(
        core::LeaderConfig{"L2", core::RekeyPolicy::strict()}, 1024);
    benchmark::DoNotOptimize(promoted);
  }
}
BENCHMARK(BM_StandbyPromotion)->Arg(4)->Arg(64);

// Whole failover cycle: crash the active mid-group, controller suspects the
// silence and promotes, the four members suspect, retarget, re-authenticate
// above the fence. steps_to_recover is the deterministic tick count — the
// quantity the recovery-time model in docs/HA.md predicts.
void BM_FailoverRecovery(benchmark::State& state) {
  std::uint64_t seed = 300, total_steps = 0;
  for (auto _ : state) {
    state.PauseTiming();
    HaWorld w(seed++);
    w.join_all();
    state.ResumeTiming();

    w.net.detach("L");  // the crash
    std::uint64_t steps = 0;
    while (steps < 2'000) {
      w.net.run();
      if (!w.promoted) {
        if (auto l = w.controller->tick()) {
          w.promoted = std::move(l);
          w.promoted->set_send(w.sender());
        }
      } else {
        w.promoted->tick();
        if (w.converged_on(*w.promoted)) break;
      }
      for (auto& [id, m] : w.members) m->tick();
      w.net.run();
      ++steps;
    }
    total_steps += steps;
    benchmark::DoNotOptimize(steps);
  }
  state.counters["steps_to_recover"] = benchmark::Counter(
      static_cast<double>(total_steps), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FailoverRecovery);

}  // namespace

#include "bench_json.h"

ENCLAVES_BENCH_JSON_MAIN("failover")
