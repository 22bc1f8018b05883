// E12 — protocol performance (the implementation dimension the paper's
// venue expects): authentication handshake cost, admin round-trip cost,
// rekey latency vs group size, data-plane relay throughput vs payload size.
// Run: build/bench/bench_protocol_perf
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "core/leader.h"
#include "core/member.h"
#include "core/member_session.h"
#include "adversary/storm.h"
#include "net/sim_network.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/record.h"
#include "util/rng.h"
#include "wire/seal.h"

namespace {

using namespace enclaves;

struct World {
  explicit World(core::RekeyPolicy policy)
      : rng(42), leader(core::LeaderConfig{"L", policy}, rng) {
    leader.set_send([this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    net.attach("L", [this](const wire::Envelope& e) { leader.handle(e); });
  }

  core::Member& add_and_join(const std::string& id) {
    auto pa = crypto::LongTermKey::random(rng);
    (void)leader.register_member(id, pa);
    auto m = std::make_unique<core::Member>(id, "L", pa, rng);
    m->set_send([this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    auto* raw = m.get();
    net.attach(id, [raw](const wire::Envelope& e) { raw->handle(e); });
    members[id] = std::move(m);
    (void)raw->join();
    net.run();
    return *raw;
  }

  net::SimNetwork net;
  DeterministicRng rng;
  core::Leader leader;
  std::map<std::string, std::unique_ptr<core::Member>> members;
};

// Full 3-message authentication handshake (crypto + FSM, no queueing).
void BM_AuthHandshake(benchmark::State& state) {
  DeterministicRng rng(7);
  auto pa = crypto::LongTermKey::random(rng);
  for (auto _ : state) {
    core::MemberSession member("alice", "L", pa, rng);
    core::LeaderSession leader("L", "alice", pa, rng);
    auto init = member.start_join();
    auto dist = leader.handle(*init);
    auto ack = member.handle(*dist->reply);
    auto done = leader.handle(*ack->reply);
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_AuthHandshake);

// One AdminMsg + Ack exchange (the unit of all group management).
void BM_AdminRoundTrip(benchmark::State& state) {
  DeterministicRng rng(8);
  auto pa = crypto::LongTermKey::random(rng);
  core::MemberSession member("alice", "L", pa, rng);
  core::LeaderSession leader("L", "alice", pa, rng);
  auto init = member.start_join();
  auto dist = leader.handle(*init);
  auto ack = member.handle(*dist->reply);
  (void)leader.handle(*ack->reply);

  for (auto _ : state) {
    auto admin = leader.submit_admin(wire::Notice{"tick"});
    auto out = member.handle(*admin);
    auto done = leader.handle(*out->reply);
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_AdminRoundTrip);

// Member join latency (messages + crypto) as a function of existing group
// size: the strict policy rekeys everyone on each join, so cost grows.
void BM_JoinIntoGroupOfN(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    World w(core::RekeyPolicy::strict());
    for (int i = 0; i < n; ++i) w.add_and_join("m" + std::to_string(i));
    state.ResumeTiming();
    w.add_and_join("newcomer");
  }
}
BENCHMARK(BM_JoinIntoGroupOfN)->Arg(1)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

// Rekey latency vs group size (fresh Kg to every member + acks).
void BM_RekeyGroupOfN(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  World w(core::RekeyPolicy::manual());
  for (int i = 0; i < n; ++i) w.add_and_join("m" + std::to_string(i));
  for (auto _ : state) {
    w.leader.rekey();
    w.net.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RekeyGroupOfN)->Arg(2)->Arg(8)->Arg(32)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

// Data-plane fan-out: one member publishes, leader relays to N-1 others.
void BM_RelayToGroupOfN(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  World w(core::RekeyPolicy::manual());
  core::Member* first = nullptr;
  for (int i = 0; i < n; ++i) {
    auto& m = w.add_and_join("m" + std::to_string(i));
    if (!first) first = &m;
  }
  Bytes payload = w.rng.bytes(256);
  for (auto _ : state) {
    (void)first->send_data(payload);
    w.net.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (n - 1));
}
BENCHMARK(BM_RelayToGroupOfN)->Arg(2)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

// Relay throughput vs payload size in a 8-member group.
void BM_RelayPayloadSize(benchmark::State& state) {
  World w(core::RekeyPolicy::manual());
  core::Member* first = nullptr;
  for (int i = 0; i < 8; ++i) {
    auto& m = w.add_and_join("m" + std::to_string(i));
    if (!first) first = &m;
  }
  Bytes payload = w.rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    (void)first->send_data(payload);
    w.net.run();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 7);
}
BENCHMARK(BM_RelayPayloadSize)->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

// Profiler overhead guard (PROF_SCOPE cost model): the same admin
// round-trip with the metrics AND profiler sinks detached for the
// duration of the timed loop. bench_diff compares this row against
// BM_AdminRoundTrip under the normal ns/op tolerance — if the attached
// run drifts outside noise relative to this one, instrumentation stopped
// being cheap. (When the whole binary runs with ENCLAVES_BENCH_NO_METRICS=1
// both rows measure the detached path and stay trivially equal.)
void BM_AdminRoundTripUninstrumented(benchmark::State& state) {
  obs::Profiler* prof = obs::prof_sink();
  obs::MetricsRegistry* metrics = obs::metrics_sink();
  obs::set_prof_sink(nullptr);
  obs::set_metrics_sink(nullptr);

  DeterministicRng rng(8);
  auto pa = crypto::LongTermKey::random(rng);
  core::MemberSession member("alice", "L", pa, rng);
  core::LeaderSession leader("L", "alice", pa, rng);
  auto init = member.start_join();
  auto dist = leader.handle(*init);
  auto ack = member.handle(*dist->reply);
  (void)leader.handle(*ack->reply);

  for (auto _ : state) {
    auto admin = leader.submit_admin(wire::Notice{"tick"});
    auto out = member.handle(*admin);
    auto done = leader.handle(*out->reply);
    benchmark::DoNotOptimize(done);
  }

  obs::set_metrics_sink(metrics);
  obs::set_prof_sink(prof);
}
BENCHMARK(BM_AdminRoundTripUninstrumented);

// Flight-recorder parity guard (the other side of the cost model): an
// admin round trip between a core::Leader and a core::Member, whose sends
// and acks emit admin_send / admin_ack records, with the event store
// attached and a FlightRecorder taking every record into its preserialized
// ring. The bench_diff gate holds this row to its committed baseline — if
// recording drifts, the tee stopped being cheap. (The session-level rows
// above emit no records; BM_AdminRoundTripUninstrumented anchors the other
// end: no sinks at all.)
void BM_AdminRoundTripRecording(benchmark::State& state) {
  obs::EventStore store;
  store.set_capacity(1024);  // memory stays flat across iterations
  obs::set_event_sink(&store);
  obs::FlightRecorder recorder("bench", "/tmp");
  recorder.attach();

  World w(core::RekeyPolicy::strict());
  w.add_and_join("alice");
  store.clear();  // only the loop's records count below

  for (auto _ : state) {
    w.leader.probe_liveness();  // one Notice + Ack over the admin channel
    w.net.run();
  }

  recorder.detach();
  obs::set_event_sink(nullptr);
  if (store.size() == 0)
    state.SkipWithError("no records: the row measured no recording");
}
BENCHMARK(BM_AdminRoundTripRecording);

// Cost of REJECTING adversarial junk at a connected member — resilience of
// the non-faulty participant under a message storm (Section 3.1).
void BM_RejectForgedAdminStorm(benchmark::State& state) {
  DeterministicRng rng(9);
  auto pa = crypto::LongTermKey::random(rng);
  core::MemberSession member("alice", "L", pa, rng);
  core::LeaderSession leader("L", "alice", pa, rng);
  auto init = member.start_join();
  auto dist = leader.handle(*init);
  auto ack = member.handle(*dist->reply);
  (void)leader.handle(*ack->reply);

  Bytes junk_key = rng.bytes(32);
  auto forged = wire::make_sealed(crypto::default_aead(), junk_key, rng,
                                  wire::Label::AdminMsg, "L", "alice",
                                  rng.bytes(128));
  for (auto _ : state) {
    auto r = member.handle(forged);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RejectForgedAdminStorm);

// Whole-system storm absorption: a randomized Dolev-Yao storm (replays,
// redirects, mutations, fabrications) against an established 4-member
// group. Measures the cost of shrugging off one hostile packet end-to-end;
// aborts if the group state is ever perturbed.
void BM_StormAbsorption(benchmark::State& state) {
  World w(core::RekeyPolicy::manual());
  for (int i = 0; i < 4; ++i) w.add_and_join("m" + std::to_string(i));
  const auto members_before = w.leader.members();
  const auto epoch_before = w.leader.epoch();

  adversary::StormAttacker storm(w.net, w.rng,
                                 {"L", "m0", "m1", "m2", "m3"});
  for (auto _ : state) {
    storm.storm(64);
    w.net.run();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(storm.stats().total()));
  if (w.leader.members() != members_before ||
      w.leader.epoch() != epoch_before) {
    state.SkipWithError("storm perturbed the group state!");
  }
}
BENCHMARK(BM_StormAbsorption)->Unit(benchmark::kMicrosecond);

}  // namespace

#include "bench_json.h"

ENCLAVES_BENCH_JSON_MAIN("protocol_perf")
