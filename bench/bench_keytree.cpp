// Key-tree rekey costs (PROTOCOL.md §13, docs/KEYTREE.md): the O(log N)
// leader-side mint vs the flat O(N) re-seal it replaces, the member-side
// apply cost, and end-to-end join latency under both policies. The
// acceptance bar from the key-tree PR: BM_RekeyGroupOfN/1024 (tree mint)
// stays within tens of microseconds.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/keytree.h"
#include "core/leader.h"
#include "core/member.h"
#include "net/sim_network.h"
#include "util/rng.h"
#include "wire/seal.h"

namespace {

using namespace enclaves;

std::uint32_t depth_for(std::size_t leaves) {
  std::uint32_t d = 1;
  while ((std::size_t{1} << d) < leaves) ++d;
  return d;
}

std::string member_name(int i) { return "m" + std::to_string(i); }

// A leader-side KeyTree with n occupied leaves and the session keys the
// leaf KEKs were derived from (the flat comparison re-seals under these).
struct MintHarness {
  MintHarness(int n, std::uint64_t seed)
      : rng(seed),
        tree("L", crypto::default_aead(), rng,
             depth_for(static_cast<std::size_t>(n))) {
    for (int i = 0; i < n; ++i) {
      const std::string id = member_name(i);
      session_keys.push_back(crypto::SessionKey::random(rng));
      tree.assign(id, core::derive_leaf_kek(session_keys.back(), id));
    }
  }

  DeterministicRng rng;
  core::KeyTree tree;
  std::vector<crypto::SessionKey> session_keys;
};

// Tree-mode rekey mint: one membership-change rotation (the path above one
// leaf) in a group of N. This is the cost the key tree makes O(log N) —
// `entries_per_update` is ~2*depth regardless of N.
void BM_RekeyGroupOfN(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  MintHarness h(n, 91);
  std::uint64_t epoch = 1, entries = 0;
  int next = 0;
  for (auto _ : state) {
    auto update = h.tree.rotate_join(member_name(next), ++epoch);
    next = (next + 1) % n;
    entries += update.entries.size();
    benchmark::DoNotOptimize(update);
  }
  state.counters["entries_per_update"] = benchmark::Counter(
      static_cast<double>(entries), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_RekeyGroupOfN)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

// The flat oracle's mint for the same event: a fresh Kg sealed once per
// member (the paper's literal O(N) rekey, without the stop-and-wait
// transport around it — see BENCH_protocol_perf.json for that).
void BM_RekeyFlatGroupOfN(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  MintHarness h(n, 92);
  const auto& aead = crypto::default_aead();
  std::uint64_t epoch = 1;
  for (auto _ : state) {
    const auto kg = crypto::GroupKey::random(h.rng);
    ++epoch;
    for (int i = 0; i < n; ++i) {
      wire::AdminPayload payload{
          "L", member_name(i), crypto::ProtocolNonce::random(h.rng),
          crypto::ProtocolNonce::random(h.rng), wire::NewGroupKey{kg, epoch}};
      auto env = wire::make_sealed(
          aead, h.session_keys[static_cast<std::size_t>(i)].view(), h.rng,
          wire::Label::AdminMsg, "L", member_name(i), wire::encode(payload));
      benchmark::DoNotOptimize(env);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RekeyFlatGroupOfN)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

// Member-side apply, as Member::handle_keytree_update runs it: decode the
// encoded broadcast as a view into its bytes, then walk the member's own
// path. Member 0 opens one entry per level, from its lowest ancestor
// shared with the rotated member up to the root.
void BM_KeyTreeApplyUpdate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  MintHarness h(n, 93);
  const auto& aead = crypto::default_aead();

  core::KeyTreeView view;
  view.assign(h.tree.leaf_of(member_name(0)), h.session_keys[0],
              member_name(0));
  // Bootstrap the view's path from its own join rotation.
  std::uint64_t epoch = 2;
  auto bootstrap = h.tree.rotate_join(member_name(0), epoch);
  (void)view.apply_update(aead, bootstrap, epoch - 1);

  int next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const Bytes body =
        wire::encode(h.tree.rotate_join(member_name(next), ++epoch));
    next = (next + 1) % n;
    state.ResumeTiming();
    auto update = wire::decode<wire::KeyTreeUpdateView>(body);
    if (!update) {
      state.SkipWithError("decode refused");
      break;
    }
    auto applied = view.apply_update(aead, *update, epoch - 1);
    benchmark::DoNotOptimize(applied);
    if (applied.outcome != core::KeyTreeView::Outcome::applied) {
      state.SkipWithError("apply refused");
      break;
    }
  }
}
BENCHMARK(BM_KeyTreeApplyUpdate)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// End-to-end joins over the lossless SimNetwork (handshake + rekey + notices
// + acks), tree vs flat. The world persists across iterations; each
// iteration times one join and pays the matching leave off the clock.
// `handlers` gives every member an event handler that keeps nothing, as
// every real application installs one: each membership notice then also
// publishes a ViewChanged (EXPERIMENTS.md E18).

struct World {
  World(core::RekeyPolicy policy, std::uint32_t depth, bool handlers)
      : rng(42), handlers(handlers) {
    core::LeaderConfig config{"L", policy};
    config.keytree_depth = depth;
    leader = std::make_unique<core::Leader>(config, rng);
    leader->set_send(sender());
    net.attach("L", [this](const wire::Envelope& e) { leader->handle(e); });
  }

  core::SendFn sender() {
    return [this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    };
  }

  core::Member& add(const std::string& id) {
    auto pa = crypto::LongTermKey::random(rng);
    (void)leader->register_member(id, pa);
    auto m = std::make_unique<core::Member>(id, "L", pa, rng);
    m->set_send(sender());
    if (handlers) {
      m->set_event_handler(
          [](const core::GroupEvent& ev) { benchmark::DoNotOptimize(&ev); });
    }
    auto* raw = m.get();
    net.attach(id, [raw](const wire::Envelope& e) { raw->handle(e); });
    members[id] = std::move(m);
    return *raw;
  }

  net::SimNetwork net;
  DeterministicRng rng;
  bool handlers;
  std::unique_ptr<core::Leader> leader;
  std::map<std::string, std::unique_ptr<core::Member>> members;
};

void join_churn(benchmark::State& state, core::RekeyPolicy policy,
                bool handlers = false) {
  const int n = static_cast<int>(state.range(0));
  World w(policy, depth_for(static_cast<std::size_t>(n) + 2), handlers);
  for (int i = 0; i < n; ++i) {
    (void)w.add(member_name(i)).join();
    w.net.run();
  }
  auto& newcomer = w.add("newcomer");
  for (auto _ : state) {
    (void)newcomer.join();
    w.net.run();
    state.PauseTiming();
    if (!newcomer.connected()) {
      state.SkipWithError("join stalled");
      state.ResumeTiming();
      break;
    }
    (void)newcomer.leave();
    w.net.run();
    state.ResumeTiming();
  }
}

void BM_JoinIntoGroupOfN_Tree(benchmark::State& state) {
  join_churn(state, core::RekeyPolicy::tree());
}
BENCHMARK(BM_JoinIntoGroupOfN_Tree)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_JoinIntoGroupOfN_TreeWithHandlers(benchmark::State& state) {
  join_churn(state, core::RekeyPolicy::tree(), /*handlers=*/true);
}
BENCHMARK(BM_JoinIntoGroupOfN_TreeWithHandlers)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_JoinIntoGroupOfN_Flat(benchmark::State& state) {
  join_churn(state, core::RekeyPolicy::strict());
}
// Flat stops at 256: building the N-member world is O(N^2) admin exchanges
// under the strict policy, and the per-join cost at 1024 is the very O(N)
// wall the key tree removes (extrapolate from the 64->256 slope).
BENCHMARK(BM_JoinIntoGroupOfN_Flat)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

#include "bench_json.h"

ENCLAVES_BENCH_JSON_MAIN("keytree")
