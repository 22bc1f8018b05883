// The two in-process workloads, churn_tree and rekey_flat_obs.
//
// Both run a leader and 128 members on one thread. Every SendFn pushes onto
// a bench-owned FIFO and a dispatch loop hands each envelope to its
// recipient's handle(). net::SimNetwork is deliberately not used: it copies
// every packet into its eavesdropper log, so over a long run it would
// measure the simulator instead of the group. No delay is injected, so the
// latencies here are summed processing time on one core.
#include <bitset>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "bench.h"
#include "core/leader.h"
#include "core/member.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace enclaves;

constexpr std::size_t kGroupSize = 128;
constexpr std::size_t kChurners = 4;
constexpr int kMessagesPerCycle = 16;
constexpr std::size_t kFlatPayload = 64;
// Untimed warm-up before the timed rounds. RSS is read after it, at a fixed
// amount of work: rekey_flat_obs grows ~20 KB per cycle (every member's
// rcv_log_ keeps each admin body), so an end-of-run reading would charge a
// faster program for the extra cycles it fits in.
constexpr std::uint64_t kWarmupChurnOps = 400;
constexpr std::uint64_t kWarmupFlatCycles = 200;
const std::string kLeaderId = "L";

using SlotSet = std::bitset<kGroupSize>;

/// A leader and kGroupSize member slots joined through the bench FIFO.
/// A slot's Member is destroyed when it leaves; envelopes still queued for
/// a departed incarnation are discarded at dispatch (the process they were
/// addressed to is gone).
class LocalGroup {
 public:
  struct Hooks {
    std::function<void(int slot, const core::GroupEvent&)> on_event;
    std::function<void(int slot)> on_joined;  // leader admitted the slot
    std::function<void(int slot)> on_left;    // leader closed the slot
    std::function<void(std::uint64_t epoch)> on_rekey;
  };

  LocalGroup(const Options& opt, core::LeaderConfig config,
             const crypto::Aead& aead, Gate& gate)
      : rng_(opt.seed), aead_(aead), gate_(gate),
        drop_sends_(opt.fault == "drop_send") {
    config.id = kLeaderId;
    leader_ = std::make_unique<core::Leader>(config, rng_, aead_);
    leader_->set_send([this](const std::string& to, wire::Envelope e) {
      auto it = slot_of_.find(to);
      if (it == slot_of_.end()) {
        gate_.fail("leader sent to unknown id " + to);
        return;
      }
      enqueue(it->second, std::move(e));
    });
    leader_->on_member_joined = [this](const std::string& id) {
      Span h(kHarness);
      const int slot = slot_of_.at(id);
      in_group_.set(static_cast<std::size_t>(slot));
      if (hooks.on_joined) hooks.on_joined(slot);
    };
    leader_->on_member_left = [this](const std::string& id) {
      Span h(kHarness);
      if (hooks.on_left) hooks.on_left(slot_of_.at(id));
    };
    leader_->on_rekey = [this](std::uint64_t epoch) {
      Span h(kHarness);
      if (hooks.on_rekey) hooks.on_rekey(epoch);
    };
    for (std::size_t i = 0; i < kGroupSize; ++i) {
      Slot s;
      s.id = "m" + std::to_string(1000 + i).substr(1);
      s.pa = crypto::LongTermKey::random(rng_);
      if (!leader_->register_member(s.id, s.pa))
        gate_.fail("register " + s.id);
      slot_of_.emplace(s.id, static_cast<int>(i));
      slots_.push_back(std::move(s));
    }
  }

  Hooks hooks;

  core::Leader& leader() { return *leader_; }
  core::Member* member(int slot) { return slots_[slot].member.get(); }
  const SlotSet& in_group() const { return in_group_; }
  std::size_t depth_max() const { return depth_max_; }
  std::uint64_t wire_bytes() const { return wire_bytes_; }
  std::vector<double>& queue_waits_us() { return waits_us_; }

  /// Inputs rejected by every member incarnation so far.
  std::uint64_t member_rejects() const {
    std::uint64_t n = departed_rejects_;
    for (const auto& s : slots_)
      if (s.member) n += rejects_of(*s.member);
    return n;
  }

  /// Fresh Member for `slot`, then join().
  void join(int slot) {
    Slot& s = slots_[slot];
    ++s.gen;
    s.member = std::make_unique<core::Member>(s.id, kLeaderId, s.pa, rng_,
                                              aead_);
    s.member->set_send([this](const std::string& to, wire::Envelope e) {
      if (to != kLeaderId) gate_.fail("member sent to " + to);
      enqueue(-1, std::move(e));
    });
    s.member->set_event_handler([this, slot](const core::GroupEvent& ev) {
      if (!hooks.on_event) return;
      Span h(kHarness);
      hooks.on_event(slot, ev);
    });
    Span sp(kMemberJoin);
    if (!s.member->join()) gate_.fail("join() refused for " + s.id);
  }

  /// leave() and drop the Member; queued envelopes to it are discarded.
  void leave(int slot) {
    Slot& s = slots_[slot];
    in_group_.reset(static_cast<std::size_t>(slot));
    check_member_rejects(*s.member);
    departed_rejects_ += rejects_of(*s.member);
    {
      Span sp(kMemberLeave);
      if (!s.member->leave()) gate_.fail("leave() refused for " + s.id);
    }
    s.member.reset();
    ++s.gen;
  }

  /// Dispatches one queued envelope; false when the FIFO is empty.
  bool step() {
    if (queue_.empty()) return false;
    Pending p;
    {
      Span s(kQueue);
      p = std::move(queue_.front());
      queue_.pop_front();
      if (s.trace()) waits_us_.push_back((now_ns() - p.enqueued) / 1e3);
    }
    if (p.slot < 0) {
      ThreadTrace* t = current_trace();
      if (t && p.env.label == wire::Label::GroupData) ++t->leader_data_in;
      Span s(kLeaderHandle);
      leader_->handle(p.env);
      return true;
    }
    Slot& slot = slots_[p.slot];
    if (!slot.member || slot.gen != p.gen) return true;
    Span s(kMemberHandle);
    slot.member->handle(p.env);
    return true;
  }

  void drain() {
    while (step()) {
    }
  }

  /// Quiescent-state gate: every live member is connected at the leader's
  /// epoch, its view equals leader.members(), and nobody rejected input.
  void check() {
    Span h(kHarness);
    const auto members = leader_->members();
    if (members.size() != in_group_.count())
      gate_.fail("leader lists " + std::to_string(members.size()) +
                 " members, expected " + std::to_string(in_group_.count()));
    if (leader_->rejected_inputs() != 0)
      gate_.fail("leader rejected " +
                 std::to_string(leader_->rejected_inputs()) + " inputs");
    for (std::size_t i = 0; i < kGroupSize; ++i) {
      const core::Member* m = slots_[i].member.get();
      if (!m) continue;
      if (!m->connected() || !m->has_group_key() ||
          m->epoch() != leader_->epoch())
        gate_.fail(m->id() + " not at leader epoch " +
                   std::to_string(leader_->epoch()));
      else if (m->view() != members)
        gate_.fail(m->id() + " view differs from leader.members()");
      check_member_rejects(*m);
    }
  }

  /// Joins every slot, one at a time, draining after each.
  void form() {
    for (std::size_t i = 0; i < kGroupSize; ++i) {
      join(static_cast<int>(i));
      drain();
    }
    check();
  }

 private:
  struct Slot {
    std::string id;
    crypto::LongTermKey pa;
    std::unique_ptr<core::Member> member;
    std::uint32_t gen = 0;
  };
  struct Pending {
    int slot = -1;  // -1 = the leader
    std::uint32_t gen = 0;
    wire::Envelope env;
    std::uint64_t enqueued = 0;
  };

  void enqueue(int slot, wire::Envelope e) {
    Span s(kFanout);
    count_send(e);
    wire_bytes_ += envelope_bytes(e);
    if (drop_sends_ && ++sends_ % kFaultPeriod == 0) return;
    const std::uint32_t gen = slot < 0 ? 0 : slots_[slot].gen;
    queue_.push_back({slot, gen, std::move(e), s.trace() ? now_ns() : 0});
    depth_max_ = std::max(depth_max_, queue_.size());
  }

  void check_member_rejects(const core::Member& m) {
    const auto rejects = rejects_of(m);
    if (rejects != 0)
      gate_.fail(m.id() + " rejected " + std::to_string(rejects) + " inputs");
  }

  DeterministicRng rng_;
  const crypto::Aead& aead_;
  Gate& gate_;
  bool drop_sends_;
  std::uint64_t sends_ = 0;
  std::uint64_t wire_bytes_ = 0;
  std::unique_ptr<core::Leader> leader_;
  std::vector<Slot> slots_;
  std::unordered_map<std::string, int> slot_of_;
  SlotSet in_group_;
  std::deque<Pending> queue_;
  std::size_t depth_max_ = 0;
  std::uint64_t departed_rejects_ = 0;
  std::vector<double> waits_us_;
};

/// Rekey convergence: mint (Leader::on_rekey) -> the last member that was in
/// the group at the mint reports EpochChanged at that epoch or later.
/// Members that leave meanwhile are no longer waited for.
class RekeyTracker {
 public:
  std::vector<double>* samples_us = nullptr;

  void minted(std::uint64_t epoch, const SlotSet& targets) {
    pending_.push_back({epoch, now_ns(), targets});
    settle();
  }
  void reached(int slot, std::uint64_t epoch) {
    for (auto& p : pending_)
      if (p.epoch <= epoch) p.targets.reset(static_cast<std::size_t>(slot));
    settle();
  }
  void departed(int slot) {
    for (auto& p : pending_) p.targets.reset(static_cast<std::size_t>(slot));
    settle();
  }
  std::size_t unconverged() const { return pending_.size(); }
  void clear() { pending_.clear(); }

 private:
  struct Pending {
    std::uint64_t epoch;
    std::uint64_t minted_ns;
    SlotSet targets;
  };
  void settle() {
    const std::uint64_t now = now_ns();
    while (!pending_.empty() && pending_.front().targets.none()) {
      if (samples_us)
        samples_us->push_back((now - pending_.front().minted_ns) / 1e3);
      pending_.pop_front();
    }
  }
  std::deque<Pending> pending_;
};

/// Counter increments plus histogram observations. Byte counters advance by
/// a size per update, so they are left out rather than miscounted.
std::uint64_t obs_counter_updates(const obs::MetricsRegistry& reg) {
  const auto snap = reg.snapshot();
  std::uint64_t n = 0;
  for (const auto& [key, v] : snap.counters)
    if (key.name.find("bytes") == std::string::npos) n += v;
  for (const auto& [key, h] : snap.histograms) n += h.count;
  return n;
}

std::uint64_t prof_samples(const obs::Profiler& prof) {
  std::uint64_t n = 0;
  for (const auto& [path, stat] : prof.snapshot().scopes) n += stat.count;
  return n;
}

// ---------------------------------------------------------------------------
// churn_tree

struct ChurnWorld {
  std::unique_ptr<LocalGroup> group;
  RekeyTracker rekeys;
  enum class Phase { idle, leaving, joining };
  struct Churner {
    Phase phase = Phase::idle;
    int slot = -1;
    std::uint64_t t0 = 0;
  };
  std::vector<Churner> churners = std::vector<Churner>(kChurners);
  SlotSet busy;
  std::vector<int> joined_target;  // per slot: epoch its admission minted
  std::vector<std::size_t> ready_to_join;  // churner indices
  std::vector<std::size_t> ready_to_start;
  bool issuing = false;
  std::uint64_t ops_done = 0;     // completed joins + leaves
  std::uint64_t cycles_done = 0;  // completed leave+join cycles
  std::uint64_t started = 0;
  std::vector<double>* join_us = nullptr;
  DeterministicRng pick_rng{0};

  std::optional<std::size_t> churner_of(int slot) const {
    for (std::size_t i = 0; i < churners.size(); ++i)
      if (churners[i].slot == slot && churners[i].phase != Phase::idle)
        return i;
    return std::nullopt;
  }

  void start(std::size_t c) {
    int slot = 0;
    const auto& live = group->in_group();
    do {
      slot = static_cast<int>(pick_rng.below(kGroupSize));
    } while (busy[slot] || !live[slot]);
    busy.set(slot);
    churners[c] = {Phase::leaving, slot, now_ns()};
    ++started;
    rekeys.departed(slot);
    group->leave(slot);
  }

  void wire_hooks(Gate& gate) {
    joined_target.assign(kGroupSize, -1);
    auto& h = group->hooks;
    h.on_rekey = [this](std::uint64_t epoch) {
      rekeys.minted(epoch, group->in_group());
    };
    h.on_joined = [this](int slot) {
      joined_target[slot] = static_cast<int>(group->leader().epoch());
    };
    h.on_left = [this, &gate](int slot) {
      auto c = churner_of(slot);
      if (!c || churners[*c].phase != Phase::leaving) {
        gate.fail("unexpected departure of slot " + std::to_string(slot));
        return;
      }
      ++ops_done;
      churners[*c].phase = Phase::joining;
      ready_to_join.push_back(*c);
    };
    h.on_event = [this](int slot, const core::GroupEvent& ev) {
      const auto* epoch = std::get_if<core::EpochChanged>(&ev);
      if (!epoch) return;
      rekeys.reached(slot, epoch->epoch);
      auto c = churner_of(slot);
      if (!c || churners[*c].phase != Phase::joining) return;
      const core::Member* m = group->member(slot);
      if (joined_target[slot] < 0 || !m->connected() ||
          !m->has_group_key() ||
          m->epoch() < static_cast<std::uint64_t>(joined_target[slot]))
        return;
      if (join_us) join_us->push_back((now_ns() - churners[*c].t0) / 1e3);
      ++ops_done;
      ++cycles_done;
      busy.reset(slot);
      churners[*c] = {};
      if (issuing) ready_to_start.push_back(*c);
    };
  }

  bool any_busy() const {
    for (const auto& c : churners)
      if (c.phase != Phase::idle) return true;
    return false;
  }

  /// Runs the closed loop until `end_ns` (or until `max_ops` churn ops, when
  /// nonzero), then lets in-flight cycles finish. Returns false on a stall
  /// (FIFO empty while a cycle is still open).
  bool run_until(std::uint64_t end_ns, std::uint64_t max_ops) {
    issuing = true;
    for (std::size_t c = 0; c < churners.size(); ++c)
      if (churners[c].phase == Phase::idle) start(c);
    std::uint64_t steps = 0;
    while (true) {
      for (std::size_t c : ready_to_join) {
        joined_target[churners[c].slot] = -1;
        churners[c].t0 = now_ns();
        group->join(churners[c].slot);
      }
      ready_to_join.clear();
      for (std::size_t c : ready_to_start) start(c);
      ready_to_start.clear();
      if (!group->step()) return !any_busy();
      if (issuing && ((max_ops && ops_done >= max_ops) ||
                      ((++steps & 63) == 0 && now_ns() >= end_ns)))
        issuing = false;
    }
  }
};

std::unique_ptr<ChurnWorld> build_churn(const Options& opt,
                                        const crypto::Aead& aead, Gate& gate) {
  core::LeaderConfig config;
  config.rekey = core::RekeyPolicy::tree();
  // Sized to the group: 2^7 leaves, so churn never grows the tree.
  config.keytree_depth = 7;
  auto w = std::make_unique<ChurnWorld>();
  w->group = std::make_unique<LocalGroup>(opt, config, aead, gate);
  w->pick_rng = DeterministicRng(opt.seed ^ 0x9E3779B97F4A7C15ull);
  w->group->form();
  w->wire_hooks(gate);
  return w;
}

struct ChurnRound {
  double wall_s = 0, cpu_s = 0;
  std::uint64_t ops = 0, cycles = 0, bytes = 0;
  std::vector<double> join_us, rekey_us;
};

ChurnRound churn_round(ChurnWorld& w, double seconds, Gate& gate,
                       RunResult& r, std::uint64_t max_ops = 0) {
  ChurnRound round;
  w.join_us = &round.join_us;
  w.rekeys.samples_us = &round.rekey_us;
  const std::uint64_t ops0 = w.ops_done, cycles0 = w.cycles_done;
  const std::uint64_t started0 = w.started;
  const std::uint64_t bytes0 = w.group->wire_bytes();
  const std::uint64_t t0 = now_ns(), c0 = thread_cpu_ns();
  const bool drained = w.run_until(
      t0 + static_cast<std::uint64_t>(seconds * 1e9),
      max_ops ? w.ops_done + max_ops : 0);
  round.wall_s = (now_ns() - t0) / 1e9;
  round.cpu_s = (thread_cpu_ns() - c0) / 1e9;
  round.ops = w.ops_done - ops0;
  round.cycles = w.cycles_done - cycles0;
  round.bytes = w.group->wire_bytes() - bytes0;
  r.attempted += w.started - started0;
  if (!drained) {
    gate.fail("churn stalled with cycles open");
    r.failed += (w.started - started0) - round.cycles;
    w.rekeys.clear();
  } else if (w.rekeys.unconverged() != 0) {
    gate.fail("rekey did not converge");
    w.rekeys.clear();
  }
  w.group->check();
  w.join_us = nullptr;
  w.rekeys.samples_us = nullptr;
  return round;
}

// ---------------------------------------------------------------------------
// rekey_flat_obs

struct FlatWorld {
  std::unique_ptr<LocalGroup> group;
  RekeyTracker rekeys;
  PayloadSource payloads{0};
  std::uint64_t next_msg = 0;
  std::uint64_t cycles = 0;
  int origin_base = 0;
  // The single message in flight.
  std::uint64_t msg_id = 0;
  int msg_origin = -1;
  std::uint64_t msg_sent_ns = 0;
  SlotSet msg_got;
  std::uint64_t deliveries = 0;
  std::vector<double>* deliver_us = nullptr;

  void wire_hooks(Gate& gate) {
    auto& h = group->hooks;
    h.on_rekey = [this](std::uint64_t epoch) {
      rekeys.minted(epoch, group->in_group());
    };
    h.on_event = [this, &gate](int slot, const core::GroupEvent& ev) {
      if (const auto* e = std::get_if<core::EpochChanged>(&ev)) {
        rekeys.reached(slot, e->epoch);
        return;
      }
      const auto* d = std::get_if<core::DataReceived>(&ev);
      if (!d) return;
      const std::uint64_t t = now_ns();
      const auto id = PayloadSource::id_of(d->payload);
      if (id != msg_id || msg_origin < 0) {
        gate.fail("delivery of a message not in flight");
        return;
      }
      if (slot == msg_origin) gate.fail("message delivered back to origin");
      if (msg_got[slot]) gate.fail("duplicate delivery");
      if (d->origin != group->member(msg_origin)->id())
        gate.fail("wrong origin on delivery");
      if (!payloads.check(id, kFlatPayload, d->payload))
        gate.fail("payload corrupted in delivery");
      msg_got.set(slot);
      ++deliveries;
      if (deliver_us) deliver_us->push_back((t - msg_sent_ns) / 1e3);
    };
  }

  /// One cycle: leader rekey, converge, then kMessagesPerCycle messages,
  /// each delivered to all other members before the next is sent. Returns
  /// false if anything failed to complete.
  bool cycle(Gate& gate, int messages = kMessagesPerCycle) {
    {
      Span s(kLeaderRekey);
      group->leader().rekey();
    }
    group->drain();
    if (rekeys.unconverged() != 0) {
      gate.fail("flat rekey did not converge");
      rekeys.clear();
      return false;
    }
    for (int k = 0; k < messages; ++k) {
      const int origin = static_cast<int>(
          (origin_base + cycles * kMessagesPerCycle + k) % kGroupSize);
      msg_id = next_msg++;
      msg_origin = origin;
      msg_got.reset();
      Bytes payload;
      {
        Span h(kHarness);
        payload = payloads.make(msg_id, kFlatPayload);
      }
      msg_sent_ns = now_ns();
      {
        Span s(kMemberSend);
        if (!group->member(origin)->send_data(payload)) {
          gate.fail("send_data refused");
          return false;
        }
      }
      group->drain();
      if (msg_got.count() != kGroupSize - 1) {
        gate.fail("message reached " + std::to_string(msg_got.count()) +
                  " of " + std::to_string(kGroupSize - 1) + " recipients");
        return false;
      }
    }
    msg_origin = -1;
    ++cycles;
    return true;
  }
};

std::unique_ptr<FlatWorld> build_flat(const Options& opt,
                                      const crypto::Aead& aead, Gate& gate) {
  core::LeaderConfig config;
  config.rekey = core::RekeyPolicy::strict();
  auto w = std::make_unique<FlatWorld>();
  w->group = std::make_unique<LocalGroup>(opt, config, aead, gate);
  w->payloads = PayloadSource(opt.seed);
  w->origin_base = static_cast<int>(opt.seed % kGroupSize);
  w->group->form();
  w->wire_hooks(gate);
  return w;
}

struct FlatRound {
  double busy_s = 0, cpu_s = 0;
  std::uint64_t cycles = 0, deliveries = 0, bytes = 0;
  std::vector<double> rekey_us, deliver_us;
};

FlatRound flat_round(FlatWorld& w, double seconds, Gate& gate, RunResult& r,
                     std::uint64_t max_cycles = 0) {
  FlatRound round;
  w.rekeys.samples_us = &round.rekey_us;
  w.deliver_us = &round.deliver_us;
  const std::uint64_t end =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t d0 = w.deliveries;
  const std::uint64_t bytes0 = w.group->wire_bytes();
  do {
    const std::uint64_t t0 = now_ns(), c0 = thread_cpu_ns();
    ++r.attempted;
    const bool ok = w.cycle(gate);
    round.busy_s += (now_ns() - t0) / 1e9;
    round.cpu_s += (thread_cpu_ns() - c0) / 1e9;
    if (!ok) {
      ++r.failed;
      break;
    }
    ++round.cycles;
    w.group->check();  // untimed: after every cycle
  } while ((max_cycles ? round.cycles < max_cycles : now_ns() < end) &&
           gate.ok());
  round.deliveries = w.deliveries - d0;
  round.bytes = w.group->wire_bytes() - bytes0;
  w.rekeys.samples_us = nullptr;
  w.deliver_us = nullptr;
  return round;
}

/// Exact SendFn counts of `action` (run traced on a scratch trace).
template <typename Action>
std::pair<double, double> count_sends(Action action) {
  ThreadTrace t;
  {
    TraceScope scope(&t);
    action();
  }
  double sends = 0, bytes = 0;
  for (int c = 0; c < kClassCount; ++c) {
    sends += static_cast<double>(t.sends[c]);
    bytes += static_cast<double>(t.send_bytes[c]);
  }
  return {sends, bytes};
}

/// Trace rows of an in-process run: rejects, overhead and the bench FIFO.
void fill_group_trace(RunResult& r, LocalGroup& g, std::uint64_t rejects0,
                      double traced_s_per_op, double plain_s_per_op) {
  fill_trace_tail(r, g.leader().rejected_inputs() - rejects0,
                  g.member_rejects(), traced_s_per_op, plain_s_per_op);
  const auto& waits = g.queue_waits_us();
  r.layer["queue.wait_p50_us"] = quantile(waits, 0.5);
  r.layer["queue.wait_p99_us"] = quantile(waits, 0.99);
  r.layer["queue.depth_max"] = static_cast<double>(g.depth_max());
}

void fill_context(RunResult& r, bool sinks) {
  r.context["group_size"] = std::to_string(kGroupSize);
  r.context["obs_sinks_attached"] = sinks ? "true" : "false";
}

}  // namespace

RunResult run_churn_tree(const Options& opt) {
  pin_to_cpu(0);
  RunResult r;
  fill_context(r, false);
  AeadChoice aeads;
  const auto& aead = aeads.pick(opt);
  auto build = [&] { return build_churn(opt, aead, r.gate); };
  auto w = timed_setup(r, build);
  // Warm-up: a fixed amount of churn, untimed; RSS is read after it.
  churn_round(*w, 1e9, r.gate, r, kWarmupChurnOps);
  r.rss_mb = peak_rss_mb();

  auto record = [&](const ChurnRound& round) {
    r.rounds["ops_per_s"].push_back(round.ops / round.wall_s);
    r.rounds["lat_p50_us"].push_back(quantile(round.join_us, 0.5));
    r.rounds["lat_p90_us"].push_back(quantile(round.join_us, 0.9));
    r.rounds["busy_us_per_op"].push_back(round.cpu_s * 1e6 /
                                        std::max<std::uint64_t>(round.ops, 1));
    r.rounds["rekey_p50_us"].push_back(quantile(round.rekey_us, 0.5));
    r.wire_bytes += round.bytes;
    r.wire_ops += round.ops;
    r.pool("join_us", round.join_us);
    r.pool("rekey_us", round.rekey_us);
  };

  if (!opt.trace) {
    for (int i = 0; i < kRounds && r.gate.ok(); ++i) {
      record(churn_round(*w, opt.seconds / kRounds, r.gate, r));
      record_reference(r);
      if (i % kSetupEvery == kSetupEvery - 1) timed_setup(r, build);
    }
    r.named["churn_ops_per_s"] = {median(r.rounds["ops_per_s"]), "1/s"};
    r.named["join_p50_us"] = {median(r.rounds["lat_p50_us"]), "us"};
    r.name_pooled_p99("join_p99_us", "join_us");
    r.named["rekey_p50_us"] = {median(r.rounds["rekey_p50_us"]), "us"};
    r.name_pooled_p99("rekey_p99_us", "rekey_us");
    return r;
  }

  // Trace mode: untraced half, traced half, then exact per-op counts.
  const ChurnRound plain = churn_round(*w, opt.seconds / 2, r.gate, r);
  ThreadTrace t;
  ChurnRound traced;
  const std::uint64_t rejects0 = w->group->leader().rejected_inputs();
  {
    TraceScope scope(&t);
    traced = churn_round(*w, opt.seconds / 2, r.gate, r);
  }
  const double cycles = std::max<double>(traced.cycles, 1);
  fill_layer_metrics(r, t, cycles, 0, t, t);
  fill_group_trace(r, *w->group, rejects0,
                   traced.wall_s / std::max<double>(traced.ops, 1),
                   plain.wall_s / std::max<double>(plain.ops, 1));

  // Exact counts: serialized leave and join of one member, drained.
  w->issuing = false;
  const int slot = static_cast<int>(w->pick_rng.below(kGroupSize));
  w->group->hooks.on_left = nullptr;
  w->group->hooks.on_event = nullptr;
  const auto leave = count_sends([&] {
    w->group->leave(slot);
    w->group->drain();
  });
  const auto join = count_sends([&] {
    w->group->join(slot);
    w->group->drain();
  });
  w->group->check();
  r.layer["count.leave.sends"] = leave.first;
  r.layer["count.leave.bytes"] = leave.second;
  r.layer["count.join.sends"] = join.first;
  r.layer["count.join.bytes"] = join.second;
  return r;
}

RunResult run_rekey_flat_obs(const Options& opt) {
  pin_to_cpu(0);
  RunResult r;
  fill_context(r, true);
  // The sinks a leader serving /metrics has attached, for the whole run.
  obs::MetricsRegistry registry;
  obs::Profiler profiler;
  obs::ScopedMetricsSink metrics_sink(registry);
  obs::ScopedProfSink prof_sink(profiler);
  AeadChoice aeads;
  const auto& aead = aeads.pick(opt);
  auto build = [&] { return build_flat(opt, aead, r.gate); };
  auto w = timed_setup(r, build);
  // Warm-up: a fixed number of cycles, untimed; RSS is read after it.
  flat_round(*w, 1e9, r.gate, r, kWarmupFlatCycles);
  r.rss_mb = peak_rss_mb();

  auto record = [&](const FlatRound& round) {
    const double busy = std::max(round.busy_s, 1e-9);
    r.rounds["ops_per_s"].push_back(round.deliveries / busy);
    r.rounds["lat_p50_us"].push_back(quantile(round.rekey_us, 0.5));
    r.rounds["lat_p90_us"].push_back(quantile(round.rekey_us, 0.9));
    r.rounds["busy_us_per_op"].push_back(
        round.cpu_s * 1e6 / std::max<std::uint64_t>(round.deliveries, 1));
    r.rounds["deliver_p50_us"].push_back(quantile(round.deliver_us, 0.5));
    r.rounds["deliver_p99_us"].push_back(quantile(round.deliver_us, 0.99));
    r.wire_bytes += round.bytes;
    r.wire_ops += round.deliveries;
    r.pool("rekey_us", round.rekey_us);
  };

  if (!opt.trace) {
    for (int i = 0; i < kRounds && r.gate.ok(); ++i) {
      record(flat_round(*w, opt.seconds / kRounds, r.gate, r));
      record_reference(r);
      if (i % kSetupEvery == kSetupEvery - 1) timed_setup(r, build);
    }
    r.named["deliveries_per_s"] = {median(r.rounds["ops_per_s"]), "1/s"};
    r.named["rekey_p50_us"] = {median(r.rounds["lat_p50_us"]), "us"};
    r.name_pooled_p99("rekey_p99_us", "rekey_us");
    r.named["deliver_p50_us"] = {median(r.rounds["deliver_p50_us"]), "us"};
    r.named["deliver_p99_us"] = {median(r.rounds["deliver_p99_us"]), "us"};
    return r;
  }

  const FlatRound plain = flat_round(*w, opt.seconds / 2, r.gate, r);
  ThreadTrace t;
  FlatRound traced;
  const std::uint64_t rejects0 = w->group->leader().rejected_inputs();
  const std::uint64_t counters0 = obs_counter_updates(registry);
  const std::uint64_t samples0 = prof_samples(profiler);
  const std::uint64_t relayed0 = w->group->leader().relayed_count();
  {
    TraceScope scope(&t);
    traced = flat_round(*w, opt.seconds / 2, r.gate, r);
  }
  const double cycles = std::max<double>(traced.cycles, 1);
  r.layer["obs.counter_updates_per_op"] =
      (obs_counter_updates(registry) - counters0) / cycles;
  r.layer["obs.prof_samples_per_op"] =
      (prof_samples(profiler) - samples0) / cycles;
  fill_layer_metrics(
      r, t, cycles,
      static_cast<double>(w->group->leader().relayed_count() - relayed0), t,
      t);
  fill_group_trace(r, *w->group, rejects0,
                   traced.busy_s / std::max<double>(traced.cycles, 1),
                   plain.busy_s / std::max<double>(plain.cycles, 1));

  // Exact counts: one rekey, then one message, each drained.
  const auto rekey = count_sends([&] {
    {
      Span s(kLeaderRekey);
      w->group->leader().rekey();
    }
    w->group->drain();
  });
  const auto msg = count_sends([&] { w->cycle(r.gate, 1); });
  w->group->check();
  r.layer["count.rekey.sends"] = rekey.first;
  r.layer["count.rekey.bytes"] = rekey.second;
  r.layer["count.msg.sends"] = msg.first - rekey.first;
  r.layer["count.msg.bytes"] = msg.second - rekey.second;
  return r;
}

}  // namespace perfbench
