// relay_tcp: a leader plus 4 members over TcpNode loopback.
//
// The leader runs on its own thread and spins poll_once(0); its work is the
// wall time of the polls that handled input. All four members share one
// member-side thread that spins poll_once(0) over their nodes and drives a
// closed loop: at
// most kWindow messages are outstanding group-wide until each has reached
// all 3 recipients. Origins are seeded; sizes are 50% 64 B, 30% 1 KiB and
// 20% 16 KiB by count. Two threads, four connections.
#include <pthread.h>

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "core/leader.h"
#include "core/member.h"
#include "net/tcp.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace enclaves;

constexpr int kMembers = 4;
constexpr int kWindow = 8;
constexpr std::uint64_t kStallNs = 3'000'000'000ull;
constexpr int kWarmupMessages = 5000;
const std::string kLeaderId = "L";

std::size_t pick_size(Rng& rng) {
  const auto r = rng.below(10);
  if (r < 5) return 64;
  if (r < 8) return 1024;
  return 16384;
}

struct Outstanding {
  std::uint64_t id = 0;
  int origin = -1;
  std::size_t size = 0;
  std::uint64_t sent_ns = 0;
  unsigned got = 0;  // recipient bitmask
  int deliveries = 0;
};

struct Phase {
  double wall_s = 0;
  double leader_cpu_s = 0;   // leader thread CPU time (spinning included)
  double leader_busy_s = 0;  // leader time in polls that handled input
  std::uint64_t msgs = 0;        // fully delivered messages
  std::uint64_t sent = 0;        // messages sent (whole phase, drained)
  std::uint64_t deliveries = 0;  // recipient deliveries
  std::uint64_t bytes = 0;       // payload bytes delivered
  std::vector<double> deliver_us;
};

class RelayWorld {
 public:
  RelayWorld(const Options& opt, const crypto::Aead& aead, Gate& gate)
      : leader_rng_(opt.seed),
        member_rng_(opt.seed ^ 0x5DEECE66Dull),
        load_rng_(opt.seed ^ 0xA5A5A5A5ull),
        payloads_(opt.seed),
        gate_(gate),
        drop_sends_(opt.fault == "drop_send"),
        leader_(core::LeaderConfig{}, leader_rng_, aead) {
    auto port = leader_node_.listen(0);
    if (!port) {
      gate_.fail("listen: " + port.error().to_string());
      return;
    }
    leader_.set_send([this](const std::string& to, wire::Envelope e) {
      Span s(kFanout);
      count_send(e);
      leader_wire_bytes_ += envelope_bytes(e);
      if (drop_sends_ && ++leader_sends_ % kFaultPeriod == 0) return;
      auto it = conn_of_.find(to);
      if (it == conn_of_.end()) {
        ++leader_errors_;
        return;
      }
      Span n(kNetSend);
      if (n.trace()) n.trace()->layers[kNetSend].bytes += envelope_bytes(e);
      if (!leader_node_.send(it->second, e)) ++leader_errors_;
    });
    leader_node_.set_callbacks(
        {nullptr,
         [this](net::ConnId c, const wire::Envelope& e) {
           conn_of_.try_emplace(e.sender, c);
           ThreadTrace* t = current_trace();
           if (t && e.label == wire::Label::GroupData) ++t->leader_data_in;
           Span s(kLeaderHandle);
           leader_.handle(e);
         },
         nullptr});
    for (int i = 0; i < kMembers; ++i) add_member(i, *port, aead);
  }

  RelayWorld(const RelayWorld&) = delete;
  RelayWorld& operator=(const RelayWorld&) = delete;

  /// Joins the members one at a time, pumping every node from this thread.
  void form() {
    for (auto& m : members_) {
      if (!m.member->join()) gate_.fail("join() refused");
      if (!pump_until([&] { return converged(); }))
        gate_.fail(m.member->id() + " did not join");
    }
    check();
  }

  /// One phase of the closed loop. With `fixed` > 0 it sends exactly that
  /// many messages (all of `fixed_size` bytes when nonzero) instead of
  /// running `rounds` timed rounds over `seconds`. `between_rounds`, when
  /// set, runs on this thread after each timed round, outside its time.
  Phase run(double seconds, int rounds, ThreadTrace* leader_trace,
            ThreadTrace* member_trace, RunResult& r,
            const std::function<void()>& between_rounds = nullptr,
            int fixed = 0, std::size_t fixed_size = 0) {
    std::atomic<bool> stop{false};
    // Set by the member thread between rounds: the leader thread times one
    // reference pass on its own CPU, stores it, and clears the flag.
    std::atomic<bool> ref_wanted{false};
    std::atomic<std::uint64_t> leader_ref_ns{0};
    std::thread leader_thread([&] {
      pin_to_cpu(1);
      try {
        std::optional<TraceScope> scope;
        if (leader_trace) scope.emplace(leader_trace);
        while (!stop.load(std::memory_order_acquire)) {
          if (ref_wanted.load(std::memory_order_acquire)) {
            Span h(kHarness);
            leader_ref_ns.store(static_cast<std::uint64_t>(reference_ns()),
                                std::memory_order_relaxed);
            ref_wanted.store(false, std::memory_order_release);
            continue;
          }
          Span s(kNetPoll);
          const std::uint64_t t0 = now_ns();
          if (leader_node_.poll_once(0) == 0) continue;
          leader_busy_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
          if (s.trace()) ++s.trace()->layers[kNetPoll].useful;
        }
      } catch (...) {
        ++leader_errors_;
      }
    });
    // Stops and joins the leader thread on every way out of this scope.
    struct Joiner {
      std::atomic<bool>& stop;
      std::thread& thread;
      ~Joiner() {
        stop.store(true, std::memory_order_release);
        thread.join();
      }
    } joiner{stop, leader_thread};
    clockid_t leader_clock{};
    pthread_getcpuclockid(leader_thread.native_handle(), &leader_clock);

    Phase total;  // wall time and message counts only
    const std::uint64_t sent0 = sent_;
    {
      std::optional<TraceScope> scope;
      if (member_trace) scope.emplace(member_trace);
      const std::uint64_t round_ns =
          static_cast<std::uint64_t>(seconds / rounds * 1e9);
      int round = 0;
      Phase cur;
      std::uint64_t round_t0 = now_ns();
      std::uint64_t cpu0 = cpu_ns(leader_clock);
      std::uint64_t busy0 = leader_busy_ns_.load(std::memory_order_relaxed);
      std::uint64_t last_progress = round_t0;
      bool issuing = true;
      int to_send = fixed;
      current_ = &cur;
      auto close_round = [&](std::uint64_t t) {
        cur.wall_s = (t - round_t0) / 1e9;
        std::uint64_t cpu = cpu_ns(leader_clock);
        cur.leader_cpu_s = (cpu - cpu0) / 1e9;
        std::uint64_t busy = leader_busy_ns_.load(std::memory_order_relaxed);
        cur.leader_busy_s = (busy - busy0) / 1e9;
        if (!fixed) record_round(cur, r);
        total.wall_s += cur.wall_s;
        total.msgs += cur.msgs;
        cur = Phase{};
        if (!fixed) {
          // The next round starts after a reference pass on each thread and
          // `between_rounds`.
          ref_wanted.store(true, std::memory_order_release);
          record_reference(r);
          while (ref_wanted.load(std::memory_order_acquire)) {
          }
          r.rounds["leader_ref_us"].push_back(
              leader_ref_ns.load(std::memory_order_relaxed) / 1e3);
          if (between_rounds) between_rounds();
          t = now_ns();
          cpu = cpu_ns(leader_clock);
          busy = leader_busy_ns_.load(std::memory_order_relaxed);
        }
        round_t0 = t;
        cpu0 = cpu;
        busy0 = busy;
      };
      while (true) {
        const std::uint64_t before = cur.deliveries;
        for (auto& m : members_) {
          Span s(kNetPoll);
          if (m.node->poll_once(0) > 0 && s.trace())
            ++s.trace()->layers[kNetPoll].useful;
        }
        const std::uint64_t t = now_ns();
        if (cur.deliveries != before) last_progress = t;
        if (!fixed && issuing && t - round_t0 >= round_ns) {
          close_round(t);
          if (++round == rounds) issuing = false;
        }
        if (fixed && to_send == 0) issuing = false;
        while (issuing && outstanding_.size() < kWindow && gate_.ok()) {
          if (fixed) --to_send;
          send_next(fixed_size, r);
          if (fixed && to_send == 0) issuing = false;
        }
        if (outstanding_.empty() && !issuing) break;
        if (t - last_progress > kStallNs)
          gate_.fail("relay stalled with " +
                     std::to_string(outstanding_.size()) +
                     " messages outstanding");
        if (!gate_.ok()) {
          r.failed += std::max<std::size_t>(outstanding_.size(), 1);
          outstanding_.clear();
          break;
        }
      }
      if (fixed) close_round(now_ns());
      current_ = nullptr;
    }
    total.sent = sent_ - sent0;
    return total;
  }

  /// Gate on the quiescent group (leader thread stopped).
  void check() {
    if (leader_errors_ != 0)
      gate_.fail("leader-side send errors: " + std::to_string(leader_errors_));
    if (leader_.rejected_inputs() != 0)
      gate_.fail("leader rejected " +
                 std::to_string(leader_.rejected_inputs()) + " inputs");
    if (leader_.relayed_count() != sent_)
      gate_.fail("leader relayed " + std::to_string(leader_.relayed_count()) +
                 " of " + std::to_string(sent_) + " messages");
    const auto members = leader_.members();
    if (members.size() != members_.size())
      gate_.fail("leader lists " + std::to_string(members.size()) + " members");
    for (const auto& m : members_) {
      const auto rejects = rejects_of(*m.member);
      if (rejects != 0)
        gate_.fail(m.member->id() + " rejected " + std::to_string(rejects));
      if (!m.member->connected() || m.member->epoch() != leader_.epoch())
        gate_.fail(m.member->id() + " not at leader epoch");
      else if (m.member->view() != members)
        gate_.fail(m.member->id() + " view differs from leader.members()");
    }
  }

  std::uint64_t rejected() const { return leader_.rejected_inputs(); }
  std::uint64_t relayed() const { return leader_.relayed_count(); }
  /// Envelope bytes handed to SendFn by both sides (read between runs).
  std::uint64_t wire_bytes() const {
    return leader_wire_bytes_ + member_wire_bytes_;
  }
  std::uint64_t member_rejects() const {
    std::uint64_t n = 0;
    for (const auto& m : members_) n += rejects_of(*m.member);
    return n;
  }

 private:
  struct MemberSide {
    std::unique_ptr<net::TcpNode> node;
    std::unique_ptr<core::Member> member;
    net::ConnId conn = -1;
  };

  void add_member(int index, std::uint16_t port, const crypto::Aead& aead) {
    const std::string id = "m" + std::to_string(index);
    auto pa = crypto::LongTermKey::random(member_rng_);
    if (!leader_.register_member(id, pa)) gate_.fail("register " + id);
    MemberSide side;
    side.node = std::make_unique<net::TcpNode>();
    auto conn = side.node->connect(port);
    if (!conn) {
      gate_.fail("connect: " + conn.error().to_string());
      return;
    }
    side.conn = *conn;
    side.member = std::make_unique<core::Member>(id, kLeaderId, pa,
                                                 member_rng_, aead);
    net::TcpNode* node = side.node.get();
    const net::ConnId c = side.conn;
    side.member->set_send([this, node, c](const std::string&,
                                          wire::Envelope e) {
      Span s(kFanout);
      count_send(e);
      member_wire_bytes_ += envelope_bytes(e);
      if (drop_sends_ && ++member_sends_ % kFaultPeriod == 0) return;
      Span n(kNetSend);
      if (n.trace()) n.trace()->layers[kNetSend].bytes += envelope_bytes(e);
      if (!node->send(c, e)) gate_.fail("member send failed");
    });
    core::Member* member = side.member.get();
    side.node->set_callbacks({nullptr,
                              [member](net::ConnId, const wire::Envelope& e) {
                                Span s(kMemberHandle);
                                member->handle(e);
                              },
                              nullptr});
    side.member->set_event_handler([this, index](const core::GroupEvent& ev) {
      if (const auto* d = std::get_if<core::DataReceived>(&ev)) {
        Span h(kHarness);
        delivered(index, *d);
      }
    });
    members_.push_back(std::move(side));
  }

  bool converged() {
    for (const auto& m : members_) {
      if (!m.member->connected()) continue;
      if (!m.member->has_group_key() || m.member->epoch() != leader_.epoch() ||
          m.member->view().size() != leader_.member_count())
        return false;
    }
    return true;
  }

  template <typename Done>
  bool pump_until(Done done) {
    const std::uint64_t deadline = now_ns() + kStallNs;
    while (now_ns() < deadline) {
      leader_node_.poll_once(0);
      for (auto& m : members_) m.node->poll_once(0);
      if (done()) return true;
    }
    return false;
  }

  void send_next(std::size_t fixed_size, RunResult& r) {
    Outstanding o;
    o.id = next_id_++;
    o.origin = static_cast<int>(load_rng_.below(kMembers));
    o.size = fixed_size ? fixed_size : pick_size(load_rng_);
    Bytes payload;
    {
      Span h(kHarness);
      payload = payloads_.make(o.id, o.size);
    }
    o.sent_ns = now_ns();
    outstanding_.push_back(o);
    ++r.attempted;
    ++sent_;
    Span s(kMemberSend);
    if (!members_[o.origin].member->send_data(payload))
      gate_.fail("send_data refused");
  }

  void delivered(int recipient, const core::DataReceived& d) {
    const std::uint64_t t = now_ns();
    const auto id = PayloadSource::id_of(d.payload);
    auto it = std::find_if(outstanding_.begin(), outstanding_.end(),
                           [id](const Outstanding& o) { return o.id == id; });
    if (it == outstanding_.end()) {
      gate_.fail("delivery of a message not outstanding");
      return;
    }
    const unsigned bit = 1u << recipient;
    if (recipient == it->origin) gate_.fail("message delivered to its origin");
    if (it->got & bit) gate_.fail("duplicate delivery");
    if (d.origin != members_[it->origin].member->id())
      gate_.fail("wrong origin on delivery");
    if (!payloads_.check(id, it->size, d.payload))
      gate_.fail("payload corrupted in delivery");
    it->got |= bit;
    if (current_) {
      ++current_->deliveries;
      current_->bytes += it->size;
      current_->deliver_us.push_back((t - it->sent_ns) / 1e3);
    }
    if (++it->deliveries == kMembers - 1) {
      if (current_) ++current_->msgs;
      outstanding_.erase(it);
    }
  }

  static void record_round(const Phase& p, RunResult& r) {
    const double wall = std::max(p.wall_s, 1e-9);
    r.rounds["ops_per_s"].push_back(p.msgs / wall);
    r.rounds["deliveries_per_s"].push_back(p.deliveries / wall);
    r.rounds["goodput_mb_s"].push_back(p.bytes / wall / 1e6);
    r.rounds["lat_p50_us"].push_back(quantile(p.deliver_us, 0.5));
    r.rounds["lat_p90_us"].push_back(quantile(p.deliver_us, 0.9));
    r.rounds["deliver_p99_us"].push_back(quantile(p.deliver_us, 0.99));
    const double msgs = static_cast<double>(std::max<std::uint64_t>(p.msgs, 1));
    r.rounds["busy_us_per_op"].push_back(p.leader_busy_s * 1e6 / msgs);
    r.rounds["leader_cpu_us_per_msg"].push_back(p.leader_cpu_s * 1e6 / msgs);
  }

  DeterministicRng leader_rng_;
  DeterministicRng member_rng_;
  DeterministicRng load_rng_;
  PayloadSource payloads_;
  Gate& gate_;
  bool drop_sends_;
  std::uint64_t leader_sends_ = 0;  // leader thread
  std::uint64_t member_sends_ = 0;  // member thread
  std::uint64_t leader_wire_bytes_ = 0;  // leader thread
  std::uint64_t member_wire_bytes_ = 0;  // member thread
  std::atomic<std::uint64_t> leader_errors_{0};
  std::atomic<std::uint64_t> leader_busy_ns_{0};  // leader thread writes

  net::TcpNode leader_node_;
  core::Leader leader_;
  std::map<std::string, net::ConnId> conn_of_;  // leader thread
  std::vector<MemberSide> members_;             // member thread

  std::vector<Outstanding> outstanding_;
  std::uint64_t next_id_ = 0;
  std::uint64_t sent_ = 0;
  Phase* current_ = nullptr;
};

}  // namespace

RunResult run_relay_tcp(const Options& opt) {
  pin_to_cpu(0);  // this thread drives the members; the leader gets index 1
  RunResult r;
  r.context["group_size"] = std::to_string(kMembers);
  r.context["obs_sinks_attached"] = "false";
  AeadChoice aeads;
  const auto& aead = aeads.pick(opt);

  auto build = [&] {
    auto world = std::make_unique<RelayWorld>(opt, aead, r.gate);
    world->form();
    return world;
  };
  auto w = timed_setup(r, build);

  // Warm-up: a fixed number of messages, untimed; RSS is read after it.
  w->run(0, 1, nullptr, nullptr, r, nullptr, kWarmupMessages);
  r.rss_mb = peak_rss_mb();

  if (!opt.trace) {
    const std::uint64_t bytes0 = w->wire_bytes();
    int round = 0;
    const Phase timed = w->run(opt.seconds, kRounds, nullptr, nullptr, r, [&] {
      if (++round % kSetupEvery == 0) timed_setup(r, build);
    });
    w->check();
    // Every message sent in the phase was delivered before it ended.
    r.wire_bytes = w->wire_bytes() - bytes0;
    r.wire_ops = timed.sent;
    r.named["deliveries_per_s"] = {median(r.rounds["deliveries_per_s"]), "1/s"};
    r.named["goodput_mb_s"] = {median(r.rounds["goodput_mb_s"]), "MB/s"};
    r.named["deliver_p50_us"] = {median(r.rounds["lat_p50_us"]), "us"};
    r.named["deliver_p99_us"] = {median(r.rounds["deliver_p99_us"]), "us"};
    r.named["leader_busy_us_per_msg"] = {median(r.rounds["busy_us_per_op"]),
                                         "us"};
    r.named["leader_cpu_us_per_msg"] = {
        median(r.rounds["leader_cpu_us_per_msg"]), "us"};
    return r;
  }

  // Trace mode: an untraced half, a traced half, then one 64 B message on
  // fresh traces for exact per-message counts.
  const Phase plain = w->run(opt.seconds / 2, 1, nullptr, nullptr, r);
  ThreadTrace leader_t, member_t;
  const std::uint64_t rejects0 = w->rejected();
  const std::uint64_t relayed0 = w->relayed();
  const Phase traced = w->run(opt.seconds / 2, 1, &leader_t, &member_t, r);
  ThreadTrace all = leader_t;
  all.merge(member_t);
  // Every message sent in the phase was delivered before it ended.
  const double msgs = std::max<double>(traced.sent, 1);
  fill_layer_metrics(r, all, msgs,
                     static_cast<double>(w->relayed() - relayed0), leader_t,
                     member_t);
  fill_trace_tail(r, w->rejected() - rejects0, w->member_rejects(),
                  traced.wall_s / std::max<double>(traced.msgs, 1),
                  plain.wall_s / std::max<double>(plain.msgs, 1));

  ThreadTrace count_leader, count_member;
  w->run(0, 1, &count_leader, &count_member, r, nullptr, 1, 64);
  count_leader.merge(count_member);
  double sends = 0, bytes = 0;
  for (int c = 0; c < kClassCount; ++c) {
    sends += static_cast<double>(count_leader.sends[c]);
    bytes += static_cast<double>(count_leader.send_bytes[c]);
  }
  r.layer["count.msg.sends"] = sends;
  r.layer["count.msg.bytes"] = bytes;
  w->check();
  return r;
}

}  // namespace perfbench
