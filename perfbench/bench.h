// Shared pieces of the end-to-end benchmark: clocks, the bench-side span
// tracer, the AEAD decorators, the correctness gate, and the result record
// each workload fills in.
//
// Spans are recorded only here, around the benchmark's own calls into each
// library layer; nothing inside src/ is instrumented. A span's self time is
// its duration minus the time its child spans cover, so nested calls
// (TcpNode::poll_once -> Leader::handle -> SendFn -> TcpNode::send -> AEAD)
// split into per-layer self times that add up to the thread's wall time.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include "core/member.h"
#include "crypto/aead.h"
#include "util/bytes.h"
#include "wire/envelope.h"

namespace perfbench {

using enclaves::Bytes;
using enclaves::BytesView;

inline std::uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

inline std::uint64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

inline std::uint64_t thread_cpu_ns() { return cpu_ns(CLOCK_THREAD_CPUTIME_ID); }

// ---------------------------------------------------------------------------
// Tracing

enum Layer : int {
  kCryptoSeal,
  kCryptoOpen,
  kLeaderHandle,
  kLeaderRekey,
  kMemberHandle,
  kMemberJoin,
  kMemberLeave,
  kMemberSend,
  kFanout,
  kNetSend,
  kNetPoll,
  kQueue,
  kHarness,  // the benchmark's own work: payload generation, gate checks
  kLayerCount
};

/// Label classes counted at the SendFn boundary.
enum SendClass : int { kAdmin, kData, kKeyTree, kOther, kClassCount };

inline SendClass send_class(enclaves::wire::Label label) {
  const auto raw = static_cast<int>(label);
  if (raw >= 1 && raw <= 6) return kAdmin;
  if (label == enclaves::wire::Label::GroupData) return kData;
  if (raw >= 120 && raw <= 122) return kKeyTree;
  return kOther;
}

/// Envelope bytes as counted at the SendFn and TcpNode::send boundaries:
/// body plus the two routing ids (framing and length prefixes excluded).
inline std::uint64_t envelope_bytes(const enclaves::wire::Envelope& e) {
  return e.body.size() + e.sender.size() + e.recipient.size();
}

struct LayerStat {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t bytes = 0;
  std::uint64_t failures = 0;  // crypto open: auth failures
  std::uint64_t useful = 0;    // net poll: polls that handled an event
};

/// One thread's aggregated spans and counters. Installed per thread via
/// TraceScope; with none installed every Span is a no-op.
struct ThreadTrace {
  std::array<LayerStat, kLayerCount> layers{};
  std::array<std::uint64_t, kClassCount> sends{};
  std::array<std::uint64_t, kClassCount> send_bytes{};
  std::uint64_t leader_data_in = 0;  // GroupData envelopes handed to the leader
  std::uint64_t wall_ns = 0;         // traced window of this thread
  std::uint64_t cpu_ns = 0;

  struct Frame {
    Layer layer;
    std::uint64_t start;
    std::uint64_t child;
  };
  std::vector<Frame> stack;

  void merge(const ThreadTrace& o);
  std::uint64_t self_total() const;
};

/// The calling thread's installed trace (null when untraced).
inline ThreadTrace*& current_trace() {
  thread_local ThreadTrace* trace = nullptr;
  return trace;
}

/// Installs `trace` for the calling thread for the scope's lifetime and
/// records the thread's wall and CPU time over it.
class TraceScope {
 public:
  explicit TraceScope(ThreadTrace* trace);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  ThreadTrace* trace_;
  std::uint64_t wall0_ = 0;
  std::uint64_t cpu0_ = 0;
};

class Span {
 public:
  explicit Span(Layer layer) : trace_(current_trace()) {
    if (trace_) trace_->stack.push_back({layer, now_ns(), 0});
  }
  ~Span() {
    if (!trace_) return;
    const auto frame = trace_->stack.back();
    trace_->stack.pop_back();
    const std::uint64_t dur = now_ns() - frame.start;
    auto& s = trace_->layers[frame.layer];
    ++s.calls;
    s.total_ns += dur;
    s.self_ns += dur - std::min(dur, frame.child);
    if (!trace_->stack.empty()) trace_->stack.back().child += dur;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ThreadTrace* trace() const { return trace_; }

 private:
  ThreadTrace* trace_;
};

/// Counts one send at the SendFn boundary (no-op when untraced).
inline void count_send(const enclaves::wire::Envelope& e) {
  if (ThreadTrace* t = current_trace()) {
    const auto c = send_class(e.label);
    ++t->sends[c];
    t->send_bytes[c] += envelope_bytes(e);
  }
}

// ---------------------------------------------------------------------------
// AEAD decorators

/// Forwards every call to `inner` unchanged (verification included) and
/// records a crypto span around it.
class TimedAead final : public enclaves::crypto::Aead {
 public:
  explicit TimedAead(const Aead& inner) : inner_(inner) {}
  const char* name() const override { return inner_.name(); }
  Bytes seal(BytesView key, BytesView nonce, BytesView aad,
             BytesView plaintext) const override;
  enclaves::Result<Bytes> open(BytesView key, BytesView nonce, BytesView aad,
                               BytesView ct) const override;

 private:
  const Aead& inner_;
};

/// Self-test fault: flips one ciphertext byte of every `period`-th seal.
/// Threads may share one instance (relay_tcp's leader and member threads
/// do), so the seal count is atomic.
class CorruptingAead final : public enclaves::crypto::Aead {
 public:
  CorruptingAead(const Aead& inner, std::uint64_t period)
      : inner_(inner), period_(period) {}
  const char* name() const override { return inner_.name(); }
  Bytes seal(BytesView key, BytesView nonce, BytesView aad,
             BytesView plaintext) const override;
  enclaves::Result<Bytes> open(BytesView key, BytesView nonce, BytesView aad,
                               BytesView ct) const override {
    return inner_.open(key, nonce, aad, ct);
  }

 private:
  const Aead& inner_;
  std::uint64_t period_;
  mutable std::atomic<std::uint64_t> seals_{0};
};

// ---------------------------------------------------------------------------
// Options, gate and results

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test faults: "" (none), "corrupt_aead" or "drop_send".
  std::string fault;
};

/// Timed rounds per run. Each is followed by one reference pass; the gated
/// end-to-end times are medians over the rounds of time / reference time.
inline constexpr int kRounds = 40;

/// Self-test fault period: every period-th send is dropped ("drop_send") or
/// every period-th seal corrupted ("corrupt_aead").
inline constexpr std::uint64_t kFaultPeriod = 997;

/// The aead a workload hands to the Leader and Member constructors: the
/// library default, the timing decorator in trace mode, or the corrupting
/// decorator for the self-test.
struct AeadChoice {
  AeadChoice()
      : timed(enclaves::crypto::default_aead()),
        corrupt(enclaves::crypto::default_aead(), kFaultPeriod) {}
  const enclaves::crypto::Aead& pick(const Options& opt) const;
  TimedAead timed;
  CorruptingAead corrupt;
};

/// The correctness gate: every violation fails the run.
struct Gate {
  std::uint64_t violations = 0;
  std::vector<std::string> first;

  void fail(std::string why) {
    ++violations;
    if (first.size() < 8) first.push_back(std::move(why));
  }
  bool ok() const { return violations == 0; }
};

/// Peak resident set size of the process (VmHWM), in MB.
double peak_rss_mb();

struct RunResult {
  Gate gate;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setup_s;
  double rss_mb = 0;  // peak RSS after the warm-up, before timing
  /// Envelope bytes handed to SendFn over the timed rounds, and the ops they
  /// served. Their ratio is a count, so host speed does not move it.
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_ops = 0;
  /// Per-round values of the gated end-to-end metrics.
  std::map<std::string, std::vector<double>> rounds;
  /// Join and rekey latency samples of every round, for the pooled p99s.
  std::map<std::string, std::vector<double>> samples;
  /// The headline metrics by name (value, unit), printed for reading.
  std::map<std::string, std::pair<double, std::string>> named;
  /// Per-layer metrics (trace mode).
  std::map<std::string, double> layer;
  std::map<std::string, std::string> context;

  void pool(const std::string& name, const std::vector<double>& v) {
    auto& all = samples[name];
    all.insert(all.end(), v.begin(), v.end());
  }
  /// p99 over every round's samples, named with its sample count (a p99
  /// needs ~1000 samples to have 10 beyond it).
  void name_pooled_p99(const std::string& metric, const std::string& pool);
};

RunResult run_relay_tcp(const Options& opt);
RunResult run_churn_tree(const Options& opt);
RunResult run_rekey_flat_obs(const Options& opt);

// ---------------------------------------------------------------------------
// Helpers

/// Inputs a member rejected: session (handshake/admin) plus data plane.
inline std::uint64_t rejects_of(const enclaves::core::Member& m) {
  return m.session().reject_stats().total() + m.data_rejects();
}

/// Nearest-rank quantile (q in [0,1]); 0 for no samples.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Pins the calling thread to the `index`-th from last of the CPUs it may
/// run on (no-op when there are fewer). Workload threads stay put instead
/// of migrating; in probes on a 4-vCPU VM this roughly halved relay_tcp's
/// run-to-run spread.
void pin_to_cpu(int index);


/// Deterministic payload bytes: an 8-byte message id followed by a slice of
/// a seeded pattern chosen by that id, so every recipient can check the
/// payload byte for byte without the sender's copy.
class PayloadSource {
 public:
  explicit PayloadSource(std::uint64_t seed);
  Bytes make(std::uint64_t id, std::size_t size) const;
  bool check(std::uint64_t id, std::size_t size, BytesView got) const;
  static std::uint64_t id_of(BytesView payload);

 private:
  std::size_t offset(std::uint64_t id) const;
  Bytes pattern_;
};

/// One pass of the host-speed reference (reference.cpp): its wall time.
double reference_ns();

/// Times one reference pass right after a timed round, on the same thread,
/// and records it with the round (rounds["ref_us"]).
inline void record_reference(RunResult& r) {
  Span h(kHarness);
  r.rounds["ref_us"].push_back(reference_ns() / 1e3);
}

/// Builds one world, records the build time in r.setup_s, and returns the
/// world. Worlds a run only times are thrown away as the call returns, so
/// their teardown is not timed.
template <typename Build>
auto timed_setup(RunResult& r, Build build) {
  const std::uint64_t t0 = now_ns();
  auto world = build();
  r.setup_s.push_back((now_ns() - t0) / 1e9);
  return world;
}

/// Besides the set-up that builds the world a run keeps, the run times a
/// fresh set-up after every kSetupEvery-th timed round: 21 set-ups spread
/// over the run. setup_s is the fastest of them. On a shared host the same
/// set-up runs up to 2x slower from one moment to the next (kernel work up
/// to 1.7x, per vCPU), in phases of 0.1 s to minutes, so a median of
/// set-ups jumps between speeds from run to run. The fastest set-up over the
/// run is its cost at the host's faster speed, and more work in set-up
/// still raises it.
inline constexpr int kSetupEvery = 2;

/// The trace rows every workload fills the same way: the rejects seen over
/// the traced phase, and the traced phase's wall time per op over the
/// untraced phase's, minus 1.
void fill_trace_tail(RunResult& r, std::uint64_t leader_rejects,
                     std::uint64_t member_rejects, double traced_s_per_op,
                     double plain_s_per_op);

/// Fills the per-layer table. `all` merges every thread's trace over the
/// traced window, `ops` counts the workload ops in it, `relayed` the
/// messages the leader relayed; `leader` and `member` are the traces of the
/// threads that ran them (the same trace for in-process workloads).
void fill_layer_metrics(RunResult& r, const ThreadTrace& all, double ops,
                        double relayed, const ThreadTrace& leader,
                        const ThreadTrace& member);

}  // namespace perfbench
