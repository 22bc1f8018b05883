// perfbench: end-to-end benchmark of the enclaves group protocol.
//
//   perfbench --workload relay_tcp|churn_tree|rekey_flat_obs --seed N
//             --seconds S [--trace 0|1] [--fault corrupt_aead|drop_send]
//
// Prints one JSON object on its last line: the gate verdict, attempted and
// failed op counts, the gated end-to-end values ("e2e") and the per-round
// values they come from ("rounds", with each round's reference pass), the
// headline metrics by name ("named"), the per-layer table in trace mode
// ("layer"), and the run context. perfbench/run.py builds this program and
// turns that line into the benchmark's report.
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Tracing

void ThreadTrace::merge(const ThreadTrace& o) {
  for (int i = 0; i < kLayerCount; ++i) {
    auto& a = layers[i];
    const auto& b = o.layers[i];
    a.calls += b.calls;
    a.total_ns += b.total_ns;
    a.self_ns += b.self_ns;
    a.bytes += b.bytes;
    a.failures += b.failures;
    a.useful += b.useful;
  }
  for (int c = 0; c < kClassCount; ++c) {
    sends[c] += o.sends[c];
    send_bytes[c] += o.send_bytes[c];
  }
  leader_data_in += o.leader_data_in;
  wall_ns += o.wall_ns;
  cpu_ns += o.cpu_ns;
}

std::uint64_t ThreadTrace::self_total() const {
  std::uint64_t n = 0;
  for (const auto& l : layers) n += l.self_ns;
  return n;
}

TraceScope::TraceScope(ThreadTrace* trace) : trace_(trace) {
  trace_->stack.reserve(32);
  current_trace() = trace_;
  wall0_ = now_ns();
  cpu0_ = thread_cpu_ns();
}

TraceScope::~TraceScope() {
  trace_->wall_ns += now_ns() - wall0_;
  trace_->cpu_ns += thread_cpu_ns() - cpu0_;
  current_trace() = nullptr;
}

// ---------------------------------------------------------------------------
// AEAD decorators

Bytes TimedAead::seal(BytesView key, BytesView nonce, BytesView aad,
                      BytesView plaintext) const {
  Span s(kCryptoSeal);
  if (s.trace()) s.trace()->layers[kCryptoSeal].bytes += plaintext.size();
  return inner_.seal(key, nonce, aad, plaintext);
}

enclaves::Result<Bytes> TimedAead::open(BytesView key, BytesView nonce,
                                        BytesView aad, BytesView ct) const {
  Span s(kCryptoOpen);
  auto out = inner_.open(key, nonce, aad, ct);
  if (ThreadTrace* t = s.trace()) {
    t->layers[kCryptoOpen].bytes += ct.size();
    if (!out) ++t->layers[kCryptoOpen].failures;
  }
  return out;
}

Bytes CorruptingAead::seal(BytesView key, BytesView nonce, BytesView aad,
                           BytesView plaintext) const {
  Bytes out = inner_.seal(key, nonce, aad, plaintext);
  const std::uint64_t n = seals_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n % period_ == 0 && !out.empty()) out[0] ^= 0x01;
  return out;
}

const enclaves::crypto::Aead& AeadChoice::pick(const Options& opt) const {
  if (opt.fault == "corrupt_aead") return corrupt;
  if (opt.trace) return timed;
  return enclaves::crypto::default_aead();
}

// ---------------------------------------------------------------------------
// Helpers

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const auto n = v.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {

/// The CPUs the process may run on, read before any thread is pinned (a
/// thread inherits its creator's affinity, so later reads would shrink).
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed)) out.push_back(c);
    return out;
  }();
  return cpus;
}
}  // namespace

void pin_to_cpu(int index) {
  const auto& cpus = allowed_cpus();
  if (index < 0 || static_cast<int>(cpus.size()) <= index + 1) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[cpus.size() - 1 - static_cast<std::size_t>(index)], &one);
  pthread_setaffinity_np(pthread_self(), sizeof one, &one);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  return 0;
}

namespace {
constexpr std::size_t kPatternBytes = 1 << 16;
constexpr std::size_t kMaxPayload = 1 << 15;
}  // namespace

PayloadSource::PayloadSource(std::uint64_t seed) {
  pattern_.resize(kPatternBytes + kMaxPayload);
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  for (auto& b : pattern_) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x >> 24);
  }
}

std::size_t PayloadSource::offset(std::uint64_t id) const {
  return static_cast<std::size_t>((id * 2654435761ull) % kPatternBytes);
}

Bytes PayloadSource::make(std::uint64_t id, std::size_t size) const {
  Bytes out(size);
  std::memcpy(out.data(), &id, sizeof id);
  std::memcpy(out.data() + sizeof id, pattern_.data() + offset(id),
              size - sizeof id);
  return out;
}

bool PayloadSource::check(std::uint64_t id, std::size_t size,
                          BytesView got) const {
  return got.size() == size && id_of(got) == id &&
         std::memcmp(got.data() + sizeof id, pattern_.data() + offset(id),
                     size - sizeof id) == 0;
}

std::uint64_t PayloadSource::id_of(BytesView payload) {
  std::uint64_t id = ~0ull;
  if (payload.size() >= sizeof id) std::memcpy(&id, payload.data(), sizeof id);
  return id;
}

void RunResult::name_pooled_p99(const std::string& metric,
                                const std::string& pool) {
  const auto& v = samples[pool];
  named[metric] = {quantile(v, 0.99), "us"};
  named[pool.substr(0, pool.size() - 3) + "_samples"] = {
      static_cast<double>(v.size()), "count"};
}

void fill_layer_metrics(RunResult& r, const ThreadTrace& all, double ops,
                        double relayed, const ThreadTrace& leader,
                        const ThreadTrace& member) {
  const auto& L = all.layers;
  const double wall = std::max<double>(all.wall_ns, 1);
  auto per_call_ns = [](std::uint64_t ns, std::uint64_t calls) {
    return calls ? static_cast<double>(ns) / static_cast<double>(calls) : 0.0;
  };
  auto share = [&](std::initializer_list<Layer> layers) {
    double self = 0;
    for (Layer l : layers) self += static_cast<double>(L[l].self_ns);
    return self / wall;
  };
  auto& m = r.layer;
  const auto& seal = L[kCryptoSeal];
  const auto& open = L[kCryptoOpen];
  m["crypto.seal.calls_per_op"] = seal.calls / ops;
  m["crypto.open.calls_per_op"] = open.calls / ops;
  m["crypto.seal.ns_per_call"] = per_call_ns(seal.total_ns, seal.calls);
  m["crypto.open.ns_per_call"] = per_call_ns(open.total_ns, open.calls);
  const double crypto_ns = static_cast<double>(seal.total_ns + open.total_ns);
  m["crypto.mb_per_s"] =
      crypto_ns > 0 ? (seal.bytes + open.bytes) / crypto_ns * 1e3 : 0;
  m["crypto.open.failures"] = static_cast<double>(open.failures);
  m["crypto.share"] = share({kCryptoSeal, kCryptoOpen});

  const auto& lh = L[kLeaderHandle];
  m["leader.handle.calls_per_op"] = lh.calls / ops;
  m["leader.handle.self_us_per_call"] = per_call_ns(lh.self_ns, lh.calls) / 1e3;
  m["leader.share"] = share({kLeaderHandle, kLeaderRekey});
  m["leader.relay.accept_ratio"] =
      all.leader_data_in ? relayed / static_cast<double>(all.leader_data_in)
                         : 0;

  const auto& mh = L[kMemberHandle];
  m["member.handle.calls_per_op"] = mh.calls / ops;
  m["member.handle.self_us_per_call"] = per_call_ns(mh.self_ns, mh.calls) / 1e3;
  m["member.share"] =
      share({kMemberHandle, kMemberJoin, kMemberLeave, kMemberSend});

  double sends = 0, bytes = 0;
  for (int c = 0; c < kClassCount; ++c) {
    sends += static_cast<double>(all.sends[c]);
    bytes += static_cast<double>(all.send_bytes[c]);
  }
  m["fanout.sends_per_op"] = sends / ops;
  m["fanout.bytes_per_op"] = bytes / ops;
  m["fanout.ns_per_send"] = sends > 0 ? L[kFanout].self_ns / sends : 0;
  m["fanout.admin.sends_per_op"] = all.sends[kAdmin] / ops;
  m["fanout.data.sends_per_op"] = all.sends[kData] / ops;
  m["fanout.keytree.bytes_per_op"] = all.send_bytes[kKeyTree] / ops;

  const auto& ns = L[kNetSend];
  const auto& np = L[kNetPoll];
  m["net.send.ns_per_call"] = per_call_ns(ns.total_ns, ns.calls);
  m["net.send.bytes_per_call"] =
      ns.calls ? static_cast<double>(ns.bytes) / ns.calls : 0;
  m["net.poll.self_us_per_call"] = per_call_ns(np.self_ns, np.calls) / 1e3;
  m["net.poll.useful_ratio"] =
      np.calls ? static_cast<double>(np.useful) / np.calls : 0;
  m["net.share"] = share({kNetSend, kNetPoll});
  m["queue.share"] = share({kQueue});
  m["harness.share"] = share({kHarness});

  // Threads: in-process workloads run leader and members on one thread, so
  // both rows describe it.
  auto busy = [](const ThreadTrace& t) {
    return t.wall_ns ? static_cast<double>(t.cpu_ns) / t.wall_ns : 0.0;
  };
  auto residual = [](const ThreadTrace& t) {
    if (!t.wall_ns) return 0.0;
    const double self = static_cast<double>(t.self_total());
    return (static_cast<double>(t.wall_ns) - self) / t.wall_ns;
  };
  m["thread.leader.busy_ratio"] = busy(leader);
  m["thread.member.busy_ratio"] = busy(member);
  m["trace.leader.residual_ratio"] = residual(leader);
  m["trace.member.residual_ratio"] = residual(member);
  m["trace.residual_ratio"] = std::max(residual(leader), residual(member));
  // Set by the workloads that have them; zero elsewhere.
  for (const char* name :
       {"leader.rejects", "member.rejects", "queue.wait_p50_us",
        "queue.wait_p99_us", "queue.depth_max", "obs.counter_updates_per_op",
        "obs.prof_samples_per_op", "count.join.sends", "count.join.bytes",
        "count.leave.sends", "count.leave.bytes", "count.rekey.sends",
        "count.rekey.bytes", "count.msg.sends", "count.msg.bytes"})
    m.try_emplace(name, 0.0);
}

void fill_trace_tail(RunResult& r, std::uint64_t leader_rejects,
                     std::uint64_t member_rejects, double traced_s_per_op,
                     double plain_s_per_op) {
  r.layer["leader.rejects"] = static_cast<double>(leader_rejects);
  r.layer["member.rejects"] = static_cast<double>(member_rejects);
  r.layer["trace.overhead_ratio"] =
      plain_s_per_op > 0 ? traced_s_per_op / plain_s_per_op - 1.0 : 0;
}

namespace {

// ---------------------------------------------------------------------------
// Output

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto pos = line.find(':');
      if (pos != std::string::npos) return line.substr(pos + 2);
    }
  }
  return "unknown";
}

void print_result(const Options& opt, RunResult& r) {
  const bool correct = r.gate.ok();
  if (!correct && r.failed == 0) r.failed = 1;
  r.attempted = std::max<std::uint64_t>(r.attempted, 1);
  std::map<std::string, double> e2e;
  e2e["setup_s"] = *std::min_element(r.setup_s.begin(), r.setup_s.end());
  e2e["peak_rss_mb"] = r.rss_mb;
  e2e["wire_bytes_per_op"] =
      r.wire_ops ? static_cast<double>(r.wire_bytes) / r.wire_ops : 0;
  // Gated times are multiples of the reference pass timed after the same
  // round; ops_per_ref is the ops completed per reference-pass time.
  const auto& ref = r.rounds["ref_us"];
  // relay_tcp's busy time is its leader thread's, so it is divided by the
  // pass timed on that thread.
  const auto& busy_ref =
      r.rounds.count("leader_ref_us") ? r.rounds["leader_ref_us"] : ref;
  auto per_ref = [&](const std::string& name, bool rate,
                     const std::vector<double>& base) {
    const auto& v = r.rounds[name];
    std::vector<double> out;
    for (std::size_t i = 0; i < v.size() && i < base.size(); ++i)
      out.push_back(rate ? v[i] * base[i] / 1e6 : v[i] / base[i]);
    return median(out);
  };
  e2e["ops_per_ref"] = per_ref("ops_per_s", true, ref);
  e2e["lat_p50_ref"] = per_ref("lat_p50_us", false, ref);
  e2e["lat_p90_ref"] = per_ref("lat_p90_us", false, ref);
  e2e["busy_ref_per_op"] = per_ref("busy_us_per_op", false, busy_ref);
  // The same figures in host time, for reading.
  r.named["ops_per_s"] = {median(r.rounds["ops_per_s"]), "1/s"};
  r.named["lat_p50_us"] = {median(r.rounds["lat_p50_us"]), "us"};
  r.named["lat_p90_us"] = {median(r.rounds["lat_p90_us"]), "us"};
  r.named["busy_us_per_op"] = {median(r.rounds["busy_us_per_op"]), "us"};
  r.named["ref_us"] = {median(ref), "us"};
  r.named["setup_s"] = {e2e["setup_s"], "s"};
  r.named["peak_rss_mb"] = {e2e["peak_rss_mb"], "MB"};
  r.named["fail_ratio"] = {static_cast<double>(r.failed) / r.attempted,
                           "failed/attempted"};

  r.context["workload"] = opt.workload;
  r.context["seed"] = std::to_string(opt.seed);
  r.context["seconds"] = num(opt.seconds);
  r.context["trace"] = opt.trace ? "1" : "0";
  r.context["fault"] = opt.fault.empty() ? "none" : opt.fault;
  r.context["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  r.context["cpu_model"] = cpu_model();
  r.context["build_type"] = PERFBENCH_BUILD_TYPE;
  r.context["aead"] = enclaves::crypto::default_aead().name();

  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed;
  out << ", \"violations\": [";
  for (std::size_t i = 0; i < r.gate.first.size(); ++i)
    out << (i ? ", " : "") << '"' << json_escape(r.gate.first[i]) << '"';
  out << "], \"e2e\": {";
  bool first = true;
  for (const auto& [k, v] : e2e) {
    out << (first ? "" : ", ") << '"' << k << "\": " << num(v);
    first = false;
  }
  out << "}, \"named\": {";
  first = true;
  for (const auto& [k, v] : r.named) {
    out << (first ? "" : ", ") << '"' << k << "\": [" << num(v.first) << ", \""
        << json_escape(v.second) << "\"]";
    first = false;
  }
  out << "}, \"rounds\": {";
  first = true;
  for (const auto& [k, v] : r.rounds) {
    out << (first ? "" : ", ") << '"' << k << "\": [";
    for (std::size_t i = 0; i < v.size(); ++i)
      out << (i ? ", " : "") << num(v[i]);
    out << ']';
    first = false;
  }
  out << "}, \"layer\": {";
  first = true;
  for (const auto& [k, v] : r.layer) {
    out << (first ? "" : ", ") << '"' << k << "\": " << num(v);
    first = false;
  }
  out << "}, \"context\": {";
  first = true;
  for (const auto& [k, v] : r.context) {
    out << (first ? "" : ", ") << '"' << k << "\": \"" << json_escape(v)
        << '"';
    first = false;
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload relay_tcp|churn_tree|"
               "rekey_flat_obs --seed N --seconds S [--trace 0|1] "
               "[--fault corrupt_aead|drop_send]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  allowed_cpus();  // read the CPU set before any thread is pinned
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    try {
      if (flag == "--workload") opt.workload = value;
      else if (flag == "--seed") opt.seed = std::stoull(value);
      else if (flag == "--seconds") opt.seconds = std::stod(value);
      else if (flag == "--trace") opt.trace = value == "1";
      else if (flag == "--fault") opt.fault = value;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 == 0 || !(opt.seconds > 0) ||
      (!opt.fault.empty() && opt.fault != "corrupt_aead" &&
       opt.fault != "drop_send"))
    return usage();

  RunResult r;
  if (opt.workload == "relay_tcp") r = run_relay_tcp(opt);
  else if (opt.workload == "churn_tree") r = run_churn_tree(opt);
  else if (opt.workload == "rekey_flat_obs") r = run_rekey_flat_obs(opt);
  else return usage();
  print_result(opt, r);
  return r.gate.ok() ? 0 : 1;
}
