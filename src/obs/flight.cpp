#include "obs/flight.h"

#include <fcntl.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/json_escape.h"
#include "obs/prof.h"

namespace enclaves::obs {

namespace {

// The fixed window (see flight.h): FlightRecorder::rings_ in dump order.
struct RingShape {
  const char* name;
  std::size_t slots;
  std::size_t slot_bytes;
};
constexpr RingShape kRings[] = {{"events", 384, 512}, {"delta", 256, 256}};
enum RingIndex { kEvents, kDelta };
constexpr std::size_t kSnapshotBytes = 256 * 1024;
constexpr std::uint64_t kTickNs = 1'000'000;  // wall ns per virtual tick
constexpr Tick kRedumpTicks = 64;  // debounce for automatic triggers
constexpr std::size_t kMaxDumps = 16;
constexpr std::size_t kPathBytes = 512;

// ---------------------------------------------------------------------------
// Async-signal-safe primitives: integer formatting, buffered write(2).

std::size_t u64_to_chars(char* out, std::uint64_t v) {
  char tmp[20];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (std::size_t i = 0; i < n; ++i) out[i] = tmp[n - 1 - i];
  return n;
}

std::size_t u64_to_hex(char* out, std::uint64_t v) {
  static const char* kHex = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    out[i] = kHex[v & 0xf];
    v >>= 4;
  }
  return 16;
}

void write_all(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return;  // nowhere to report; the blob is best-effort at this point
    }
    p += static_cast<std::size_t>(w);
    n -= static_cast<std::size_t>(w);
  }
}

// Small buffered emitter so header/stats lines are a handful of write(2)
// calls, not hundreds. Everything it does is async-signal-safe.
struct Emitter {
  int fd;
  char buf[2048];
  std::size_t n = 0;

  explicit Emitter(int fd_in) : fd(fd_in) {}
  ~Emitter() { flush(); }

  void flush() {
    if (n > 0) write_all(fd, buf, n);
    n = 0;
  }
  void put(const char* p, std::size_t len) {
    if (len >= sizeof buf) {
      flush();
      write_all(fd, p, len);
      return;
    }
    if (n + len > sizeof buf) flush();
    std::memcpy(buf + n, p, len);
    n += len;
  }
  void str(const char* s) { put(s, std::strlen(s)); }
  void sv(std::string_view s) { put(s.data(), s.size()); }
  void u64(std::uint64_t v) {
    char tmp[20];
    put(tmp, u64_to_chars(tmp, v));
  }
};

// The bytes file names, incident ids and dump reasons keep as they are.
bool safe_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
}

std::string sanitize_for_filename(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) out += safe_char(c) ? c : '_';
  if (out.empty()) out = "node";
  if (out.size() > 64) out.resize(64);
  return out;
}

// A dump reason as the header carries it: unsafe bytes (but '/') become
// '_', at most 63 bytes, never empty.
struct Reason {
  char text[64];
  explicit Reason(std::string_view reason) {
    std::size_t n = 0;
    for (char c : reason) {
      if (n + 1 >= sizeof text) break;
      text[n++] = (safe_char(c) || c == '/') ? c : '_';
    }
    if (n == 0) text[n++] = 'x';
    text[n] = '\0';
  }
};

// ---------------------------------------------------------------------------
// Wall clock seam (deterministic in tests, CLOCK_REALTIME otherwise).

std::atomic<FlightWallClockFn> g_wall_fn{nullptr};

std::uint64_t wall_now() {
  if (FlightWallClockFn fn = g_wall_fn.load(std::memory_order_acquire))
    return fn();
  timespec ts{};
  ::clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// ---------------------------------------------------------------------------
// Process-wide incident id: a tiny atomic state machine over a fixed char
// array so minting works from a signal handler. 0 = none, 1 = mid-mint,
// 2 = set.

std::atomic<int> g_incident_state{0};
char g_incident_id[40] = {0};

const char* ensure_incident() {
  if (g_incident_state.load(std::memory_order_acquire) == 2)
    return g_incident_id;
  int expected = 0;
  if (g_incident_state.compare_exchange_strong(expected, 1,
                                               std::memory_order_acq_rel)) {
    std::uint64_t pid = static_cast<std::uint64_t>(::getpid());
    std::uint64_t v = wall_now() ^ (pid << 48) ^ (pid * 0x9e3779b97f4a7c15ull);
    char* p = g_incident_id;
    std::memcpy(p, "inc-", 4);
    u64_to_hex(p + 4, v);
    p[20] = '\0';
    g_incident_state.store(2, std::memory_order_release);
    return g_incident_id;
  }
  // Mid-mint: only reachable when a signal interrupted the minting thread
  // itself. Never spin in a handler — degrade to a recognizable constant.
  return g_incident_state.load(std::memory_order_acquire) == 2
             ? g_incident_id
             : "inc-pending";
}

// ---------------------------------------------------------------------------
// Recorder registry: fixed atomic slots so the signal handlers can walk it
// without locks. Recorders must outlive any window in which a fatal signal
// may fire (examples keep them alive through main; tests detach first).

constexpr int kMaxRecorders = 8;
std::atomic<FlightRecorder*> g_recorders[kMaxRecorders] = {};

}  // namespace

namespace detail {

std::atomic<int> g_flight_recorder_count{0};

void flight_note(const Record& record, std::string_view incident) {
  for (auto& slot : g_recorders)
    if (FlightRecorder* r = slot.load(std::memory_order_acquire))
      r->note(record, incident);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// SlotRing

namespace flight_detail {

void SlotRing::init(std::size_t slots, std::size_t slot_bytes) {
  slots_ = slots == 0 ? 1 : slots;
  slot_bytes_ = slot_bytes == 0 ? 64 : slot_bytes;
  if (slot_bytes_ > kMaxSlotBytes) slot_bytes_ = kMaxSlotBytes;
  meta_ = std::make_unique<Slot[]>(slots_);
  arena_ = std::make_unique<char[]>(slots_ * slot_bytes_);
}

void SlotRing::push(std::string_view line) {
  if (line.size() > slot_bytes_) {
    // Oversize lines are dropped whole: a truncated JSON line would parse
    // as garbage and poison the blob, a missing one is just a gap.
    oversize_.fetch_add(1, std::memory_order_acq_rel);
    return;
  }
  std::uint64_t q = seq_.load(std::memory_order_relaxed);
  std::size_t i = static_cast<std::size_t>(q % slots_);
  Slot& s = meta_[i];
  s.gen.store(0, std::memory_order_release);  // mark mid-write
  std::memcpy(arena_.get() + i * slot_bytes_, line.data(), line.size());
  s.len = static_cast<std::uint32_t>(line.size());
  s.gen.store(q + 1, std::memory_order_release);
  seq_.store(q + 1, std::memory_order_release);
}

std::uint64_t SlotRing::dropped() const {
  std::uint64_t s = seq_.load(std::memory_order_acquire);
  return s > slots_ ? s - slots_ : 0;
}

std::size_t SlotRing::write_to(int fd) const {
  if (!meta_) return 0;
  char tmp[kMaxSlotBytes + 1];  // +1: the trailing '\n' after a full slot
  std::uint64_t end = seq_.load(std::memory_order_acquire);
  std::uint64_t start = end > slots_ ? end - slots_ : 0;
  std::size_t written = 0;
  for (std::uint64_t q = start; q < end; ++q) {
    std::size_t i = static_cast<std::size_t>(q % slots_);
    const Slot& s = meta_[i];
    if (s.gen.load(std::memory_order_acquire) != q + 1) continue;  // torn
    std::uint32_t len = s.len;
    if (len == 0 || len > slot_bytes_) continue;
    std::memcpy(tmp, arena_.get() + i * slot_bytes_, len);
    if (s.gen.load(std::memory_order_acquire) != q + 1) continue;  // raced
    tmp[len] = '\n';
    write_all(fd, tmp, len + 1);
    ++written;
  }
  return written;
}

// ---------------------------------------------------------------------------
// PublishedLine

void PublishedLine::init(std::size_t capacity) {
  capacity_ = capacity == 0 ? 1024 : capacity;
  arena_ = std::make_unique<char[]>(capacity_);
}

void PublishedLine::publish(std::string_view line) {
  std::uint64_t v = version_.load(std::memory_order_relaxed);
  version_.store(v + 1, std::memory_order_release);  // odd: mid-write
  if (line.size() > capacity_) {
    len_.store(0, std::memory_order_release);
    oversize_.fetch_add(1, std::memory_order_acq_rel);
  } else {
    std::memcpy(arena_.get(), line.data(), line.size());
    len_.store(static_cast<std::uint32_t>(line.size()),
               std::memory_order_release);
  }
  version_.store(v + 2, std::memory_order_release);
}

bool PublishedLine::write_to(int fd) const {
  if (!arena_) return false;
  std::uint64_t v1 = version_.load(std::memory_order_acquire);
  if (v1 & 1) return false;  // interrupted the writer on this very thread
  std::uint32_t len = len_.load(std::memory_order_acquire);
  if (len == 0 || len > capacity_) return false;
  write_all(fd, arena_.get(), len);
  write_all(fd, "\n", 1);
  if (version_.load(std::memory_order_acquire) != v1) {
    // A concurrent republish raced the copy: the bytes already written may
    // be a torn mix; terminate them and flag it (parsers skip both lines).
    static const char kTorn[] = "{\"k\":\"torn\"}\n";
    write_all(fd, kTorn, sizeof kTorn - 1);
  }
  return true;
}

}  // namespace flight_detail

// ---------------------------------------------------------------------------
// FlightRecorder

namespace {

// `{"k":"<tag>","json":"<escaped snapshot JSON>"}`.
std::string snapshot_line(std::string_view tag, const std::string& json) {
  std::string line = "{\"k\":\"";
  line += tag;
  line += "\",\"json\":";
  append_json_string(line, json);
  return line += '}';
}

}  // namespace

FlightRecorder::FlightRecorder(std::string node, std::string dir)
    : node_(std::move(node)) {
  for (int i : {kEvents, kDelta})
    rings_[i].init(kRings[i].slots, kRings[i].slot_bytes);
  metrics_line_.init(kSnapshotBytes);
  profile_line_.init(kSnapshotBytes);
  path_prefix_ = std::move(dir);
  if (!path_prefix_.empty() && path_prefix_.back() != '/') path_prefix_ += '/';
  path_prefix_ += "flight_" + sanitize_for_filename(node_) + "_";
  // Room for the longest seq (20 digits), ".jsonl" and the terminator.
  path_fits_ = path_prefix_.size() + 20 + 6 + 1 <= kPathBytes;
  append_json_string(node_json_, node_);
}

FlightRecorder::~FlightRecorder() { detach(); }

bool FlightRecorder::attach() {
  if (attached_.load(std::memory_order_acquire)) return true;
  for (auto& slot : g_recorders) {
    FlightRecorder* expected = nullptr;
    if (slot.compare_exchange_strong(expected, this,
                                     std::memory_order_acq_rel)) {
      attached_.store(true, std::memory_order_release);
      detail::g_flight_recorder_count.fetch_add(1, std::memory_order_acq_rel);
      return true;
    }
  }
  return false;  // registry full
}

void FlightRecorder::detach() {
  if (!attached_.load(std::memory_order_acquire)) return;
  for (auto& slot : g_recorders) {
    FlightRecorder* expected = this;
    if (slot.compare_exchange_strong(expected, nullptr,
                                     std::memory_order_acq_rel)) {
      detail::g_flight_recorder_count.fetch_sub(1, std::memory_order_acq_rel);
      break;
    }
  }
  attached_.store(false, std::memory_order_release);
}

void FlightRecorder::set_local_agents(std::vector<std::string> agents) {
  std::lock_guard lock(mutex_);
  local_agents_ = std::move(agents);
}

bool FlightRecorder::covers(std::string_view agent) const {
  if (local_agents_.empty() || agent.empty()) return true;
  for (const std::string& a : local_agents_)
    if (a == agent) return true;
  return false;
}

void FlightRecorder::advance_clock(Tick tick) {
  if (tick > clock_tick_.load(std::memory_order_relaxed))
    clock_tick_.store(tick, std::memory_order_release);
}

void FlightRecorder::note(const Record& record, std::string_view incident) {
  std::lock_guard lock(mutex_);
  if (!covers(record.agent)) return;
  advance_clock(record.tick);
  std::string line;
  line.reserve(160);
  for (View view : {View::trace, View::ledger}) {
    if (!in_view(record, view)) continue;
    line.clear();
    append_view_line(line, record, view, /*tagged=*/true);
    rings_[kEvents].push(line);
  }
  if (!incident.empty())
    auto_trigger_locked(record.tick, Reason(incident).text);
}

bool FlightRecorder::auto_trigger_locked(Tick now, const char* reason) {
  // Debounce on the recorder's own monotone clock: `now` is the triggering
  // agent's tick, and a recorder covering several agents sees their clocks
  // interleaved, so a lower tick from another agent must not reopen the
  // window.
  advance_clock(now);
  const Tick clock = clock_tick_.load(std::memory_order_relaxed);
  if (auto_dumped_once_ && clock - last_auto_dump_tick_ < kRedumpTicks) {
    stats_suppressed_.fetch_add(1, std::memory_order_acq_rel);
    return false;
  }
  bool wrote = dump_core(now, reason, /*fatal=*/false);
  if (wrote) {
    auto_dumped_once_ = true;
    last_auto_dump_tick_ = clock;
  }
  return wrote;
}

void FlightRecorder::observe(Tick now) {
  std::lock_guard lock(mutex_);
  advance_clock(now);

  if (const MetricsRegistry* reg = metrics_sink()) {
    MetricsSnapshot cur = reg->snapshot();
    if (observed_once_) {
      for (const auto& [key, total] : cur.counters) {
        auto it = prev_counters_.counters.find(key);
        std::uint64_t before =
            it == prev_counters_.counters.end() ? 0 : it->second;
        if (total == before) continue;
        std::string line;
        line.reserve(128);
        line += "{\"k\":\"delta\"";
        append_json_field(line, "tick", now);
        append_json_field(line, "group", key.group);
        append_json_field(line, "agent", key.agent);
        append_json_field(line, "name", key.name);
        append_json_field(line, "delta", total - before);
        append_json_field(line, "total", total);
        line += '}';
        rings_[kDelta].push(line);
      }
    }
    metrics_line_.publish(snapshot_line("metrics", cur.to_json()));
    prev_counters_.counters = std::move(cur.counters);
    observed_once_ = true;
  }

  if (const Profiler* prof = prof_sink())
    profile_line_.publish(snapshot_line("profile", prof->snapshot().to_json()));

  publish_gauges_locked();
}

bool FlightRecorder::trigger(Tick now, std::string_view reason) {
  std::lock_guard lock(mutex_);
  advance_clock(now);
  return dump_core(now, Reason(reason).text, /*fatal=*/false);
}

bool FlightRecorder::dump_now(std::string_view reason) {
  return trigger(static_cast<Tick>(clock_tick_.load(std::memory_order_acquire)),
                 reason);
}

void FlightRecorder::dump_from_signal(const char* reason) {
  dump_core(clock_tick_.load(std::memory_order_acquire), reason,
            /*fatal=*/true);
}

bool FlightRecorder::dump_core(std::uint64_t trigger_tick, const char* reason,
                               bool fatal) {
  std::uint64_t seq = stats_dumps_.load(std::memory_order_acquire);
  if (!path_fits_ || (!fatal && seq >= kMaxDumps)) {
    stats_suppressed_.fetch_add(1, std::memory_order_acq_rel);
    return false;
  }
  const char* incident = ensure_incident();
  std::uint64_t wall = wall_now();
  std::uint64_t pair_tick = clock_tick_.load(std::memory_order_acquire);

  // Path: "<prefix><seq>.jsonl" into a fixed buffer (the prefix string is
  // immutable after construction, so .data() is stable and signal-safe).
  char path[kPathBytes];
  std::size_t pn = path_prefix_.size();
  std::memcpy(path, path_prefix_.data(), pn);
  pn += u64_to_chars(path + pn, seq);
  std::memcpy(path + pn, ".jsonl", 6);
  path[pn + 6] = '\0';

  int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  {
    Emitter e(fd);
    e.str("{\"enclaves_flight\":1,\"node\":");
    e.sv(node_json_);
    e.str(",\"incident\":\"");
    e.str(incident);
    e.str("\",\"reason\":\"");
    e.str(reason);
    e.str("\",\"trigger_tick\":");
    e.u64(trigger_tick);
    e.str(",\"tick\":");
    e.u64(pair_tick);
    e.str(",\"wall_ns\":");
    e.u64(wall);
    e.str(",\"tick_ns\":");
    e.u64(kTickNs);
    e.str(",\"seq\":");
    e.u64(seq);
    e.str("}\n");

    e.str("{\"k\":\"stats\"");
    const auto stat = [&e](const char* ring, const char* name,
                           std::uint64_t v) {
      e.str(",\"");
      e.str(ring);
      e.str(name);
      e.u64(v);
    };
    for (int i : {kEvents, kDelta}) {
      stat(kRings[i].name, "_seen\":", rings_[i].seen());
      stat(kRings[i].name, "_dropped\":", rings_[i].dropped());
      stat(kRings[i].name, "_oversize\":", rings_[i].oversize());
    }
    e.str(",\"snapshot_oversize\":");
    e.u64(metrics_line_.oversize() + profile_line_.oversize());
    e.str(",\"dumps\":");
    e.u64(seq + 1);
    e.str("}\n");
    e.flush();

    for (const flight_detail::SlotRing& ring : rings_) ring.write_to(fd);
    metrics_line_.write_to(fd);
    profile_line_.write_to(fd);

    e.str("{\"k\":\"end\",\"seq\":");
    e.u64(seq);
    e.str("}\n");
  }
  ::close(fd);
  stats_dumps_.fetch_add(1, std::memory_order_acq_rel);

  if (!fatal) {
    // Status for /flight and the enclaves_top banner (callers hold mutex_).
    last_reason_ = reason;
    last_path_ = path;
    last_trigger_tick_ = trigger_tick;
    last_wall_ns_ = wall;
    publish_gauges_locked();
  }
  return true;
}

void FlightRecorder::publish_gauges_locked() {
  // Drop accounting as first-class gauges: a window that lost events says
  // so on /metrics, not just inside the blob it lost them from.
  auto g = [this](std::string_view name, std::uint64_t v) {
    gauge_set("flight", node_, name, static_cast<std::int64_t>(v));
  };
  for (int i : {kEvents, kDelta}) {
    g(std::string(kRings[i].name) + "_dropped", rings_[i].dropped());
    g(std::string(kRings[i].name) + "_oversize", rings_[i].oversize());
  }
  g("snapshot_oversize", metrics_line_.oversize() + profile_line_.oversize());
  g("dumps_written", stats_dumps_.load(std::memory_order_acquire));
  g("dumps_suppressed", stats_suppressed_.load(std::memory_order_acquire));
}

FlightStats FlightRecorder::stats() const {
  std::lock_guard lock(mutex_);
  const auto& [e, d] = rings_;
  return {e.seen(), e.dropped(), e.oversize(),
          d.seen(), d.dropped(), d.oversize(),
          metrics_line_.oversize() + profile_line_.oversize(),
          stats_dumps_.load(std::memory_order_acquire),
          stats_suppressed_.load(std::memory_order_acquire)};
}

std::string FlightRecorder::status_json() const {
  std::lock_guard lock(mutex_);
  std::string out;
  out.reserve(256);
  out += "{\"node\":";
  append_json_string(out, node_);
  append_json_field(out, "incident", current_incident());
  append_json_field(out, "dumps", stats_dumps_.load(std::memory_order_acquire));
  append_json_field(out, "last_reason", last_reason_);
  append_json_field(out, "last_trigger_tick", last_trigger_tick_);
  append_json_field(out, "last_wall_ns", last_wall_ns_);
  append_json_field(out, "last_path", last_path_);
  for (int i : {kEvents, kDelta})
    append_json_field(out, std::string(kRings[i].name) + "_dropped",
                     rings_[i].dropped());
  append_json_field(out, "dumps_suppressed",
                   stats_suppressed_.load(std::memory_order_acquire));
  out += '}';
  return out;
}

std::string FlightRecorder::last_dump_path() const {
  std::lock_guard lock(mutex_);
  return last_path_;
}

// ---------------------------------------------------------------------------
// Incident id statics

std::string FlightRecorder::current_incident() {
  if (g_incident_state.load(std::memory_order_acquire) != 2) return "";
  return g_incident_id;
}

void FlightRecorder::adopt_incident(std::string_view id) {
  std::size_t n = 0;
  for (char c : id) {
    if (n + 1 >= sizeof g_incident_id) break;
    g_incident_id[n++] = safe_char(c) ? c : '_';
  }
  if (n == 0) {
    std::memcpy(g_incident_id, "inc-adopted", 12);
    n = 11;
  }
  g_incident_id[n] = '\0';
  g_incident_state.store(2, std::memory_order_release);
}

void FlightRecorder::reset_incident_for_test() {
  g_incident_state.store(0, std::memory_order_release);
  std::memset(g_incident_id, 0, sizeof g_incident_id);
}

void FlightRecorder::set_wall_clock(FlightWallClockFn fn) {
  g_wall_fn.store(fn, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Signal handlers

namespace {

const char* signal_reason(int sig) {
  switch (sig) {
    case SIGSEGV: return "sig_segv";
    case SIGABRT: return "sig_abrt";
    case SIGBUS: return "sig_bus";
    case SIGFPE: return "sig_fpe";
    case SIGUSR1: return "sig_usr1";
    default: return "sig_other";
  }
}

void dump_all_from_signal(int sig) {
  const char* reason = signal_reason(sig);
  for (auto& slot : g_recorders)
    if (FlightRecorder* r = slot.load(std::memory_order_acquire))
      r->dump_from_signal(reason);
}

void fatal_handler(int sig) {
  dump_all_from_signal(sig);
  // Restore the default disposition and re-deliver so the process still
  // dies with the right signal (and a core, where enabled).
  struct sigaction dfl {};
  dfl.sa_handler = SIG_DFL;
  ::sigaction(sig, &dfl, nullptr);
  ::raise(sig);
}

void usr1_handler(int sig) { dump_all_from_signal(sig); }

std::atomic<bool> g_handlers_installed{false};

}  // namespace

void FlightRecorder::install_signal_handlers() {
  bool expected = false;
  if (!g_handlers_installed.compare_exchange_strong(
          expected, true, std::memory_order_acq_rel))
    return;
  // No SA_NODEFER: if the handler itself faults while its signal is
  // blocked, the kernel forces the default action instead of re-entering.
  struct sigaction fatal {};
  fatal.sa_handler = fatal_handler;
  ::sigemptyset(&fatal.sa_mask);
  ::sigaction(SIGSEGV, &fatal, nullptr);
  ::sigaction(SIGABRT, &fatal, nullptr);
  ::sigaction(SIGBUS, &fatal, nullptr);
  ::sigaction(SIGFPE, &fatal, nullptr);
  struct sigaction usr {};
  usr.sa_handler = usr1_handler;
  ::sigemptyset(&usr.sa_mask);
  ::sigaction(SIGUSR1, &usr, nullptr);
}

}  // namespace enclaves::obs
