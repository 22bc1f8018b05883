#include "obs/prof.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "obs/json_escape.h"
#include "obs/json_reader.h"

namespace enclaves::obs {

namespace detail {

std::atomic<Profiler*> g_prof_sink{nullptr};

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Frame {
  std::size_t path_len = 0;     // length of the shared path up to this frame
  std::uint64_t start_ns = 0;
  std::uint64_t child_ns = 0;   // wall time of directly nested scopes
  std::uint64_t bytes = 0;
};

// One stack per thread. The call path is kept as a single string that
// frames extend on push and truncate on pop, so entry does at most one
// amortised append and no joins.
struct ThreadStack {
  std::string path;
  std::vector<Frame> frames;
};

ThreadStack& stack() {
  thread_local ThreadStack s;
  return s;
}

}  // namespace

void prof_push(std::string_view name) {
  ThreadStack& s = stack();
  if (!s.frames.empty()) s.path += ';';
  for (char c : name) {
    // Keep every path one folded-stack token: ';' is the frame separator
    // and whitespace/control bytes are line/field structure in the folded
    // format, so hostile names are sanitised here, once, for all exports.
    if (c == ';') s.path += ':';
    else if (static_cast<unsigned char>(c) <= 0x20) s.path += '_';
    else s.path += c;
  }
  s.frames.push_back(Frame{s.path.size(), now_ns(), 0, 0});
}

void prof_pop() {
  ThreadStack& s = stack();
  Frame frame = s.frames.back();
  const std::uint64_t end = now_ns();
  const std::uint64_t wall = end >= frame.start_ns ? end - frame.start_ns : 0;
  const std::uint64_t self =
      wall >= frame.child_ns ? wall - frame.child_ns : 0;
  // The sink is re-checked at exit: detaching mid-scope loses this sample
  // (matching the other sinks' "may miss in-flight updates" contract) but
  // never corrupts the stack.
  if (Profiler* p = prof_sink()) {
    p->record(std::string_view(s.path.data(), frame.path_len), wall, self,
              frame.bytes);
  }
  s.frames.pop_back();
  if (s.frames.empty()) {
    s.path.clear();
  } else {
    s.frames.back().child_ns += wall;
    s.path.resize(s.frames.back().path_len);
  }
}

void prof_add_bytes(std::uint64_t n) {
  ThreadStack& s = stack();
  if (!s.frames.empty()) s.frames.back().bytes += n;
}

}  // namespace detail

void set_prof_sink(Profiler* profiler) {
  detail::g_prof_sink.store(profiler, std::memory_order_release);
}

void Profiler::record(std::string_view path, std::uint64_t wall_ns,
                      std::uint64_t self_ns, std::uint64_t bytes) {
  std::lock_guard lock(mutex_);
  auto it = scopes_.find(path);
  if (it == scopes_.end())
    it = scopes_.emplace(std::string(path), ProfStat{}).first;
  ProfStat& s = it->second;
  if (s.count == 0 || wall_ns < s.min_ns) s.min_ns = wall_ns;
  if (wall_ns > s.max_ns) s.max_ns = wall_ns;
  ++s.count;
  s.total_ns += wall_ns;
  s.self_ns += self_ns;
  s.bytes += bytes;
}

ProfSnapshot Profiler::snapshot() const {
  std::lock_guard lock(mutex_);
  ProfSnapshot out;
  out.scopes.insert(scopes_.begin(), scopes_.end());
  return out;
}

void Profiler::reset() {
  std::lock_guard lock(mutex_);
  scopes_.clear();
}

// ---------------------------------------------------------------------------
// Exports.

std::string ProfSnapshot::to_json() const {
  std::string out = "{\n  \"scopes\": [";
  bool first = true;
  for (const auto& [path, s] : scopes) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"path\": ";
    append_json_string(out, path);
    out += ", \"count\": " + std::to_string(s.count);
    out += ", \"total_ns\": " + std::to_string(s.total_ns);
    out += ", \"self_ns\": " + std::to_string(s.self_ns);
    out += ", \"min_ns\": " + std::to_string(s.min_ns);
    out += ", \"max_ns\": " + std::to_string(s.max_ns);
    out += ", \"bytes\": " + std::to_string(s.bytes);
    out += "}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

namespace {

// Human-scaled duration, deterministic for a given input.
std::string fmt_ns(std::uint64_t ns) {
  char buf[32];
  if (ns < 10'000ull)
    std::snprintf(buf, sizeof buf, "%lluns",
                  static_cast<unsigned long long>(ns));
  else if (ns < 10'000'000ull)
    std::snprintf(buf, sizeof buf, "%.1fus", static_cast<double>(ns) / 1e3);
  else if (ns < 10'000'000'000ull)
    std::snprintf(buf, sizeof buf, "%.2fms", static_cast<double>(ns) / 1e6);
  else
    std::snprintf(buf, sizeof buf, "%.2fs", static_cast<double>(ns) / 1e9);
  return buf;
}

std::string rpad(std::string s, std::size_t width) {
  while (s.size() < width) s += ' ';
  return s;
}

std::string lpad(std::string s, std::size_t width) {
  while (s.size() < width) s.insert(s.begin(), ' ');
  return s;
}

}  // namespace

Result<ProfSnapshot> ProfSnapshot::from_json(std::string_view json) {
  JsonCursor c{json};
  ProfSnapshot out;
  if (!c.consume('{')) return Errc::malformed;
  auto key = c.parse_string();
  if (!key.ok() || *key != "scopes" || !c.consume(':') || !c.consume('['))
    return Errc::malformed;
  if (!c.peek(']')) {
    do {
      if (!c.consume('{')) return Errc::malformed;
      std::string path;
      ProfStat stat;
      bool saw_path = false;
      do {
        auto field = c.parse_string();
        if (!field.ok() || !c.consume(':')) return Errc::malformed;
        if (*field == "path") {
          auto v = c.parse_string();
          if (!v.ok()) return Errc::malformed;
          path = *std::move(v);
          saw_path = true;
          continue;
        }
        std::uint64_t* slot = *field == "count"      ? &stat.count
                              : *field == "total_ns" ? &stat.total_ns
                              : *field == "self_ns"  ? &stat.self_ns
                              : *field == "min_ns"   ? &stat.min_ns
                              : *field == "max_ns"   ? &stat.max_ns
                              : *field == "bytes"    ? &stat.bytes
                                                     : nullptr;
        if (!slot)
          return make_error(Errc::malformed,
                            "unknown profile field: " + *field);
        auto v = c.parse_uint();
        if (!v.ok()) return Errc::malformed;
        *slot = *v;
      } while (c.consume(','));
      if (!c.consume('}') || !saw_path) return Errc::malformed;
      out.scopes[std::move(path)] = stat;
    } while (c.consume(','));
  }
  if (!c.consume(']') || !c.consume('}')) return Errc::malformed;
  if (!c.at_end()) return Errc::malformed;  // trailing garbage
  return out;
}

std::string ProfSnapshot::to_report() const {
  // Sort by self time descending, ties by path, so the top row answers
  // "where does the wall clock go".
  std::vector<const std::pair<const std::string, ProfStat>*> rows;
  rows.reserve(scopes.size());
  for (const auto& entry : scopes) rows.push_back(&entry);
  std::sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
    if (a->second.self_ns != b->second.self_ns)
      return a->second.self_ns > b->second.self_ns;
    return a->first < b->first;
  });

  std::size_t path_width = 5;  // "scope"
  for (const auto* row : rows)
    path_width = std::max(path_width, row->first.size());

  std::string out = rpad("scope", path_width) + lpad("count", 9) +
                    lpad("self", 11) + lpad("total", 11) + lpad("min", 11) +
                    lpad("max", 11) + lpad("bytes", 12) + "\n";
  for (const auto* row : rows) {
    const ProfStat& s = row->second;
    out += rpad(row->first, path_width);
    out += lpad(std::to_string(s.count), 9);
    out += lpad(fmt_ns(s.self_ns), 11);
    out += lpad(fmt_ns(s.total_ns), 11);
    out += lpad(fmt_ns(s.min_ns), 11);
    out += lpad(fmt_ns(s.max_ns), 11);
    out += lpad(std::to_string(s.bytes), 12);
    out += "\n";
  }
  return out;
}

std::string ProfSnapshot::to_folded() const {
  // flamegraph.pl input: "frame;frame;frame value" per line, value = self
  // time in nanoseconds. Paths are sanitised at build time, so each line
  // is exactly two space-separated tokens.
  std::string out;
  for (const auto& [path, s] : scopes) {
    out += path;
    out += ' ';
    out += std::to_string(s.self_ns);
    out += '\n';
  }
  return out;
}

}  // namespace enclaves::obs
