#include "obs/prof.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "obs/json_escape.h"
#include "obs/json_reader.h"

namespace enclaves::obs {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Bumped by set_prof_sink() and Profiler::reset().
std::atomic<std::uint64_t> g_prof_generation{1};

// A node's aggregates have one writer, so plain relaxed loads and stores
// suffice; atomics only let snapshot() read them from another thread.
std::uint64_t get(const std::atomic<std::uint64_t>& a) {
  return a.load(std::memory_order_relaxed);
}
void put(std::atomic<std::uint64_t>& a, std::uint64_t v) {
  a.store(v, std::memory_order_relaxed);
}

}  // namespace

/// One call path on one thread. Links change under the profiler mutex;
/// the aggregates are written by the owning thread only.
struct ProfNode {
  ProfNode(const ProfSite* s, ProfNode* p) : site(s), parent(p) {}
  const ProfSite* const site;  // nullptr for a thread's root
  ProfNode* const parent;
  ProfNode* first_child = nullptr;
  ProfNode* next_sibling = nullptr;
  std::atomic<std::uint64_t> count{0}, total_ns{0}, self_ns{0}, min_ns{0},
      max_ns{0}, bytes{0};
  std::uint64_t start_ns = 0, child_ns = 0, open_bytes = 0;  // open scope
};

namespace detail {

std::atomic<Profiler*> g_prof_sink{nullptr};

namespace {
// The calling thread's innermost open node; generation 0 means unbound.
struct Binding {
  std::uint64_t generation = 0;
  Profiler* profiler = nullptr;
  ProfNode* node = nullptr;
};
constinit thread_local Binding t_binding;
}  // namespace

std::uint64_t prof_push(const ProfSite& site) {
  Binding& b = t_binding;
  // Generation before sink: a sink swapped in between leaves this thread
  // stale (it rebinds next time), never bound to the old sink.
  const auto generation = g_prof_generation.load(std::memory_order_acquire);
  if (b.generation != generation) {
    Profiler* p = prof_sink();
    if (!p) return 0;
    b = Binding{generation, p, &p->add_node(nullptr, nullptr)};
  }
  ProfNode* child = b.node->first_child;
  while (child && child->site != &site) child = child->next_sibling;
  if (!child) child = &b.profiler->add_node(&site, b.node);
  child->child_ns = child->open_bytes = 0;
  b.node = child;
  child->start_ns = now_ns();
  return generation;
}

void prof_pop(std::uint64_t generation) {
  Binding& b = t_binding;
  if (generation != b.generation) return;  // opened under an older binding
  // The sink changed mid-scope: drop the sample (the other sinks' "may
  // miss in-flight updates" contract) and unbind without touching a node
  // whose profiler may be gone.
  if (generation != g_prof_generation.load(std::memory_order_acquire)) {
    b = Binding{};
    return;
  }
  ProfNode& n = *b.node;
  const std::uint64_t end = now_ns();
  const std::uint64_t wall = end >= n.start_ns ? end - n.start_ns : 0;
  if (get(n.count) == 0 || wall < get(n.min_ns)) put(n.min_ns, wall);
  if (wall > get(n.max_ns)) put(n.max_ns, wall);
  put(n.count, get(n.count) + 1);
  put(n.total_ns, get(n.total_ns) + wall);
  put(n.self_ns, get(n.self_ns) + (wall >= n.child_ns ? wall - n.child_ns : 0));
  put(n.bytes, get(n.bytes) + n.open_bytes);
  b.node = n.parent;
  b.node->child_ns += wall;
}

void prof_add_bytes(std::uint64_t n) {
  const Binding& b = t_binding;
  if (b.generation == g_prof_generation.load(std::memory_order_relaxed) &&
      b.node->parent)
    b.node->open_bytes += n;
}

}  // namespace detail

void set_prof_sink(Profiler* profiler) {
  detail::g_prof_sink.store(profiler, std::memory_order_release);
  g_prof_generation.fetch_add(1, std::memory_order_acq_rel);
}

Profiler::Profiler() = default;
Profiler::~Profiler() = default;

ProfNode& Profiler::add_node(const ProfSite* site, ProfNode* parent) {
  std::lock_guard lock(mutex_);
  ProfNode& n = *nodes_.emplace_back(std::make_unique<ProfNode>(site, parent));
  if (!parent) {
    roots_.push_back(&n);
  } else {
    n.next_sibling = parent->first_child;
    parent->first_child = &n;
  }
  return n;
}

ProfSnapshot Profiler::snapshot() const {
  std::lock_guard lock(mutex_);
  ProfSnapshot out;
  std::string path;  // of the node being visited
  auto visit = [&](auto& self, const ProfNode& parent) -> void {
    for (const ProfNode* n = parent.first_child; n; n = n->next_sibling) {
      const std::size_t len = path.size();
      if (len) path += ';';
      // Keep every path one folded-stack token: ';' is the frame separator
      // and whitespace/control bytes are line/field structure in the folded
      // format, so hostile names are sanitised here for all exports.
      for (const char c : n->site->name) {
        if (c == ';') path += ':';
        else if (static_cast<unsigned char>(c) <= 0x20) path += '_';
        else path += c;
      }
      if (const std::uint64_t count = get(n->count)) {
        ProfStat& s = out.scopes[path];
        const std::uint64_t min = get(n->min_ns);
        if (s.count == 0 || min < s.min_ns) s.min_ns = min;
        s.max_ns = std::max(s.max_ns, get(n->max_ns));
        s.count += count;
        s.total_ns += get(n->total_ns);
        s.self_ns += get(n->self_ns);
        s.bytes += get(n->bytes);
      }
      self(self, *n);
      path.resize(len);
    }
  };
  for (const ProfNode* root : roots_) visit(visit, *root);
  return out;
}

void Profiler::reset() {
  std::lock_guard lock(mutex_);
  roots_.clear();  // nodes stay allocated: a thread mid-scope may hold one
  g_prof_generation.fetch_add(1, std::memory_order_acq_rel);
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
