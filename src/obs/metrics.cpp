#include "obs/metrics.h"

#include <algorithm>
#include <tuple>
#include <type_traits>
#include <utility>

#include "obs/json_escape.h"
#include "obs/json_reader.h"

namespace enclaves::obs {

namespace detail {
std::atomic<MetricsRegistry*> g_metrics_sink{nullptr};
std::atomic<std::uint64_t> g_metrics_generation{1};

MetricsRegistry* resolving_sink(std::uint64_t& generation) {
  generation = g_metrics_generation.load(std::memory_order_acquire);
  return metrics_sink();
}

template <typename Cell>
Cell* MetricHandle<Cell>::resolve() {
  // One resolver at a time, so a handle's (cell, generation) pair comes
  // from one resolution.
  static std::mutex resolving;
  std::lock_guard lock(resolving);
  std::uint64_t generation;
  MetricsRegistry* r = resolving_sink(generation);
  if (!r) return nullptr;
  Cell* c;
  if constexpr (std::is_same_v<Cell, HistogramCell>)
    c = &r->histogram_cell(group_, agent_, name_);
  else
    c = &r->counter_cell(group_, agent_, name_);
  cell_.store(c, std::memory_order_relaxed);
  generation_.store(generation, std::memory_order_release);
  return c;
}
template class MetricHandle<std::atomic<std::uint64_t>>;
template class MetricHandle<HistogramCell>;
}  // namespace detail

void set_metrics_sink(MetricsRegistry* registry) {
  detail::g_metrics_sink.store(registry, std::memory_order_release);
  detail::g_metrics_generation.fetch_add(1, std::memory_order_acq_rel);
}

const std::vector<std::uint64_t>& default_histogram_bounds() {
  static const std::vector<std::uint64_t> bounds = [] {
    std::vector<std::uint64_t> b;
    for (std::uint64_t edge = 1; edge <= (1u << 20); edge <<= 1)
      b.push_back(edge);
    return b;
  }();
  return bounds;
}

void HistogramCell::observe(std::uint64_t value) {
  const auto at = std::lower_bound(bounds.begin(), bounds.end(), value);
  auto& bucket = buckets[static_cast<std::size_t>(at - bounds.begin())];
  bucket.fetch_add(1, std::memory_order_relaxed);
  count.fetch_add(1, std::memory_order_relaxed);
  sum.fetch_add(value, std::memory_order_relaxed);
}

double HistogramData::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (counts[i] == 0) continue;
    const double lo = i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
    const double hi = static_cast<double>(bounds[i]);
    const double in_bucket = static_cast<double>(counts[i]);
    if (cumulative + in_bucket >= rank) {
      const double fraction =
          std::clamp((rank - cumulative) / in_bucket, 0.0, 1.0);
      return lo + (hi - lo) * fraction;
    }
    cumulative += in_bucket;
  }
  // The q-th observation is in the overflow bucket; the last edge is the
  // best (under-)estimate available.
  return bounds.empty() ? 0.0 : static_cast<double>(bounds.back());
}

namespace {

// Cells are keyed like MetricKey but found by string_view triples, so a
// lookup of an existing key builds no strings. Map nodes never move.
using KeyView = std::tuple<std::string_view, std::string_view,
                           std::string_view>;
struct KeyLess {
  using is_transparent = void;
  static KeyView view(const MetricKey& k) { return {k.group, k.agent, k.name}; }
  static const KeyView& view(const KeyView& k) { return k; }
  bool operator()(const auto& a, const auto& b) const {
    return view(a) < view(b);
  }
};
template <typename V>
using CellMap = std::map<MetricKey, V, KeyLess>;

template <typename V, typename... Args>
V& cell(CellMap<V>& map, const KeyView& key, const Args&... args) {
  auto it = map.find(key);
  if (it == map.end()) {
    const auto& [group, agent, name] = key;
    MetricKey k{std::string(group), std::string(agent), std::string(name)};
    it = map.try_emplace(std::move(k), args...).first;
  }
  return it->second;
}

std::uint64_t load(const std::atomic<std::uint64_t>& a) {
  return a.load(std::memory_order_relaxed);
}

HistogramData load(const HistogramCell& h) {
  HistogramData out{h.bounds, {}, load(h.buckets.back()), load(h.count),
                    load(h.sum)};
  for (std::size_t i = 0; i < h.bounds.size(); ++i)
    out.counts.push_back(load(h.buckets[i]));
  return out;
}

}  // namespace

struct MetricsRegistry::Cells {
  CellMap<std::atomic<std::uint64_t>> counters;
  CellMap<std::atomic<std::int64_t>> gauges;
  CellMap<HistogramCell> histograms;
};

MetricsRegistry::MetricsRegistry() : cells_(std::make_unique<Cells>()) {}
MetricsRegistry::~MetricsRegistry() = default;

void MetricsRegistry::add(std::string_view group, std::string_view agent,
                          std::string_view name, std::uint64_t delta) {
  counter_cell(group, agent, name).fetch_add(delta, std::memory_order_relaxed);
}

void MetricsRegistry::set_gauge(std::string_view group, std::string_view agent,
                                std::string_view name, std::int64_t value) {
  std::lock_guard lock(mutex_);
  cell(cells_->gauges, {group, agent, name}).store(value);
}

void MetricsRegistry::add_gauge(std::string_view group, std::string_view agent,
                                std::string_view name, std::int64_t delta) {
  std::lock_guard lock(mutex_);
  cell(cells_->gauges, {group, agent, name}).fetch_add(delta);
}

void MetricsRegistry::observe(std::string_view group, std::string_view agent,
                              std::string_view name, std::uint64_t value) {
  histogram_cell(group, agent, name).observe(value);
}

void MetricsRegistry::observe(std::string_view group, std::string_view agent,
                              std::string_view name, std::uint64_t value,
                              const std::vector<std::uint64_t>& bounds) {
  histogram_cell(group, agent, name, bounds).observe(value);
}

std::atomic<std::uint64_t>& MetricsRegistry::counter_cell(
    std::string_view group, std::string_view agent, std::string_view name) {
  std::lock_guard lock(mutex_);
  return cell(cells_->counters, {group, agent, name});
}

HistogramCell& MetricsRegistry::histogram_cell(
    std::string_view group, std::string_view agent, std::string_view name,
    const std::vector<std::uint64_t>& bounds) {
  std::lock_guard lock(mutex_);
  return cell(cells_->histograms, {group, agent, name}, bounds);
}

std::uint64_t MetricsRegistry::counter(std::string_view group,
                                       std::string_view agent,
                                       std::string_view name) const {
  std::lock_guard lock(mutex_);
  auto it = cells_->counters.find(KeyView{group, agent, name});
  return it == cells_->counters.end() ? 0 : load(it->second);
}

std::int64_t MetricsRegistry::gauge(std::string_view group,
                                    std::string_view agent,
                                    std::string_view name) const {
  std::lock_guard lock(mutex_);
  auto it = cells_->gauges.find(KeyView{group, agent, name});
  return it == cells_->gauges.end() ? 0 : it->second.load();
}

HistogramData MetricsRegistry::histogram(std::string_view group,
                                         std::string_view agent,
                                         std::string_view name) const {
  std::lock_guard lock(mutex_);
  auto it = cells_->histograms.find(KeyView{group, agent, name});
  return it == cells_->histograms.end() ? HistogramData{} : load(it->second);
}

std::uint64_t MetricsRegistry::counter_total(std::string_view name) const {
  std::lock_guard lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [key, value] : cells_->counters)
    if (key.name == name) total += load(value);
  return total;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot out;
  for (const auto& [key, c] : cells_->counters)
    out.counters.emplace_hint(out.counters.end(), key, load(c));
  for (const auto& [key, g] : cells_->gauges)
    out.gauges.emplace_hint(out.gauges.end(), key, g.load());
  for (const auto& [key, h] : cells_->histograms)
    out.histograms.emplace_hint(out.histograms.end(), key, load(h));
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  retired_.push_back(std::exchange(cells_, std::make_unique<Cells>()));
  detail::g_metrics_generation.fetch_add(1, std::memory_order_acq_rel);
}

// ---------------------------------------------------------------------------
// JSON export.

namespace {

void append_key_fields(std::string& out, const MetricKey& key) {
  out += "\"group\":";
  append_json_string(out, key.group);
  out += ",\"agent\":";
  append_json_string(out, key.agent);
  out += ",\"name\":";
  append_json_string(out, key.name);
}

void append_uint_array(std::string& out, const std::vector<std::uint64_t>& xs) {
  out += '[';
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(xs[i]);
  }
  out += ']';
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\n  \"counters\": [";
  bool first = true;
  for (const auto& [key, value] : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {";
    append_key_fields(out, key);
    out += ",\"value\":" + std::to_string(value) + "}";
  }
  out += first ? "],\n" : "\n  ],\n";

  out += "  \"gauges\": [";
  first = true;
  for (const auto& [key, value] : gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {";
    append_key_fields(out, key);
    out += ",\"value\":" + std::to_string(value) + "}";
  }
  out += first ? "],\n" : "\n  ],\n";

  out += "  \"histograms\": [";
  first = true;
  for (const auto& [key, h] : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {";
    append_key_fields(out, key);
    out += ",\"count\":" + std::to_string(h.count);
    out += ",\"sum\":" + std::to_string(h.sum);
    out += ",\"overflow\":" + std::to_string(h.overflow);
    out += ",\"bounds\":";
    append_uint_array(out, h.bounds);
    out += ",\"counts\":";
    append_uint_array(out, h.counts);
    out += "}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

// ---------------------------------------------------------------------------
// JSON import — the subset to_json emits (objects, arrays, strings,
// integers), read through the shared JsonCursor. Keys inside an entry object
// may come in any order; unknown keys are an error.

namespace {

// Stores a parsed value into `out`; false (out untouched) on a parse error.
template <typename T>
bool assign(Result<T> parsed, T& out) {
  if (!parsed.ok()) return false;
  out = *std::move(parsed);
  return true;
}

bool parse_uint_array(JsonCursor& c, std::vector<std::uint64_t>& out) {
  if (!c.consume('[')) return false;
  out.clear();
  if (c.consume(']')) return true;
  do {
    std::uint64_t v = 0;
    if (!assign(c.parse_uint(), v)) return false;
    out.push_back(v);
  } while (c.consume(','));
  return c.consume(']');
}

// Parses one `{...}` entry: the three key fields plus whatever value fields
// the section carries, in any order. `on_field` consumes non-key fields and
// returns false on an unknown field name.
template <typename OnField>
bool parse_entry(JsonCursor& c, MetricKey& key, OnField on_field) {
  if (!c.consume('{')) return false;
  if (c.consume('}')) return false;  // an entry is never empty
  do {
    std::string field;
    if (!assign(c.parse_string(), field) || !c.consume(':')) return false;
    if (field == "group") {
      if (!assign(c.parse_string(), key.group)) return false;
    } else if (field == "agent") {
      if (!assign(c.parse_string(), key.agent)) return false;
    } else if (field == "name") {
      if (!assign(c.parse_string(), key.name)) return false;
    } else if (!on_field(field, c)) {
      return false;
    }
  } while (c.consume(','));
  return c.consume('}');
}

template <typename OnEntry>
bool parse_section(JsonCursor& c, OnEntry on_entry) {
  if (!c.consume('[')) return false;
  if (c.consume(']')) return true;
  do {
    if (!on_entry(c)) return false;
  } while (c.consume(','));
  return c.consume(']');
}

}  // namespace

Result<MetricsSnapshot> MetricsSnapshot::from_json(std::string_view json) {
  MetricsSnapshot snap;
  JsonCursor c{json};
  auto fail = [] {
    return make_error(Errc::malformed, "metrics json malformed");
  };

  if (!c.consume('{')) return fail();
  bool saw_counters = false, saw_gauges = false, saw_histograms = false;
  do {
    std::string section;
    if (!assign(c.parse_string(), section) || !c.consume(':')) return fail();
    if (section == "counters") {
      saw_counters = true;
      bool ok = parse_section(c, [&snap](JsonCursor& cur) {
        MetricKey key;
        std::uint64_t value = 0;
        if (!parse_entry(cur, key,
                         [&value](const std::string& f, JsonCursor& c2) {
                           return f == "value" &&
                                  assign(c2.parse_uint(), value);
                         }))
          return false;
        snap.counters[std::move(key)] = value;
        return true;
      });
      if (!ok) return fail();
    } else if (section == "gauges") {
      saw_gauges = true;
      bool ok = parse_section(c, [&snap](JsonCursor& cur) {
        MetricKey key;
        std::int64_t value = 0;
        if (!parse_entry(cur, key,
                         [&value](const std::string& f, JsonCursor& c2) {
                           return f == "value" &&
                                  assign(c2.parse_int(), value);
                         }))
          return false;
        snap.gauges[std::move(key)] = value;
        return true;
      });
      if (!ok) return fail();
    } else if (section == "histograms") {
      saw_histograms = true;
      bool ok = parse_section(c, [&snap](JsonCursor& cur) {
        MetricKey key;
        HistogramData h;
        if (!parse_entry(cur, key, [&h](const std::string& f, JsonCursor& c2) {
              if (f == "count") return assign(c2.parse_uint(), h.count);
              if (f == "sum") return assign(c2.parse_uint(), h.sum);
              if (f == "overflow") return assign(c2.parse_uint(), h.overflow);
              if (f == "bounds") return parse_uint_array(c2, h.bounds);
              if (f == "counts") return parse_uint_array(c2, h.counts);
              return false;
            }))
          return false;
        if (h.bounds.size() != h.counts.size()) return false;
        snap.histograms[std::move(key)] = std::move(h);
        return true;
      });
      if (!ok) return fail();
    } else {
      return fail();
    }
  } while (c.consume(','));
  if (!c.consume('}') || !c.at_end()) return fail();
  if (!saw_counters || !saw_gauges || !saw_histograms) return fail();
  return snap;
}

}  // namespace enclaves::obs
