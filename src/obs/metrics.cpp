#include "obs/metrics.h"

#include <algorithm>
#include <sstream>

#include "obs/json_escape.h"
#include "obs/json_reader.h"

namespace enclaves::obs {

namespace detail {
std::atomic<MetricsRegistry*> g_metrics_sink{nullptr};
}

void set_metrics_sink(MetricsRegistry* registry) {
  detail::g_metrics_sink.store(registry, std::memory_order_release);
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

namespace {

MetricKey make_key(std::string_view group, std::string_view agent,
                   std::string_view name) {
  return MetricKey{std::string(group), std::string(agent), std::string(name)};
}

void observe_into(HistogramData& h, std::uint64_t value,
                  const std::vector<std::uint64_t>& bounds) {
  if (h.bounds.empty()) {
    h.bounds = bounds;
    h.counts.assign(h.bounds.size(), 0);
  }
  ++h.count;
  h.sum += value;
  auto it = std::lower_bound(h.bounds.begin(), h.bounds.end(), value);
  if (it == h.bounds.end()) {
    ++h.overflow;
  } else {
    ++h.counts[static_cast<std::size_t>(it - h.bounds.begin())];
  }
}

}  // namespace

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

void MetricsRegistry::add(std::string_view group, std::string_view agent,
                          std::string_view name, std::uint64_t delta) {
  std::lock_guard lock(mutex_);
  data_.counters[make_key(group, agent, name)] += delta;
}

void MetricsRegistry::set_gauge(std::string_view group, std::string_view agent,
                                std::string_view name, std::int64_t value) {
  std::lock_guard lock(mutex_);
  data_.gauges[make_key(group, agent, name)] = value;
}

void MetricsRegistry::add_gauge(std::string_view group, std::string_view agent,
                                std::string_view name, std::int64_t delta) {
  std::lock_guard lock(mutex_);
  data_.gauges[make_key(group, agent, name)] += delta;
}

void MetricsRegistry::observe(std::string_view group, std::string_view agent,
                              std::string_view name, std::uint64_t value) {
  observe(group, agent, name, value, default_histogram_bounds());
}

void MetricsRegistry::observe(std::string_view group, std::string_view agent,
                              std::string_view name, std::uint64_t value,
                              const std::vector<std::uint64_t>& bounds) {
  std::lock_guard lock(mutex_);
  observe_into(data_.histograms[make_key(group, agent, name)], value, bounds);
}

std::uint64_t MetricsRegistry::counter(std::string_view group,
                                       std::string_view agent,
                                       std::string_view name) const {
  std::lock_guard lock(mutex_);
  auto it = data_.counters.find(make_key(group, agent, name));
  return it == data_.counters.end() ? 0 : it->second;
}

std::int64_t MetricsRegistry::gauge(std::string_view group,
                                    std::string_view agent,
                                    std::string_view name) const {
  std::lock_guard lock(mutex_);
  auto it = data_.gauges.find(make_key(group, agent, name));
  return it == data_.gauges.end() ? 0 : it->second;
}

HistogramData MetricsRegistry::histogram(std::string_view group,
                                         std::string_view agent,
                                         std::string_view name) const {
  std::lock_guard lock(mutex_);
  auto it = data_.histograms.find(make_key(group, agent, name));
  return it == data_.histograms.end() ? HistogramData{} : it->second;
}

std::uint64_t MetricsRegistry::counter_total(std::string_view name) const {
  std::lock_guard lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [key, value] : data_.counters)
    if (key.name == name) total += value;
  return total;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  return data_;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  data_ = MetricsSnapshot{};
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
