#include "obs/export.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace enclaves::obs {

// ---------------------------------------------------------------------------
// Label escaping.

void append_prom_label_value(std::string& out, std::string_view value) {
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

std::string prom_escape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  append_prom_label_value(out, value);
  return out;
}

Result<std::string> prom_unescape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (std::size_t i = 0; i < value.size(); ++i) {
    if (value[i] != '\\') {
      out += value[i];
      continue;
    }
    if (++i == value.size())
      return make_error(Errc::malformed, "dangling escape in label value");
    switch (value[i]) {
      case '\\': out += '\\'; break;
      case '"': out += '"'; break;
      case 'n': out += '\n'; break;
      default:
        return make_error(Errc::malformed, "unknown escape in label value");
    }
  }
  return out;
}

std::string prom_sanitize_name(std::string_view name) {
  auto valid = [](char c, bool first) {
    if (c == '_' || c == ':') return true;
    if (c >= 'a' && c <= 'z') return true;
    if (c >= 'A' && c <= 'Z') return true;
    return !first && c >= '0' && c <= '9';
  };
  std::string out;
  out.reserve(name.size());
  for (std::size_t i = 0; i < name.size(); ++i)
    out += valid(name[i], i == 0) ? name[i] : '_';
  if (out.empty()) out = "_";
  return out;
}

// ---------------------------------------------------------------------------
// Rendering.

namespace {

void append_sample_start(std::string& out, std::string_view family,
                         const MetricKey& key) {
  out += family;
  out += "{group=\"";
  append_prom_label_value(out, key.group);
  out += "\",agent=\"";
  append_prom_label_value(out, key.agent);
  out += '"';
}

void append_double(std::string& out, double v) {
  // Integral values print without a fraction so counters stay exact; the
  // interpolated quantiles keep enough digits to round-trip.
  if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
    out += std::to_string(static_cast<std::int64_t>(v));
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_header(std::string& out, std::string_view family,
                   std::string_view type, std::string_view help) {
  out += "# HELP ";
  out += family;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += family;
  out += ' ';
  out += type;
  out += '\n';
}

// Regroups a (group, agent, name)-keyed map into name-major order so each
// family renders contiguously under a single HELP/TYPE header.
template <typename Value>
std::map<std::string, std::vector<std::pair<const MetricKey*, const Value*>>>
by_family(const std::map<MetricKey, Value>& metrics) {
  std::map<std::string, std::vector<std::pair<const MetricKey*, const Value*>>>
      families;
  for (const auto& [key, value] : metrics)
    families[key.name].emplace_back(&key, &value);
  return families;
}

}  // namespace

std::string render_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;

  for (const auto& [name, entries] : by_family(snapshot.counters)) {
    const std::string family = "enclaves_" + prom_sanitize_name(name);
    append_header(out, family, "counter",
                  "enclaves counter " + prom_sanitize_name(name));
    for (const auto& [key, value] : entries) {
      append_sample_start(out, family, *key);
      out += "} " + std::to_string(*value) + "\n";
    }
  }

  for (const auto& [name, entries] : by_family(snapshot.gauges)) {
    const std::string family = "enclaves_" + prom_sanitize_name(name);
    append_header(out, family, "gauge",
                  "enclaves gauge " + prom_sanitize_name(name));
    for (const auto& [key, value] : entries) {
      append_sample_start(out, family, *key);
      out += "} " + std::to_string(*value) + "\n";
    }
  }

  for (const auto& [name, entries] : by_family(snapshot.histograms)) {
    const std::string family = "enclaves_" + prom_sanitize_name(name);
    append_header(out, family, "histogram",
                  "enclaves histogram " + prom_sanitize_name(name));
    for (const auto& [key, h] : entries) {
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < h->bounds.size(); ++i) {
        cumulative += h->counts[i];
        append_sample_start(out, family + "_bucket", *key);
        out += ",le=\"" + std::to_string(h->bounds[i]) + "\"} " +
               std::to_string(cumulative) + "\n";
      }
      append_sample_start(out, family + "_bucket", *key);
      out += ",le=\"+Inf\"} " + std::to_string(h->count) + "\n";
      append_sample_start(out, family + "_sum", *key);
      out += "} " + std::to_string(h->sum) + "\n";
      append_sample_start(out, family + "_count", *key);
      out += "} " + std::to_string(h->count) + "\n";
    }
    const std::string qfamily = family + "_quantile";
    append_header(out, qfamily, "gauge",
                  "enclaves histogram " + prom_sanitize_name(name) +
                      " interpolated quantiles");
    for (const auto& [key, h] : entries) {
      for (double q : {0.5, 0.9, 0.99}) {
        append_sample_start(out, qfamily, *key);
        out += ",quantile=\"";
        append_double(out, q);
        out += "\"} ";
        append_double(out, h->quantile(q));
        out += '\n';
      }
    }
  }

  return out;
}

// ---------------------------------------------------------------------------
// Parsing.

namespace {

bool valid_name(std::string_view s) {
  if (s.empty()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    bool ok = c == '_' || c == ':' || (c >= 'a' && c <= 'z') ||
              (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9');
    if (!ok) return false;
  }
  return true;
}

// Splits one sample line into (name, raw label block, value text). The label
// block scan honours escapes, so a `"` inside a label value cannot end it.
bool split_sample(std::string_view line, std::string_view& name,
                  std::string_view& labels, std::string_view& value) {
  std::size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
  name = line.substr(0, i);
  labels = {};
  if (i < line.size() && line[i] == '{') {
    std::size_t start = ++i;
    bool in_string = false;
    for (; i < line.size(); ++i) {
      if (in_string) {
        if (line[i] == '\\') {
          if (++i >= line.size()) return false;
        } else if (line[i] == '"') {
          in_string = false;
        }
      } else if (line[i] == '"') {
        in_string = true;
      } else if (line[i] == '}') {
        break;
      }
    }
    if (i >= line.size()) return false;
    labels = line.substr(start, i - start);
    ++i;  // past '}'
  }
  while (i < line.size() && line[i] == ' ') ++i;
  if (i >= line.size()) return false;
  value = line.substr(i);
  return true;
}

bool parse_labels(std::string_view block,
                  std::map<std::string, std::string>& out) {
  std::size_t i = 0;
  while (i < block.size()) {
    std::size_t eq = block.find('=', i);
    if (eq == std::string_view::npos) return false;
    std::string label_name(block.substr(i, eq - i));
    if (!valid_name(label_name)) return false;
    i = eq + 1;
    if (i >= block.size() || block[i] != '"') return false;
    ++i;
    std::size_t start = i;
    while (i < block.size()) {
      if (block[i] == '\\') {
        if (++i >= block.size()) return false;
        ++i;
      } else if (block[i] == '"') {
        break;
      } else {
        ++i;
      }
    }
    if (i >= block.size()) return false;
    auto unescaped = prom_unescape(block.substr(start, i - start));
    if (!unescaped) return false;
    out[std::move(label_name)] = std::move(*unescaped);
    ++i;  // past closing quote
    if (i < block.size()) {
      if (block[i] != ',') return false;
      ++i;
    }
  }
  return true;
}

}  // namespace

Result<std::vector<PromFamily>> parse_prometheus(std::string_view text) {
  std::vector<PromFamily> families;
  auto fail = [](const char* why) {
    return make_error(Errc::malformed, std::string("prometheus text: ") + why);
  };

  std::size_t pos = 0;
  std::map<std::string, std::string> pending_help;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;

    if (line[0] == '#') {
      // "# HELP name text" / "# TYPE name type"; other comments are skipped.
      if (line.rfind("# HELP ", 0) == 0) {
        std::string_view rest = line.substr(7);
        std::size_t sp = rest.find(' ');
        std::string name(rest.substr(0, sp));
        if (!valid_name(name)) return fail("bad HELP name");
        pending_help[name] = sp == std::string_view::npos
                                 ? ""
                                 : std::string(rest.substr(sp + 1));
      } else if (line.rfind("# TYPE ", 0) == 0) {
        std::string_view rest = line.substr(7);
        std::size_t sp = rest.find(' ');
        if (sp == std::string_view::npos) return fail("bad TYPE line");
        PromFamily family;
        family.name = std::string(rest.substr(0, sp));
        family.type = std::string(rest.substr(sp + 1));
        if (!valid_name(family.name)) return fail("bad TYPE name");
        auto it = pending_help.find(family.name);
        if (it != pending_help.end()) family.help = it->second;
        families.push_back(std::move(family));
      }
      continue;
    }

    std::string_view name, labels, value;
    if (!split_sample(line, name, labels, value))
      return fail("malformed sample line");
    if (!valid_name(name)) return fail("bad sample name");
    PromSample sample;
    sample.name = std::string(name);
    if (!parse_labels(labels, sample.labels)) return fail("bad label set");
    char* end = nullptr;
    const std::string value_str(value);
    sample.value = std::strtod(value_str.c_str(), &end);
    if (end == value_str.c_str() || *end != '\0')
      return fail("unparseable sample value");
    // A sample belongs to the family whose name prefixes it (histogram
    // series carry _bucket/_sum/_count suffixes on the family name).
    PromFamily* owner = nullptr;
    for (auto it = families.rbegin(); it != families.rend(); ++it) {
      if (sample.name.rfind(it->name, 0) == 0) {
        owner = &*it;
        break;
      }
    }
    if (!owner) return fail("sample before any TYPE line");
    owner->samples.push_back(std::move(sample));
  }
  return families;
}

Result<MetricsSnapshot> snapshot_from_prometheus(
    const std::vector<PromFamily>& families, std::string_view prefix) {
  MetricsSnapshot snap;
  for (const PromFamily& family : families) {
    if (family.name.rfind(prefix, 0) != 0) continue;
    if (family.type != "counter" && family.type != "gauge") continue;
    const std::string name = family.name.substr(prefix.size());
    for (const PromSample& s : family.samples) {
      if (s.name != family.name) continue;  // skip suffixed series
      // Extra labels mean a companion series (the histogram quantile
      // gauges), not a registry metric — those do not reconstruct.
      if (s.labels.size() > 2) continue;
      auto group = s.labels.find("group");
      auto agent = s.labels.find("agent");
      if (group == s.labels.end() || agent == s.labels.end())
        return make_error(Errc::malformed,
                          "sample missing group/agent labels");
      MetricKey key{group->second, agent->second, name};
      if (family.type == "counter")
        snap.counters[std::move(key)] =
            static_cast<std::uint64_t>(s.value);
      else
        snap.gauges[std::move(key)] = static_cast<std::int64_t>(s.value);
    }
  }
  return snap;
}

// ---------------------------------------------------------------------------
// Aggregator.

void Aggregator::observe(Tick now, MetricsSnapshot snapshot) {
  window_.push_back(Sample{now, std::move(snapshot)});
  while (max_ != 0 && window_.size() > max_) window_.pop_front();
}

Tick Aggregator::window_ticks() const {
  if (window_.size() < 2) return 0;
  return window_.back().tick - window_.front().tick;
}

const MetricsSnapshot& Aggregator::latest() const {
  static const MetricsSnapshot empty;
  return window_.empty() ? empty : window_.back().snapshot;
}

std::uint64_t Aggregator::counter_in(const MetricsSnapshot& snap,
                                     const MetricKey& key) {
  auto it = snap.counters.find(key);
  return it == snap.counters.end() ? 0 : it->second;
}

std::uint64_t Aggregator::total_in(const MetricsSnapshot& snap,
                                   std::string_view name) {
  std::uint64_t total = 0;
  for (const auto& [key, value] : snap.counters)
    if (key.name == name) total += value;
  return total;
}

std::uint64_t Aggregator::delta(const MetricKey& key) const {
  if (window_.empty()) return 0;
  const std::uint64_t oldest = counter_in(window_.front().snapshot, key);
  const std::uint64_t newest = counter_in(window_.back().snapshot, key);
  return newest > oldest ? newest - oldest : 0;
}

std::uint64_t Aggregator::delta_total(std::string_view name) const {
  if (window_.empty()) return 0;
  const std::uint64_t oldest = total_in(window_.front().snapshot, name);
  const std::uint64_t newest = total_in(window_.back().snapshot, name);
  return newest > oldest ? newest - oldest : 0;
}

double Aggregator::rate_per_tick(const MetricKey& key) const {
  const Tick span = window_ticks();
  if (span == 0) return 0.0;
  return static_cast<double>(delta(key)) / static_cast<double>(span);
}

std::vector<std::uint64_t> Aggregator::series(const MetricKey& key) const {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 1; i < window_.size(); ++i) {
    const std::uint64_t prev = counter_in(window_[i - 1].snapshot, key);
    const std::uint64_t cur = counter_in(window_[i].snapshot, key);
    out.push_back(cur > prev ? cur - prev : 0);
  }
  return out;
}

std::vector<std::uint64_t> Aggregator::series_total(
    std::string_view name) const {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 1; i < window_.size(); ++i) {
    const std::uint64_t prev = total_in(window_[i - 1].snapshot, name);
    const std::uint64_t cur = total_in(window_[i].snapshot, name);
    out.push_back(cur > prev ? cur - prev : 0);
  }
  return out;
}

std::int64_t Aggregator::latest_gauge(const MetricKey& key) const {
  if (window_.empty()) return 0;
  auto it = window_.back().snapshot.gauges.find(key);
  return it == window_.back().snapshot.gauges.end() ? 0 : it->second;
}

}  // namespace enclaves::obs
