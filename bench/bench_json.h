// Shared main() for the google-benchmark binaries: runs the registered
// benchmarks with the normal console output, records protocol metrics and
// the wall-clock profile (obs::MetricsRegistry + obs::Profiler attached as
// the process sinks for the whole run), and writes a machine-readable
// BENCH_<tag>.json blob — ns/op per benchmark plus every protocol counter
// and profiled hot-path scope the run touched. CI archives these blobs;
// future perf PRs diff them against their predecessors.
//
// Environment knobs:
//   ENCLAVES_BENCH_OUT_DIR     directory for BENCH_<tag>.json (default ".")
//   ENCLAVES_BENCH_NO_METRICS  "1" detaches BOTH the metrics and profiler
//                              sinks — the zero-cost-when-disabled
//                              configuration used for regression-baseline
//                              timing runs
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/prof.h"

namespace enclaves::benchjson {

struct RunRow {
  std::string name;
  std::uint64_t iterations = 0;
  double real_time = 0;  // per iteration, in `time_unit`
  double cpu_time = 0;
  std::string time_unit;
};

/// Console reporter that additionally collects per-benchmark rows.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      RunRow row;
      row.name = run.benchmark_name();
      row.iterations = static_cast<std::uint64_t>(run.iterations);
      row.real_time = run.GetAdjustedRealTime();
      row.cpu_time = run.GetAdjustedCPUTime();
      row.time_unit = benchmark::GetTimeUnitString(run.time_unit);
      rows_.push_back(std::move(row));
    }
    benchmark::ConsoleReporter::ReportRuns(report);
  }

  const std::vector<RunRow>& rows() const { return rows_; }

 private:
  std::vector<RunRow> rows_;
};

inline void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';  // benchmark names never contain control chars; be safe
      continue;
    }
    out += c;
  }
  out += '"';
}

/// A top-level string field a binary adds to its blob, next to
/// "metrics_attached" (bench_crypto: which SHA-256 kernel ran).
struct BlobField {
  std::string key;
  std::string value;
};

inline int run_bench_main(const char* tag, int argc, char** argv,
                          const std::vector<BlobField>& fields = {}) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  obs::MetricsRegistry metrics;
  obs::Profiler profile;
  const char* no_metrics = std::getenv("ENCLAVES_BENCH_NO_METRICS");
  const bool attach = !(no_metrics && no_metrics[0] == '1');
  if (attach) {
    obs::set_metrics_sink(&metrics);
    obs::set_prof_sink(&profile);
  }

  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  obs::set_metrics_sink(nullptr);
  obs::set_prof_sink(nullptr);

  std::string out = "{\n  \"bench\": ";
  append_escaped(out, tag);
  out += ",\n  \"metrics_attached\": ";
  out += attach ? "true" : "false";
  for (const BlobField& field : fields) {
    out += ",\n  ";
    append_escaped(out, field.key);
    out += ": ";
    append_escaped(out, field.value);
  }
  out += ",\n  \"results\": [";
  for (std::size_t i = 0; i < reporter.rows().size(); ++i) {
    const RunRow& row = reporter.rows()[i];
    out += i ? ",\n" : "\n";
    out += "    {\"name\": ";
    append_escaped(out, row.name);
    out += ", \"iterations\": " + std::to_string(row.iterations);
    out += ", \"real_time\": " + std::to_string(row.real_time);
    out += ", \"cpu_time\": " + std::to_string(row.cpu_time);
    out += ", \"time_unit\": ";
    append_escaped(out, row.time_unit);
    out += "}";
  }
  out += reporter.rows().empty() ? "],\n" : "\n  ],\n";
  out += "  \"metrics\": ";
  out += metrics.to_json();
  // metrics.to_json() ends with "}\n"; trim the newline before continuing.
  if (!out.empty() && out.back() == '\n') out.pop_back();
  out += ",\n  \"profile\": ";
  out += profile.to_json();
  if (!out.empty() && out.back() == '\n') out.pop_back();
  out += "\n}\n";

  const char* dir = std::getenv("ENCLAVES_BENCH_OUT_DIR");
  std::string path = std::string(dir && dir[0] ? dir : ".") + "/BENCH_" +
                     tag + ".json";
  std::ofstream f(path, std::ios::trunc);
  f << out;
  if (!f) {
    std::fprintf(stderr, "bench_json: failed to write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "bench_json: wrote %s\n", path.c_str());

  benchmark::Shutdown();
  return 0;
}

}  // namespace enclaves::benchjson

/// Defines main() for a benchmark binary tagged `tag` (used in the output
/// file name: BENCH_<tag>.json).
#define ENCLAVES_BENCH_JSON_MAIN(tag)                            \
  int main(int argc, char** argv) {                              \
    return ::enclaves::benchjson::run_bench_main(tag, argc, argv); \
  }
