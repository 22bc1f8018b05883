// bench_diff: perf-regression gate over two BENCH_<tag>.json blobs.
//
//   bench_diff <baseline.json> <candidate.json>
//              [--time-tolerance=0.30] [--counters=presence|exact]
//              [--fail-on-time] [--self-time-tolerance=0.50]
//              [--max-ratio=NUM/DEN:LIMIT]...
//
// Exit codes: 0 clean (warnings allowed), 1 regression, 2 usage/parse error.
// See docs/OBSERVABILITY.md for how CI wires this against the committed
// baseline in bench/baseline/.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/bench_diff_lib.h"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: bench_diff <baseline.json> <candidate.json>\n"
      "       [--time-tolerance=FRACTION] [--counters=presence|exact]\n"
      "       [--fail-on-time] [--self-time-tolerance=FRACTION]\n"
      "       [--max-ratio=NUM/DEN:LIMIT]...\n");
  return 2;
}

bool read_file(const char* path, std::string& out) {
  std::ifstream f(path);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  out = ss.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace enclaves::tools;
  const char* paths[2] = {nullptr, nullptr};
  int n_paths = 0;
  DiffOptions opts;
  std::vector<RatioGate> ratios;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--time-tolerance=", 17) == 0) {
      opts.time_tolerance = std::atof(arg + 17);
      if (opts.time_tolerance < 0) return usage();
    } else if (std::strcmp(arg, "--counters=presence") == 0) {
      opts.counters = CounterMode::presence;
    } else if (std::strcmp(arg, "--counters=exact") == 0) {
      opts.counters = CounterMode::exact;
    } else if (std::strcmp(arg, "--fail-on-time") == 0) {
      opts.fail_on_time = true;
    } else if (std::strncmp(arg, "--self-time-tolerance=", 22) == 0) {
      opts.self_time_tolerance = std::atof(arg + 22);
      if (opts.self_time_tolerance < 0) return usage();
    } else if (std::strncmp(arg, "--max-ratio=", 12) == 0) {
      auto gate = RatioGate::parse(arg + 12);
      if (!gate.ok()) {
        std::fprintf(stderr, "bench_diff: %s: %s\n", arg,
                     gate.error().to_string().c_str());
        return usage();
      }
      ratios.push_back(*std::move(gate));
    } else if (arg[0] == '-') {
      return usage();
    } else if (n_paths < 2) {
      paths[n_paths++] = arg;
    } else {
      return usage();
    }
  }
  if (n_paths != 2) return usage();

  std::string base_text, cand_text;
  if (!read_file(paths[0], base_text)) {
    std::fprintf(stderr, "bench_diff: cannot read %s\n", paths[0]);
    return 2;
  }
  if (!read_file(paths[1], cand_text)) {
    std::fprintf(stderr, "bench_diff: cannot read %s\n", paths[1]);
    return 2;
  }

  auto baseline = BenchBlob::parse(base_text);
  if (!baseline.ok()) {
    std::fprintf(stderr, "bench_diff: %s: %s\n", paths[0],
                 baseline.error().to_string().c_str());
    return 2;
  }
  auto candidate = BenchBlob::parse(cand_text);
  if (!candidate.ok()) {
    std::fprintf(stderr, "bench_diff: %s: %s\n", paths[1],
                 candidate.error().to_string().c_str());
    return 2;
  }

  DiffReport report = diff_blobs(*baseline, *candidate, opts);
  for (const RatioGate& gate : ratios) {
    if (auto s = check_ratio(*candidate, gate, report); !s) {
      std::fprintf(stderr, "bench_diff: %s: %s\n", paths[1],
                   s.error().to_string().c_str());
      return 2;
    }
  }
  std::printf("bench_diff %s: %s vs %s\n", baseline->bench.c_str(), paths[0],
              paths[1]);
  std::fputs(report.to_string().c_str(), stdout);
  return report.failed() ? 1 : 0;
}
