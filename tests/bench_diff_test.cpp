// bench_diff parsing and diff semantics: the header-only library behind
// tools/bench_diff, exercised on hand-built BENCH_<tag>.json blobs.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "tools/bench_diff_lib.h"

namespace enclaves::tools {
namespace {

// A minimal valid blob: one benchmark row, one protocol counter, and
// (optionally) a profile section — pass the inner scopes array, e.g.
// R"({"path": "leader/handle", "count": 3, ...})".
std::string blob_json(const std::string& tag, double real_time,
                      std::uint64_t counter_value,
                      const std::string& extra_counters = "",
                      const std::string& profile_scopes = "") {
  std::string out =
      "{\"bench\":\"" + tag +
      "\",\"metrics_attached\":true,"
      "\"results\":[{\"name\":\"BM_Join\",\"iterations\":100,"
      "\"real_time\":" +
      std::to_string(real_time) +
      ",\"cpu_time\":" + std::to_string(real_time) +
      ",\"time_unit\":\"ns\"}],"
      "\"metrics\":{\"counters\":[{\"group\":\"L\",\"agent\":\"L\","
      "\"name\":\"relayed_total\",\"value\":" +
      std::to_string(counter_value) + "}" + extra_counters +
      "],\"gauges\":[],\"histograms\":[]}";
  if (!profile_scopes.empty())
    out += ",\"profile\":{\"scopes\":[" + profile_scopes + "]}";
  out += "}";
  return out;
}

// One profile scope entry for blob_json's profile_scopes argument.
std::string scope_json(const std::string& path, std::uint64_t count,
                       std::uint64_t self_ns) {
  return "{\"path\":\"" + path + "\",\"count\":" + std::to_string(count) +
         ",\"total_ns\":" + std::to_string(self_ns) +
         ",\"self_ns\":" + std::to_string(self_ns) +
         ",\"min_ns\":1,\"max_ns\":9,\"bytes\":0}";
}

TEST(BenchBlobParse, RoundTripsAllSections) {
  auto blob = BenchBlob::parse(blob_json("protocol_perf", 120.5, 7));
  ASSERT_TRUE(blob.ok()) << blob.error().to_string();
  EXPECT_EQ(blob->bench, "protocol_perf");
  EXPECT_TRUE(blob->metrics_attached);
  ASSERT_EQ(blob->results.size(), 1u);
  EXPECT_EQ(blob->results[0].name, "BM_Join");
  EXPECT_EQ(blob->results[0].iterations, 100u);
  EXPECT_DOUBLE_EQ(blob->results[0].real_time, 120.5);
  EXPECT_EQ(blob->results[0].time_unit, "ns");
  EXPECT_EQ(blob->metrics.counters.size(), 1u);
}

TEST(BenchBlobParse, RejectsMalformedInput) {
  EXPECT_FALSE(BenchBlob::parse("").ok());
  EXPECT_FALSE(BenchBlob::parse("not json").ok());
  EXPECT_FALSE(BenchBlob::parse("{\"bench\":\"x\"}").ok())
      << "missing results/metrics sections";
  EXPECT_FALSE(BenchBlob::parse(blob_json("t", 1, 1) + "garbage").ok())
      << "trailing garbage";
  EXPECT_FALSE(
      BenchBlob::parse("{\"bench\":\"t\",\"surprise\":1,"
                       "\"results\":[],\"metrics\":{\"counters\":[],"
                       "\"gauges\":[],\"histograms\":[]}}")
          .ok())
      << "unknown field";
}

TEST(BenchDiff, CleanRunReportsNoRegressions) {
  auto base = BenchBlob::parse(blob_json("t", 100, 5));
  auto cand = BenchBlob::parse(blob_json("t", 105, 9));
  ASSERT_TRUE(base.ok() && cand.ok());
  auto report = diff_blobs(*base, *cand);
  EXPECT_FALSE(report.failed());
  EXPECT_TRUE(report.warnings.empty());
  EXPECT_EQ(report.to_string(), "ok    no regressions\n");
}

TEST(BenchDiff, TimeRegressionWarnsByDefaultFailsOnRequest) {
  auto base = BenchBlob::parse(blob_json("t", 100, 5));
  auto cand = BenchBlob::parse(blob_json("t", 150, 5));  // +50% > 30%
  ASSERT_TRUE(base.ok() && cand.ok());

  auto report = diff_blobs(*base, *cand);
  EXPECT_FALSE(report.failed());
  ASSERT_EQ(report.warnings.size(), 1u);
  EXPECT_NE(report.warnings[0].find("BM_Join"), std::string::npos);

  DiffOptions strict;
  strict.fail_on_time = true;
  EXPECT_TRUE(diff_blobs(*base, *cand, strict).failed());

  DiffOptions loose;
  loose.time_tolerance = 0.60;  // +50% now inside tolerance
  auto ok = diff_blobs(*base, *cand, loose);
  EXPECT_FALSE(ok.failed());
  EXPECT_TRUE(ok.warnings.empty());
}

TEST(BenchDiff, ImprovementIsANoteNotAFailure) {
  auto base = BenchBlob::parse(blob_json("t", 100, 5));
  auto cand = BenchBlob::parse(blob_json("t", 50, 5));
  ASSERT_TRUE(base.ok() && cand.ok());
  auto report = diff_blobs(*base, *cand);
  EXPECT_FALSE(report.failed());
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("improved"), std::string::npos);
}

TEST(BenchDiff, DisappearedBenchmarkFails) {
  auto base = BenchBlob::parse(blob_json("t", 100, 5));
  auto cand = BenchBlob::parse(
      "{\"bench\":\"t\",\"metrics_attached\":true,\"results\":[],"
      "\"metrics\":{\"counters\":[],\"gauges\":[],\"histograms\":[]}}");
  ASSERT_TRUE(base.ok() && cand.ok());
  auto report = diff_blobs(*base, *cand);
  EXPECT_TRUE(report.failed());
}

TEST(BenchDiff, TagMismatchAndDetachedMetricsFail) {
  auto base = BenchBlob::parse(blob_json("alpha", 100, 5));
  auto cand = BenchBlob::parse(blob_json("beta", 100, 5));
  ASSERT_TRUE(base.ok() && cand.ok());
  EXPECT_TRUE(diff_blobs(*base, *cand).failed());

  auto detached = BenchBlob::parse(
      "{\"bench\":\"alpha\",\"metrics_attached\":false,"
      "\"results\":[{\"name\":\"BM_Join\",\"iterations\":100,"
      "\"real_time\":100,\"cpu_time\":100,\"time_unit\":\"ns\"}],"
      "\"metrics\":{\"counters\":[],\"gauges\":[],\"histograms\":[]}}");
  ASSERT_TRUE(detached.ok());
  EXPECT_TRUE(diff_blobs(*base, *detached).failed())
      << "candidate ran with ENCLAVES_BENCH_NO_METRICS";
}

TEST(BenchDiff, PresenceModeCatchesCountersGoingDark) {
  auto base = BenchBlob::parse(blob_json("t", 100, 5));
  auto dark = BenchBlob::parse(blob_json("t", 100, 0));
  auto drifted = BenchBlob::parse(blob_json("t", 100, 999));
  ASSERT_TRUE(base.ok() && dark.ok() && drifted.ok());

  auto report = diff_blobs(*base, *dark);
  ASSERT_TRUE(report.failed());
  EXPECT_NE(report.failures[0].find("went dark"), std::string::npos);

  // Magnitude drift is fine in presence mode (iteration counts vary)...
  EXPECT_FALSE(diff_blobs(*base, *drifted).failed());

  // ...but not in exact mode.
  DiffOptions exact;
  exact.counters = CounterMode::exact;
  EXPECT_TRUE(diff_blobs(*base, *drifted, exact).failed());
  EXPECT_FALSE(diff_blobs(*base, *base, exact).failed());
}

TEST(BenchDiff, NewCounterAndNewBenchmarkAreNotes) {
  auto base = BenchBlob::parse(blob_json("t", 100, 5));
  auto cand = BenchBlob::parse(blob_json(
      "t", 100, 5,
      ",{\"group\":\"security\",\"agent\":\"L\","
      "\"name\":\"refusals_total\",\"value\":3}"));
  ASSERT_TRUE(base.ok() && cand.ok());
  auto report = diff_blobs(*base, *cand);
  EXPECT_FALSE(report.failed());
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("new counter"), std::string::npos);
}

// bench_crypto records which SHA-256 kernel ran; a baseline taken on the
// other kernel is worth a note (its SHA-256 rows time different code), not
// a failure.
TEST(BenchDiff, Sha256KernelIsParsedAndAChangeIsANote) {
  auto with_kernel = [](const std::string& kernel) {
    std::string json = blob_json("crypto", 100, 5);
    const std::string anchor = "\"metrics_attached\":true,";
    json.insert(json.find(anchor) + anchor.size(),
                "\"sha256_kernel\":\"" + kernel + "\",");
    return BenchBlob::parse(json);
  };
  auto base = with_kernel("portable");
  auto cand = with_kernel("shani");
  ASSERT_TRUE(base.ok()) << base.error().to_string();
  ASSERT_TRUE(cand.ok()) << cand.error().to_string();
  EXPECT_EQ(base->kernels.at("sha256_kernel"), "portable");
  EXPECT_TRUE(diff_blobs(*base, *base).notes.empty());
  auto report = diff_blobs(*base, *cand);
  EXPECT_FALSE(report.failed());
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("sha256_kernel"), std::string::npos);
}

// The AEAD kernels ride the same rule: each differing field is one note,
// and a kernel field bench_crypto never writes is refused.
TEST(BenchDiff, AeadKernelsAreParsedAndAChangeIsANote) {
  auto with_kernels = [](const std::string& fields) {
    std::string json = blob_json("crypto", 100, 5);
    const std::string anchor = "\"metrics_attached\":true,";
    json.insert(json.find(anchor) + anchor.size(), fields);
    return BenchBlob::parse(json);
  };
  auto base = with_kernels(
      "\"chacha20_kernel\":\"portable\",\"poly1305_kernel\":\"portable\",");
  auto cand = with_kernels(
      "\"chacha20_kernel\":\"avx2\",\"poly1305_kernel\":\"portable\",");
  ASSERT_TRUE(base.ok()) << base.error().to_string();
  ASSERT_TRUE(cand.ok()) << cand.error().to_string();
  EXPECT_EQ(cand->kernels.at("chacha20_kernel"), "avx2");
  EXPECT_EQ(cand->kernels.at("poly1305_kernel"), "portable");
  auto report = diff_blobs(*base, *cand);
  EXPECT_FALSE(report.failed());
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("chacha20_kernel"), std::string::npos);
  EXPECT_FALSE(with_kernels("\"aes_kernel\":\"aesni\",").ok());
}

// --- profiled scopes (the tentpole gate: ISSUE 9 acceptance criteria).

TEST(BenchBlobParse, ProfileSectionIsOptionalAndRoundTrips) {
  // Pre-profiler blobs (no profile key) still parse, with an empty profile.
  auto old = BenchBlob::parse(blob_json("t", 100, 5));
  ASSERT_TRUE(old.ok());
  EXPECT_TRUE(old->profile.scopes.empty());

  auto blob = BenchBlob::parse(
      blob_json("t", 100, 5, "", scope_json("leader/handle", 40, 8000)));
  ASSERT_TRUE(blob.ok()) << blob.error().to_string();
  ASSERT_EQ(blob->profile.scopes.size(), 1u);
  EXPECT_EQ(blob->profile.scopes.at("leader/handle").count, 40u);
}

TEST(BenchDiff, ProfileScopeGoingDarkFails) {
  auto base = BenchBlob::parse(blob_json(
      "t", 100, 5, "",
      scope_json("leader/handle", 40, 8000) + "," +
          scope_json("crypto/seal", 80, 2000)));
  // Candidate lost the crypto/seal instrumentation entirely.
  auto cand = BenchBlob::parse(
      blob_json("t", 100, 5, "", scope_json("leader/handle", 44, 8100)));
  ASSERT_TRUE(base.ok() && cand.ok());
  auto report = diff_blobs(*base, *cand);
  ASSERT_TRUE(report.failed());
  EXPECT_NE(report.failures[0].find("profile scope went dark: crypto/seal"),
            std::string::npos);

  // Present but zero-count is equally dark.
  auto zero = BenchBlob::parse(blob_json(
      "t", 100, 5, "",
      scope_json("leader/handle", 44, 8100) + "," +
          scope_json("crypto/seal", 0, 0)));
  ASSERT_TRUE(zero.ok());
  EXPECT_TRUE(diff_blobs(*base, *zero).failed());

  // Identical profiles pass.
  EXPECT_FALSE(diff_blobs(*base, *base).failed());
}

TEST(BenchDiff, ProfileSelfTimeDriftWarnsOnly) {
  auto base = BenchBlob::parse(blob_json(
      "t", 100, 5, "", scope_json("leader/handle", 10, 1000)));  // 100/call
  auto slow = BenchBlob::parse(blob_json(
      "t", 100, 5, "", scope_json("leader/handle", 10, 2000)));  // 200/call
  ASSERT_TRUE(base.ok() && slow.ok());

  auto report = diff_blobs(*base, *slow);  // +100% > 50% tolerance
  EXPECT_FALSE(report.failed()) << "drift must never gate";
  ASSERT_EQ(report.warnings.size(), 1u);
  EXPECT_NE(report.warnings[0].find("leader/handle"), std::string::npos);

  DiffOptions loose;
  loose.self_time_tolerance = 1.50;
  EXPECT_TRUE(diff_blobs(*base, *slow, loose).warnings.empty());
}

TEST(BenchDiff, NewProfileScopeIsANote) {
  auto base = BenchBlob::parse(blob_json(
      "t", 100, 5, "", scope_json("leader/handle", 10, 1000)));
  auto cand = BenchBlob::parse(blob_json(
      "t", 100, 5, "",
      scope_json("leader/handle", 10, 1000) + "," +
          scope_json("member/handle", 10, 500)));
  ASSERT_TRUE(base.ok() && cand.ok());
  auto report = diff_blobs(*base, *cand);
  EXPECT_FALSE(report.failed());
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("new profile scope: member/handle"),
            std::string::npos);
}


// --- --max-ratio: one row's real_time over another's inside the candidate.

// A blob with one row per (name, real_time) pair, timed in `unit`.
BenchBlob rows_blob(
    const std::vector<std::pair<std::string, double>>& rows,
    const std::string& unit = "ns") {
  std::string results;
  for (const auto& [name, t] : rows) {
    if (!results.empty()) results += ',';
    results += "{\"name\":\"" + name + "\",\"iterations\":10,"
               "\"real_time\":" + std::to_string(t) +
               ",\"cpu_time\":" + std::to_string(t) +
               ",\"time_unit\":\"" + unit + "\"}";
  }
  auto blob = BenchBlob::parse(
      "{\"bench\":\"t\",\"metrics_attached\":true,\"results\":[" +
      results +
      "],\"metrics\":{\"counters\":[],\"gauges\":[],"
      "\"histograms\":[]}}");
  EXPECT_TRUE(blob.ok());
  return blob.ok() ? *std::move(blob) : BenchBlob{};
}

RatioGate admin_gate(double limit) {
  return RatioGate{"BM_AdminRoundTrip/BM_AdminRoundTripUninstrumented",
                   limit};
}

TEST(BenchDiffRatio, ParsesTheSpecAndRejectsBadLimits) {
  auto gate = RatioGate::parse("BM_A/BM_B:1.15");
  ASSERT_TRUE(gate.ok());
  EXPECT_EQ(gate->rows, "BM_A/BM_B");
  EXPECT_DOUBLE_EQ(gate->limit, 1.15);
  EXPECT_FALSE(RatioGate::parse("BM_A/BM_B").ok());
  EXPECT_FALSE(RatioGate::parse("BM_A:1.1").ok());
  EXPECT_FALSE(RatioGate::parse("BM_A/BM_B:").ok());
  EXPECT_FALSE(RatioGate::parse("BM_A/BM_B:fast").ok());
  EXPECT_FALSE(RatioGate::parse("BM_A/BM_B:0").ok());
}

TEST(BenchDiffRatio, WithinLimitPassesAndReportsTheRatio) {
  const BenchBlob blob = rows_blob(
      {{"BM_AdminRoundTrip", 2800}, {"BM_AdminRoundTripUninstrumented", 2600}});
  DiffReport report;
  ASSERT_TRUE(check_ratio(blob, admin_gate(1.15), report).ok());
  EXPECT_FALSE(report.failed());
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("= 1.077"), std::string::npos)
      << report.notes[0];
}

TEST(BenchDiffRatio, OverLimitFails) {
  const BenchBlob blob = rows_blob(
      {{"BM_AdminRoundTrip", 3490}, {"BM_AdminRoundTripUninstrumented", 2600}});
  DiffReport report;
  ASSERT_TRUE(check_ratio(blob, admin_gate(1.15), report).ok());
  ASSERT_TRUE(report.failed());
  EXPECT_NE(report.failures[0].find("= 1.342"), std::string::npos)
      << report.failures[0];
}

// A gate naming a row the blob lacks is a usage error (bench_diff exits 2),
// not a pass and not a regression.
TEST(BenchDiffRatio, MissingRowIsAnError) {
  const BenchBlob blob = rows_blob({{"BM_AdminRoundTrip", 2800}});
  DiffReport report;
  EXPECT_FALSE(check_ratio(blob, admin_gate(1.15), report).ok());
  EXPECT_FALSE(report.failed());
  EXPECT_TRUE(report.notes.empty());
}

// Row names with '/' of their own: the pair splits at the one '/' where
// both halves are rows of the blob.
TEST(BenchDiffRatio, RowNamesWithSlashesSplitWhereBothHalvesAreRows) {
  const BenchBlob blob = rows_blob({{"BM_RekeyGroupOfN/1024_mean", 43},
                                    {"BM_RekeyFlatGroupOfN/1024_mean", 2150},
                                    {"BM_RekeyGroupOfN", 1}});
  auto gate = RatioGate::parse(
      "BM_RekeyGroupOfN/1024_mean/BM_RekeyFlatGroupOfN/1024_mean:0.05");
  ASSERT_TRUE(gate.ok());
  DiffReport report;
  ASSERT_TRUE(check_ratio(blob, *gate, report).ok());
  EXPECT_FALSE(report.failed());
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("BM_RekeyGroupOfN/1024_mean / "
                                 "BM_RekeyFlatGroupOfN/1024_mean = 0.020"),
            std::string::npos)
      << report.notes[0];
}

// "A/B/C" over a blob holding A, B/C, A/B and C reads as A over B/C or as
// A/B over C: a usage error, not a guess.
TEST(BenchDiffRatio, AmbiguousSplitIsAnError) {
  const BenchBlob blob =
      rows_blob({{"A", 1}, {"B/C", 2}, {"A/B", 3}, {"C", 4}});
  DiffReport report;
  EXPECT_FALSE(check_ratio(blob, RatioGate{"A/B/C", 1.0}, report).ok());
  EXPECT_TRUE(report.notes.empty());
  EXPECT_FALSE(report.failed());
  // Without the A/B row only one split is left.
  const BenchBlob unique = rows_blob({{"A", 1}, {"B/C", 2}, {"C", 4}});
  ASSERT_TRUE(check_ratio(unique, RatioGate{"A/B/C", 1.0}, report).ok());
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("A / B/C = 0.500"), std::string::npos)
      << report.notes[0];
}

// Rows timed in different units (ns vs us) cannot be divided as they
// stand: an error, not a ratio off by 1000x.
TEST(BenchDiffRatio, MixedTimeUnitsAreAnError) {
  BenchBlob blob = rows_blob({{"BM_AdminRoundTrip", 2800}});
  blob.results.push_back(
      rows_blob({{"BM_AdminRoundTripUninstrumented", 2.6}}, "us")
          .results[0]);
  DiffReport report;
  EXPECT_FALSE(check_ratio(blob, admin_gate(1.15), report).ok());
  EXPECT_FALSE(report.failed());
  EXPECT_TRUE(report.notes.empty());
}

}  // namespace
}  // namespace enclaves::tools
