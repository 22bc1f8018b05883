// Observability layer: metrics registry semantics (counter monotonicity,
// histogram bucketing, snapshot isolation, JSON round-trip), trace-event
// ordering against VirtualClock ticks, and the per-event emit table.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <string_view>
#include <vector>

#include "obs/event.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/security.h"
#include "obs/trace.h"
#include "util/clock.h"

// Counts heap allocations made on the current thread while armed, so a test
// can prove a code path allocates nothing. Replacing the global operator
// new/delete pair is the only way to see every allocation, including those
// made inside the standard library.
namespace {
thread_local bool g_count_allocations = false;
thread_local std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocations) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined free() with a
// `new` expression at a call site.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace enclaves::obs {
namespace {

TEST(MetricsRegistry, CounterMonotonicity) {
  MetricsRegistry r;
  EXPECT_EQ(r.counter("g", "a", "ops_total"), 0u);
  r.add("g", "a", "ops_total");
  r.add("g", "a", "ops_total", 4);
  EXPECT_EQ(r.counter("g", "a", "ops_total"), 5u);
  // Distinct keys are independent.
  r.add("g", "b", "ops_total", 7);
  EXPECT_EQ(r.counter("g", "a", "ops_total"), 5u);
  EXPECT_EQ(r.counter("g", "b", "ops_total"), 7u);
  EXPECT_EQ(r.counter_total("ops_total"), 12u);
  EXPECT_EQ(r.counter_total("nonexistent"), 0u);
}

TEST(MetricsRegistry, Gauges) {
  MetricsRegistry r;
  r.set_gauge("g", "a", "depth", 5);
  r.add_gauge("g", "a", "depth", -2);
  EXPECT_EQ(r.gauge("g", "a", "depth"), 3);
  r.set_gauge("g", "a", "depth", -10);
  EXPECT_EQ(r.gauge("g", "a", "depth"), -10);
  EXPECT_EQ(r.gauge("g", "a", "missing"), 0);
}

TEST(MetricsRegistry, HistogramBucketing) {
  MetricsRegistry r;
  const std::vector<std::uint64_t> bounds = {10, 100};
  r.observe("g", "a", "lat", 5, bounds);     // <= 10
  r.observe("g", "a", "lat", 10, bounds);    // <= 10 (inclusive edge)
  r.observe("g", "a", "lat", 11, bounds);    // <= 100
  r.observe("g", "a", "lat", 1000, bounds);  // overflow
  HistogramData h = r.histogram("g", "a", "lat");
  ASSERT_EQ(h.bounds, bounds);
  ASSERT_EQ(h.counts.size(), 2u);
  EXPECT_EQ(h.counts[0], 2u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.overflow, 1u);
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, 1026u);
}

TEST(MetricsRegistry, HistogramDefaultBoundsAndPinning) {
  MetricsRegistry r;
  r.observe("g", "a", "size", 3);
  HistogramData h = r.histogram("g", "a", "size");
  EXPECT_EQ(h.bounds, default_histogram_bounds());
  EXPECT_EQ(h.bounds.front(), 1u);
  EXPECT_EQ(h.bounds.back(), 1u << 20);
  // The layout is pinned at first observation; later custom bounds are
  // ignored for this histogram.
  r.observe("g", "a", "size", 3, {5, 50});
  h = r.histogram("g", "a", "size");
  EXPECT_EQ(h.bounds, default_histogram_bounds());
  EXPECT_EQ(h.count, 2u);
}

TEST(MetricsRegistry, SnapshotIsolation) {
  MetricsRegistry r;
  r.add("g", "a", "ops_total", 3);
  MetricsSnapshot snap = r.snapshot();
  r.add("g", "a", "ops_total", 100);
  r.set_gauge("g", "a", "depth", 1);
  EXPECT_EQ(snap.counters.at(MetricKey{"g", "a", "ops_total"}), 3u);
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_EQ(r.counter("g", "a", "ops_total"), 103u);
}

TEST(MetricsRegistry, Reset) {
  MetricsRegistry r;
  r.add("g", "a", "ops_total", 3);
  r.observe("g", "a", "lat", 4);
  r.reset();
  EXPECT_EQ(r.counter("g", "a", "ops_total"), 0u);
  EXPECT_EQ(r.histogram("g", "a", "lat").count, 0u);
}

TEST(MetricsSnapshot, JsonRoundTrip) {
  MetricsRegistry r;
  r.add("group-1", "agent/x", "ops_total", 42);
  r.add("group-1", "weird \"name\"\\with\nescapes", "ops_total", 1);
  r.set_gauge("group-1", "agent/x", "depth", -7);
  r.observe("group-1", "agent/x", "lat", 5, {10, 100});
  r.observe("group-1", "agent/x", "lat", 1000, {10, 100});

  MetricsSnapshot before = r.snapshot();
  std::string json = before.to_json();
  auto after = MetricsSnapshot::from_json(json);
  ASSERT_TRUE(after.ok()) << after.error().to_string();
  EXPECT_EQ(*after, before);
}

TEST(MetricsSnapshot, EmptyRoundTrip) {
  MetricsSnapshot empty;
  auto parsed = MetricsSnapshot::from_json(empty.to_json());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, empty);
}

TEST(MetricsSnapshot, FromJsonRejectsMalformed) {
  EXPECT_FALSE(MetricsSnapshot::from_json("").ok());
  EXPECT_FALSE(MetricsSnapshot::from_json("not json").ok());
  EXPECT_FALSE(MetricsSnapshot::from_json("{}").ok());  // sections missing
  EXPECT_FALSE(MetricsSnapshot::from_json(
                   R"({"counters": [], "gauges": []})")
                   .ok());  // histograms missing
  EXPECT_FALSE(MetricsSnapshot::from_json(
                   R"({"counters": [{"group":"g","agent":"a","name":"n",)"
                   R"("value":1,"bogus":2}], "gauges": [], "histograms": []})")
                   .ok());  // unknown field
  // Trailing garbage after the top-level object.
  MetricsSnapshot empty;
  EXPECT_FALSE(MetricsSnapshot::from_json(empty.to_json() + "x").ok());
}

// Dump files are untrusted input: a counter one past 2^64 - 1 must be
// refused, not wrapped to 0.
TEST(MetricsSnapshot, FromJsonRejectsOutOfRangeIntegers) {
  auto with_counter = [](std::string_view value) {
    return std::string(R"({"counters": [{"group":"g","agent":"a","name":"n",)") +
           R"("value":)" + std::string(value) +
           R"(}], "gauges": [], "histograms": []})";
  };
  auto max = MetricsSnapshot::from_json(with_counter("18446744073709551615"));
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max->counters.begin()->second, 18446744073709551615ull);
  auto over = MetricsSnapshot::from_json(with_counter("18446744073709551616"));
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.error().code, Errc::malformed);

  auto gauge = [](std::string_view value) {
    return std::string(R"({"counters": [], "gauges": [{"group":"g",)") +
           R"("agent":"a","name":"n","value":)" + std::string(value) +
           R"(}], "histograms": []})";
  };
  auto min = MetricsSnapshot::from_json(gauge("-9223372036854775808"));
  ASSERT_TRUE(min.ok());
  EXPECT_EQ(min->gauges.begin()->second, INT64_MIN);
  EXPECT_FALSE(MetricsSnapshot::from_json(gauge("9223372036854775808")).ok());
  EXPECT_FALSE(MetricsSnapshot::from_json(gauge("-9223372036854775809")).ok());
}

TEST(MetricsSink, HelpersAreQuietWithoutSink) {
  ASSERT_EQ(metrics_sink(), nullptr);
  // Must be a no-op, not a crash.
  count("g", "a", "ops_total");
  gauge_set("g", "a", "depth", 1);
  observe("g", "a", "lat", 5);
}

TEST(MetricsSink, ScopedAttachDetach) {
  MetricsRegistry r;
  {
    ScopedMetricsSink sink(r);
    ASSERT_EQ(metrics_sink(), &r);
    count("g", "a", "ops_total", 2);
    gauge_set("g", "a", "depth", 9);
    observe("g", "a", "lat", 5);
  }
  EXPECT_EQ(metrics_sink(), nullptr);
  count("g", "a", "ops_total", 100);  // after detach: dropped
  EXPECT_EQ(r.counter("g", "a", "ops_total"), 2u);
  EXPECT_EQ(r.gauge("g", "a", "depth"), 9);
  EXPECT_EQ(r.histogram("g", "a", "lat").count, 1u);
}

TEST(TraceLog, OrderingUnderVirtualClock) {
  VirtualClock clock;
  TraceLog log;
  ScopedTraceSink sink(log);

  trace(clock.now(), TraceKind::join, "G", "L", "alice");
  clock.advance();
  trace(clock.now(), TraceKind::admin_send, "G", "L", "alice",
        "new_group_key");
  clock.advance(3);
  trace(clock.now(), TraceKind::admin_ack, "G", "L", "alice");
  trace(clock.now(), TraceKind::rekey, "G", "L", {}, {}, 2);

  auto events = log.events();
  ASSERT_EQ(events.size(), 4u);
  // Record order is preserved and ticks are non-decreasing.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LE(events[i - 1].tick, events[i].tick);
  EXPECT_EQ(events[0].tick, 0u);
  EXPECT_EQ(events[1].tick, 1u);
  EXPECT_EQ(events[2].tick, 4u);
  EXPECT_EQ(events[3].tick, 4u);
  EXPECT_EQ(events[1].kind, TraceKind::admin_send);
  EXPECT_EQ(events[1].detail, "new_group_key");
  EXPECT_EQ(events[3].value, 2u);
}

TEST(TraceLog, QuietWithoutSink) {
  ASSERT_EQ(trace_sink(), nullptr);
  trace(0, TraceKind::join, "G", "L", "alice");  // dropped, no crash
  TraceLog log;
  {
    ScopedTraceSink sink(log);
    trace(1, TraceKind::join, "G", "L", "alice");
  }
  trace(2, TraceKind::leave, "G", "L", "alice");  // after detach: dropped
  EXPECT_EQ(log.size(), 1u);
}

TEST(TraceLog, JsonlExport) {
  TraceLog log;
  log.record(TraceEvent{7, TraceKind::admin_send, "G", "L", "alice",
                        "notice", 0});
  log.record(TraceEvent{8, TraceKind::rekey, "G", "L", "", "", 3});
  std::string jsonl = log.to_jsonl();
  EXPECT_EQ(jsonl,
            "{\"tick\":7,\"kind\":\"admin_send\",\"group\":\"G\","
            "\"agent\":\"L\",\"peer\":\"alice\",\"detail\":\"notice\"}\n"
            "{\"tick\":8,\"kind\":\"rekey\",\"group\":\"G\",\"agent\":\"L\","
            "\"value\":3}\n");
}

TEST(HistogramQuantile, InterpolatesWithinBuckets) {
  MetricsRegistry r;
  const std::vector<std::uint64_t> bounds = {10, 20, 40};
  // 10 samples in (0,10], 10 in (10,20]: p50 sits at the first bucket edge,
  // p75 halfway into the second.
  for (int i = 0; i < 10; ++i) r.observe("g", "a", "lat", 5, bounds);
  for (int i = 0; i < 10; ++i) r.observe("g", "a", "lat", 15, bounds);
  HistogramData h = r.histogram("g", "a", "lat");
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 15.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
  // Out-of-range q clamps instead of reading past the buckets.
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST(HistogramQuantile, OverflowClampsToLastEdgeAndEmptyIsZero) {
  MetricsRegistry r;
  const std::vector<std::uint64_t> bounds = {10, 100};
  r.observe("g", "a", "lat", 5000, bounds);  // overflow bucket only
  EXPECT_DOUBLE_EQ(r.histogram("g", "a", "lat").quantile(0.99), 100.0);
  HistogramData empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

TEST(TraceLog, RingBufferCapacityCountsDrops) {
  TraceLog log;
  log.set_capacity(3);
  for (std::uint64_t t = 0; t < 5; ++t)
    log.record(TraceEvent{t, TraceKind::join, "G", "L", "a", "", 0});
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.dropped_events(), 2u);
  auto events = log.events();
  EXPECT_EQ(events.front().tick, 2u);  // oldest two evicted
  EXPECT_EQ(events.back().tick, 4u);

  // Shrinking trims immediately, counting the evictions.
  log.set_capacity(1);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.dropped_events(), 4u);
  EXPECT_EQ(log.events().front().tick, 4u);

  // Capacity 0 restores unbounded growth; clear() resets the counter.
  log.set_capacity(0);
  for (std::uint64_t t = 0; t < 10; ++t)
    log.record(TraceEvent{t, TraceKind::join, "G", "L", "a", "", 0});
  EXPECT_EQ(log.size(), 11u);
  log.clear();
  EXPECT_EQ(log.dropped_events(), 0u);
}

TEST(TraceLog, JsonlEscapesHostileStrings) {
  // Control characters, quotes, and backslashes in any string field must
  // stay inside their JSON string when exported.
  const std::string hostile = "evil\"\\\n\t\r\x01\x1f";
  TraceLog log;
  log.record(TraceEvent{1, TraceKind::admin_send, hostile, hostile, hostile,
                        hostile, 0});
  const std::string jsonl = log.to_jsonl();
  EXPECT_EQ(jsonl.find('\x01'), std::string::npos);
  EXPECT_EQ(jsonl.find('\t'), std::string::npos);
  EXPECT_NE(jsonl.find("evil\\\"\\\\\\n\\t\\r\\u0001\\u001f"),
            std::string::npos);
  // Exactly one record line: no raw newline leaked out of a string.
  EXPECT_EQ(jsonl.find('\n'), jsonl.size() - 1);
}

TEST(MetricsSnapshot, HostileStringsSurviveJsonRoundTrip) {
  // The regression this guards: a detail/agent string carrying raw control
  // bytes used to produce JSON that from_json could not read back.
  MetricsRegistry r;
  const std::string hostile = "m\x01id\x1f\"quoted\"\\slash\n\t\r";
  r.add("g\x02roup", hostile, "ops_total", 3);
  r.set_gauge("g\x02roup", hostile, "depth", -1);
  r.observe("g\x02roup", hostile, "lat", 7);
  MetricsSnapshot before = r.snapshot();
  auto after = MetricsSnapshot::from_json(before.to_json());
  ASSERT_TRUE(after.ok()) << after.error().to_string();
  EXPECT_EQ(*after, before);
}

TEST(SecurityLedgerUnit, RecordsSuspicionAndExportsJsonl) {
  SecurityLedger ledger;
  EXPECT_EQ(ledger.size(), 0u);
  ledger.record({1, EvidenceKind::stale_nonce, "G", "alice", "mallory",
                 "old nonce", 0});
  ledger.record({2, EvidenceKind::relay_reject, "G", "L", "mallory",
                 "not a member", 0});
  ledger.record({3, EvidenceKind::aead_open_failure, "crypto", "aes-gcm", "",
                 "tag mismatch", 0});
  EXPECT_EQ(ledger.size(), 3u);
  EXPECT_EQ(ledger.suspicion("mallory"), 2u);
  EXPECT_EQ(ledger.suspicion("nobody"), 0u);
  EXPECT_EQ(ledger.suspicion_counts().size(), 1u)
      << "unattributed evidence accrues no suspicion";

  const std::string jsonl = ledger.to_jsonl();
  EXPECT_NE(jsonl.find("\"kind\":\"stale_nonce\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"accused\":\"mallory\""), std::string::npos);

  ledger.clear();
  EXPECT_EQ(ledger.size(), 0u);
  EXPECT_EQ(ledger.suspicion("mallory"), 0u);
}

TEST(SecurityLedgerUnit, SinkGateAndMetricsCoupling) {
  ASSERT_EQ(security_sink(), nullptr);
  security_event(0, EvidenceKind::malformed, "G", "L", "x");  // no crash
  SecurityLedger ledger;
  MetricsRegistry metrics;
  {
    ScopedSecurityLedger sink(ledger);
    ScopedMetricsSink msink(metrics);
    ASSERT_EQ(security_sink(), &ledger);
    security_event(5, EvidenceKind::replayed_seq, "G", "bob", "alice",
                   "seq 9", 9);
  }
  EXPECT_EQ(security_sink(), nullptr);
  security_event(6, EvidenceKind::malformed, "G", "L", "x");  // dropped
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger.entries()[0].kind, EvidenceKind::replayed_seq);
  EXPECT_EQ(metrics.counter("security", "bob", "refusals_total"), 1u);
  EXPECT_EQ(
      metrics.counter("security", "bob", "refusals_replayed_seq_total"), 1u);
  EXPECT_EQ(metrics.counter("security", "alice", "suspicion_total"), 1u);
}

TEST(SecurityLedgerUnit, EvidenceKindMappingFromErrc) {
  EXPECT_EQ(evidence_kind_for(Errc::auth_failed),
            EvidenceKind::aead_open_failure);
  EXPECT_EQ(evidence_kind_for(Errc::stale), EvidenceKind::stale_nonce);
  EXPECT_EQ(evidence_kind_for(Errc::identity_mismatch),
            EvidenceKind::identity_mismatch);
  EXPECT_EQ(evidence_kind_for(Errc::unknown_peer),
            EvidenceKind::unknown_sender);
  EXPECT_EQ(evidence_kind_for(Errc::denied), EvidenceKind::join_denied);
  EXPECT_EQ(evidence_kind_for(Errc::malformed), EvidenceKind::malformed);
  EXPECT_EQ(evidence_kind_for(Errc::truncated), EvidenceKind::malformed);
}

TEST(SecurityLedgerUnit, KindNamesAllDistinct) {
  std::set<std::string_view> names;
  for (int k = 0; k <= static_cast<int>(EvidenceKind::malformed); ++k) {
    std::string_view name =
        evidence_kind_name(static_cast<EvidenceKind>(k));
    EXPECT_FALSE(name.empty());
    names.insert(name);
    std::string_view metric =
        evidence_metric_name(static_cast<EvidenceKind>(k));
    EXPECT_EQ(metric.substr(0, 9), "refusals_");
  }
  EXPECT_EQ(names.size(),
            static_cast<std::size_t>(EvidenceKind::malformed) + 1);
}

TEST(TraceKindNames, AllDistinct) {
  // Every kind renders to a distinct, non-"unknown" name (JSONL consumers
  // key on it).
  std::set<std::string_view> names;
  for (int k = 0; k <= static_cast<int>(TraceKind::fault_delay); ++k) {
    std::string_view name = trace_kind_name(static_cast<TraceKind>(k));
    EXPECT_NE(name, "unknown");
    names.insert(name);
  }
  EXPECT_EQ(names.size(),
            static_cast<std::size_t>(TraceKind::fault_delay) + 1);
}

// ---------------------------------------------------------------------------
// Wall-clock profiler (obs/prof.h).

TEST(Profiler, ScopesAggregateAndNest) {
  Profiler prof;
  {
    ScopedProfSink sink(prof);
    for (int i = 0; i < 3; ++i) {
      PROF_SCOPE("outer");
      PROF_SCOPE("inner");
    }
    PROF_SCOPE("outer");
  }
  auto snap = prof.snapshot();
  ASSERT_EQ(snap.scopes.size(), 2u);
  const ProfStat& outer = snap.scopes.at("outer");
  const ProfStat& inner = snap.scopes.at("outer;inner");
  EXPECT_EQ(outer.count, 4u);
  EXPECT_EQ(inner.count, 3u);
  // Flamegraph identity: a parent's self time excludes profiled children.
  EXPECT_LE(outer.self_ns + inner.total_ns, outer.total_ns + inner.total_ns);
  EXPECT_GE(outer.total_ns, inner.total_ns);
  EXPECT_LE(outer.min_ns, outer.max_ns);
}

TEST(Profiler, QuietWithoutSink) {
  // No sink: PROF_SCOPE must record nothing and never touch a registry
  // attached only later (mid-scope attach stays inert for open scopes).
  Profiler prof;
  {
    PROF_SCOPE("ghost");
    ScopedProfSink sink(prof);
  }  // ghost closes while attached, but was opened detached
  EXPECT_TRUE(prof.snapshot().scopes.empty());
}

TEST(Profiler, BytesDimensionSumsInsideInnermostScope) {
  Profiler prof;
  {
    ScopedProfSink sink(prof);
    PROF_SCOPE("wire");
    prof_bytes(100);
    prof_bytes(28);
  }
  EXPECT_EQ(prof.snapshot().scopes.at("wire").bytes, 128u);
  prof_bytes(999);  // outside any scope: dropped, not crashed
  EXPECT_EQ(prof.snapshot().scopes.at("wire").bytes, 128u);
}

TEST(Profiler, ConcurrentScopesFromManyThreads) {
  // The scope stack is thread-local and record() locks: N threads hammering
  // the same paths must produce exact aggregate counts (runs under TSan in
  // CI, which is the real assertion here).
  Profiler prof;
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  {
    ScopedProfSink sink(prof);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        for (int i = 0; i < kIters; ++i) {
          PROF_SCOPE("mt/outer");
          prof_bytes(1);
          PROF_SCOPE("mt/inner");
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  auto snap = prof.snapshot();
  EXPECT_EQ(snap.scopes.at("mt/outer").count,
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(snap.scopes.at("mt/outer").bytes,
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(snap.scopes.at("mt/outer;mt/inner").count,
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(ProfSnapshot, JsonRoundTrip) {
  Profiler prof;
  {
    ScopedProfSink sink(prof);
    PROF_SCOPE("a/b");
    PROF_SCOPE("c");
  }
  auto snap = prof.snapshot();
  auto back = ProfSnapshot::from_json(snap.to_json());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, snap);
}

TEST(ProfSnapshot, HostileScopeNamesSurviveExports) {
  // Quotes/backslashes are JSON-escaped; the folded separator ';' and
  // whitespace/control bytes are sanitised at path-build time so every
  // folded line stays exactly two tokens.
  Profiler prof;
  {
    ScopedProfSink sink(prof);
    PROF_SCOPE("evil\"quote\\back;semi space\ttab\nnl");
  }
  auto snap = prof.snapshot();
  ASSERT_EQ(snap.scopes.size(), 1u);
  const std::string& path = snap.scopes.begin()->first;
  EXPECT_EQ(path, "evil\"quote\\back:semi_space_tab_nl");

  auto back = ProfSnapshot::from_json(snap.to_json());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, snap);

  const std::string folded = snap.to_folded();
  ASSERT_FALSE(folded.empty());
  // Exactly one line of exactly two space-separated tokens.
  const std::size_t nl = folded.find('\n');
  ASSERT_EQ(nl, folded.size() - 1);
  std::string line = folded.substr(0, nl);
  const std::size_t sp = line.find(' ');
  ASSERT_NE(sp, std::string::npos);
  EXPECT_EQ(line.find(' ', sp + 1), std::string::npos);
  EXPECT_EQ(line.substr(0, sp), path);
}

TEST(ProfSnapshot, FromJsonRejectsMalformed) {
  EXPECT_FALSE(ProfSnapshot::from_json("").ok());
  EXPECT_FALSE(ProfSnapshot::from_json("{}").ok());
  EXPECT_FALSE(ProfSnapshot::from_json("{\"scopes\": [}").ok());
  EXPECT_FALSE(
      ProfSnapshot::from_json("{\"scopes\": [{\"count\": 1}]}").ok());
  EXPECT_FALSE(ProfSnapshot::from_json(
                   "{\"scopes\": [{\"path\": \"x\", \"bogus\": 2}]}")
                   .ok());
  EXPECT_FALSE(ProfSnapshot::from_json("{\"scopes\": []} trailing").ok());
  EXPECT_TRUE(ProfSnapshot::from_json("{\"scopes\": []}").ok());
}

TEST(ProfSnapshot, FromJsonRejectsOutOfRangeIntegers) {
  auto parsed = ProfSnapshot::from_json(
      "{\"scopes\": [{\"path\": \"x\", \"count\": 18446744073709551616}]}");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, Errc::malformed);
}

// --- obs::emit and the per-event table -------------------------------

Event event_at(std::size_t i) { return static_cast<Event>(i); }

TEST(EmitTable, RowsAreNamedAndProduceSomething) {
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < kEventCount; ++i) {
    const EventRow& row = event_row(event_at(i));
    EXPECT_FALSE(row.name.empty()) << i;
    EXPECT_TRUE(names.insert(row.name).second) << row.name;
    EXPECT_TRUE(!row.counter.empty() || row.trace || row.evidence)
        << row.name << " produces nothing";
  }
}

// With every sink attached, one emit of each event produces exactly its row:
// its counter, the security.* trio when the row has evidence, one trace
// event of its kind and one ledger entry of its kind — and nothing else.
TEST(EmitTable, EachEventProducesExactlyItsRow) {
  for (std::size_t i = 0; i < kEventCount; ++i) {
    const EventRow& row = event_row(event_at(i));
    SCOPED_TRACE(std::string(row.name));
    MetricsRegistry metrics;
    TraceLog trace;
    SecurityLedger ledger;
    {
      ScopedMetricsSink metrics_sink(metrics);
      ScopedTraceSink trace_sink(trace);
      ScopedSecurityLedger ledger_sink(ledger);
      emit(event_at(i), 7, "G", "A", "P", "why", 3);
    }

    std::map<MetricKey, std::uint64_t> counters;
    std::map<MetricKey, std::int64_t> gauges;
    if (!row.counter.empty()) {
      const std::string_view group =
          row.counter_group.empty() ? "G" : row.counter_group;
      const std::string_view agent =
          row.counter_agent.empty() ? "A" : row.counter_agent;
      counters[MetricKey{std::string(group), std::string(agent),
                         std::string(row.counter)}] = 1;
    }
    if (row.evidence) {
      counters[MetricKey{"security", "A", "refusals_total"}] = 1;
      counters[MetricKey{"security", "A",
                         std::string(evidence_metric_name(*row.evidence))}] =
          1;
      counters[MetricKey{"security", "P", "suspicion_total"}] = 1;
      gauges[MetricKey{"security", "P", "suspicion"}] = 1;
    }
    const MetricsSnapshot snap = metrics.snapshot();
    EXPECT_EQ(snap.counters, counters);
    EXPECT_EQ(snap.gauges, gauges);
    EXPECT_TRUE(snap.histograms.empty());

    const auto events = trace.events();
    if (row.trace) {
      ASSERT_EQ(events.size(), 1u);
      EXPECT_EQ(events[0],
                (TraceEvent{7, *row.trace, "G", "A", "P", "why", 3}));
    } else {
      EXPECT_TRUE(events.empty());
    }

    const auto entries = ledger.entries();
    if (row.evidence) {
      ASSERT_EQ(entries.size(), 1u);
      EXPECT_EQ(entries[0],
                (SecurityEvidence{7, *row.evidence, "G", "A", "P", "why", 3}));
    } else {
      EXPECT_TRUE(entries.empty());
    }
  }
}

TEST(EmitTable, SiteChosenEvidenceReplacesTheRowDefault) {
  MetricsRegistry metrics;
  SecurityLedger ledger;
  {
    ScopedMetricsSink metrics_sink(metrics);
    ScopedSecurityLedger ledger_sink(ledger);
    emit(Event::auth_reject, evidence_kind_for(Errc::stale), 1, "G", "A",
         "P", "AuthAckKey");
  }
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger.entries()[0].kind, EvidenceKind::stale_nonce);
  EXPECT_EQ(metrics.counter("G", "A", "auth_rejects_total"), 1u);
  EXPECT_EQ(metrics.counter("security", "A", "refusals_stale_nonce_total"),
            1u);
  EXPECT_EQ(metrics.counter("security", "A", "refusals_bad_label_total"), 0u);
}

// The cost-model claim in event.h, trace.h and security.h: with every sink
// detached, reporting builds no strings and allocates nothing.
TEST(EmitTable, FreeWhenEverySinkDetached) {
  ASSERT_EQ(metrics_sink(), nullptr);
  ASSERT_EQ(trace_sink(), nullptr);
  ASSERT_EQ(security_sink(), nullptr);
  // Longer than any small-string buffer, so a copy would have to allocate.
  const std::string_view long_text =
      "a detail long enough that copying it into a std::string allocates";

  g_allocations = 0;
  g_count_allocations = true;
  for (std::size_t i = 0; i < kEventCount; ++i) {
    emit(event_at(i), 1, long_text, long_text, long_text, long_text, 2);
    emit(event_at(i), EvidenceKind::malformed, 1, long_text, long_text,
         long_text, long_text, 2);
  }
  trace(1, TraceKind::join, long_text, long_text, long_text, long_text, 2);
  security_event(1, EvidenceKind::malformed, long_text, long_text, long_text,
                 long_text, 2);
  count(long_text, long_text, long_text);
  g_count_allocations = false;
  EXPECT_EQ(g_allocations, 0u);

  // The counter itself works: the same call with a sink attached allocates.
  TraceLog log;
  ScopedTraceSink sink(log);
  g_allocations = 0;
  g_count_allocations = true;
  emit(Event::join, 1, long_text, long_text, long_text, long_text, 2);
  g_count_allocations = false;
  EXPECT_GT(g_allocations, 0u);
}


// --- Interned handles: Counter / Histogram, EventCounters, PROF_SCOPE sites

// Once every site has resolved its cell or interned its scope name, the
// attached hot path builds no strings and allocates nothing.
TEST(InternedHandles, AttachedHotPathAllocatesNothing) {
  MetricsRegistry metrics;
  Profiler prof;
  ScopedMetricsSink metrics_sink(metrics);
  ScopedProfSink prof_sink(prof);
  static constinit Counter counter{"g", "a", "handle_total"};
  static constinit Histogram histogram{"g", "a", "handle_bytes"};
  EventCounters counters;
  // Longer than any small-string buffer, so building a key would allocate.
  const std::string_view group = "a group name long enough to need the heap";
  const std::string_view agent = "an agent name long enough to need the heap";
  auto hot_path = [&] {
    counter.add();
    histogram.observe(40);
    count(group, agent, "ops_total");
    gauge_set(group, agent, "depth", 3);
    observe(group, agent, "lat", 7);
    emit(counters, Event::join, 1, group, agent, "P");
    emit(Event::join, 1, group, agent, "P");
    PROF_SCOPE("alloc/outer");
    prof_bytes(1);
    PROF_SCOPE("alloc/middle");
    PROF_SCOPE("alloc/inner");
    prof_bytes(2);
  };
  hot_path();  // resolves every cell, interns every name, grows the tree

  g_allocations = 0;
  g_count_allocations = true;
  for (int i = 0; i < 10; ++i) hot_path();
  g_count_allocations = false;
  EXPECT_EQ(g_allocations, 0u);

  // Nothing was skipped to get there.
  EXPECT_EQ(metrics.counter("g", "a", "handle_total"), 11u);
  EXPECT_EQ(metrics.histogram("g", "a", "handle_bytes").sum, 440u);
  EXPECT_EQ(metrics.counter(group, agent, "ops_total"), 11u);
  EXPECT_EQ(metrics.gauge(group, agent, "depth"), 3);
  EXPECT_EQ(metrics.histogram(group, agent, "lat").count, 11u);
  EXPECT_EQ(metrics.counter(group, agent, "joins_total"), 22u);
  const ProfSnapshot snap = prof.snapshot();
  EXPECT_EQ(snap.scopes.at("alloc/outer").bytes, 11u);
  EXPECT_EQ(snap.scopes.at("alloc/outer;alloc/middle;alloc/inner").count,
            11u);
  EXPECT_EQ(snap.scopes.at("alloc/outer;alloc/middle;alloc/inner").bytes,
            22u);
}

// A handle resolved against registry A, with A detached and destroyed,
// bumps the next registry (ASan would catch a write into A's freed cells).
// The same holds for an EventCounters table and a thread's profiler tree.
TEST(InternedHandles, HandlesFollowTheSinkToTheNextRegistry) {
  static constinit Counter counter{"g", "a", "lifetime_total"};
  EventCounters counters;
  auto a = std::make_unique<MetricsRegistry>();
  auto pa = std::make_unique<Profiler>();
  set_metrics_sink(a.get());
  set_prof_sink(pa.get());
  counter.add(5);
  emit(counters, Event::join, 1, "G", "A");
  { PROF_SCOPE("lifetime"); }
  EXPECT_EQ(a->counter("g", "a", "lifetime_total"), 5u);
  EXPECT_EQ(a->counter("G", "A", "joins_total"), 1u);
  set_prof_sink(nullptr);
  set_metrics_sink(nullptr);
  a.reset();
  pa.reset();

  MetricsRegistry b;
  Profiler pb;
  {
    ScopedMetricsSink metrics_sink(b);
    ScopedProfSink prof_sink(pb);
    counter.add();
    emit(counters, Event::join, 2, "G", "A");
    PROF_SCOPE("lifetime");
  }
  EXPECT_EQ(b.counter("g", "a", "lifetime_total"), 1u);
  EXPECT_EQ(b.counter("G", "A", "joins_total"), 1u);
  EXPECT_EQ(pb.snapshot().scopes.at("lifetime").count, 1u);
}

TEST(InternedHandles, ResetEmptiesTheSinkAndHandlesStartOver) {
  static constinit Counter counter{"g", "a", "reset_total"};
  MetricsRegistry metrics;
  Profiler prof;
  ScopedMetricsSink metrics_sink(metrics);
  ScopedProfSink prof_sink(prof);
  for (int i = 0; i < 3; ++i) {
    counter.add();
    PROF_SCOPE("reset");
  }
  metrics.reset();
  prof.reset();
  EXPECT_EQ(metrics.snapshot(), MetricsSnapshot{});
  EXPECT_TRUE(prof.snapshot().scopes.empty());

  counter.add();
  { PROF_SCOPE("reset"); }
  EXPECT_EQ(metrics.counter("g", "a", "reset_total"), 1u);
  EXPECT_EQ(prof.snapshot().scopes.at("reset").count, 1u);
}

// Eight threads share one handle and one scope path while the main thread
// snapshots; the final sums are exact (the TSan job is the real check).
TEST(InternedHandles, ConcurrentBumpsAndScopesSumExactly) {
  static constinit Counter counter{"g", "a", "mt_total"};
  MetricsRegistry metrics;
  Profiler prof;
  constexpr int kThreads = 8;
  constexpr int kIters = 1000;
  {
    ScopedMetricsSink metrics_sink(metrics);
    ScopedProfSink prof_sink(prof);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        for (int i = 0; i < kIters; ++i) {
          PROF_SCOPE("mt/handle");
          counter.add();
        }
      });
    }
    for (int i = 0; i < 20; ++i) {
      (void)metrics.snapshot();
      (void)prof.snapshot();
    }
    for (auto& th : threads) th.join();
  }
  constexpr auto kTotal = static_cast<std::uint64_t>(kThreads) * kIters;
  EXPECT_EQ(metrics.counter("g", "a", "mt_total"), kTotal);
  const ProfSnapshot snap = prof.snapshot();
  ASSERT_EQ(snap.scopes.size(), 1u);
  EXPECT_EQ(snap.scopes.at("mt/handle").count, kTotal);
}

TEST(ProfSnapshot, ThreadsSharingAPathMergeIntoOneEntry) {
  Profiler prof;
  {
    ScopedProfSink sink(prof);
    auto work = [](int n) {
      for (int i = 0; i < n; ++i) {
        PROF_SCOPE("shared/outer");
        PROF_SCOPE("shared/inner");
        prof_bytes(4);
      }
    };
    std::thread t1(work, 3);
    std::thread t2(work, 5);
    t1.join();
    t2.join();
  }
  const ProfSnapshot snap = prof.snapshot();
  ASSERT_EQ(snap.scopes.size(), 2u);
  const ProfStat& inner = snap.scopes.at("shared/outer;shared/inner");
  EXPECT_EQ(inner.count, 8u);
  EXPECT_EQ(inner.bytes, 32u);
  EXPECT_LE(inner.min_ns, inner.max_ns);
  EXPECT_EQ(snap.scopes.at("shared/outer").count, 8u);
}

}  // namespace
}  // namespace enclaves::obs
