// Exposition-layer tests: Prometheus escaping round-trips (hostile agent ids
// survive byte-exactly), renderer/parser round-trips, the rolling-window
// Aggregator, the first-class trace/ledger gauges, and the ExpositionServer
// in both its deterministic in-process mode and over a real loopback socket.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/http.h"
#include "obs/export.h"
#include "obs/export_server.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/record.h"

namespace enclaves::obs {
namespace {

// --------------------------------------------------------------------------
// Label escaping.

TEST(PromEscape, EscapesExactlyTheDefinedSet) {
  EXPECT_EQ(prom_escape("plain-id_42"), "plain-id_42");
  EXPECT_EQ(prom_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(prom_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(prom_escape("line1\nline2"), "line1\\nline2");
  // Control bytes and UTF-8 pass through raw — the format only defines
  // three escapes, and inventing more would break byte-exact round-trips.
  EXPECT_EQ(prom_escape("\x01\x7f\xc3\xa9"), "\x01\x7f\xc3\xa9");
}

TEST(PromEscape, RoundTripsHostileBytes) {
  const std::string hostile =
      "mal\\ic\"ious\nagent\r\t\x01\x02\x7f{},= end";
  auto back = prom_unescape(prom_escape(hostile));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, hostile);  // byte-exact
}

TEST(PromEscape, UnescapeRejectsMalformed) {
  EXPECT_FALSE(prom_unescape("dangling\\").ok());
  EXPECT_FALSE(prom_unescape("unknown\\t").ok());
}

TEST(PromEscape, SanitizeName) {
  EXPECT_EQ(prom_sanitize_name("join_latency_ticks"), "join_latency_ticks");
  EXPECT_EQ(prom_sanitize_name("weird name!"), "weird_name_");
  EXPECT_EQ(prom_sanitize_name("9lives"), "_lives");
  EXPECT_EQ(prom_sanitize_name(""), "_");
}

// --------------------------------------------------------------------------
// Rendering.

TEST(PromRender, CounterAndGaugeFamilies) {
  MetricsRegistry registry;
  registry.add("L", "alice", "retransmits_total", 3);
  registry.add("L", "bob", "retransmits_total", 1);
  registry.set_gauge("L", "L", "members", 2);

  const std::string text = render_prometheus(registry.snapshot());
  EXPECT_NE(text.find("# HELP enclaves_retransmits_total "), std::string::npos);
  EXPECT_NE(text.find("# TYPE enclaves_retransmits_total counter"),
            std::string::npos);
  EXPECT_NE(text.find(
                "enclaves_retransmits_total{group=\"L\",agent=\"alice\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE enclaves_members gauge"), std::string::npos);
  EXPECT_NE(text.find("enclaves_members{group=\"L\",agent=\"L\"} 2"),
            std::string::npos);
}

TEST(PromRender, HistogramBucketsAreCumulative) {
  MetricsRegistry registry;
  const std::vector<std::uint64_t> bounds{1, 4, 16};
  registry.observe("L", "alice", "join_latency_ticks", 1, bounds);
  registry.observe("L", "alice", "join_latency_ticks", 3, bounds);
  registry.observe("L", "alice", "join_latency_ticks", 100, bounds);

  const std::string text = render_prometheus(registry.snapshot());
  EXPECT_NE(text.find("# TYPE enclaves_join_latency_ticks histogram"),
            std::string::npos);
  EXPECT_NE(
      text.find("enclaves_join_latency_ticks_bucket{group=\"L\","
                "agent=\"alice\",le=\"1\"} 1"),
      std::string::npos);
  EXPECT_NE(
      text.find("enclaves_join_latency_ticks_bucket{group=\"L\","
                "agent=\"alice\",le=\"4\"} 2"),
      std::string::npos);
  EXPECT_NE(
      text.find("enclaves_join_latency_ticks_bucket{group=\"L\","
                "agent=\"alice\",le=\"+Inf\"} 3"),
      std::string::npos);
  EXPECT_NE(text.find("enclaves_join_latency_ticks_sum{group=\"L\","
                      "agent=\"alice\"} 104"),
            std::string::npos);
  EXPECT_NE(text.find("enclaves_join_latency_ticks_count{group=\"L\","
                      "agent=\"alice\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("enclaves_join_latency_ticks_quantile{group=\"L\","
                      "agent=\"alice\",quantile=\"0.5\"}"),
            std::string::npos);
}

// --------------------------------------------------------------------------
// Parse / round-trip.

TEST(PromRoundTrip, CountersAndGaugesSurviveHostileLabels) {
  const std::string hostile = "mal\\ic\"ious\nagent\x01\x02 {}, =";
  MetricsRegistry registry;
  registry.add("L", hostile, "data_rejects_total", 7);
  registry.add("L", "alice", "retransmits_total", 2);
  registry.set_gauge("security", hostile, "suspicion", 9);
  const std::vector<std::uint64_t> bounds{1, 4};
  registry.observe("L", "alice", "join_latency_ticks", 2, bounds);
  const MetricsSnapshot original = registry.snapshot();

  auto families = parse_prometheus(render_prometheus(original));
  ASSERT_TRUE(families.ok()) << families.error().to_string();
  auto rebuilt = snapshot_from_prometheus(*families, "enclaves_");
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.error().to_string();

  EXPECT_EQ(rebuilt->counters, original.counters);
  EXPECT_EQ(rebuilt->gauges, original.gauges);
  EXPECT_TRUE(rebuilt->histograms.empty());  // documented lossy subset
}

TEST(PromParse, RejectsGarbage) {
  EXPECT_FALSE(parse_prometheus("no_type_line{a=\"b\"} 1\n").ok());
  EXPECT_FALSE(
      parse_prometheus("# TYPE m counter\nm{a=\"b\"} not_a_number\n")
          .ok());
  EXPECT_FALSE(
      parse_prometheus("# TYPE m counter\nm{a=\"unterminated} 1\n")
          .ok());
}

TEST(PromParse, AcceptsForeignButWellFormedText) {
  auto families = parse_prometheus(
      "# random comment\n"
      "# HELP up 1 if the target is up\n"
      "# TYPE up gauge\n"
      "up 1\n"
      "# TYPE rpc_seconds histogram\n"
      "rpc_seconds_bucket{le=\"0.1\"} 2\n"
      "rpc_seconds_sum 0.33\n"
      "rpc_seconds_count 2\n");
  ASSERT_TRUE(families.ok()) << families.error().to_string();
  ASSERT_EQ(families->size(), 2u);
  EXPECT_EQ((*families)[0].name, "up");
  EXPECT_EQ((*families)[0].samples.size(), 1u);
  EXPECT_EQ((*families)[1].samples.size(), 3u);
}

// --------------------------------------------------------------------------
// Aggregator.

MetricsSnapshot snapshot_with(std::uint64_t alice_retrans,
                              std::uint64_t bob_retrans) {
  MetricsSnapshot snap;
  snap.counters[MetricKey{"L", "alice", "retransmits_total"}] = alice_retrans;
  snap.counters[MetricKey{"L", "bob", "retransmits_total"}] = bob_retrans;
  snap.gauges[MetricKey{"L", "L", "members"}] =
      static_cast<std::int64_t>(alice_retrans);
  return snap;
}

TEST(Aggregator, DeltasRatesAndSeries) {
  Aggregator agg;
  agg.observe(10, snapshot_with(0, 0));
  agg.observe(20, snapshot_with(4, 1));
  agg.observe(30, snapshot_with(10, 1));

  const MetricKey alice{"L", "alice", "retransmits_total"};
  EXPECT_EQ(agg.samples(), 3u);
  EXPECT_EQ(agg.window_ticks(), 20u);
  EXPECT_EQ(agg.delta(alice), 10u);
  EXPECT_EQ(agg.delta_total("retransmits_total"), 11u);
  EXPECT_DOUBLE_EQ(agg.rate_per_tick(alice), 0.5);
  EXPECT_EQ(agg.series(alice), (std::vector<std::uint64_t>{4, 6}));
  EXPECT_EQ(agg.series_total("retransmits_total"),
            (std::vector<std::uint64_t>{5, 6}));
  EXPECT_EQ(agg.latest_gauge(MetricKey{"L", "L", "members"}), 10);
}

TEST(Aggregator, ClampsOnCounterResetAndEvictsOldSamples) {
  Aggregator agg(2);
  agg.observe(10, snapshot_with(100, 0));
  agg.observe(20, snapshot_with(3, 0));  // registry reset behind the endpoint
  const MetricKey alice{"L", "alice", "retransmits_total"};
  EXPECT_EQ(agg.delta(alice), 0u);  // clamped, not underflowed
  EXPECT_EQ(agg.series(alice), (std::vector<std::uint64_t>{0}));

  agg.observe(30, snapshot_with(5, 0));
  EXPECT_EQ(agg.samples(), 2u);  // oldest evicted
  EXPECT_EQ(agg.delta(alice), 2u);
}

// --------------------------------------------------------------------------
// Satellite metrics: event-store drops and ledger suspicion on /metrics.

TEST(SatelliteGauges, TraceDroppedEventsIsExported) {
  MetricsRegistry registry;
  ScopedMetricsSink metrics_sink(registry);
  EventStore log;
  log.set_capacity(2);
  for (int i = 0; i < 5; ++i)
    log.append(Record{static_cast<Tick>(i), TraceKind::retransmit, {}, "L",
                      "alice", "", "", 0});
  EXPECT_EQ(log.dropped_events(), 3u);
  EXPECT_EQ(registry.gauge("obs", "events", "dropped_events"), 3);
  EXPECT_NE(render_prometheus(registry.snapshot())
                .find("enclaves_dropped_events{group=\"obs\","
                      "agent=\"events\"} 3"),
            std::string::npos);
}

TEST(SatelliteGauges, LedgerSuspicionIsExportedPerPeer) {
  MetricsRegistry registry;
  ScopedMetricsSink metrics_sink(registry);
  EventStore ledger;
  ScopedEventSink ledger_sink(ledger);
  security_event(5, EvidenceKind::replayed_seq, "L", "alice", "mallory");
  security_event(6, EvidenceKind::stale_nonce, "L", "bob", "mallory");
  security_event(7, EvidenceKind::malformed, "L", "bob", "");  // unattributed

  // One per-peer series: the suspicion_total counter HealthMonitor reads.
  EXPECT_EQ(ledger.suspicion("mallory"), 2u);
  EXPECT_EQ(registry.counter("security", "mallory", "suspicion_total"), 2u);
  EXPECT_TRUE(registry.snapshot().gauges.empty());
  EXPECT_NE(render_prometheus(registry.snapshot())
                .find("enclaves_suspicion_total{group=\"security\","
                      "agent=\"mallory\"} 2"),
            std::string::npos);
}

// --------------------------------------------------------------------------
// ExpositionServer: deterministic in-process mode.

TEST(ExpositionServer, InProcessRoutes) {
  MetricsRegistry registry;
  registry.add("L", "alice", "retransmits_total", 2);
  HealthMonitor monitor;
  monitor.observe(16, registry.snapshot());
  ExpositionServer server(registry, &monitor);

  net::HttpResponse metrics = server.respond({"GET", "/metrics"});
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, "text/plain; version=0.0.4; charset=utf-8");
  auto families = parse_prometheus(metrics.body);
  ASSERT_TRUE(families.ok()) << families.error().to_string();
  EXPECT_FALSE(families->empty());

  net::HttpResponse health = server.respond({"GET", "/health"});
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.content_type, "application/json");
  EXPECT_NE(health.body.find("\"state\":\"healthy\""), std::string::npos);

  EXPECT_EQ(server.respond({"GET", "/nope"}).status, 404);
  EXPECT_EQ(server.respond({"GET", "/"}).status, 200);
}

TEST(ExpositionServer, HealthReports503WhenPartitionedOrWorse) {
  MetricsRegistry registry;
  registry.add("L", "m2", "data_delivered_total", 1);
  registry.add("security", "m2", "suspicion_total", 9);  // >= attack threshold
  HealthMonitor monitor;
  monitor.observe(16, registry.snapshot());
  ASSERT_EQ(monitor.peer_state("L", "m2"), HealthState::under_attack);

  ExpositionServer server(registry, &monitor);
  net::HttpResponse health = server.respond({"GET", "/health"});
  EXPECT_EQ(health.status, 503);
  EXPECT_NE(health.body.find("\"state\":\"under_attack\""),
            std::string::npos);
}

TEST(ExpositionServer, NullMonitorServesEmptyHealthyVerdict) {
  MetricsRegistry registry;
  ExpositionServer server(registry, nullptr);
  net::HttpResponse health = server.respond({"GET", "/health"});
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"state\":\"healthy\""), std::string::npos);
}

// --------------------------------------------------------------------------
// ExpositionServer over a real loopback socket.

std::string blocking_get(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string reply;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

TEST(ExpositionServer, ServesMetricsOverLoopback) {
  MetricsRegistry registry;
  registry.add("L", "alice", "retransmits_total", 5);
  ExpositionServer server(registry, nullptr);
  auto port = server.start();
  ASSERT_TRUE(port.ok()) << port.error().to_string();

  std::string reply;
  std::atomic<bool> done{false};
  std::thread client([&] {
    reply = blocking_get(*port, "/metrics");
    done = true;
  });
  for (int i = 0; i < 4000 && !done; ++i) server.poll_once(5);
  client.join();
  server.stop();

  ASSERT_NE(reply.find("HTTP/1.0 200 OK"), std::string::npos) << reply;
  const std::size_t split = reply.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos);
  auto families = parse_prometheus(reply.substr(split + 4));
  ASSERT_TRUE(families.ok()) << families.error().to_string();
  auto rebuilt = snapshot_from_prometheus(*families, "enclaves_");
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(
      rebuilt->counters.at(MetricKey{"L", "alice", "retransmits_total"}), 5u);
}

TEST(ExpositionServer, OverBoundConnectionsAreAnswered503) {
  MetricsRegistry registry;
  ExpositionServer::Options options;
  options.max_connections = 0;  // every connection is over-bound
  ExpositionServer server(registry, nullptr, options);
  auto port = server.start();
  ASSERT_TRUE(port.ok()) << port.error().to_string();

  std::string reply;
  std::atomic<bool> done{false};
  std::thread client([&] {
    reply = blocking_get(*port, "/metrics");
    done = true;
  });
  for (int i = 0; i < 4000 && !done; ++i) server.poll_once(5);
  client.join();
  server.stop();
  EXPECT_GE(server.connections_rejected(), 1u);

  EXPECT_NE(reply.find("HTTP/1.0 503"), std::string::npos) << reply;
}

}  // namespace
}  // namespace enclaves::obs
