// Metrics/health exposition server: the live telemetry plane's front door.
//
// Binds the Prometheus renderer (obs/export.h), the HealthMonitor verdict
// (obs/health.h) and the FlightRecorder (obs/flight.h) to an HttpServer
// (net/http.h). Five routes:
//
//   GET /metrics  -> render_prometheus(registry.snapshot()), content type
//                    "text/plain; version=0.0.4; charset=utf-8"
//   GET /health   -> the HealthMonitor verdict as JSON; HTTP 200 while the
//                    worst state is healthy/degraded, 503 once any group is
//                    partitioned or under_attack (load balancers and probes
//                    get the right signal without parsing the body)
//   GET /flight   -> FlightRecorder::status_json() (last dump, incident id,
//                    drop accounting); 404 when no recorder is wired
//   GET /dump     -> triggers FlightRecorder::dump_now("http") and answers
//                    {"dumped":..,"path":..,"incident":..}; the on-demand
//                    counterpart to SIGUSR1
//   GET /         -> a plain-text index naming the others
//
// The server never mutates anything it serves: the registry snapshot is
// taken per request, the verdict is whatever the caller's monitor last
// evaluated. Driving the monitor stays the owner's job (it has the
// VirtualClock; this class has no clock at all).
//
// Deterministic in-process mode: respond() routes a request without any
// sockets — tests and enclaves_top's replay path call it directly under a
// VirtualClock, so every assertion about bodies and status codes runs with
// zero network nondeterminism. start()/poll_once()/run_for() add the real
// loopback listener on top, reusing the same respond().
#pragma once

#include <cstdint>

#include "net/http.h"
#include "obs/export.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "util/result.h"

namespace enclaves::obs {

class FlightRecorder;

class ExpositionServer {
 public:
  struct Options {
    std::uint16_t port = 0;  // 0 = ephemeral
    std::size_t max_connections = 8;
  };

  /// `registry` must outlive the server. `monitor` may be nullptr (then
  /// /health reports healthy with zero groups — a registry-only deployment).
  explicit ExpositionServer(const MetricsRegistry& registry,
                            const HealthMonitor* monitor = nullptr);
  ExpositionServer(const MetricsRegistry& registry,
                   const HealthMonitor* monitor, Options options);

  /// Wires the /flight and /dump routes to `recorder` (nullptr unwires —
  /// both routes then answer 404). The recorder must outlive the server.
  /// /dump mutates the recorder (writes a blob), which is why it is the
  /// one non-const pointer the server holds.
  void set_flight_recorder(FlightRecorder* recorder) { flight_ = recorder; }

  /// Routes one request in-process (no sockets). This is the entire
  /// behaviour of the server; the socket path just parses bytes into the
  /// same call.
  net::HttpResponse respond(const net::HttpRequest& request) const;

  /// Starts the loopback listener; returns the bound port.
  Result<std::uint16_t> start();

  std::size_t poll_once(int timeout_ms) { return http_.poll_once(timeout_ms); }
  void run_for(int deadline_ms) { http_.run_for(deadline_ms); }
  void stop() { http_.stop(); }

  bool listening() const { return http_.listening(); }
  std::uint16_t port() const { return http_.port(); }
  std::uint64_t requests_served() const { return http_.requests_served(); }
  std::uint64_t connections_rejected() const {
    return http_.connections_rejected();
  }

 private:
  const MetricsRegistry& registry_;
  const HealthMonitor* monitor_;
  FlightRecorder* flight_ = nullptr;
  Options options_;
  net::HttpServer http_;
};

}  // namespace enclaves::obs
