#include "obs/export_server.h"

#include "obs/flight.h"
#include "obs/json_escape.h"

namespace enclaves::obs {

ExpositionServer::ExpositionServer(const MetricsRegistry& registry,
                                   const HealthMonitor* monitor)
    : ExpositionServer(registry, monitor, Options{}) {}

ExpositionServer::ExpositionServer(const MetricsRegistry& registry,
                                   const HealthMonitor* monitor,
                                   Options options)
    : registry_(registry), monitor_(monitor), options_(options) {
  http_.set_max_connections(options_.max_connections);
  http_.set_handler(
      [this](const net::HttpRequest& request) { return respond(request); });
}

net::HttpResponse ExpositionServer::respond(
    const net::HttpRequest& request) const {
  net::HttpResponse response;
  if (request.target == "/metrics") {
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = render_prometheus(registry_.snapshot());
    return response;
  }
  if (request.target == "/health") {
    response.content_type = "application/json";
    if (monitor_ == nullptr) {
      response.body =
          "{\"tick\":0,\"windows\":0,\"state\":\"healthy\",\"groups\":{}}";
      return response;
    }
    const HealthVerdict& verdict = monitor_->verdict();
    response.body = verdict.to_json();
    if (verdict.worst() >= HealthState::partitioned) {
      response.status = 503;  // partitioned or under_attack
    }
    return response;
  }
  if (request.target == "/flight") {
    if (flight_ == nullptr) {
      response.status = 404;
      response.body = "no flight recorder\n";
      return response;
    }
    response.content_type = "application/json";
    response.body = flight_->status_json();
    return response;
  }
  if (request.target == "/dump") {
    if (flight_ == nullptr) {
      response.status = 404;
      response.body = "no flight recorder\n";
      return response;
    }
    bool dumped = flight_->dump_now("http");
    response.content_type = "application/json";
    response.body = "{\"dumped\":";
    response.body += dumped ? "true" : "false";
    response.body += ",\"path\":";
    append_json_string(response.body, flight_->last_dump_path());
    response.body += ",\"incident\":";
    append_json_string(response.body, FlightRecorder::current_incident());
    response.body += '}';
    if (!dumped) response.status = 503;  // max_dumps reached / write failed
    return response;
  }
  if (request.target == "/" || request.target == "/index") {
    response.body =
        "enclaves telemetry\n"
        "  /metrics  Prometheus text exposition\n"
        "  /health   HealthMonitor verdict (JSON)\n"
        "  /flight   FlightRecorder status (JSON)\n"
        "  /dump     write a flight dump now (JSON)\n";
    return response;
  }
  response.status = 404;
  response.body = "not found\n";
  return response;
}

Result<std::uint16_t> ExpositionServer::start() {
  return http_.listen(options_.port);
}

}  // namespace enclaves::obs
