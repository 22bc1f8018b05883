#include "net/trace_chart.h"

#include <sstream>

namespace enclaves::net {

std::string format_sequence_chart(const std::vector<Packet>& log,
                                  const ChartOptions& options) {
  std::ostringstream out;
  std::size_t rendered = 0, skipped_by_cap = 0;
  for (const auto& p : log) {
    if (options.filter && !options.filter(p)) continue;
    if (options.max_packets > 0 && rendered >= options.max_packets) {
      ++skipped_by_cap;
      continue;
    }
    ++rendered;
    if (options.show_seq) {
      out << "#";
      out.width(4);
      out.setf(std::ios::left);
      out << p.seq << " ";
    }
    out.width(10);
    out.setf(std::ios::left);
    out << p.envelope.sender << " -> ";
    out.width(10);
    out << p.to;
    out << " " << wire::enum_name(p.envelope.label) << " ("
        << p.envelope.body.size() << "B)";
    if (p.envelope.recipient != p.to &&
        p.envelope.recipient != wire::kGroupRecipient) {
      out << "  [recipient field: " << p.envelope.recipient << "]";
    }
    out << "\n";
  }
  if (skipped_by_cap > 0) out << "... " << skipped_by_cap << " more\n";
  return out.str();
}

std::string format_agent_chart(const std::vector<Packet>& log,
                               const std::string& agent) {
  ChartOptions options;
  options.filter = [agent](const Packet& p) {
    return p.to == agent || p.envelope.sender == agent;
  };
  return format_sequence_chart(log, options);
}

std::string format_event_chart(const std::vector<obs::TraceEvent>& events) {
  std::ostringstream out;
  for (const auto& e : events) {
    out << "@";
    out.width(5);
    out.setf(std::ios::left);
    out << e.tick;
    out.width(10);
    out << e.agent << " ";
    out.width(15);
    out << obs::trace_kind_name(e.kind);
    if (!e.peer.empty()) {
      out << " -> ";
      out.width(10);
      out << e.peer;
    }
    if (!e.detail.empty()) out << " [" << e.detail << "]";
    if (e.value != 0) out << " =" << e.value;
    out << "\n";
  }
  return out.str();
}

std::string format_event_chart_tail(const std::vector<obs::TraceEvent>& events,
                                    std::size_t n) {
  if (events.size() <= n) return format_event_chart(events);
  std::vector<obs::TraceEvent> tail(events.end() - static_cast<long>(n),
                                    events.end());
  return "... " + std::to_string(events.size() - n) + " earlier\n" +
         format_event_chart(tail);
}

}  // namespace enclaves::net
