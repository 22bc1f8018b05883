// Sequence-chart rendering of SimNetwork traffic.
//
// Turns the network's packet log into the message-sequence charts protocol
// papers draw — one line per packet, with the apparent sender, the network
// destination, the label, and (for admin traffic) a body-size hint. Used by
// examples and debugging sessions; deliberately text-only so it can be
// diffed in tests.
#pragma once

#include <functional>
#include <string>

#include "net/sim_network.h"
#include "obs/record.h"

namespace enclaves::net {

struct ChartOptions {
  /// Render only packets this predicate accepts (null = everything).
  std::function<bool(const Packet&)> filter;
  /// Cap on rendered packets (0 = unlimited); a trailing "… N more" line is
  /// added when the cap truncates.
  std::size_t max_packets = 0;
  /// Mark packets whose apparent sender differs from any id that the
  /// destination would expect — purely cosmetic flag column.
  bool show_seq = true;
};

/// Renders the whole log (or the filtered subset) as aligned text:
///   #12  alice      -> L          AuthInitReq     (93B)
std::string format_sequence_chart(const std::vector<Packet>& log,
                                  const ChartOptions& options = {});

/// Convenience: only packets touching `agent` (as sender or destination).
std::string format_agent_chart(const std::vector<Packet>& log,
                               const std::string& agent);

/// Renders a protocol event trace (obs/trace.h) in the same aligned-text
/// style as the packet charts, one event per line:
///   @12   L          admin_send      -> alice      [new_group_key]
/// Diffable in tests; golden-trace conformance suites commit its output.
std::string format_event_chart(const std::vector<obs::TraceEvent>& events);

/// The last `n` events of the trace in format_event_chart style, preceded by
/// an elision marker when the trace is longer. For post-incident displays —
/// e.g. a failover demo printing the promotion tail of a long churn run.
std::string format_event_chart_tail(const std::vector<obs::TraceEvent>& events,
                                    std::size_t n);

}  // namespace enclaves::net
