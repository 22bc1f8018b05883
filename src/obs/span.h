// Causal exchange spans: the flat trace stream stitched into the typed
// protocol exchanges the DSN'01 argument is actually about.
//
// A TraceEvent says "a retransmit happened"; a Span says "the join handshake
// between alice and L took 3 ticks and needed 2 retransmits, one of which
// was caused by this injected drop". SpanTracker::build is a pure function
// of a recorded event sequence — run it post-hoc over EventStore::events()
// (deterministic: same trace, same spans, same ids).
//
// Span kinds and their event anchors:
//   join           member_phase NotConnected->WaitingForKey  ..  ->Connected
//                  (retries: AuthInitReq/AuthKeyDist/AuthAckKey retransmits
//                  and reanswers for that member while open)
//   admin_exchange admin_send .. admin_ack for one (leader, member) pair —
//                  the stop-and-wait channel guarantees at most one open
//                  exchange per pair (retries: AdminMsg/Ack traffic)
//   rekey          leader rekey (Kg mint, value = epoch) .. last member
//                  apply; each member's apply is a rekey_delivery child
//   rekey_delivery one member applying one epoch (child of its rekey span)
//   rekey_level    one key-tree level rotated inside a tree-mode rekey
//                  (keytree_level events; child of the epoch's rekey span,
//                  detail "lvl<k>", deepest level first)
//   failover       ha suspect .. promote .. members re-joined the promoted
//                  leader (those join spans become children of the failover)
//   reconcile      member disconnect .. terminal reconcile verdict on the
//                  member side (queued ops, offers, and replays attach as
//                  annotations; leader-side verdicts annotate by peer)
//   migration      fed_migrate offer .. commit/complete between two shards
//                  (installs, acks, refusals and redirects for the group
//                  attach as annotations; an abort closes it incomplete)
//
// Fault-injector verdicts attach as annotations on the span whose packet
// they hit (matched by wire label + sender/recipient against the open
// spans). Ticks inside a span come from the clocks of the agents that
// recorded the anchor events; across agents (promoted leaders start at 0)
// they are labels, not a global order.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/record.h"

namespace enclaves::obs {

enum class SpanKind : std::uint8_t {
  join,
  admin_exchange,
  rekey,
  rekey_delivery,
  rekey_level,
  failover,
  reconcile,
  migration,
};

/// Stable lowercase name for JSONL export and tree rendering.
std::string_view span_kind_name(SpanKind kind);

/// A point-in-time note attached to a span: fault verdicts, suspicion /
/// promotion milestones, and (via attach_evidence) ledger entries.
struct SpanAnnotation {
  Tick tick = 0;
  std::string kind;    // "fault_drop", "suspect", "evidence:stale_nonce", ...
  std::string detail;  // wire label / agent / refusal reason
  std::uint64_t value = 0;

  friend bool operator==(const SpanAnnotation&, const SpanAnnotation&) =
      default;
};

struct Span {
  std::uint64_t id = 0;      // 1-based, in creation order
  std::uint64_t parent = 0;  // 0 = root
  SpanKind kind = SpanKind::join;
  Tick start = 0;
  Tick end = 0;           // == start while the span never closed
  bool complete = false;  // terminal event observed before the trace ended
  std::string group;
  std::string agent;   // anchor agent (member for join, leader for admin...)
  std::string peer;    // counterparty, if any
  std::string detail;  // kind-specific (admin body kind, suspicion reason)
  std::uint64_t value = 0;   // kind-specific (rekey epoch, fenced epoch)
  std::uint32_t retries = 0;  // retransmit/reanswer events inside the span
  std::vector<std::string> participants;
  std::vector<SpanAnnotation> annotations;

  friend bool operator==(const Span&, const Span&) = default;
};

class SpanTracker {
 public:
  /// Stitches a recorded trace into spans. Pure: no global state, the same
  /// event sequence always yields the same spans with the same ids.
  static std::vector<Span> build(const std::vector<TraceEvent>& events);
};

/// One JSON object per line, in id order; empty/zero fields are omitted.
std::string spans_to_jsonl(const std::vector<Span>& spans);

/// Aligned-text tree next to net::format_event_chart: one line per span,
/// children indented under their parent, annotations as `!` lines.
std::string format_span_tree(const std::vector<Span>& spans);

/// Links ledger evidence into the span graph: each entry is attached as an
/// `evidence:<kind>` annotation on the innermost span that was in flight at
/// the observer's refusal (matched by agent identity and tick interval —
/// best-effort, since ticks are per-agent clocks). Returns how many entries
/// found a span; entries that interrupted no tracked exchange (e.g. a
/// forged packet outside any handshake) attach nowhere.
std::size_t attach_evidence(std::vector<Span>& spans,
                            const std::vector<SecurityEvidence>& evidence);

}  // namespace enclaves::obs
