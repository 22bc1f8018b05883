#include "obs/span.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "obs/json_escape.h"

namespace enclaves::obs {

std::string_view span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::join: return "join";
    case SpanKind::admin_exchange: return "admin_exchange";
    case SpanKind::rekey: return "rekey";
    case SpanKind::rekey_delivery: return "rekey_delivery";
    case SpanKind::rekey_level: return "rekey_level";
    case SpanKind::failover: return "failover";
    case SpanKind::reconcile: return "reconcile";
    case SpanKind::migration: return "migration";
  }
  return "unknown";
}

namespace {

using Key = std::pair<std::string, std::string>;  // (group, member)

void add_participant(Span& span, const std::string& id) {
  if (id.empty()) return;
  if (std::find(span.participants.begin(), span.participants.end(), id) ==
      span.participants.end())
    span.participants.push_back(id);
}

bool handshake_label(std::string_view label) {
  return label == "AuthInitReq" || label == "AuthKeyDist" ||
         label == "AuthAckKey";
}

bool admin_label(std::string_view label) {
  return label == "AdminMsg" || label == "Ack";
}

/// The member end of a packet, given its wire label and direction. The
/// handshake/admin exchanges always pair a leader with a member; which end
/// is the member is fixed per label.
std::string member_end(const TraceEvent& e) {
  if (e.detail == "AuthKeyDist" || e.detail == "AdminMsg") return e.peer;
  return e.agent;  // AuthInitReq, AuthAckKey, Ack originate at the member
}

struct Builder {
  std::vector<Span> spans;
  std::map<Key, std::size_t> open_joins;    // (group, member) -> index
  std::map<Key, std::size_t> open_admins;   // (group, member) -> index
  std::map<Key, std::size_t> open_rekeys;   // (group, epoch-as-string)
  std::map<std::string, std::size_t> open_failovers;  // ha agent -> index
  std::map<std::string, std::size_t> promoted;  // promoted leader -> failover
  std::map<Key, std::size_t> open_reconciles;   // (group, member) -> index
  std::map<std::string, std::size_t> open_migrations;  // group -> index

  Span& open(SpanKind kind, const TraceEvent& e) {
    Span s;
    s.id = spans.size() + 1;
    s.kind = kind;
    s.start = s.end = e.tick;
    s.group = e.group;
    s.agent = e.agent;
    s.peer = e.peer;
    spans.push_back(std::move(s));
    return spans.back();
  }

  void close(std::size_t index, Tick tick) {
    Span& s = spans[index];
    s.end = tick;
    s.complete = true;
  }

  // -- per-event handlers -------------------------------------------------

  void on_member_phase(const TraceEvent& e) {
    const Key key{e.group, e.agent};
    if (e.detail == "NotConnected->WaitingForKey") {
      // A re-attempted handshake abandons any previous one still open.
      open_joins.erase(key);
      Span& s = open(SpanKind::join, e);
      add_participant(s, e.agent);
      add_participant(s, e.peer);
      std::size_t index = spans.size() - 1;
      if (auto it = promoted.find(e.group); it != promoted.end()) {
        s.parent = spans[it->second].id;
        spans[it->second].end = std::max(spans[it->second].end, e.tick);
        add_participant(spans[it->second], e.agent);
      }
      open_joins[key] = index;
    } else if (e.detail == "WaitingForKey->Connected") {
      if (auto it = open_joins.find(key); it != open_joins.end()) {
        close(it->second, e.tick);
        if (spans[it->second].parent != 0) {
          Span& f = spans[spans[it->second].parent - 1];
          f.end = std::max(f.end, e.tick);
          f.complete = true;  // the group re-formed on the promoted leader
        }
        open_joins.erase(it);
      }
    }
  }

  void on_admin(const TraceEvent& e) {
    const Key key{e.group, e.peer};
    if (e.kind == TraceKind::admin_send) {
      // Stop-and-wait: a fresh send while one is open means the previous
      // exchange was abandoned (expulsion / close) without an ack.
      open_admins.erase(key);
      Span& s = open(SpanKind::admin_exchange, e);
      s.detail = e.detail;  // body kind: new_group_key, member_list, ...
      add_participant(s, e.agent);
      add_participant(s, e.peer);
      open_admins[key] = spans.size() - 1;
    } else if (auto it = open_admins.find(key); it != open_admins.end()) {
      close(it->second, e.tick);
      open_admins.erase(it);
    }
  }

  void on_retry(const TraceEvent& e) {
    const std::string member =
        e.agent == e.group ? e.peer : e.agent;  // leader events use group id
    if (handshake_label(e.detail)) {
      if (auto it = open_joins.find(Key{e.group, member});
          it != open_joins.end())
        ++spans[it->second].retries;
    } else if (admin_label(e.detail)) {
      if (auto it = open_admins.find(Key{e.group, member});
          it != open_admins.end())
        ++spans[it->second].retries;
    }
  }

  void on_rekey(const TraceEvent& e) {
    const Key key{e.group, std::to_string(e.value)};
    if (e.agent == e.group) {  // leader minted a new Kg
      Span& s = open(SpanKind::rekey, e);
      s.value = e.value;
      add_participant(s, e.agent);
      open_rekeys[key] = spans.size() - 1;
      return;
    }
    // A member applied epoch `value`: one delivery child per member.
    Span& child = open(SpanKind::rekey_delivery, e);
    child.value = e.value;
    child.complete = true;
    add_participant(child, e.agent);
    if (auto it = open_rekeys.find(key); it != open_rekeys.end()) {
      Span& parent = spans[it->second];
      child.parent = parent.id;
      parent.end = std::max(parent.end, e.tick);
      parent.complete = true;  // "last member applied" = latest so far
      add_participant(parent, e.agent);
    }
  }

  void on_keytree_level(const TraceEvent& e) {
    // One tree level rotated by the leader while minting epoch `value`;
    // child of that epoch's rekey span (which note_rekey opened first).
    const Key key{e.group, std::to_string(e.value)};
    Span& child = open(SpanKind::rekey_level, e);
    child.detail = e.detail;  // "lvl<k>", deepest first
    child.value = e.value;
    child.complete = true;
    add_participant(child, e.agent);
    if (auto it = open_rekeys.find(key); it != open_rekeys.end()) {
      Span& parent = spans[it->second];
      child.parent = parent.id;
      parent.end = std::max(parent.end, e.tick);
    }
  }

  void on_suspect(const TraceEvent& e) {
    if (e.group == "ha") {
      Span& s = open(SpanKind::failover, e);
      s.detail = e.detail;  // "active_silent"
      add_participant(s, e.agent);
      s.annotations.push_back({e.tick, "suspect", e.detail, e.value});
      open_failovers[e.agent] = spans.size() - 1;
      return;
    }
    // A member suspecting its leader is part of whatever failover is in
    // flight; without one it is a free-standing liveness event.
    if (!open_failovers.empty()) {
      Span& f = spans[open_failovers.begin()->second];
      f.annotations.push_back({e.tick, "suspect", e.agent, 0});
      add_participant(f, e.agent);
    }
  }

  void on_promote(const TraceEvent& e) {
    std::size_t index;
    if (auto it = open_failovers.find(e.agent); it != open_failovers.end()) {
      index = it->second;
    } else {  // promotion without a recorded suspicion (trace was cleared)
      open(SpanKind::failover, e);
      index = spans.size() - 1;
      open_failovers[e.agent] = index;
    }
    Span& f = spans[index];
    f.value = e.value;  // fenced epoch
    f.end = std::max(f.end, e.tick);
    f.annotations.push_back({e.tick, "promote", e.detail, e.value});
    add_participant(f, e.agent);
    add_participant(f, e.peer);
    promoted[e.agent] = index;
  }

  void on_rejoin(const TraceEvent& e) {
    if (!open_failovers.empty()) {
      Span& f = spans[open_failovers.begin()->second];
      f.annotations.push_back({e.tick, "rejoin", e.agent, 0});
      add_participant(f, e.agent);
    }
  }

  void on_fence(const TraceEvent& e) {
    if (e.group == "ha") {
      // Standby fencing stale repl traffic / fenced ack deposing the old
      // leader: evidence about the most recent failover.
      if (!spans.empty()) {
        for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
          if (it->kind == SpanKind::failover) {
            it->annotations.push_back({e.tick, "fence", e.detail, e.value});
            return;
          }
        }
      }
      return;
    }
    // Member-side epoch fence: interrupts that member's session; attach to
    // its join span if one is open (rare — usually the session was up).
    if (auto it = open_joins.find(Key{e.group, e.agent});
        it != open_joins.end())
      spans[it->second].annotations.push_back(
          {e.tick, "fence", e.detail, e.value});
  }

  void on_reconcile(const TraceEvent& e) {
    // Leader-side events carry agent == group; the member end is then the
    // peer. Member-side events anchor and close the span.
    const std::string member = e.agent == e.group ? e.peer : e.agent;
    const Key key{e.group, member};
    if (e.kind == TraceKind::disconnect) {
      open_reconciles.erase(key);  // a fresh partition abandons any old span
      Span& s = open(SpanKind::reconcile, e);
      s.detail = e.detail;  // why the member went disconnected
      add_participant(s, e.agent);
      add_participant(s, e.peer);
      open_reconciles[key] = spans.size() - 1;
      return;
    }
    auto it = open_reconciles.find(key);
    if (it == open_reconciles.end()) return;
    Span& s = spans[it->second];
    s.annotations.push_back(
        {e.tick, std::string(trace_kind_name(e.kind)), e.detail, e.value});
    s.end = std::max(s.end, e.tick);
    add_participant(s, e.agent);
    // The member's terminal verdict (admitted / quarantined / intrusion /
    // abandoned) closes the span; leader-side verdicts only annotate.
    if (e.kind == TraceKind::reconcile_verdict && e.agent != e.group) {
      close(it->second, std::max(s.end, e.tick));
      open_reconciles.erase(it);
    }
  }

  void on_fed(const TraceEvent& e) {
    // Source-side "offer" anchors the span (agent = source shard, peer =
    // target shard); the target's "complete" (commit applied) closes it,
    // an "abort" abandons it incomplete. Everything between — installs,
    // acks, refusals, redirects for the group — annotates.
    if (e.kind == TraceKind::fed_migrate && e.detail == "offer") {
      if (!open_migrations.count(e.group)) {
        Span& s = open(SpanKind::migration, e);
        s.detail = "offer";
        s.value = e.value;  // migration id
        add_participant(s, e.agent);
        add_participant(s, e.peer);
        open_migrations[e.group] = spans.size() - 1;
        return;
      }
      // A retransmitted offer annotates the span already in flight.
    }
    auto it = open_migrations.find(e.group);
    if (it == open_migrations.end()) return;
    Span& s = spans[it->second];
    s.annotations.push_back(
        {e.tick, std::string(trace_kind_name(e.kind)), e.detail, e.value});
    s.end = std::max(s.end, e.tick);
    add_participant(s, e.agent);
    if (e.kind != TraceKind::fed_migrate) return;
    if (e.detail == "complete") {
      close(it->second, std::max(s.end, e.tick));
      open_migrations.erase(it);
    } else if (e.detail == "abort") {
      open_migrations.erase(it);  // stays incomplete
    }
  }

  void on_fault(const TraceEvent& e) {
    const std::string_view name = trace_kind_name(e.kind);
    const std::string member = member_end(e);
    if (handshake_label(e.detail)) {
      if (auto it = std::find_if(
              open_joins.begin(), open_joins.end(),
              [&](const auto& kv) { return kv.first.second == member; });
          it != open_joins.end()) {
        spans[it->second].annotations.push_back(
            {e.tick, std::string(name), e.detail, e.value});
      }
    } else if (admin_label(e.detail)) {
      if (auto it = std::find_if(
              open_admins.begin(), open_admins.end(),
              [&](const auto& kv) { return kv.first.second == member; });
          it != open_admins.end()) {
        spans[it->second].annotations.push_back(
            {e.tick, std::string(name), e.detail, e.value});
      }
    }
    // Data-plane / replication / close packets have no tracked span.
  }
};

}  // namespace

std::vector<Span> SpanTracker::build(const std::vector<TraceEvent>& events) {
  Builder b;
  for (const TraceEvent& e : events) {
    switch (e.kind) {
      case TraceKind::member_phase: b.on_member_phase(e); break;
      case TraceKind::admin_send:
      case TraceKind::admin_ack: b.on_admin(e); break;
      case TraceKind::retransmit:
      case TraceKind::reanswer: b.on_retry(e); break;
      case TraceKind::rekey: b.on_rekey(e); break;
      case TraceKind::keytree_level: b.on_keytree_level(e); break;
      case TraceKind::suspect: b.on_suspect(e); break;
      case TraceKind::promote: b.on_promote(e); break;
      case TraceKind::rejoin: b.on_rejoin(e); break;
      case TraceKind::fence: b.on_fence(e); break;
      case TraceKind::fault_drop:
      case TraceKind::fault_duplicate:
      case TraceKind::fault_delay: b.on_fault(e); break;
      case TraceKind::disconnect:
      case TraceKind::oplog_append:
      case TraceKind::reconcile_offer:
      case TraceKind::reconcile_verdict:
      case TraceKind::op_replay: b.on_reconcile(e); break;
      case TraceKind::fed_migrate:
      case TraceKind::fed_redirect: b.on_fed(e); break;
      default: break;  // phases/leave/data/repl carry no span boundary
    }
  }
  return std::move(b.spans);
}

std::string spans_to_jsonl(const std::vector<Span>& spans) {
  std::string out;
  for (const Span& s : spans) {
    out += "{\"id\":" + std::to_string(s.id);
    if (s.parent != 0) out += ",\"parent\":" + std::to_string(s.parent);
    out += ",\"kind\":";
    append_json_string(out, span_kind_name(s.kind));
    out += ",\"start\":" + std::to_string(s.start);
    out += ",\"end\":" + std::to_string(s.end);
    out += ",\"complete\":";
    out += s.complete ? "true" : "false";
    out += ",\"group\":";
    append_json_string(out, s.group);
    out += ",\"agent\":";
    append_json_string(out, s.agent);
    if (!s.peer.empty()) {
      out += ",\"peer\":";
      append_json_string(out, s.peer);
    }
    if (!s.detail.empty()) {
      out += ",\"detail\":";
      append_json_string(out, s.detail);
    }
    if (s.value != 0) out += ",\"value\":" + std::to_string(s.value);
    if (s.retries != 0) out += ",\"retries\":" + std::to_string(s.retries);
    if (!s.participants.empty()) {
      out += ",\"participants\":[";
      for (std::size_t i = 0; i < s.participants.size(); ++i) {
        if (i) out += ',';
        append_json_string(out, s.participants[i]);
      }
      out += ']';
    }
    if (!s.annotations.empty()) {
      out += ",\"annotations\":[";
      for (std::size_t i = 0; i < s.annotations.size(); ++i) {
        const SpanAnnotation& a = s.annotations[i];
        if (i) out += ',';
        out += "{\"tick\":" + std::to_string(a.tick) + ",\"kind\":";
        append_json_string(out, a.kind);
        if (!a.detail.empty()) {
          out += ",\"detail\":";
          append_json_string(out, a.detail);
        }
        if (a.value != 0) out += ",\"value\":" + std::to_string(a.value);
        out += '}';
      }
      out += ']';
    }
    out += "}\n";
  }
  return out;
}

namespace {

void render_span(const std::vector<Span>& spans, const Span& s, int depth,
                 std::string& out) {
  char head[96];
  std::snprintf(head, sizeof head, "#%llu %s",
                static_cast<unsigned long long>(s.id),
                std::string(span_kind_name(s.kind)).c_str());
  std::string line(static_cast<std::size_t>(depth) * 2, ' ');
  line += head;
  if (line.size() < 24) line.resize(24, ' ');
  char cols[160];
  std::snprintf(cols, sizeof cols, " %-10s %s%-10s @%llu..%llu %s",
                s.agent.c_str(), s.peer.empty() ? "   " : "-> ",
                s.peer.empty() ? "" : s.peer.c_str(),
                static_cast<unsigned long long>(s.start),
                static_cast<unsigned long long>(s.end),
                s.complete ? "ok" : "open");
  line += cols;
  if (s.retries != 0) line += " retries=" + std::to_string(s.retries);
  if (!s.detail.empty()) line += " [" + s.detail + "]";
  if (s.value != 0) line += " =" + std::to_string(s.value);
  out += line;
  out += '\n';
  for (const SpanAnnotation& a : s.annotations) {
    std::string note(static_cast<std::size_t>(depth) * 2 + 2, ' ');
    note += "! @" + std::to_string(a.tick) + " " + a.kind;
    if (!a.detail.empty()) note += " [" + a.detail + "]";
    if (a.value != 0) note += " =" + std::to_string(a.value);
    out += note;
    out += '\n';
  }
  for (const Span& child : spans)
    if (child.parent == s.id) render_span(spans, child, depth + 1, out);
}

}  // namespace

std::string format_span_tree(const std::vector<Span>& spans) {
  std::string out;
  for (const Span& s : spans)
    if (s.parent == 0) render_span(spans, s, 0, out);
  return out;
}

std::size_t attach_evidence(std::vector<Span>& spans,
                            const std::vector<SecurityEvidence>& evidence) {
  std::size_t attached = 0;
  for (const SecurityEvidence& e : evidence) {
    Span* target = nullptr;
    for (Span& s : spans) {
      const bool involves = s.agent == e.agent || s.peer == e.agent ||
                            s.group == e.agent;
      if (!involves) continue;
      if (e.tick < s.start) continue;
      if (s.complete && e.tick > s.end) continue;
      target = &s;  // latest-created qualifying span = innermost
    }
    if (!target) continue;
    target->annotations.push_back(
        {e.tick, "evidence:" + std::string(evidence_kind_name(e.kind)),
         e.peer.empty() ? e.detail : e.peer + ": " + e.detail,
         e.value});
    ++attached;
  }
  return attached;
}

}  // namespace enclaves::obs
