// Intrusion-evidence ledger: a structured record of every authentication /
// freshness refusal the protocol makes, with the attributed origin.
//
// The DSN'01 insider analysis (§2.3) argues the protocol by enumerating what
// a corrupt member can send and showing each forgery is refused. The ledger
// makes those refusals first-class: whenever a Leader, Member, AEAD, or the
// HA plane refuses an input — AEAD open failure, stale nonce, replayed
// sequence, epoch-fenced NewGroupKey, relay reject, fenced replication
// traffic — it records who refused, what kind of evidence the refusal is,
// and which peer the offending bytes claimed to come from. Tests can then
// assert attack attribution ("this forgery left exactly this entry accusing
// this peer") instead of only counting rejects.
//
// Attribution caveat: `accused` is the *envelope* sender — exactly as
// trustworthy as the unauthenticated wire. The ledger records who the bytes
// claimed to come from; per-peer suspicion counters are evidence for an
// operator, not a verdict.
//
// Same cost model as metrics/trace: without an attached SecurityLedger the
// inline security_event() helper is one atomic load and a branch (pinned by
// obs_test's EmitTable.FreeWhenEverySinkDetached). With a sink, each refusal
// also bumps `security.*` metrics (per-observer refusal counters,
// per-accused rolling suspicion) through the metrics sink. Protocol code
// reports refusals through obs::emit (obs/event.h), which records them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "obs/record.h"
#include "util/clock.h"
#include "util/result.h"

namespace enclaves::obs {

enum class EvidenceKind : std::uint8_t {
  aead_open_failure,  // sealed payload did not open under the expected key
  stale_nonce,        // freshness nonce mismatch (replayed/old exchange)
  replayed_seq,       // data-plane per-origin sequence replay
  stale_epoch,        // data sealed under an old Kg epoch (or origin lie)
  epoch_fenced,       // NewGroupKey below the member's epoch floor
  relay_reject,       // leader refused to relay a data submission
  fenced_repl,        // replication traffic below the standby's fence /
                      //   fenced ack deposing an old leader incarnation
  identity_mismatch,  // authenticated identities disagree with the envelope
  unknown_sender,     // input from an id with no registered credentials
  join_denied,        // admission policy refused an AuthInitReq
  bad_label,          // out-of-state or unexpected wire label
  malformed,          // undecodable body inside an authentic-looking frame
  forged_oplog,       // reconciliation replay broke the op-log HMAC chain
                      //   (forged, reordered, or epoch-shifted queued op)
  forged_keytree,     // key-tree update/path with inconsistent entries or a
                      //   confirmation tag the leader never issued
  wrong_shard,        // traffic for a group this federation shard does not
                      //   own (answered with a redirect, never processed)
  fenced_migration,   // stale migration offer / directory claim from a
                      //   shard whose ownership was already superseded
                      //   (the resurrected-source-leader case)
};

/// Stable lowercase name for JSONL export and metric names.
std::string_view evidence_kind_name(EvidenceKind kind);

/// Per-kind metric name, e.g. "refusals_stale_nonce_total" (static storage).
std::string_view evidence_metric_name(EvidenceKind kind);

/// Maps the protocol's rejection codes (session/crypto refusal paths) onto
/// evidence kinds, so Leader/Member instrumentation stays one line per site.
EvidenceKind evidence_kind_for(Errc code);

/// The ledger's JSON keys are "observer"/"accused"; its log tag is
/// "ledger".
RecordFormat record_format(EvidenceKind kind);

/// `agent` is the observer that refused the input; `peer` is the accused
/// (attributed origin — the envelope sender; may be empty).
using SecurityEvidence = Record<EvidenceKind>;

class SecurityLedger : public RecordLog<EvidenceKind> {
 public:
  /// RecordLog::record plus one suspicion count against a non-empty peer.
  void record(SecurityEvidence evidence);
  void clear();

  /// Rolling per-peer suspicion: how many refusals attributed bytes to
  /// `accused` (0 for a peer never accused).
  std::uint64_t suspicion(std::string_view accused) const;

  /// All non-zero suspicion counters, keyed by accused peer.
  std::map<std::string, std::uint64_t> suspicion_counts() const;

 private:
  std::map<std::string, std::uint64_t, std::less<>> suspicion_;
};

using ScopedSecurityLedger = ScopedSink<SecurityLedger>;

inline SecurityLedger* security_sink() { return sink<SecurityLedger>(); }

/// Records a refusal iff a ledger is attached, and bumps the `security.*`
/// metrics iff a metrics sink is attached; free when both are detached.
/// Metrics written (group "security"): per-observer
/// `refusals_total` + `refusals_<kind>_total`, and per-accused
/// `suspicion_total` when the origin is attributable.
inline void security_event(Tick tick, EvidenceKind kind,
                           std::string_view group, std::string_view observer,
                           std::string_view accused,
                           std::string_view detail = {},
                           std::uint64_t value = 0) {
  if (SecurityLedger* ledger = security_sink()) {
    ledger->record(SecurityEvidence{tick, kind, std::string(group),
                                    std::string(observer),
                                    std::string(accused), std::string(detail),
                                    value});
  }
  if (MetricsRegistry* r = metrics_sink()) {
    r->add("security", observer, "refusals_total");
    r->add("security", observer, evidence_metric_name(kind));
    if (!accused.empty()) r->add("security", accused, "suspicion_total");
  }
}

}  // namespace enclaves::obs
