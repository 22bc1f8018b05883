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
// The ledger is the evidence view of the event store (obs/record.h): every
// record whose event row carries an EvidenceKind. With a metrics sink each
// refusal also bumps the `security.*` counters (per-observer refusals,
// per-accused suspicion). Protocol code reports refusals through obs::emit
// (obs/event.h).
#pragma once

#include <cstdint>
#include <string_view>

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

}  // namespace enclaves::obs
