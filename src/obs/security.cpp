#include "obs/security.h"

#include <array>
#include <iterator>

namespace enclaves::obs {

// One name per kind, in enum order: each kind's own identifier.
constexpr std::string_view kEvidenceNames[] = {
    "aead_open_failure", "stale_nonce", "replayed_seq", "stale_epoch",
    "epoch_fenced", "relay_reject", "fenced_repl", "identity_mismatch",
    "unknown_sender", "join_denied", "bad_label", "malformed", "forged_oplog",
    "forged_keytree", "wrong_shard", "fenced_migration",
};
static_assert(std::size(kEvidenceNames) ==
              static_cast<std::size_t>(EvidenceKind::fenced_migration) + 1);

std::string_view evidence_kind_name(EvidenceKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < std::size(kEvidenceNames) ? kEvidenceNames[i] : "unknown";
}

std::string_view evidence_metric_name(EvidenceKind kind) {
  constexpr std::size_t kKinds = std::size(kEvidenceNames);
  static const std::array<std::string, kKinds> kMetricNames = [] {
    std::array<std::string, kKinds> names;
    for (std::size_t i = 0; i < kKinds; ++i)
      names[i] = "refusals_" + std::string(kEvidenceNames[i]) + "_total";
    return names;
  }();
  const auto i = static_cast<std::size_t>(kind);
  return i < kKinds ? std::string_view(kMetricNames[i])
                    : "refusals_unknown_total";
}

EvidenceKind evidence_kind_for(Errc code) {
  switch (code) {
    case Errc::auth_failed: return EvidenceKind::aead_open_failure;
    case Errc::stale: return EvidenceKind::stale_nonce;
    case Errc::identity_mismatch: return EvidenceKind::identity_mismatch;
    case Errc::unknown_peer: return EvidenceKind::unknown_sender;
    case Errc::denied: return EvidenceKind::join_denied;
    case Errc::malformed:
    case Errc::truncated:
    case Errc::oversized: return EvidenceKind::malformed;
    default: return EvidenceKind::bad_label;  // unexpected / out-of-state
  }
}

RecordFormat record_format(EvidenceKind kind) {
  return {evidence_kind_name(kind), "observer", "accused", "ledger"};
}

void SecurityLedger::record(SecurityEvidence evidence) {
  std::lock_guard lock(mutex_);
  if (!evidence.peer.empty()) {
    const std::uint64_t count = ++suspicion_[evidence.peer];
    // First-class gauge so per-peer suspicion appears on /metrics without
    // bespoke glue (distinct from the monotonic suspicion_total counter the
    // security_event helper bumps).
    gauge_set("security", evidence.peer, "suspicion",
              static_cast<std::int64_t>(count));
  }
  append_locked(std::move(evidence));
}

void SecurityLedger::clear() {
  std::lock_guard lock(mutex_);
  clear_locked();
  suspicion_.clear();
}

std::uint64_t SecurityLedger::suspicion(std::string_view accused) const {
  std::lock_guard lock(mutex_);
  auto it = suspicion_.find(accused);
  return it == suspicion_.end() ? 0 : it->second;
}

std::map<std::string, std::uint64_t> SecurityLedger::suspicion_counts()
    const {
  std::lock_guard lock(mutex_);
  return {suspicion_.begin(), suspicion_.end()};
}

}  // namespace enclaves::obs
