// Credential registry — the leader's durable store of member credentials.
//
// The paper assumes "each potential group member has a long-term password
// that must be known in advance to the group leader"; operationally that
// set must survive leader restarts. The registry stores derived long-term
// keys (password- or X25519-derived — the protocol doesn't care), serializes
// to a versioned binary format protected by an HMAC under a storage key, and
// can install itself into a Leader in one call.
//
// The storage key guards INTEGRITY (a tampered registry is detected and
// refused). Confidentiality of the file is the deployment's problem — it
// holds long-term keys and must be protected like any other key store.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "crypto/keys.h"
#include "util/bytes.h"
#include "util/result.h"

namespace enclaves::core {

class Leader;

struct Credential {
  std::string member_id;
  crypto::LongTermKey pa;
  std::string note;  // provenance, e.g. "password", "x25519", issue date

  friend bool operator==(const Credential&, const Credential&) = default;
};

class Registry {
 public:
  Registry() = default;

  /// Errc::already_exists on duplicate member ids.
  Status add(Credential credential);

  bool contains(const std::string& member_id) const;
  const Credential* find(const std::string& member_id) const;
  /// Errc::unknown_peer when absent.
  Status remove(const std::string& member_id);

  std::size_t size() const { return entries_.size(); }
  std::vector<std::string> ids() const;
  const std::map<std::string, Credential>& entries() const { return entries_; }

  /// Registers every credential with `leader`. Members already registered
  /// there are skipped (idempotent restore).
  std::size_t install(Leader& leader) const;

  // --- persistence -------------------------------------------------------

  /// Versioned binary serialization, HMAC-SHA256-sealed under `storage_key`.
  Bytes serialize(BytesView storage_key) const;

  /// Rejects wrong magic/version, truncation, and any tampering
  /// (Errc::auth_failed on MAC mismatch).
  static Result<Registry> deserialize(BytesView data, BytesView storage_key);

  /// Whole-file convenience wrappers (Errc::io_error on filesystem trouble).
  Status save_file(const std::string& path, BytesView storage_key) const;
  static Result<Registry> load_file(const std::string& path,
                                    BytesView storage_key);

  friend bool operator==(const Registry&, const Registry&) = default;

 private:
  std::map<std::string, Credential> entries_;
};

/// One expelled-but-reconcilable member as the snapshot persists it
/// (PROTOCOL.md §12): the session key Kr retained at expulsion and the
/// epoch fence. In-flight replay verification state is deliberately NOT
/// persisted — a restarted leader re-answers the member's re-offer from
/// scratch, which the offer/verdict exchange already handles.
struct ParoleRecord {
  crypto::SessionKey kr;
  std::uint64_t fence_epoch = 0;

  friend bool operator==(const ParoleRecord&, const ParoleRecord&) = default;
};

/// Everything a leader must persist to survive a crash: the credential set
/// (so nobody re-registers passwords) and the epoch it had reached (so the
/// restarted incarnation's first rekey strictly exceeds every epoch ever
/// distributed — no group key issued before the crash can ever be accepted
/// again, preserving the paper's freshness property across restarts).
/// Session state is deliberately NOT persisted: sessions die with the
/// process and members re-authenticate with fresh keys, exactly as the
/// paper's model demands. The parole list is the one exception — Kr there
/// is no longer a session key but reconciliation evidence, and dropping it
/// on a crash would strand every disconnected member in quarantine.
struct LeaderSnapshot {
  Registry registry;
  std::uint64_t epoch = 0;
  /// Key-tree leaf-slot assignments at snapshot time (tree-mode leaders
  /// only; empty otherwise). Leaf KEKs die with their sessions by design,
  /// so the slots are REJOIN HINTS: a restarted leader re-seats returning
  /// members in their old subtrees, keeping post-recovery rotations
  /// congruent with pre-crash ones. Serialized from format v2 on; a v1
  /// snapshot simply restores with no hints.
  std::uint32_t keytree_depth = 0;
  std::map<std::string, std::uint32_t> keytree_slots;

  /// Members on parole at snapshot time (expelled-but-reconcilable,
  /// PROTOCOL.md §12). Serialized from format v3 on; older snapshots
  /// restore with an empty list — reconciliation-on-heal then falls back
  /// to the standard quarantine + rejoin path, never to acceptance.
  std::map<std::string, ParoleRecord> parole;

  /// Versioned binary format, HMAC-SHA256-sealed under `storage_key` (the
  /// nested registry blob carries its own MAC as well).
  Bytes serialize(BytesView storage_key) const;
  static Result<LeaderSnapshot> deserialize(BytesView data,
                                            BytesView storage_key);

  /// Re-arms a freshly constructed leader: installs every credential and
  /// the epoch floor. Returns credentials installed.
  std::size_t install(Leader& leader) const;

  friend bool operator==(const LeaderSnapshot&, const LeaderSnapshot&) =
      default;
};

}  // namespace enclaves::core
