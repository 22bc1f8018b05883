// Credential registry — the leader's durable store of member credentials.
//
// The paper assumes "each potential group member has a long-term password
// that must be known in advance to the group leader"; operationally that
// set must survive leader restarts. The registry stores derived long-term
// keys (password- or X25519-derived — the protocol doesn't care) and can
// install itself into a Leader in one call. It persists inside a
// LeaderSnapshot (a bare credential set is a snapshot at epoch 0), sealed
// by wire::mac_encode under a storage key.
//
// The storage key guards INTEGRITY (a tampered snapshot is detected and
// refused). Confidentiality of the file is the deployment's problem — it
// holds long-term keys and must be protected like any other key store.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "crypto/keys.h"
#include "util/bytes.h"
#include "util/result.h"
#include "wire/codec.h"

namespace enclaves::core {

class Leader;

/// One member's credential; the member id is its key in the Registry.
struct Credential {
  crypto::LongTermKey pa;
  std::string note;  // provenance, e.g. "password", "x25519", issue date

  auto fields() { return std::tie(pa, note); }
  friend bool operator==(const Credential&, const Credential&) = default;
};

class Registry {
 public:
  Registry() = default;

  /// Errc::already_exists on duplicate member ids.
  Status add(std::string member_id, Credential credential);

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

  /// Wire form, nested in LeaderSnapshot: the id -> credential map.
  auto fields() { return wire::tie_fields(wire::capped<1u << 20>(entries_)); }

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

  auto fields() { return std::tie(kr, fence_epoch); }
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
///
/// Stored as wire::mac_encode(snapshot, storage_key) and read back with
/// wire::mac_decode<LeaderSnapshot>: one HMAC-SHA256 over the whole
/// encoding, registry included. The type octet names the format; any other
/// leading octet, such as an older "ENCS" header, is Errc::malformed.
struct LeaderSnapshot {
  static constexpr std::uint8_t kType = 0x91;

  Registry registry;
  std::uint64_t epoch = 0;
  /// Key-tree leaf-slot assignments at snapshot time (tree-mode leaders
  /// only; empty otherwise). Leaf KEKs die with their sessions by design,
  /// so the slots are REJOIN HINTS: a restarted leader re-seats returning
  /// members in their old subtrees, keeping post-recovery rotations
  /// congruent with pre-crash ones.
  std::uint32_t keytree_depth = 0;
  std::map<std::string, std::uint32_t> keytree_slots;

  /// Members on parole at snapshot time (expelled-but-reconcilable,
  /// PROTOCOL.md §12).
  std::map<std::string, ParoleRecord> parole;

  auto fields() {
    return wire::tie_fields(epoch, registry, keytree_depth,
                            wire::capped<1u << 21>(keytree_slots),
                            wire::capped<1u << 20>(parole));
  }

  /// Re-arms a freshly constructed leader: installs every credential and
  /// the epoch floor. Returns credentials installed.
  std::size_t install(Leader& leader) const;

  friend bool operator==(const LeaderSnapshot&, const LeaderSnapshot&) =
      default;
};

}  // namespace enclaves::core
