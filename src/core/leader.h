// Leader — the group manager (Figure 1's central coordinator), composed of
// one LeaderSession per registered member plus group-wide state: membership,
// the group key Kg with its epoch, the rekey policy, and the data-plane
// relay.
//
// Transport-agnostic: plug in any SendFn (SimNetwork, TcpNode, or a test
// capture). All inbound traffic funnels through handle().
//
// Trust note: the envelope's sender field is only a ROUTING HINT used to
// select which member's keys to try; every acceptance decision is made on
// what decrypts correctly, exactly as in the paper's model.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/keytree.h"
#include "core/leader_session.h"
#include "core/policy.h"
#include "core/registry.h"
#include "core/rekey_policy.h"
#include "core/retry.h"
#include "crypto/aead.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "obs/event.h"
#include "util/clock.h"
#include "util/result.h"
#include "wire/envelope.h"
#include "wire/reconcile.h"

namespace enclaves::core {

using SendFn = std::function<void(const std::string& to, wire::Envelope)>;

struct LeaderConfig {
  std::string id = "L";
  RekeyPolicy rekey = RekeyPolicy::strict();
  /// Retransmission schedule applied by tick() to every stalled exchange.
  /// The default (every tick, unlimited) is the historical behaviour;
  /// production-shaped deployments want exponential backoff with jitter.
  RetryPolicy retry = RetryPolicy::every_tick();
  /// Graceful degradation: when > 0, tick() automatically expels any
  /// session whose exchange has been retransmitted this many times without
  /// an answer (suspect -> retransmit with backoff -> expel). 0 = manual
  /// expulsion via expel_stalled() only.
  std::uint32_t auto_expel_attempts = 0;
  /// Partition tolerance (PROTOCOL.md §12): when > 0, a member expelled for
  /// *stalling* (liveness, not cause) stays on "parole" — its discarded
  /// session key Kr and the epoch at expulsion are retained so the member
  /// can later offer its signed offline op-log for reconciliation. An offer
  /// whose epoch fence has fallen more than `parole_epochs` rekeys behind
  /// the current epoch is quarantined (standard rejoin required). Parole
  /// entries are garbage-collected at each rekey once they fall 2x the
  /// window behind — kept past the admission window so a late offer still
  /// gets an explicit quarantine verdict rather than silence.
  /// 0 disables parole entirely (the historical behaviour).
  std::uint64_t parole_epochs = 0;
  /// Upper bound on ops accepted in a single reconciliation replay; longer
  /// offers are quarantined rather than replayed.
  std::uint64_t max_replay_ops = 256;
  /// Initial key-tree depth when rekey.algo == tree (capacity 2^depth
  /// leaves; the tree grows by one level when full). Sizing this to the
  /// expected group avoids O(N) rebuild broadcasts mid-run.
  std::uint32_t keytree_depth = 2;
  /// Anti-entropy for the fire-and-forget key-tree plane: every this many
  /// ticks, tick() re-offers the latest KEY_TREE_UPDATE to all members. A
  /// member that lost the broadcast (and sees no data traffic to trip path
  /// recovery) still converges; current members drop it as a same-epoch
  /// duplicate. 0 disables.
  Tick keytree_rebroadcast_every = 8;
};

class Leader {
 public:
  Leader(LeaderConfig config, Rng& rng,
         const crypto::Aead& aead = crypto::default_aead());

  void set_send(SendFn send) { send_ = std::move(send); }

  /// Installs an admission policy (null = admit every registered member).
  /// Denial is SILENT — the improved protocol has no denial message to
  /// forge (see policy.h).
  void set_access_policy(std::shared_ptr<const AccessPolicy> policy) {
    policy_ = std::move(policy);
  }

  const std::string& id() const { return config_.id; }

  /// Registers a prospective member's long-term key Pa (the out-of-band
  /// password registration the paper assumes). Errc::already_exists on
  /// duplicates.
  Status register_member(const std::string& member_id, crypto::LongTermKey pa);

  /// Credential rotation (password change, key-pair replacement): the new
  /// Pa applies from the member's next authentication; a session in
  /// progress is untouched. Errc::unknown_peer if never registered.
  Status update_credential(const std::string& member_id,
                           crypto::LongTermKey pa);

  /// Feeds one inbound envelope (any label). Unauthentic or malformed input
  /// is rejected internally and tallied; this never throws on bad input.
  void handle(const wire::Envelope& e);

  /// Current members in session, sorted.
  std::vector<std::string> members() const;
  bool is_member(const std::string& id) const { return members_.count(id); }
  std::size_t member_count() const { return members_.size(); }

  std::uint64_t epoch() const { return epoch_; }
  const crypto::GroupKey& group_key() const { return kg_; }

  /// Generates and distributes a fresh group key to every current member.
  void rekey();

  /// Sends a Notice admin message to every current member.
  void broadcast_notice(const std::string& text);

  /// Heartbeat: a tiny admin message to every member. A quiet group gives
  /// stall detection nothing to observe; probing periodically (followed by
  /// tick()s) makes crashed or unresponsive members visible, since their
  /// probe is never acknowledged.
  void probe_liveness() { broadcast_notice("hb"); }

  /// Administratively removes a member ("A variation of this protocol can
  /// be used to expel some members", Section 2.2): sends the member an
  /// authenticated Expelled notice when the admin channel is idle, closes
  /// its session, informs the group, rekeys per policy. Returns the
  /// discarded session key (for experiments modelling its compromise).
  /// Errc::unknown_peer if absent.
  Result<crypto::SessionKey> expel(const std::string& member_id,
                                   const std::string& reason = {});

  /// Tears the whole group down: every connected member gets an
  /// authenticated Expelled notice, then all sessions close. No member-left
  /// fan-out and no rekey — there is no group left to inform.
  void shutdown_group(const std::string& reason = {});

  /// Per-member session access (tests, benchmarks, diagnostics).
  const LeaderSession* session(const std::string& member_id) const;
  LeaderSession* session(const std::string& member_id);

  /// Advances the virtual clock one tick and retransmits every stalled
  /// exchange (pending AuthKeyDist or AdminMsg) that is due under
  /// config.retry — byte-identically, so nothing new ever hits the wire.
  /// When config.auto_expel_attempts > 0, sessions whose retransmit budget
  /// is spent are expelled here too. Call on a timer when the transport can
  /// lose messages (SimNetwork with a dropping tap, lossy links);
  /// harmless but unnecessary on reliable transports. Returns envelopes
  /// re-sent.
  std::size_t tick();

  /// Members whose current exchange has been retransmitted at least
  /// `attempts` times without an answer — candidates for expulsion (crashed
  /// host, severed link, or a peer deliberately withholding acks). Under
  /// the default every-tick policy this equals consecutive stalled ticks.
  std::vector<std::string> stalled_members(std::uint32_t attempts) const;

  /// Crash-recovery snapshot: every registered credential plus the current
  /// epoch, enough for a restarted leader to re-form the group (members
  /// re-authenticate with fresh keys; the epoch floor keeps every future
  /// group key strictly newer than anything issued before the crash). On a
  /// fresh leader, install() then snapshot() gives back the installed
  /// snapshot, its epoch raised to any later floor: slot hints of members
  /// not re-seated yet are reported as their slots.
  LeaderSnapshot snapshot() const;

  /// Installs the epoch floor from a pre-crash snapshot. Only meaningful on
  /// a fresh leader (before the first rekey); later calls are ignored.
  void set_epoch_floor(std::uint64_t epoch);

  /// Installs key-tree leaf-slot hints from a pre-crash snapshot: a
  /// restarted (or promoted) tree-mode leader re-seats rejoining members in
  /// their old subtrees, so churn after recovery rotates the same paths it
  /// would have before the crash. Hints are best-effort; a taken or
  /// out-of-range slot falls back to first-free.
  void set_keytree_hints(std::map<std::string, std::uint32_t> slots,
                         std::uint32_t depth);

  /// The live key tree (null in flat mode or before the first tree member).
  const KeyTree* keytree() const { return tree_ ? &*tree_ : nullptr; }

  /// Expels every member stalled for at least `attempts` retransmissions.
  /// Also clears ghost handshakes (sessions stuck in WaitingForKeyAck, e.g.
  /// from a replayed AuthInitReq) without announcing a departure — the
  /// ghost never was a member. Returns the ids acted upon.
  std::vector<std::string> expel_stalled(std::uint32_t attempts);

  /// Aggregate rejected-input count across all sessions plus relay checks.
  std::uint64_t rejected_inputs() const;

  /// Total data-plane messages relayed.
  std::uint64_t relayed_count() const { return relayed_; }

  // Observability hooks (optional).
  std::function<void(const std::string&)> on_member_joined;
  std::function<void(const std::string&)> on_member_left;
  /// Fires with the new epoch after each rekey.
  std::function<void(std::uint64_t)> on_rekey;
  std::function<void(const std::string&, const Bytes&)> on_data;
  /// Fires with the discarded Ka when a member's session closes via
  /// ReqClose — the paper's Oops(Ka) event.
  std::function<void(const std::string&, const crypto::SessionKey&)> on_oops;

  /// Members currently on parole (expelled-but-reconcilable).
  std::size_t parole_count() const { return parole_.size(); }
  bool on_parole(const std::string& member_id) const {
    return parole_.count(member_id) > 0;
  }

  /// Restores a parole entry from a pre-crash snapshot: the retained key Kr
  /// and the epoch fence recorded at expulsion. Replay-verification state is
  /// rebuilt from the member's next offer. Skipped (returns false) when the
  /// member already has a live session — a member that re-authenticated
  /// before the restore clearly no longer needs reconciliation.
  bool restore_parole(const std::string& member_id, crypto::SessionKey kr,
                      std::uint64_t fence_epoch);

 private:
  void send(const std::string& to, wire::Envelope e);
  void submit_admin_to(const std::string& member_id, wire::AdminBody body);
  void handle_member_authenticated(const std::string& member_id);
  void handle_member_closed(const std::string& member_id);
  void handle_group_data(const wire::Envelope& e);
  void send_group_key_to(const std::string& member_id);
  bool tree_mode() const { return config_.rekey.algo == RekeyAlgo::tree; }
  void ensure_tree();
  /// Shared rekey bookkeeping (rekey event, epoch gauge, on_rekey, parole GC)
  /// — called by every path that moved epoch_/kg_.
  void note_rekey();
  /// Rotates the tree for a join/leave and broadcasts the update.
  void tree_rekey(wire::KeyTreeReason reason, const std::string& member_id);
  void keytree_grow_and_rebuild();
  void emit_keytree_levels(const wire::KeyTreeUpdatePayload& payload);
  void broadcast_keytree(const wire::KeyTreeUpdatePayload& payload);
  void handle_keytree_recover(const wire::Envelope& e);
  void send_keytree_path(const std::string& member_id,
                         const crypto::ProtocolNonce& nr);
  void handle_reconcile_offer(const wire::Envelope& e);
  void handle_op_replay(const wire::Envelope& e);
  struct Parole;
  void send_reconcile_verdict(const std::string& member_id, Parole& parole,
                              wire::ReconcileVerdictKind verdict,
                              std::uint64_t ack_seq);
  void grant_parole(const std::string& member_id, crypto::SessionKey kr);
  void revoke_parole(const std::string& member_id);

  LeaderConfig config_;
  Rng& rng_;
  const crypto::Aead& aead_;
  SendFn send_;

  std::map<std::string, std::unique_ptr<LeaderSession>> sessions_;
  std::set<std::string> members_;  // in-session, authenticated

  crypto::GroupKey kg_;
  std::uint64_t epoch_ = 0;
  bool kg_initialized_ = false;

  // Key-tree rekey plane (PROTOCOL.md §13); engaged when rekey.algo==tree.
  std::optional<KeyTree> tree_;
  std::map<std::string, std::uint32_t> keytree_hints_;  // snapshot slots
  std::uint32_t keytree_hint_depth_ = 0;
  /// Latest update broadcast, cached for anti-entropy re-offers. Always at
  /// the current epoch while set (cleared when the tree empties).
  std::optional<wire::Envelope> keytree_update_env_;

  std::uint64_t relayed_ = 0;
  std::uint64_t data_since_rekey_ = 0;
  // The relay path's metrics, keyed by config_.id (a Leader never moves).
  obs::Counter relayed_total_{config_.id, config_.id, "relayed_total"};
  obs::Histogram relay_payload_bytes_{config_.id, config_.id,
                                      "relay_payload_bytes"};
  std::uint64_t relay_rejects_ = 0;

  std::shared_ptr<const AccessPolicy> policy_;

  // Parole list (PROTOCOL.md §12): per expelled-but-reconcilable member,
  // the retained session key Kr plus the verification state of an in-flight
  // op-log replay. `chain` walks the member's HMAC chain op by op; any
  // mismatch is proof of forgery, not mere staleness.
  struct Parole {
    crypto::SessionKey kr;           // session key held at expulsion
    std::uint64_t fence_epoch = 0;   // epoch when the member was cut off
    crypto::ProtocolNonce nr;        // nonce of the last answered offer
    bool active = false;             // replay admitted and in progress
    std::uint64_t expected_seq = 0;  // next op seq the replay must present
    std::uint64_t oplog_len = 0;     // length the accepted offer declared
    crypto::HmacSha256::Tag chain{};         // chain state verified so far
    crypto::HmacSha256::Tag offered_head{};  // head MAC the offer declared
    std::optional<wire::Envelope> last_verdict;  // re-answer cache
  };
  std::map<std::string, Parole> parole_;
  std::set<std::string> reconciling_;  // replay done; fast rejoin armed

  // Liveness layer: per-session retry bookkeeping on one virtual clock.
  // The RetryState backs off per config_.retry while the SAME envelope
  // stays pending; a different pending envelope means the member made
  // progress, so the backoff (and the stall count) restarts.
  struct SessionRetry {
    RetryState state;
    wire::Envelope pending;  // the envelope the backoff applies to
  };
  std::map<std::string, SessionRetry> retry_;
  VirtualClock clock_;
  obs::EventCounters counters_;  // obs::emit's cached counter cells
};

}  // namespace enclaves::core
