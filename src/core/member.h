// Member — the client-side API: a MemberSession (Figure 2 FSM) plus the
// group-level state a participant maintains: the current group key Kg and
// epoch, the membership view, and per-origin sequence tracking on the data
// plane.
//
// Security scope (matching the paper, Section 3.1): the *group-management*
// channel (everything arriving as AdminMsg) is authenticated, fresh, ordered
// and duplicate-free as long as this member and the leader are honest. The
// *data plane* runs under the shared Kg: any current member can forge data
// traffic including its claimed origin — intrusion tolerance of the data
// plane is explicitly out of the paper's (and this library's) scope.
//
// Liveness layer (PROTOCOL.md §5, §10): all retransmission runs through
// RetryPolicy on a virtual clock advanced by tick(). Optional recovery
// behaviours — leader suspicion after an idle timeout and automatic rejoin
// with backoff after expulsion or suspicion — turn a Member into a
// self-healing participant for crash-recovery scenarios.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/events.h"
#include "core/keytree.h"
#include "core/member_session.h"
#include "core/oplog.h"
#include "core/retry.h"
#include "crypto/aead.h"
#include "crypto/keys.h"
#include "obs/event.h"
#include "util/clock.h"
#include "util/result.h"
#include "wire/envelope.h"

namespace enclaves::core {

using SendFn = std::function<void(const std::string& to, wire::Envelope)>;

class Member {
 public:
  Member(std::string id, std::string leader_id, crypto::LongTermKey pa,
         Rng& rng, const crypto::Aead& aead = crypto::default_aead());

  void set_send(SendFn send) { send_ = std::move(send); }
  void set_event_handler(EventHandler handler) {
    on_event_ = std::move(handler);
  }

  const std::string& id() const { return id_; }

  /// Retransmission schedule for the join handshake (default: every tick,
  /// unlimited — the historical behaviour).
  void set_retry_policy(RetryPolicy policy) { retry_policy_ = policy; }

  /// Retransmission schedule for ReqClose (default: every tick, 3 attempts).
  void set_close_retry_policy(RetryPolicy policy) {
    close_retry_policy_ = policy;
  }

  /// Leader-liveness suspicion: after `idle_ticks` tick() calls with no
  /// authenticated traffic while connected, declare the leader unreachable,
  /// drop the session locally, and emit SessionClosed. 0 disables (default).
  /// Pair with Leader::probe_liveness heartbeats so a quiet-but-alive
  /// leader never looks dead.
  void set_suspect_after(Tick idle_ticks) { suspect_after_ = idle_ticks; }

  /// Automatic rejoin: after an expulsion, a suspected-dead leader, or an
  /// exhausted join budget, re-initiate the handshake on `policy`'s backoff
  /// schedule. A voluntary leave() disables rejoin until the next join().
  void enable_auto_rejoin(RetryPolicy policy) {
    auto_rejoin_ = true;
    rejoin_policy_ = policy;
  }

  /// Partition-tolerant disconnected operation (PROTOCOL.md §12): when
  /// enabled, leader suspicion (and a liveness expulsion notice) puts the
  /// member into `disconnected` mode instead of dropping group state. While
  /// disconnected, send_data() queues into an HMAC-chained OpLog under Kr
  /// (the session key held at disconnect) and the member offers
  /// reconciliation to the leader on `policy`'s schedule. An exhausted
  /// budget (or a quarantine/intrusion verdict) falls back to the standard
  /// drop-state + rejoin path, so safety never depends on the heal.
  void enable_reconciliation(RetryPolicy policy) {
    reconcile_enabled_ = true;
    reconcile_policy_ = policy;
  }

  /// True while operating partitioned with retained group state.
  bool disconnected() const { return disconnected_mode_; }

  /// Retransmission schedule for KEY_TREE_RECOVER requests (default: every
  /// tick, unlimited). Only relevant under a tree-mode leader.
  void set_keytree_recover_policy(RetryPolicy policy) {
    keytree_retry_policy_ = policy;
  }

  /// This member's key-tree view (leaf slot + path KEKs); empty/unassigned
  /// under a flat-mode leader.
  const KeyTreeView& keytree() const { return keytree_; }

  /// Ops queued for replay (0 outside disconnected mode).
  std::uint64_t oplog_depth() const { return oplog_.size(); }

  /// The offline op-log itself (persistable via OpLog::serialize).
  const OpLog& oplog() const { return oplog_; }

  /// HA failover (PROTOCOL.md §11): the ordered list of leader candidates
  /// this member may authenticate to — the active leader plus any warm
  /// standbys holding the replicated credential. Each time auto-rejoin
  /// fires, the member advances round-robin to the next candidate, so a
  /// dead leader is abandoned after one exhausted join budget and the
  /// promoted standby is reached on the following attempt. If the current
  /// leader is absent from `targets` it is prepended. Empty list (default)
  /// disables cycling: every rejoin goes back to the original leader.
  void set_failover_targets(std::vector<std::string> targets);

  /// Initiates the join handshake. Errc::unexpected if already joining/in.
  Status join();

  /// Leaves the session (sends ReqClose). Errc::unexpected if not connected.
  Status leave();

  /// Publishes application data to the group via the leader. Requires a
  /// current group key (Errc::unexpected before the first NewGroupKey).
  Status send_data(BytesView payload);

  /// Feeds one inbound envelope. Bad input is rejected and tallied.
  void handle(const wire::Envelope& e);

  /// Advances the virtual clock one tick and runs the liveness layer:
  /// retransmits stalled exchanges per the retry policies (byte-identical
  /// re-sends only), checks leader suspicion, and fires due auto-rejoins.
  /// Call on a timer over lossy transports; no-op when nothing is pending.
  /// Returns envelopes (re-)sent.
  std::size_t tick();

  bool connected() const {
    return session_.state() == MemberSession::State::connected;
  }
  bool has_group_key() const { return have_kg_; }
  std::uint64_t epoch() const { return epoch_; }

  /// The leader this member currently targets (changes under failover).
  const std::string& leader_id() const { return leader_id_; }

  /// Epoch fence: the highest epoch ever accepted. A NewGroupKey below this
  /// floor is evidence of a deposed leader and is rejected — the split-brain
  /// guard of PROTOCOL.md §11. Survives drop_group_state() by design.
  std::uint64_t epoch_floor() const { return epoch_floor_; }

  /// NewGroupKey messages rejected by the epoch fence.
  std::uint64_t epochs_fenced() const { return epochs_fenced_; }

  /// This member's view of the group (including itself once listed).
  std::vector<std::string> view() const;

  /// Admin bodies accepted in order (the paper's rcv_A list).
  const std::vector<wire::AdminBody>& rcv_log() const {
    return session_.rcv_log();
  }

  const MemberSession& session() const { return session_; }

  /// Data-plane replays/forgeries rejected.
  std::uint64_t data_rejects() const { return data_rejects_; }

  /// Times this member re-initiated the handshake via auto-rejoin.
  std::uint64_t rejoins() const { return rejoins_; }

  /// Federation redirects (PROTOCOL.md §14) followed across the member's
  /// lifetime. Bounded per connection attempt; see handle_fed_redirect.
  std::uint64_t redirects_followed() const { return redirects_followed_; }

 private:
  void emit(GroupEvent event);
  /// Emits ViewChanged with a freshly materialized shared snapshot of
  /// view_ — or nothing at all when no handler is installed, so the
  /// admin fan-out never pays O(N) per notice just to drop the result
  /// (EXPERIMENTS.md E18).
  void emit_view_changed();
  /// Returns false when the body was fenced (rejected, session dropped).
  bool apply_admin(const wire::AdminBody& body);
  void handle_group_data(const wire::Envelope& e);
  void handle_fed_redirect(const wire::Envelope& e);
  void handle_reconcile_verdict(const wire::Envelope& e);
  void handle_keytree_update(const wire::Envelope& e);
  void handle_keytree_path(const wire::Envelope& e);
  void request_keytree_recovery();
  /// Commits a key-tree rekey: installs Kg/epoch, restarts the sequence
  /// space, settles any pending recovery. `authoritative` = the install
  /// came over the pairwise recovery channel and may move the epoch (and
  /// its floor) backwards to the leader's truth.
  void install_keytree_epoch(const crypto::GroupKey& kg, std::uint64_t epoch,
                             bool authoritative);
  void enter_disconnected(const std::string& reason);
  void build_reconcile_offer();
  void send_next_op();
  void finish_reconcile(const char* detail, std::uint64_t value, bool success);
  void drop_group_state();
  void advance_failover_target();
  void note_activity() { last_activity_ = clock_.now(); }

  std::string id_;
  std::string leader_id_;
  Rng& rng_;
  const crypto::Aead& aead_;
  MemberSession session_;
  SendFn send_;
  EventHandler on_event_;

  crypto::GroupKey kg_;
  std::uint64_t epoch_ = 0;
  bool have_kg_ = false;
  std::set<std::string> view_;
  std::uint64_t next_seq_ = 0;                  // our outbound counter
  std::map<std::string, std::uint64_t> last_seq_;  // per-origin inbound floor
  std::uint64_t data_rejects_ = 0;

  // Liveness layer: one virtual clock, one RetryState per retransmitting
  // exchange. The join handshake retransmits until answered (or the budget
  // runs out); ReqClose is best-effort with a small budget — the member
  // cannot observe whether the leader processed its close, and duplicates
  // at the leader fail cleanly (session already closed).
  VirtualClock clock_;
  obs::EventCounters counters_;  // obs::emit's cached counter cells
  RetryPolicy retry_policy_ = RetryPolicy::every_tick();
  RetryPolicy close_retry_policy_ = RetryPolicy::bounded(3);
  RetryPolicy rejoin_policy_ = RetryPolicy::every_tick();
  RetryState join_retry_;
  RetryState close_retry_;
  RetryState rejoin_retry_;
  std::optional<wire::Envelope> close_request_;

  bool auto_rejoin_ = false;
  bool want_membership_ = false;  // joined and never voluntarily left
  Tick suspect_after_ = 0;
  Tick last_activity_ = 0;
  Tick join_started_at_ = 0;  // when the current handshake began (obs)
  std::uint64_t rejoins_ = 0;

  // Disconnected operation / reconciliation (PROTOCOL.md §12). Kr is a
  // snapshot of the pairwise session key taken the moment the partition is
  // declared — the only credential that can seal reconcile traffic the
  // leader's parole list will accept. The offer envelope is cached for
  // byte-identical retransmission and rebuilt (fresh nonce) whenever the
  // op-log grows; during replay the cache holds the in-flight op instead.
  bool reconcile_enabled_ = false;
  RetryPolicy reconcile_policy_ = RetryPolicy::every_tick();
  RetryState reconcile_retry_;
  bool disconnected_mode_ = false;
  crypto::SessionKey kr_;
  OpLog oplog_;
  std::uint64_t fence_epoch_ = 0;          // epoch held at disconnect
  crypto::ProtocolNonce reconcile_nonce_;  // echoed in every verdict
  std::optional<wire::Envelope> reconcile_env_;
  std::uint64_t offer_len_ = 0;      // op-log length the cached offer covers
  bool replay_active_ = false;       // admit received, ops in flight
  std::uint64_t replay_acked_ = 0;   // leader's cumulative ack floor
  std::uint64_t replay_sent_ = 0;    // highest op seq handed to the wire
  std::uint64_t verdict_epoch_ = 0;  // leader epoch inside the admit
  std::uint64_t pending_replayed_ = 0;  // next_seq_ fix-up after fast rejoin

  // Key-tree rekey plane (core/keytree.h, PROTOCOL.md §13). The view is
  // armed by the first KeyTreeAssign admin body; the recovery envelope is
  // cached for byte-identical retransmission until the path lands.
  KeyTreeView keytree_;
  RetryPolicy keytree_retry_policy_ = RetryPolicy::every_tick();
  RetryState keytree_retry_;
  crypto::ProtocolNonce keytree_nonce_;
  std::optional<wire::Envelope> keytree_recover_env_;

  // HA failover (PROTOCOL.md §11). epoch_floor_ deliberately survives
  // drop_group_state(): the fence must hold across suspicion, expulsion and
  // rejoin, or a resurrected pre-failover leader could roll the member back
  // onto a stale group key.
  std::vector<std::string> failover_targets_;
  std::size_t target_idx_ = 0;
  std::uint64_t epoch_floor_ = 0;
  std::uint64_t epochs_fenced_ = 0;

  // Federation redirects (PROTOCOL.md §14). The hop budget resets on a
  // successful connect; an exhausted budget leaves the ordinary
  // retry/failover machinery in charge, so a redirect forger can never
  // starve a join.
  std::uint32_t redirect_hops_ = 0;
  std::uint64_t redirects_followed_ = 0;
};

}  // namespace enclaves::core
