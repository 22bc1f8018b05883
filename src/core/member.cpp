#include "core/member.h"

#include "obs/event.h"
#include "obs/prof.h"
#include "util/logging.h"
#include "wire/fed.h"
#include "wire/keytree.h"
#include "wire/payloads.h"
#include "wire/reconcile.h"
#include "wire/seal.h"

namespace enclaves::core {

Member::Member(std::string id, std::string leader_id, crypto::LongTermKey pa,
               Rng& rng, const crypto::Aead& aead)
    : id_(std::move(id)),
      leader_id_(std::move(leader_id)),
      rng_(rng),
      aead_(aead),
      session_(id_, leader_id_, pa, rng, aead) {}

void Member::emit(GroupEvent event) {
  if (on_event_) on_event_(event);
}

void Member::emit_view_changed() {
  if (on_event_) emit(ViewChanged{view_.snapshot()});
}

Status Member::join() {
  auto env = session_.start_join();
  if (!env) return env.error();
  want_membership_ = true;
  join_started_at_ = clock_.now();
  join_retry_.arm(clock_.now(), stable_salt(id_));
  rejoin_retry_.disarm();
  obs::emit(counters_, obs::Event::member_phase, clock_.now(), leader_id_, id_,
            leader_id_, "NotConnected->WaitingForKey");
  if (send_) send_(leader_id_, *std::move(env));
  return Status::success();
}

Status Member::leave() {
  auto env = session_.request_close();
  if (!env) return env.error();
  close_request_ = *env;
  close_retry_.arm(clock_.now(), stable_salt(id_) ^ 0xC105E);
  want_membership_ = false;  // a voluntary leave is not to be undone by
  rejoin_retry_.disarm();    // the auto-rejoin machinery
  join_retry_.disarm();
  obs::emit(counters_, obs::Event::leave_requested, clock_.now(), leader_id_,
            id_, leader_id_, "left");
  if (send_) send_(leader_id_, *std::move(env));
  // Honest members drop all group secrets on leave. (A *dishonest* past
  // member keeps them — that is the paper's threat model, exercised by the
  // attack harness, not by this class.)
  drop_group_state();
  emit(SessionClosed{"left"});
  return Status::success();
}

void Member::drop_group_state() {
  have_kg_ = false;
  kg_ = crypto::GroupKey{};
  epoch_ = 0;
  view_.clear();
  next_seq_ = 0;
  last_seq_.clear();
  keytree_.reset();
  keytree_recover_env_.reset();
  keytree_retry_.disarm();
}

Status Member::send_data(BytesView payload) {
  if (disconnected_mode_) {
    if (replay_active_)
      return make_error(Errc::unexpected, "reconciliation replay in progress");
    if (auto s = oplog_.append(fence_epoch_, payload); !s) return s;
    obs::gauge_set(leader_id_, id_, "oplog_depth",
                   static_cast<std::int64_t>(oplog_.size()));
    obs::emit(counters_, obs::Event::oplog_append, clock_.now(), leader_id_,
              id_, leader_id_, {}, oplog_.size());
    reconcile_env_.reset();  // the cached offer no longer covers the log
    return Status::success();
  }
  if (!connected()) return make_error(Errc::unexpected, "not connected");
  if (!have_kg_) return make_error(Errc::unexpected, "no group key yet");

  wire::GroupDataPayload body{id_, epoch_, next_seq_++,
                              Bytes(payload.begin(), payload.end())};
  auto env = wire::make_sealed(aead_, kg_.view(), rng_, wire::Label::GroupData,
                               id_, wire::kGroupRecipient, wire::encode(body));
  if (send_) send_(leader_id_, std::move(env));
  return Status::success();
}

void Member::handle(const wire::Envelope& e) {
  PROF_SCOPE("member/handle");
  if (e.label == wire::Label::GroupData) {
    handle_group_data(e);
    return;
  }
  if (e.label == wire::Label::FedRedirect) {
    handle_fed_redirect(e);
    return;
  }
  if (e.label == wire::Label::ReconcileVerdict) {
    handle_reconcile_verdict(e);
    return;
  }
  if (e.label == wire::Label::KeyTreeUpdate) {
    handle_keytree_update(e);
    return;
  }
  if (e.label == wire::Label::KeyTreePath) {
    handle_keytree_path(e);
    return;
  }

  auto outcome = session_.handle(e);
  if (!outcome) {
    obs::emit(counters_, obs::Event::auth_reject,
              obs::evidence_kind_for(outcome.error().code), clock_.now(),
              leader_id_, id_, e.sender, wire::enum_name(e.label));
    return;  // rejected; tallied inside the session
  }

  // Authenticated traffic (even a benign duplicate) proves the leader is
  // alive; feed the suspicion timer.
  note_activity();

  if (outcome->duplicate_retransmit) {
    obs::emit(counters_, obs::Event::reanswer, clock_.now(), leader_id_, id_,
              leader_id_, wire::enum_name(e.label));
  }
  // An Expelled notice ends the session on BOTH sides: the leader discarded
  // Ka before this message was delivered, so the stop-and-wait Ack has no
  // addressee — sending it would only land on the closed slot as an
  // out-of-state Ack and be ledgered against us.
  const bool terminal_admin =
      outcome->admin && std::holds_alternative<wire::Expelled>(*outcome->admin);
  if (outcome->reply && send_ && !terminal_admin)
    send_(leader_id_, *std::move(outcome->reply));
  if (outcome->became_connected) {
    join_retry_.disarm();
    rejoin_retry_.disarm();
    redirect_hops_ = 0;  // fresh redirect budget for the next attempt
    obs::observe(leader_id_, id_, "join_latency_ticks",
                 clock_.now() - join_started_at_);
    obs::emit(counters_, obs::Event::session_up, clock_.now(), leader_id_, id_,
              leader_id_, "WaitingForKey->Connected");
    emit(SessionEstablished{});
  }
  if (outcome->admin) {
    // A fenced admin body was authenticated but rejected on group-state
    // grounds (stale epoch from a deposed leader) — not "accepted".
    if (apply_admin(*outcome->admin))
      emit(AdminAccepted{*std::move(outcome->admin)});
  }
}

void Member::set_failover_targets(std::vector<std::string> targets) {
  failover_targets_ = std::move(targets);
  if (failover_targets_.empty()) return;
  for (std::size_t i = 0; i < failover_targets_.size(); ++i) {
    if (failover_targets_[i] == leader_id_) {
      target_idx_ = i;
      return;
    }
  }
  failover_targets_.insert(failover_targets_.begin(), leader_id_);
  target_idx_ = 0;
}

void Member::advance_failover_target() {
  if (failover_targets_.size() < 2) return;
  target_idx_ = (target_idx_ + 1) % failover_targets_.size();
  const std::string& next = failover_targets_[target_idx_];
  if (next == leader_id_) return;
  if (!session_.retarget(next).ok()) return;  // handshake live: keep target
  obs::emit(counters_, obs::Event::retarget, clock_.now(), leader_id_, id_,
            next, "retarget");
  leader_id_ = next;
}

void Member::handle_fed_redirect(const wire::Envelope& e) {
  // FedRedirect is an UNSEALED advisory routing hint (PROTOCOL.md §14): the
  // worst a forged one achieves is pointing us at a leader that cannot
  // authenticate us — operationally a dropped packet. It is therefore
  // honoured only while we hold no session worth keeping, only when it
  // names the leader we are actually targeting, and at most
  // kMaxRedirectHops times per connection attempt, after which the
  // ordinary retry/failover machinery stays in charge.
  static constexpr std::uint32_t kMaxRedirectHops = 4;
  if (connected()) return;
  if (e.recipient != id_) return;
  auto payload = wire::decode<wire::FedRedirectPayload>(e.body);
  if (!payload) return;
  if (payload->stale_leader != leader_id_) return;  // stale or cross hint
  if (payload->owner_leader.empty() || payload->owner_leader == leader_id_)
    return;
  if (redirect_hops_ >= kMaxRedirectHops) {
    obs::count(leader_id_, id_, "redirects_ignored_total");
    return;
  }
  ++redirect_hops_;
  ++redirects_followed_;
  const std::string owner = payload->owner_leader;
  obs::emit(counters_, obs::Event::redirect_followed, clock_.now(), leader_id_,
            id_, owner, "followed", payload->dir_version);
  if (disconnected_mode_) {
    // Reconciliation follows the group: the owner imported the parole list
    // with the migrated snapshot, so retarget and rebuild the cached offer
    // addressed to the new leader (the session is already closed locally in
    // this mode, so retarget cannot fail).
    (void)session_.retarget(owner);
    leader_id_ = owner;
    reconcile_env_.reset();
    return;
  }
  // Abandon the half-open handshake to the wrong shard — nothing in it was
  // confirmed to anyone — and restart against the owner.
  session_.close_local();
  if (!session_.retarget(owner).ok()) return;
  leader_id_ = owner;
  join_retry_.disarm();
  if (want_membership_) (void)join();
}

bool Member::apply_admin(const wire::AdminBody& body) {
  PROF_SCOPE("member/admin/apply");
  return std::visit(
      [this](const auto& b) -> bool {
        using T = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<T, wire::NewGroupKey>) {
          if (b.epoch < epoch_floor_) {
            // Epoch fence (PROTOCOL.md §11): a key older than one we have
            // already accepted can only come from a leader that was deposed
            // by a failover — obeying it would fork the group. Drop the
            // session and let rejoin find the live leader.
            ++epochs_fenced_;
            obs::emit(counters_, obs::Event::epoch_fenced, clock_.now(),
                      leader_id_, id_, leader_id_, "stale_epoch", b.epoch);
            obs::emit(counters_, obs::Event::key_below_floor, clock_.now(),
                      leader_id_, id_, leader_id_, "NewGroupKey below floor",
                      b.epoch);
            session_.close_local();
            drop_group_state();
            if (auto_rejoin_ && want_membership_)
              rejoin_retry_.arm(clock_.now(), stable_salt(id_) ^ 0x4E30);
            emit(SessionClosed{"epoch fenced"});
            return false;
          }
          epoch_floor_ = b.epoch;
          kg_ = b.key;
          epoch_ = b.epoch;
          have_kg_ = true;
          // New epoch: sequence space restarts for everyone.
          last_seq_.clear();
          next_seq_ = 0;
          if (pending_replayed_ > 0) {
            // Fast rejoin after an admitted reconciliation: the leader
            // already relayed our replayed ops under the verdict epoch with
            // seqs 0..n-1, so the outbound counter must resume past them or
            // the group would reject our next publish as a replay.
            if (b.epoch == verdict_epoch_) next_seq_ = pending_replayed_;
            pending_replayed_ = 0;
          }
          obs::emit(counters_, obs::Event::rekey_applied, clock_.now(),
                    leader_id_, id_, leader_id_, {}, epoch_);
          emit(EpochChanged{epoch_});
        } else if constexpr (std::is_same_v<T, wire::MemberJoined>) {
          view_.insert(b.member);
          emit_view_changed();
        } else if constexpr (std::is_same_v<T, wire::MemberLeft>) {
          view_.erase(b.member);
          emit_view_changed();
        } else if constexpr (std::is_same_v<T, wire::MemberList>) {
          view_.assign(b.members);
          emit_view_changed();
        } else if constexpr (std::is_same_v<T, wire::Notice>) {
          // surfaced via the AdminAccepted event only
        } else if constexpr (std::is_same_v<T, wire::KeyTreeAssign>) {
          // Tree-mode leader seated (or re-seated after growth) us on a
          // leaf. No key material travels here: both sides derive the leaf
          // KEK from the pairwise Ka locally.
          keytree_.assign(b.leaf, session_.session_key(), id_);
          obs::count(leader_id_, id_, "keytree_assigns_total");
        } else if constexpr (std::is_same_v<T, wire::Expelled>) {
          obs::emit(counters_, obs::Event::expelled, clock_.now(), leader_id_,
                    id_, leader_id_, "expelled");
          if (reconcile_enabled_ && have_kg_ && b.reason == "stalled") {
            // A liveness eviction (the leader merely lost contact) with
            // reconciliation enabled is a partition signal, not a
            // punishment: keep Kg/epoch/view and enter disconnected mode
            // instead of dropping group state. For-cause expulsions (any
            // other reason) still take the unconditional drop below.
            enter_disconnected("expelled");
            emit(SessionClosed{"expelled: " + b.reason +
                               " (disconnected mode)"});
            return true;
          }
          // Authenticated eviction: the leader has already discarded our
          // session; drop all local group state.
          session_.close_local();
          drop_group_state();
          // Expulsion is not a voluntary leave: if auto-rejoin is on, come
          // back with a fresh handshake (fresh Ka — the old one is gone).
          if (auto_rejoin_ && want_membership_)
            rejoin_retry_.arm(clock_.now(), stable_salt(id_) ^ 0x4E30);
          emit(SessionClosed{"expelled: " + b.reason});
        }
        return true;
      },
      body);
}

void Member::handle_group_data(const wire::Envelope& e) {
  PROF_SCOPE("member/data/open");
  auto data_reject = [this, &e](obs::EvidenceKind kind, const char* why) {
    ++data_rejects_;
    obs::emit(counters_, obs::Event::data_reject, kind, clock_.now(),
              leader_id_, id_, e.sender, why);
  };
  if (!connected() || !have_kg_) {
    data_reject(obs::EvidenceKind::bad_label, "no session or group key");
    return;
  }
  auto plain = wire::open_sealed(aead_, kg_.view(), e);
  if (!plain) {
    // Sealed under some other epoch's key, or forged by a non-member.
    data_reject(obs::EvidenceKind::aead_open_failure,
                "does not open under current Kg");
    // Under a tree-mode leader this is also the missed-broadcast symptom:
    // the group moved to an epoch whose update we lost. Ask for our path.
    if (keytree_.assigned() && !keytree_recover_env_)
      request_keytree_recovery();
    return;
  }
  auto payload = wire::decode<wire::GroupDataPayload>(*plain);
  if (!payload || payload->epoch != epoch_ || payload->origin != e.sender) {
    data_reject(obs::EvidenceKind::stale_epoch,
                "stale epoch or origin mismatch");
    return;
  }
  // Per-origin strictly increasing sequence: rejects within-epoch replays.
  auto [it, inserted] = last_seq_.try_emplace(payload->origin, payload->seq);
  if (!inserted) {
    if (payload->seq <= it->second) {
      data_reject(obs::EvidenceKind::replayed_seq, "replayed sequence");
      return;
    }
    it->second = payload->seq;
  }
  note_activity();  // data relayed by the leader also proves it alive
  // The (origin, epoch, seq) triple uniquely names one application
  // delivery; chaos tests assert no triple is ever delivered twice. Only the
  // event record reads the detail, so it is built only when one is taken.
  std::string detail;
  if (obs::records_attached())
    detail = "epoch=" + std::to_string(payload->epoch);
  obs::emit(counters_, obs::Event::data_deliver, clock_.now(), leader_id_, id_,
            payload->origin, detail, payload->seq);
  emit(DataReceived{payload->origin, payload->payload});
}

void Member::enter_disconnected(const std::string& reason) {
  // Snapshot Kr *before* tearing the session down: it is the credential the
  // leader's parole entry for us keeps, and the only key reconcile traffic
  // can be sealed under.
  kr_ = session_.session_key();
  session_.close_local();
  disconnected_mode_ = true;
  fence_epoch_ = epoch_;
  oplog_ = OpLog(kr_);
  replay_active_ = false;
  replay_acked_ = 0;
  replay_sent_ = 0;
  verdict_epoch_ = 0;
  pending_replayed_ = 0;
  keytree_.reset();  // the leaf KEK dies with Ka; rejoin re-seats us
  keytree_recover_env_.reset();
  keytree_retry_.disarm();
  join_retry_.disarm();
  rejoin_retry_.disarm();
  reconcile_retry_.arm(clock_.now(), stable_salt(id_) ^ 0x0F7E);
  obs::gauge_set(leader_id_, id_, "oplog_depth", 0);
  obs::emit(counters_, obs::Event::disconnect, clock_.now(), leader_id_, id_,
            leader_id_, reason);
  build_reconcile_offer();  // sealed now, sent from tick()
}

void Member::build_reconcile_offer() {
  reconcile_nonce_ = crypto::ProtocolNonce::random(rng_);
  wire::ReconcileOfferPayload body{id_,          leader_id_,
                                   reconcile_nonce_, fence_epoch_,
                                   oplog_.size(),    oplog_.head()};
  reconcile_env_ =
      wire::make_sealed(aead_, kr_.view(), rng_, wire::Label::ReconcileOffer,
                        id_, leader_id_, wire::encode(body));
  offer_len_ = oplog_.size();
  obs::emit(counters_, obs::Event::offer_sent, clock_.now(), leader_id_, id_,
            leader_id_, {}, oplog_.size());
}

void Member::send_next_op() {
  const std::uint64_t seq = replay_acked_ + 1;
  const OpLog::Entry& op = oplog_.entries()[seq - 1];
  wire::OpReplayPayload body{id_, op.seq, op.epoch, op.mac, op.payload};
  reconcile_env_ =
      wire::make_sealed(aead_, kr_.view(), rng_, wire::Label::OpReplay, id_,
                        leader_id_, wire::encode(body));
  replay_sent_ = seq;
  obs::emit(counters_, obs::Event::op_replay, clock_.now(), leader_id_, id_,
            leader_id_, {}, seq);
  if (send_) send_(leader_id_, *reconcile_env_);
  reconcile_retry_.record_attempt(clock_.now(), reconcile_policy_);
}

void Member::finish_reconcile(const char* detail, std::uint64_t value,
                              bool success) {
  // Member-side terminal event of the reconciliation span.
  obs::emit(counters_, obs::Event::reconcile_verdict, clock_.now(), leader_id_,
            id_, leader_id_, detail, value);
  disconnected_mode_ = false;
  replay_active_ = false;
  reconcile_env_.reset();
  reconcile_retry_.disarm();
  obs::gauge_set(leader_id_, id_, "oplog_depth", 0);
  if (success) {
    // Fast rejoin: the leader already relayed every queued op under the
    // verdict epoch; remember how many so next_seq_ resumes past them once
    // the fresh NewGroupKey lands. Kg/epoch/view stay live across the heal.
    pending_replayed_ = oplog_.size();
    oplog_.clear();
    (void)join();
    return;
  }
  oplog_.clear();
  pending_replayed_ = 0;
  drop_group_state();
  if (auto_rejoin_ && want_membership_)
    rejoin_retry_.arm(clock_.now(), stable_salt(id_) ^ 0x4E30);
  emit(SessionClosed{std::string("reconcile ") + detail});
}

void Member::handle_reconcile_verdict(const wire::Envelope& e) {
  auto reject = [this, &e](obs::EvidenceKind kind, const char* why) {
    obs::emit(counters_, obs::Event::auth_reject, kind, clock_.now(),
              leader_id_, id_, e.sender, why);
  };
  if (!disconnected_mode_) {
    reject(obs::EvidenceKind::bad_label, "verdict outside disconnected mode");
    return;
  }
  auto plain = wire::open_sealed(aead_, kr_.view(), e);
  if (!plain) {
    reject(obs::EvidenceKind::aead_open_failure,
           "verdict does not open under Kr");
    return;
  }
  auto p = wire::decode<wire::ReconcileVerdictPayload>(*plain);
  if (!p) {
    reject(obs::EvidenceKind::malformed, "malformed reconcile verdict");
    return;
  }
  if (p->l != leader_id_ || p->a != id_) {
    reject(obs::EvidenceKind::identity_mismatch,
           "reconcile verdict identity mismatch");
    return;
  }
  if (p->nr != reconcile_nonce_) {
    reject(obs::EvidenceKind::stale_nonce, "reconcile nonce mismatch");
    return;
  }
  note_activity();
  switch (p->verdict) {
    case wire::ReconcileVerdictKind::admit: {
      if (!replay_active_) {
        replay_active_ = true;
        obs::count(leader_id_, id_, "reconcile_admits_total");
      }
      // Track the newest leader epoch seen: the next_seq_ fix-up must bind
      // to the epoch the leader actually relayed the final ops under.
      verdict_epoch_ = p->epoch;
      if (p->ack_seq > replay_acked_) replay_acked_ = p->ack_seq;
      if (replay_acked_ >= oplog_.size()) {
        finish_reconcile("admitted", verdict_epoch_, true);
      } else if (replay_acked_ + 1 != replay_sent_) {
        // Not already in flight (duplicate verdicts re-send via the retry
        // timer, not here — keeps the replayed-op count honest).
        send_next_op();
      }
      break;
    }
    case wire::ReconcileVerdictKind::quarantine:
      obs::count(leader_id_, id_, "reconcile_quarantines_total");
      finish_reconcile("quarantined", p->epoch, false);
      break;
    case wire::ReconcileVerdictKind::intrusion:
      obs::count(leader_id_, id_, "reconcile_intrusions_total");
      finish_reconcile("intrusion", p->epoch, false);
      break;
  }
}

void Member::install_keytree_epoch(const crypto::GroupKey& kg,
                                   std::uint64_t epoch, bool authoritative) {
  kg_ = kg;
  epoch_ = epoch;
  have_kg_ = true;
  // An authoritative install (solicited KEY_TREE_PATH, sealed under the
  // pairwise leaf KEK) may REWIND the floor: it is how a member desynced
  // forward by a forged-but-confirmable in-subtree update rolls back to
  // the leader's truth instead of fencing every honest epoch forever.
  if (authoritative || epoch > epoch_floor_) epoch_floor_ = epoch;
  last_seq_.clear();
  next_seq_ = 0;
  if (pending_replayed_ > 0) {
    // Same fix-up as the NewGroupKey path: a fast rejoin's replayed ops
    // already occupy seqs 0..n-1 under the verdict epoch.
    if (epoch == verdict_epoch_) next_seq_ = pending_replayed_;
    pending_replayed_ = 0;
  }
  keytree_recover_env_.reset();
  keytree_retry_.disarm();
  obs::emit(counters_, obs::Event::rekey_applied, clock_.now(), leader_id_, id_,
            leader_id_, {}, epoch_);
  emit(EpochChanged{epoch_});
}

void Member::handle_keytree_update(const wire::Envelope& e) {
  PROF_SCOPE("member/keytree/apply");
  auto reject = [this, &e](obs::EvidenceKind kind, const char* why,
                           std::uint64_t value = 0) {
    obs::emit(counters_, obs::Event::keytree_reject, kind, clock_.now(),
              leader_id_, id_, e.sender, why, value);
  };
  if (!connected() || !keytree_.assigned()) {
    // A broadcast can legitimately race ahead of our KeyTreeAssign (or
    // outlive our session); there is nothing to verify it against yet and
    // the recovery path will catch us up once we are seated.
    obs::count(leader_id_, id_, "keytree_unapplied_total");
    return;
  }
  // The view borrows the sealed entries from e.body, which outlives it.
  auto p = wire::decode<wire::KeyTreeUpdateView>(e.body);
  if (!p) {
    reject(obs::EvidenceKind::malformed, "malformed keytree update");
    return;
  }
  if (p->l != leader_id_) {
    reject(obs::EvidenceKind::identity_mismatch,
           "keytree update claims wrong leader");
    return;
  }
  // Unlike a fenced NewGroupKey (pairwise-authenticated, so a stale epoch
  // proves a deposed leader and is worth dropping the session over), the
  // update plane is an unauthenticated broadcast: anyone can replay an old
  // one. Refuse quietly-but-ledgered and KEEP the session — closing it here
  // would let one replayed capture evict any member at will.
  if (have_kg_ && p->epoch <= epoch_) {
    if (p->epoch < epoch_)  // same-epoch duplicate is routine loss recovery
      reject(obs::EvidenceKind::stale_epoch,
             "keytree update below our epoch", p->epoch);
    return;
  }
  if (p->epoch < epoch_floor_) {
    ++epochs_fenced_;
    obs::emit(counters_, obs::Event::epoch_fenced, clock_.now(), leader_id_,
              id_, e.sender, "stale_keytree_epoch", p->epoch);
    reject(obs::EvidenceKind::epoch_fenced, "keytree update below floor",
           p->epoch);
    return;
  }
  auto res = keytree_.apply_update(aead_, *p, epoch_);
  switch (res.outcome) {
    case KeyTreeView::Outcome::applied:
      note_activity();
      obs::count(leader_id_, id_, "keytree_updates_applied_total");
      install_keytree_epoch(res.kg, res.epoch, /*authoritative=*/false);
      break;
    case KeyTreeView::Outcome::stale:
      break;  // raced with a newer install between the checks above
    case KeyTreeView::Outcome::unreachable:
      // We lack the carrier KEKs — an earlier broadcast was lost. Not
      // evidence of wrongdoing; ask the leader for our current path.
      obs::count(leader_id_, id_, "keytree_unreachable_total");
      request_keytree_recovery();
      break;
    case KeyTreeView::Outcome::forged:
      reject(obs::EvidenceKind::forged_keytree,
             "keytree update fails confirmation", p->epoch);
      break;
  }
}

void Member::handle_keytree_path(const wire::Envelope& e) {
  PROF_SCOPE("member/keytree/path");
  auto reject = [this, &e](obs::EvidenceKind kind, const char* why,
                           std::uint64_t value = 0) {
    obs::emit(counters_, obs::Event::keytree_reject, kind, clock_.now(),
              leader_id_, id_, e.sender, why, value);
  };
  if (!connected() || !keytree_.assigned()) {
    reject(obs::EvidenceKind::bad_label, "keytree path without a leaf");
    return;
  }
  auto plain = wire::open_sealed(aead_, keytree_.leaf_kek().view(), e);
  if (!plain) {
    reject(obs::EvidenceKind::aead_open_failure,
           "keytree path does not open under leaf KEK");
    return;
  }
  auto p = wire::decode<wire::KeyTreePathPayload>(*plain);
  if (!p) {
    reject(obs::EvidenceKind::malformed, "malformed keytree path");
    return;
  }
  if (p->l != leader_id_ || p->a != id_) {
    reject(obs::EvidenceKind::identity_mismatch,
           "keytree path identity mismatch");
    return;
  }
  std::optional<crypto::ProtocolNonce> expect;
  if (keytree_recover_env_) expect = keytree_nonce_;
  const bool solicited = expect && p->nr == *expect;
  auto res = keytree_.apply_path(*p, epoch_, expect);
  switch (res.outcome) {
    case KeyTreeView::Outcome::applied:
      note_activity();
      obs::emit(counters_, obs::Event::keytree_path, clock_.now(), leader_id_,
                id_, leader_id_, solicited ? "healed" : "seeded", res.epoch);
      if (have_kg_ && res.epoch == epoch_) {
        // Same-epoch refresh: apply_path already (re)installed the path
        // KEKs; Kg, the sequence space and the floor are untouched.
        keytree_recover_env_.reset();
        keytree_retry_.disarm();
        break;
      }
      install_keytree_epoch(res.kg, res.epoch, solicited);
      break;
    case KeyTreeView::Outcome::stale:
      // An unsolicited path at an older epoch: replay bait.
      reject(obs::EvidenceKind::stale_epoch, "stale keytree path", p->epoch);
      break;
    case KeyTreeView::Outcome::unreachable:
      break;  // cannot happen once assigned; defensive
    case KeyTreeView::Outcome::forged:
      reject(obs::EvidenceKind::forged_keytree,
             "keytree path fails confirmation", p->epoch);
      break;
  }
}

void Member::request_keytree_recovery() {
  if (!connected() || !keytree_.assigned() || keytree_recover_env_) return;
  keytree_nonce_ = crypto::ProtocolNonce::random(rng_);
  wire::KeyTreeRecoverPayload body{id_, leader_id_, keytree_nonce_,
                                   have_kg_ ? epoch_ : 0};
  keytree_recover_env_ = wire::make_sealed(
      aead_, keytree_.leaf_kek().view(), rng_, wire::Label::KeyTreeRecover,
      id_, leader_id_, wire::encode(body));
  keytree_retry_.arm(clock_.now(), stable_salt(id_) ^ 0x7EE5);
  obs::emit(counters_, obs::Event::keytree_recover, clock_.now(), leader_id_,
            id_, leader_id_, "request", epoch_);
  if (send_) send_(leader_id_, *keytree_recover_env_);
  keytree_retry_.record_attempt(clock_.now(), keytree_retry_policy_);
}

std::size_t Member::tick() {
  PROF_SCOPE("member/tick");
  clock_.advance();
  const Tick now = clock_.now();
  std::size_t sent = 0;

  // Join-handshake retransmission (byte-identical; covers a lost request or
  // a lost AuthKeyDist, which the leader re-answers idempotently).
  if (auto env = session_.pending_retransmit()) {
    if (!join_retry_.armed()) join_retry_.arm(now, stable_salt(id_));
    if (join_retry_.due(now, retry_policy_) && send_) {
      obs::emit(counters_, obs::Event::retransmit, now, leader_id_, id_,
                leader_id_, wire::enum_name(env->label));
      send_(leader_id_, *std::move(env));
      join_retry_.record_attempt(now, retry_policy_);
      ++sent;
    } else if (join_retry_.exhausted(retry_policy_)) {
      // Budget spent: give this attempt up. Auto-rejoin (if enabled) will
      // start a fresh handshake on its own schedule.
      session_.close_local();
      join_retry_.disarm();
      if (auto_rejoin_ && want_membership_)
        rejoin_retry_.arm(now, stable_salt(id_) ^ 0x4E30);
      obs::emit(counters_, obs::Event::abandon, now, leader_id_, id_,
                leader_id_, "join_exhausted");
      emit(SessionClosed{"join attempts exhausted"});
    }
  } else {
    join_retry_.disarm();
  }

  // Best-effort ReqClose retransmission through its budgeted policy — only
  // while we stayed out of the group: a rejoin supersedes the close.
  if (close_request_) {
    if (close_retry_.exhausted(close_retry_policy_)) {
      close_request_.reset();
      close_retry_.disarm();
    } else if (close_retry_.due(now, close_retry_policy_)) {
      if (session_.state() == MemberSession::State::not_connected && send_) {
        obs::emit(counters_, obs::Event::retransmit, now, leader_id_, id_,
                  leader_id_, wire::enum_name(close_request_->label));
        send_(leader_id_, *close_request_);
        ++sent;
      }
      close_retry_.record_attempt(now, close_retry_policy_);
    }
  }

  // Leader suspicion: connected but silent past the idle budget. Drop the
  // session locally; rejoin (below) re-authenticates with fresh keys, so a
  // false suspicion costs liveness only, never safety.
  if (suspect_after_ > 0 && connected() &&
      now - last_activity_ >= suspect_after_) {
    ENCLAVES_LOG(info) << id_ << ": leader silent for "
                       << (now - last_activity_) << " ticks, suspecting";
    obs::emit(counters_, obs::Event::suspect, now, leader_id_, id_, leader_id_);
    if (reconcile_enabled_ && have_kg_) {
      // Partition-tolerant path (PROTOCOL.md §12): suspicion marks a
      // partition, not a death sentence — retain group state and start
      // offering reconciliation instead of dropping everything.
      enter_disconnected("suspected");
    } else {
      session_.close_local();
      drop_group_state();
      if (auto_rejoin_ && want_membership_)
        rejoin_retry_.arm(now, stable_salt(id_) ^ 0x4E30);
    }
    emit(SessionClosed{"leader suspected unreachable"});
  }

  // Disconnected-mode reconciliation: (re-)send the current offer — or the
  // in-flight replayed op — on the reconcile policy's schedule. The cached
  // envelope is rebuilt (fresh nonce) whenever the op-log grew since it was
  // sealed. An exhausted budget abandons the heal and falls back to the
  // classic drop-state + rejoin path, so liveness never hinges on a heal.
  if (disconnected_mode_) {
    if (reconcile_retry_.exhausted(reconcile_policy_)) {
      obs::count(leader_id_, id_, "reconcile_abandons_total");
      finish_reconcile("abandoned", 0, false);
    } else if (reconcile_retry_.due(now, reconcile_policy_)) {
      if (!reconcile_env_ || (!replay_active_ && offer_len_ != oplog_.size()))
        build_reconcile_offer();
      if (reconcile_retry_.attempts() > 0) {
        obs::emit(counters_, obs::Event::retransmit, now, leader_id_, id_,
                  leader_id_, wire::enum_name(reconcile_env_->label));
      }
      if (send_) send_(leader_id_, *reconcile_env_);
      reconcile_retry_.record_attempt(now, reconcile_policy_);
      ++sent;
    }
  }

  // Key-tree path recovery: retransmit the cached KEY_TREE_RECOVER
  // byte-identically until the path lands (install clears it) or the
  // budget runs out — a lost answer is re-answered idempotently.
  if (keytree_recover_env_) {
    if (!connected() || !keytree_.assigned()) {
      keytree_recover_env_.reset();
      keytree_retry_.disarm();
    } else if (keytree_retry_.exhausted(keytree_retry_policy_)) {
      keytree_recover_env_.reset();
      keytree_retry_.disarm();
      obs::count(leader_id_, id_, "exchanges_abandoned_total");
    } else if (keytree_retry_.due(now, keytree_retry_policy_)) {
      obs::emit(counters_, obs::Event::retransmit, now, leader_id_, id_,
                leader_id_, wire::enum_name(keytree_recover_env_->label));
      if (send_) send_(leader_id_, *keytree_recover_env_);
      keytree_retry_.record_attempt(now, keytree_retry_policy_);
      ++sent;
    }
  }

  // Auto-rejoin with backoff. Each firing advances the failover target
  // round-robin (no-op without set_failover_targets), so a join budget
  // exhausted against a dead leader rolls over to the promoted standby.
  if (auto_rejoin_ && want_membership_ &&
      session_.state() == MemberSession::State::not_connected &&
      rejoin_retry_.armed() && rejoin_retry_.due(now, rejoin_policy_)) {
    rejoin_retry_.record_attempt(now, rejoin_policy_);
    advance_failover_target();
    ++rejoins_;
    note_activity();  // restart the suspicion window for the new attempt
    obs::emit(counters_, obs::Event::rejoin, now, leader_id_, id_, leader_id_);
    if (join().ok()) ++sent;
  }

  return sent;
}

std::vector<std::string> Member::view() const { return view_.members(); }

}  // namespace enclaves::core
