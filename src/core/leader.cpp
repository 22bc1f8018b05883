#include "core/leader.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "core/oplog.h"
#include "wire/keytree.h"
#include "obs/event.h"
#include "obs/prof.h"
#include "util/logging.h"
#include "wire/payloads.h"
#include "wire/seal.h"

namespace enclaves::core {

Leader::Leader(LeaderConfig config, Rng& rng, const crypto::Aead& aead)
    : config_(std::move(config)), rng_(rng), aead_(aead) {}

Status Leader::register_member(const std::string& member_id,
                               crypto::LongTermKey pa) {
  if (member_id == config_.id)
    return make_error(Errc::denied, "member id collides with leader id");
  if (sessions_.count(member_id))
    return make_error(Errc::already_exists, member_id);
  auto session = std::make_unique<LeaderSession>(config_.id, member_id, pa,
                                                 rng_, aead_);
  session->on_session_closed = [this, member_id](const crypto::SessionKey& k) {
    if (on_oops) on_oops(member_id, k);
  };
  sessions_.emplace(member_id, std::move(session));
  if (on_credential_added) on_credential_added(member_id, pa);
  return Status::success();
}

Status Leader::update_credential(const std::string& member_id,
                                 crypto::LongTermKey pa) {
  auto it = sessions_.find(member_id);
  if (it == sessions_.end()) return make_error(Errc::unknown_peer, member_id);
  it->second->set_long_term_key(pa);
  if (on_credential_updated) on_credential_updated(member_id, pa);
  return Status::success();
}

void Leader::send(const std::string& to, wire::Envelope e) {
  if (send_) send_(to, std::move(e));
}

void Leader::handle(const wire::Envelope& e) {
  PROF_SCOPE("leader/handle");
  if (e.label == wire::Label::GroupData) {
    handle_group_data(e);
    return;
  }
  if (e.label == wire::Label::ReconcileOffer) {
    handle_reconcile_offer(e);
    return;
  }
  if (e.label == wire::Label::OpReplay) {
    handle_op_replay(e);
    return;
  }
  if (e.label == wire::Label::KeyTreeRecover) {
    handle_keytree_recover(e);
    return;
  }

  // Admission policy gate: a denied member's join request is silently
  // ignored (no forgeable denial message exists in the improved protocol).
  if (e.label == wire::Label::AuthInitReq && policy_) {
    auto decision = policy_->may_join(e.sender, members_.size());
    if (!decision.allow) {
      obs::emit(counters_, obs::Event::join_denied, clock_.now(), config_.id,
                config_.id, e.sender, decision.reason);
      return;
    }
  }

  // Route by the (untrusted) apparent sender: it only selects which member's
  // keys we try; authenticity is decided by decryption.
  auto it = sessions_.find(e.sender);
  if (it == sessions_.end()) {
    ENCLAVES_LOG(debug) << config_.id << ": envelope from unknown sender "
                        << e.sender;
    ++relay_rejects_;
    obs::emit(counters_, obs::Event::auth_reject,
              obs::EvidenceKind::unknown_sender, clock_.now(), config_.id,
              config_.id, e.sender, wire::label_name(e.label));
    return;
  }
  LeaderSession& session = *it->second;
  const std::string member_id = it->first;

  const LeaderSession::State pre = session.state();
  auto outcome = session.handle(e);
  if (!outcome) {
    // Rejected input: already tallied by the session.
    obs::emit(counters_, obs::Event::auth_reject,
              obs::evidence_kind_for(outcome.error().code), clock_.now(),
              config_.id, config_.id, e.sender, wire::label_name(e.label));
    return;
  }

  // Handshake phase transitions only (connected <-> waiting_for_ack
  // flapping is the admin channel's normal breathing; admin_send/admin_ack
  // events already carry it).
  const LeaderSession::State post = session.state();
  if (post != pre &&
      (pre == LeaderSession::State::not_connected ||
       pre == LeaderSession::State::waiting_for_key_ack ||
       post == LeaderSession::State::not_connected ||
       post == LeaderSession::State::waiting_for_key_ack)) {
    if (obs::trace_sink()) {
      std::string detail =
          std::string(to_string(pre)) + "->" + to_string(post);
      obs::emit(counters_, obs::Event::leader_phase, clock_.now(), config_.id,
                config_.id, member_id, detail);
    }
  }
  if (outcome->duplicate_retransmit) {
    obs::emit(counters_, obs::Event::reanswer, clock_.now(), config_.id,
              config_.id, member_id, wire::label_name(e.label));
  }
  if (outcome->acked) {
    obs::emit(counters_, obs::Event::admin_ack, clock_.now(), config_.id,
              config_.id, member_id);
  }
  if (outcome->sent_admin_kind) {
    obs::emit(counters_, obs::Event::admin_send, clock_.now(), config_.id,
              config_.id, member_id, outcome->sent_admin_kind);
  }

  if (outcome->reply) send(member_id, *std::move(outcome->reply));
  if (outcome->authenticated) handle_member_authenticated(member_id);
  if (outcome->closed) {
    obs::emit(counters_, obs::Event::leave, clock_.now(), config_.id,
              config_.id, member_id,
              outcome->superseded ? "superseded" : "req_close");
    if (outcome->superseded)
      obs::count(config_.id, config_.id, "sessions_superseded_total");
    handle_member_closed(member_id);
  }
}

void Leader::submit_admin_to(const std::string& member_id,
                             wire::AdminBody body) {
  auto it = sessions_.find(member_id);
  assert(it != sessions_.end());
  const char* kind = wire::admin_kind_name(body);
  if (auto env = it->second->submit_admin(std::move(body))) {
    obs::emit(counters_, obs::Event::admin_send, clock_.now(), config_.id,
              config_.id, member_id, kind);
    send(member_id, *std::move(env));
  }
}

void Leader::send_group_key_to(const std::string& member_id) {
  submit_admin_to(member_id, wire::NewGroupKey{kg_, epoch_});
}

void Leader::handle_member_authenticated(const std::string& member_id) {
  PROF_SCOPE("leader/join/admit");
  members_.insert(member_id);
  ENCLAVES_LOG(info) << config_.id << ": " << member_id << " joined";
  obs::gauge_set(config_.id, config_.id, "members",
                 static_cast<std::int64_t>(members_.size()));
  obs::emit(counters_, obs::Event::join, clock_.now(), config_.id, config_.id,
            member_id);

  // Fast rejoin after a completed reconciliation (PROTOCOL.md §12): the
  // member proved continuity of its session key and op-log chain, so it
  // receives the CURRENT group key without forcing a group-wide rekey —
  // a healed partition must not translate into a rekey storm. Any other
  // successful authentication supersedes (and clears) a standing parole.
  const bool fast = reconciling_.erase(member_id) > 0 && kg_initialized_;
  if (parole_.erase(member_id) > 0) {
    obs::gauge_set(config_.id, config_.id, "parole_members",
                   static_cast<std::int64_t>(parole_.size()));
  }
  if (fast) {
    obs::emit(counters_, obs::Event::fast_rejoin, clock_.now(), config_.id,
              config_.id, member_id, "reconciled");
  }

  // Initialize or renew the group key. Section 2.2: "The group leader
  // generates a first group key Kg when the first member is accepted."
  if (tree_mode()) {
    ensure_tree();
    if (tree_->full()) keytree_grow_and_rebuild();
    auto it = sessions_.find(member_id);
    assert(it != sessions_.end() && it->second->in_session());
    std::uint32_t hint = 0;
    if (auto h = keytree_hints_.find(member_id); h != keytree_hints_.end())
      hint = h->second;
    std::uint32_t leaf = tree_->assign(
        member_id, derive_leaf_kek(it->second->session_key(), member_id),
        hint);
    // The slot travels on the authenticated admin channel; the leaf KEK
    // never travels at all (both sides derive it from Ka).
    submit_admin_to(member_id, wire::KeyTreeAssign{leaf, tree_->depth()});
    if (!kg_initialized_ || (config_.rekey.on_join && !fast)) {
      tree_rekey(wire::KeyTreeReason::join, member_id);
    } else {
      // No rotation due (manual policy / fast rejoin): hand the joiner its
      // current path unsolicited.
      send_keytree_path(member_id, crypto::ProtocolNonce());
    }
  } else if (!kg_initialized_ || (config_.rekey.on_join && !fast)) {
    rekey();  // distributes to everyone, including the new member
  } else {
    send_group_key_to(member_id);
  }

  // Membership snapshot to the joiner, join notice to everyone else.
  {
    PROF_SCOPE("leader/join/notice_fanout");
    wire::MemberList list{members()};
    submit_admin_to(member_id, std::move(list));
    for (const auto& m : members_) {
      if (m != member_id)
        submit_admin_to(m, wire::MemberJoined{member_id});
    }
  }
  if (on_member_joined) on_member_joined(member_id);
}

void Leader::handle_member_closed(const std::string& member_id) {
  PROF_SCOPE("leader/leave/notice_fanout");
  members_.erase(member_id);
  ENCLAVES_LOG(info) << config_.id << ": " << member_id << " left";
  obs::gauge_set(config_.id, config_.id, "members",
                 static_cast<std::int64_t>(members_.size()));
  for (const auto& m : members_)
    submit_admin_to(m, wire::MemberLeft{member_id});
  if (tree_mode() && tree_ && tree_->has_member(member_id)) {
    if (config_.rekey.on_leave && !members_.empty())
      tree_rekey(wire::KeyTreeReason::leave, member_id);
    else
      tree_->remove(member_id);  // prune only; stale KEKs rotate out later
  } else if (config_.rekey.on_leave && !members_.empty()) {
    rekey();
  }
  if (on_member_left) on_member_left(member_id);
}

void Leader::handle_group_data(const wire::Envelope& e) {
  PROF_SCOPE("leader/relay");
  auto relay_reject = [this, &e](const char* why) {
    ++relay_rejects_;
    obs::emit(counters_, obs::Event::relay_reject, clock_.now(), config_.id,
              config_.id, e.sender, why);
  };
  if (!kg_initialized_) {
    relay_reject("no group key yet");
    return;
  }
  // Only current members may publish to the group.
  if (!members_.count(e.sender)) {
    relay_reject("not a member");
    return;
  }
  auto plain = wire::open_sealed(aead_, kg_.view(), e);
  if (!plain) {
    // Wrong epoch key or forged: either way the relay refuses it.
    relay_reject("does not open under current Kg");
    return;
  }
  auto payload = wire::decode_group_data(*plain);
  if (!payload || payload->epoch != epoch_ || payload->origin != e.sender) {
    relay_reject("stale epoch or origin mismatch");
    return;
  }

  ++relayed_;
  ++data_since_rekey_;
  relayed_total_.add();
  relay_payload_bytes_.observe(payload->payload.size());
  if (on_data) on_data(payload->origin, payload->payload);

  // Relay the envelope unchanged to every other member; ciphertext and AAD
  // are preserved so members verify exactly what the origin sealed.
  for (const auto& m : members_) {
    if (m != payload->origin) send(m, e);
  }

  if (config_.rekey.every_n_messages > 0 &&
      data_since_rekey_ >= config_.rekey.every_n_messages) {
    rekey();
  }
}

void Leader::rekey() {
  ++epoch_;
  data_since_rekey_ = 0;
  if (tree_mode() && tree_ && tree_->leaf_count() > 0) {
    // Manual/periodic tree rekey: rotate the root only — two seals and one
    // broadcast regardless of group size.
    wire::KeyTreeUpdatePayload payload;
    {
      PROF_SCOPE("leader/rekey/mint");
      payload = tree_->rotate_root(epoch_);
      kg_ = tree_->group_key(epoch_);
    }
    kg_initialized_ = true;
    note_rekey();
    emit_keytree_levels(payload);
    broadcast_keytree(payload);
  } else {
    PROF_SCOPE("leader/rekey/flat_fanout");
    kg_ = crypto::GroupKey::random(rng_);
    kg_initialized_ = true;
    note_rekey();
    for (const auto& m : members_) send_group_key_to(m);
  }
}

void Leader::note_rekey() {
  ENCLAVES_LOG(info) << config_.id << ": rekey to epoch " << epoch_;
  obs::gauge_set(config_.id, config_.id, "epoch",
                 static_cast<std::int64_t>(epoch_));
  obs::emit(counters_, obs::Event::rekey, clock_.now(), config_.id, config_.id,
            {}, {}, epoch_);
  if (on_rekey) on_rekey(epoch_);

  // Parole GC: the admission window is `parole_epochs` rekeys, but entries
  // are retained for twice that, so a late offer still earns an explicit
  // quarantine verdict (sealed under the retained Kr) that steers the member
  // straight to the standard rejoin path instead of leaving it to burn its
  // whole reconcile budget unanswered. Beyond 2x the window the entry
  // vanishes and late offers are silently refused. Epoch distance is the
  // natural clock here — parole is defined in rekeys, not ticks.
  if (!parole_.empty()) {
    for (auto it = parole_.begin(); it != parole_.end();) {
      if (epoch_ - it->second.fence_epoch > 2 * config_.parole_epochs) {
        obs::count(config_.id, config_.id, "parole_expired_total");
        reconciling_.erase(it->first);
        it = parole_.erase(it);
      } else {
        ++it;
      }
    }
    obs::gauge_set(config_.id, config_.id, "parole_members",
                   static_cast<std::int64_t>(parole_.size()));
  }
}

void Leader::ensure_tree() {
  if (tree_) return;
  std::uint32_t depth =
      std::max({config_.keytree_depth, keytree_hint_depth_, 1u});
  tree_.emplace(config_.id, aead_, rng_, depth);
}

void Leader::set_keytree_hints(std::map<std::string, std::uint32_t> slots,
                               std::uint32_t depth) {
  keytree_hints_ = std::move(slots);
  keytree_hint_depth_ = depth;
}

void Leader::tree_rekey(wire::KeyTreeReason reason,
                        const std::string& member_id) {
  ++epoch_;
  data_since_rekey_ = 0;
  wire::KeyTreeUpdatePayload payload;
  {
    PROF_SCOPE("leader/rekey/mint");
    switch (reason) {
      case wire::KeyTreeReason::join:
        payload = tree_->rotate_join(member_id, epoch_);
        break;
      case wire::KeyTreeReason::leave:
        payload = tree_->rotate_leave(member_id, epoch_);
        break;
      default:
        payload = tree_->rotate_root(epoch_);
        break;
    }
  }
  if (tree_->leaf_count() == 0) {
    // Rotated the last leaf away: no root, no one to tell. Keep kg_ fresh
    // so a later first join starts from a clean epoch.
    kg_ = crypto::GroupKey::random(rng_);
    kg_initialized_ = true;
    keytree_update_env_.reset();  // cache no longer matches the epoch
    note_rekey();
    return;
  }
  kg_ = tree_->group_key(epoch_);
  kg_initialized_ = true;
  note_rekey();
  emit_keytree_levels(payload);
  broadcast_keytree(payload);
}

void Leader::keytree_grow_and_rebuild() {
  PROF_SCOPE("leader/keytree/rebuild");
  tree_->grow();
  ++epoch_;
  data_since_rekey_ = 0;
  auto payload = tree_->rebuild(epoch_);
  kg_ = tree_->group_key(epoch_);
  kg_initialized_ = true;
  note_rekey();
  obs::count(config_.id, config_.id, "keytree_rebuilds_total");
  // Every leaf re-indexed: re-seat each member over the authenticated admin
  // channel. A member whose assignment trails the broadcast heals through
  // the recovery path (leaf KEKs are index-independent).
  for (const auto& m : members_)
    submit_admin_to(m, wire::KeyTreeAssign{tree_->leaf_of(m),
                                           tree_->depth()});
  emit_keytree_levels(payload);
  broadcast_keytree(payload);
}

void Leader::emit_keytree_levels(const wire::KeyTreeUpdatePayload& payload) {
  if (!obs::trace_sink()) return;
  // One span child per rotated tree level, deepest first (rotation order).
  std::vector<std::uint32_t> levels;
  for (const auto& e : payload.entries)
    levels.push_back(static_cast<std::uint32_t>(std::bit_width(e.node)) - 1);
  std::sort(levels.begin(), levels.end(), std::greater<>());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  for (std::uint32_t lvl : levels) {
    obs::emit(counters_, obs::Event::keytree_level, clock_.now(), config_.id,
              config_.id, {}, "lvl" + std::to_string(lvl), epoch_);
  }
}

void Leader::broadcast_keytree(const wire::KeyTreeUpdatePayload& payload) {
  PROF_SCOPE("leader/rekey/broadcast");
  obs::count(config_.id, config_.id, "keytree_updates_total");
  obs::count(config_.id, config_.id, "keytree_entries_total",
             payload.entries.size());
  obs::gauge_set(config_.id, config_.id, "keytree_depth",
                 static_cast<std::int64_t>(tree_->depth()));
  obs::gauge_set(config_.id, config_.id, "keytree_leaves",
                 static_cast<std::int64_t>(tree_->leaf_count()));
  wire::Envelope env{wire::Label::KeyTreeUpdate, config_.id,
                     wire::kGroupRecipient, wire::encode(payload)};
  keytree_update_env_ = env;  // anti-entropy re-offer cache (tick())
  for (const auto& m : members_) send(m, env);
}

void Leader::handle_keytree_recover(const wire::Envelope& e) {
  auto reject = [this, &e](obs::EvidenceKind kind, const char* why) {
    obs::emit(counters_, obs::Event::auth_reject, kind, clock_.now(),
              config_.id, config_.id, e.sender, why);
  };
  if (!tree_mode() || !tree_ || !members_.count(e.sender)) {
    reject(obs::EvidenceKind::bad_label, "keytree recover without a leaf");
    return;
  }
  const crypto::GroupKey* kek = tree_->leaf_kek(e.sender);
  if (!kek) {
    reject(obs::EvidenceKind::bad_label, "keytree recover without a leaf");
    return;
  }
  auto plain = wire::open_sealed(aead_, kek->view(), e);
  if (!plain) {
    reject(obs::EvidenceKind::aead_open_failure,
           "recover does not open under the leaf KEK");
    return;
  }
  auto p = wire::decode_keytree_recover(*plain);
  if (!p) {
    reject(obs::EvidenceKind::malformed, "malformed keytree recover");
    return;
  }
  if (p->a != e.sender || p->l != config_.id) {
    reject(obs::EvidenceKind::identity_mismatch,
           "keytree recover identity mismatch");
    return;
  }
  obs::emit(counters_, obs::Event::keytree_answer, clock_.now(), config_.id,
            config_.id, e.sender, "answer", p->have_epoch);
  send_keytree_path(e.sender, p->nr);
}

void Leader::send_keytree_path(const std::string& member_id,
                               const crypto::ProtocolNonce& nr) {
  const crypto::GroupKey* kek = tree_->leaf_kek(member_id);
  assert(kek != nullptr);
  auto payload = tree_->path_for(member_id, epoch_, nr);
  auto env = wire::make_sealed(aead_, kek->view(), rng_,
                               wire::Label::KeyTreePath, config_.id,
                               member_id, wire::encode(payload));
  send(member_id, std::move(env));
}

void Leader::broadcast_notice(const std::string& text) {
  for (const auto& m : members_) submit_admin_to(m, wire::Notice{text});
}

Result<crypto::SessionKey> Leader::expel(const std::string& member_id,
                                         const std::string& reason) {
  auto it = sessions_.find(member_id);
  if (it == sessions_.end() || !it->second->in_session())
    return make_error(Errc::unknown_peer, member_id);
  // Best-effort final notice over the authenticated channel, so the member
  // learns it is out (its Ack will arrive after we close and is ignored).
  // Only possible when the channel is idle; a mid-exchange expulsion just
  // closes.
  if (it->second->state() == LeaderSession::State::connected) {
    if (auto env = it->second->submit_admin(wire::Expelled{reason}))
      send(member_id, *std::move(env));
  }
  const bool was_member = members_.count(member_id) > 0;
  if (it->second->pending_retransmit())
    obs::count(config_.id, config_.id, "exchanges_abandoned_total");
  auto old_key = it->second->force_close();
  assert(old_key.has_value());
  // A liveness ("stalled") expulsion is reconcilable — the member may heal
  // via op-log replay, so retain Kr on parole. Any other reason is for
  // cause: punitive, and standing parole is revoked too.
  if (config_.parole_epochs > 0 && reason == "stalled" && old_key)
    grant_parole(member_id, *old_key);
  else
    revoke_parole(member_id);
  obs::emit(counters_, obs::Event::expel, clock_.now(), config_.id, config_.id,
            member_id, reason);
  if (was_member && on_member_expelled) on_member_expelled(member_id, reason);
  // Only authenticated members get a departure fan-out; tearing down a
  // mid-handshake session must not announce a member who never joined.
  if (was_member) handle_member_closed(member_id);
  return *old_key;
}

void Leader::shutdown_group(const std::string& reason) {
  // First pass: notify everyone whose admin channel is idle (before any
  // session closes, so no membership fan-out gets queued in between).
  for (const auto& m : members_) {
    auto it = sessions_.find(m);
    if (it != sessions_.end() &&
        it->second->state() == LeaderSession::State::connected) {
      if (auto env = it->second->submit_admin(wire::Expelled{reason}))
        send(m, *std::move(env));
    }
  }
  // Second pass: close every session.
  for (const auto& [id, session] : sessions_) {
    if (session->in_session()) {
      if (session->pending_retransmit())
        obs::count(config_.id, config_.id, "exchanges_abandoned_total");
      obs::emit(counters_, obs::Event::expel, clock_.now(), config_.id,
                config_.id, id, reason);
      if (members_.count(id) && on_member_expelled)
        on_member_expelled(id, reason);
      (void)session->force_close();
    }
  }
  members_.clear();
  obs::gauge_set(config_.id, config_.id, "members", 0);
  tree_.reset();  // no group left; the next group starts a fresh tree
  keytree_update_env_.reset();
  // No group left to reconcile into.
  parole_.clear();
  reconciling_.clear();
  obs::gauge_set(config_.id, config_.id, "parole_members", 0);
}

void Leader::grant_parole(const std::string& member_id,
                          crypto::SessionKey kr) {
  Parole p;
  p.kr = kr;
  p.fence_epoch = epoch_;
  parole_[member_id] = std::move(p);
  obs::count(config_.id, config_.id, "parole_granted_total");
  obs::gauge_set(config_.id, config_.id, "parole_members",
                 static_cast<std::int64_t>(parole_.size()));
}

bool Leader::restore_parole(const std::string& member_id,
                            crypto::SessionKey kr,
                            std::uint64_t fence_epoch) {
  // A registered member always has a session object (it holds the
  // credential); only a LIVE session makes a parole record contradictory.
  auto it = sessions_.find(member_id);
  if (it != sessions_.end() && it->second->in_session()) return false;
  Parole p;
  p.kr = kr;
  p.fence_epoch = fence_epoch;
  parole_[member_id] = std::move(p);
  obs::gauge_set(config_.id, config_.id, "parole_members",
                 static_cast<std::int64_t>(parole_.size()));
  return true;
}

void Leader::revoke_parole(const std::string& member_id) {
  reconciling_.erase(member_id);
  if (parole_.erase(member_id) > 0) {
    obs::gauge_set(config_.id, config_.id, "parole_members",
                   static_cast<std::int64_t>(parole_.size()));
  }
}

void Leader::send_reconcile_verdict(const std::string& member_id,
                                    Parole& parole,
                                    wire::ReconcileVerdictKind verdict,
                                    std::uint64_t ack_seq) {
  wire::ReconcileVerdictPayload body{config_.id, member_id, parole.nr,
                                     verdict,    epoch_,    ack_seq};
  auto env =
      wire::make_sealed(aead_, parole.kr.view(), rng_,
                        wire::Label::ReconcileVerdict, config_.id, member_id,
                        wire::encode(body));
  parole.last_verdict = env;
  obs::emit(counters_, obs::Event::reconcile_verdict, clock_.now(), config_.id,
            config_.id, member_id, wire::reconcile_verdict_kind_name(verdict),
            ack_seq);
  send(member_id, std::move(env));
}

void Leader::handle_reconcile_offer(const wire::Envelope& e) {
  auto reject = [this, &e](obs::EvidenceKind kind, const char* why) {
    obs::emit(counters_, obs::Event::auth_reject, kind, clock_.now(),
              config_.id, config_.id, e.sender, why);
  };
  auto it = parole_.find(e.sender);
  if (config_.parole_epochs == 0 || it == parole_.end()) {
    // Silent, like a denied join: there is no authenticated channel to
    // carry a refusal, and an unauthenticated one would be forgeable.
    reject(obs::EvidenceKind::bad_label, "reconcile offer without parole");
    return;
  }
  Parole& parole = it->second;
  auto plain = wire::open_sealed(aead_, parole.kr.view(), e);
  if (!plain) {
    reject(obs::EvidenceKind::aead_open_failure,
           "offer does not open under parole Kr");
    return;
  }
  auto p = wire::decode_reconcile_offer(*plain);
  if (!p) {
    reject(obs::EvidenceKind::malformed, "malformed reconcile offer");
    return;
  }
  if (p->a != e.sender || p->l != config_.id) {
    reject(obs::EvidenceKind::identity_mismatch,
           "reconcile offer identity mismatch");
    return;
  }
  if (parole.last_verdict && p->nr == parole.nr) {
    // Retransmitted offer (our verdict was lost): re-answer byte-identically.
    obs::emit(counters_, obs::Event::reanswer, clock_.now(), config_.id,
              config_.id, e.sender, "ReconcileOffer");
    send(e.sender, *parole.last_verdict);
    return;
  }

  obs::count(config_.id, config_.id, "reconcile_offers_total");
  parole.nr = p->nr;
  parole.active = false;

  // Stale fence — outside the parole window, or claiming an epoch the
  // member cannot have held — and oversized logs take the quarantine path:
  // the member falls back to a standard rejoin under a fresh key. Only a
  // broken HMAC chain (seen during replay) is treated as intrusion.
  if (p->fence_epoch > parole.fence_epoch ||
      epoch_ - p->fence_epoch > config_.parole_epochs) {
    obs::emit(counters_, obs::Event::offer_quarantined, clock_.now(),
              config_.id, config_.id, e.sender,
              "reconcile fence outside parole window", p->fence_epoch);
    obs::emit(counters_, obs::Event::offer_answered, clock_.now(), config_.id,
              config_.id, e.sender, "quarantine", p->oplog_len);
    send_reconcile_verdict(e.sender, parole,
                           wire::ReconcileVerdictKind::quarantine, 0);
    return;
  }
  if (p->oplog_len > config_.max_replay_ops) {
    obs::emit(counters_, obs::Event::offer_quarantined, clock_.now(),
              config_.id, config_.id, e.sender, "op-log exceeds replay budget",
              p->oplog_len);
    obs::emit(counters_, obs::Event::offer_answered, clock_.now(), config_.id,
              config_.id, e.sender, "quarantine", p->oplog_len);
    send_reconcile_verdict(e.sender, parole,
                           wire::ReconcileVerdictKind::quarantine, 0);
    return;
  }

  // Admit: arm the replay validator. The chain starts from the all-zero
  // tag, exactly as OpLog does on the member side.
  parole.fence_epoch = p->fence_epoch;
  parole.expected_seq = 1;
  parole.oplog_len = p->oplog_len;
  parole.chain = {};
  parole.offered_head = p->chain_head;
  obs::emit(counters_, obs::Event::offer_admitted, clock_.now(), config_.id,
            config_.id, e.sender, "admit", p->oplog_len);
  // Relay seq-collision guard: if the epoch never moved since the member
  // was cut, its pre-partition publishes already used low seqs in this
  // epoch — relaying the replay from seq 0 would look like replays to the
  // group. One rekey opens a clean sequence space.
  if (epoch_ == parole.fence_epoch) rekey();
  if (p->oplog_len == 0) {
    reconciling_.insert(e.sender);
  } else {
    parole.active = true;
  }
  send_reconcile_verdict(e.sender, parole, wire::ReconcileVerdictKind::admit,
                         0);
}

void Leader::handle_op_replay(const wire::Envelope& e) {
  auto reject = [this, &e](obs::EvidenceKind kind, const char* why) {
    obs::emit(counters_, obs::Event::auth_reject, kind, clock_.now(),
              config_.id, config_.id, e.sender, why);
  };
  auto it = parole_.find(e.sender);
  if (it == parole_.end()) {
    reject(obs::EvidenceKind::bad_label,
           "op replay without active reconciliation");
    return;
  }
  Parole& parole = it->second;
  auto plain = wire::open_sealed(aead_, parole.kr.view(), e);
  if (!plain) {
    reject(obs::EvidenceKind::aead_open_failure,
           "op does not open under parole Kr");
    return;
  }
  auto p = wire::decode_op_replay(*plain);
  if (!p) {
    reject(obs::EvidenceKind::malformed, "malformed op replay");
    return;
  }
  if (p->a != e.sender) {
    reject(obs::EvidenceKind::identity_mismatch, "op replay origin mismatch");
    return;
  }
  if (p->seq < parole.expected_seq) {
    // An op we already verified (our verdict was lost): re-answer. This must
    // come BEFORE the active check — when the FINAL op's verdict is lost the
    // replay has already completed (active is false), yet the member keeps
    // retransmitting that op until the ack arrives.
    obs::emit(counters_, obs::Event::reanswer, clock_.now(), config_.id,
              config_.id, e.sender, "OpReplay");
    if (parole.last_verdict) send(e.sender, *parole.last_verdict);
    return;
  }
  if (!parole.active) {
    reject(obs::EvidenceKind::bad_label,
           "op replay without active reconciliation");
    return;
  }

  // Anything beyond this point that fails is not staleness but forgery: the
  // frame opened under Kr yet contradicts the HMAC chain the offer
  // committed to. Evidence goes to the ledger and the replay is refused.
  auto flag_intrusion = [this, &e, &parole](const char* why,
                                            std::uint64_t seq) {
    obs::emit(counters_, obs::Event::reconcile_intrusion, clock_.now(),
              config_.id, config_.id, e.sender, why, seq);
    // Flight-recorder incident hook: a broken op-log HMAC chain is direct
    // intrusion evidence, not noise — dump the window around it.
    obs::flight_incident(clock_.now(), "forged_oplog", config_.id,
                         config_.id);
    parole.active = false;
    send_reconcile_verdict(e.sender, parole,
                           wire::ReconcileVerdictKind::intrusion,
                           parole.expected_seq - 1);
  };
  if (p->seq != parole.expected_seq) {
    flag_intrusion("op seq skips ahead of the verified chain", p->seq);
    return;
  }
  if (p->epoch != parole.fence_epoch) {
    flag_intrusion("op epoch differs from the offered fence", p->seq);
    return;
  }
  const auto want =
      OpLog::chain_next(parole.kr.view(), parole.chain, p->seq, p->epoch,
                        p->payload);
  if (want != p->mac) {
    flag_intrusion("op MAC breaks the HMAC chain", p->seq);
    return;
  }
  if (p->seq == parole.oplog_len && want != parole.offered_head) {
    flag_intrusion("final op does not close the offered head", p->seq);
    return;
  }

  // Verified: advance the chain, deliver locally, relay to the live group.
  parole.chain = want;
  parole.expected_seq = p->seq + 1;
  obs::emit(counters_, obs::Event::op_replay, clock_.now(), config_.id,
            config_.id, e.sender, {}, p->seq);
  if (on_data) on_data(e.sender, p->payload);
  if (kg_initialized_ && !members_.empty()) {
    wire::GroupDataPayload relay{e.sender, epoch_, p->seq - 1, p->payload};
    auto env = wire::make_sealed(aead_, kg_.view(), rng_,
                                 wire::Label::GroupData, e.sender,
                                 wire::kGroupRecipient, wire::encode(relay));
    for (const auto& m : members_) send(m, env);
  }
  ++relayed_;
  relayed_total_.add();

  const bool complete = p->seq == parole.oplog_len;
  if (complete) {
    parole.active = false;
    reconciling_.insert(e.sender);
  }
  send_reconcile_verdict(e.sender, parole, wire::ReconcileVerdictKind::admit,
                         p->seq);
}

std::vector<std::string> Leader::members() const {
  return std::vector<std::string>(members_.begin(), members_.end());
}

const LeaderSession* Leader::session(const std::string& member_id) const {
  auto it = sessions_.find(member_id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

LeaderSession* Leader::session(const std::string& member_id) {
  auto it = sessions_.find(member_id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

std::size_t Leader::tick() {
  PROF_SCOPE("leader/tick");
  clock_.advance();
  const Tick now = clock_.now();
  std::size_t sent = 0;
  for (const auto& [id, session] : sessions_) {
    auto env = session->pending_retransmit();
    if (!env) {
      retry_.erase(id);
      continue;
    }
    auto [it, inserted] = retry_.try_emplace(id);
    SessionRetry& sr = it->second;
    if (inserted || !(sr.pending == *env)) {
      // New exchange (or first sight of this one): progress was made, so
      // the backoff and the stall count restart from zero.
      sr.pending = *env;
      sr.state.arm(now, stable_salt(id));
    }
    if (sr.state.due(now, config_.retry)) {
      obs::emit(counters_, obs::Event::retransmit, now, config_.id, config_.id,
                id, wire::label_name(env->label));
      send(id, *std::move(env));
      sr.state.record_attempt(now, config_.retry);
      ++sent;
    }
  }
  // Key-tree anti-entropy: re-offer the latest update on a fixed cadence.
  // Members at the current epoch drop it as a duplicate; a member that
  // lost the broadcast either applies it or finds it unreachable and
  // starts path recovery — so convergence never depends on data traffic.
  if (keytree_update_env_ && config_.keytree_rebroadcast_every > 0 &&
      now % config_.keytree_rebroadcast_every == 0 && !members_.empty()) {
    obs::count(config_.id, config_.id, "keytree_rebroadcasts_total");
    for (const auto& m : members_) send(m, *keytree_update_env_);
    sent += members_.size();
  }
  if (config_.auto_expel_attempts > 0)
    expel_stalled(config_.auto_expel_attempts);
  return sent;
}

std::vector<std::string> Leader::stalled_members(
    std::uint32_t attempts) const {
  std::vector<std::string> out;
  for (const auto& [id, sr] : retry_) {
    if (sr.state.attempts() >= attempts) out.push_back(id);
  }
  return out;
}

std::vector<std::string> Leader::expel_stalled(std::uint32_t attempts) {
  std::vector<std::string> acted;
  for (const std::string& id : stalled_members(attempts)) {
    auto it = sessions_.find(id);
    if (it == sessions_.end() || !it->second->in_session()) continue;
    // A stalled session by definition has an unanswered exchange in flight.
    if (it->second->pending_retransmit())
      obs::count(config_.id, config_.id, "exchanges_abandoned_total");
    if (members_.count(id)) {
      // A real member gone quiet: full expulsion (announce + rekey policy).
      obs::emit(counters_, obs::Event::expel, clock_.now(), config_.id,
                config_.id, id, "stalled");
      if (on_member_expelled) on_member_expelled(id, "stalled");
      auto old_key = it->second->force_close();
      // A liveness expulsion is reconcilable: retain Kr on parole so the
      // member can heal via the signed op-log instead of a full re-key.
      // Grant before handle_member_closed so the fence records the epoch
      // the member last held (the on-leave rekey happens below).
      if (config_.parole_epochs > 0 && old_key)
        grant_parole(id, *old_key);
      handle_member_closed(id);
    } else {
      // Ghost handshake (never authenticated): discard quietly. The key
      // was never confirmed to anyone, so no Oops and no announcement.
      obs::emit(counters_, obs::Event::ghost_cleared, clock_.now(), config_.id,
                config_.id, id, "ghost handshake");
      (void)it->second->force_close();
    }
    retry_.erase(id);
    acted.push_back(id);
  }
  return acted;
}

LeaderSnapshot Leader::snapshot() const {
  LeaderSnapshot snap;
  snap.epoch = epoch_;
  for (const auto& [id, session] : sessions_)
    (void)snap.registry.add(Credential{id, session->long_term_key(),
                                       "snapshot"});
  if (tree_) {
    snap.keytree_depth = tree_->depth();
    snap.keytree_slots = tree_->slots();
  }
  for (const auto& [id, p] : parole_)
    snap.parole.emplace(id, ParoleRecord{p.kr, p.fence_epoch});
  return snap;
}

void Leader::set_epoch_floor(std::uint64_t epoch) {
  if (!kg_initialized_ && epoch > epoch_) epoch_ = epoch;
}

std::uint64_t Leader::rejected_inputs() const {
  std::uint64_t total = relay_rejects_;
  for (const auto& [id, session] : sessions_)
    total += session->reject_stats().total();
  return total;
}

}  // namespace enclaves::core
