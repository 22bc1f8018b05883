#include "core/leader_session.h"

#include "util/logging.h"
#include "wire/seal.h"

namespace enclaves::core {

const char* to_string(LeaderSession::State s) {
  switch (s) {
    case LeaderSession::State::not_connected: return "NotConnected";
    case LeaderSession::State::waiting_for_key_ack: return "WaitingForKeyAck";
    case LeaderSession::State::connected: return "Connected";
    case LeaderSession::State::waiting_for_ack: return "WaitingForAck";
  }
  return "?";
}

LeaderSession::LeaderSession(std::string leader_id, std::string member_id,
                             crypto::LongTermKey pa, Rng& rng,
                             const crypto::Aead& aead)
    : leader_id_(std::move(leader_id)),
      member_id_(std::move(member_id)),
      pa_(pa),
      rng_(rng),
      aead_(aead) {}

Error LeaderSession::reject(Errc code, const char* what,
                            std::uint64_t RejectStats::*slot) {
  ++(rejects_.*slot);
  ENCLAVES_LOG(debug) << leader_id_ << "/" << member_id_
                      << " session rejects input (" << what << ")";
  return make_error(code, what);
}

Result<LeaderSession::HandleOutcome> LeaderSession::handle(
    const wire::Envelope& e) {
  switch (e.label) {
    case wire::Label::AuthInitReq:
      if (state_ != State::not_connected) {
        // Liveness: the member re-sent the byte-identical AuthInitReq we
        // already answered (our AuthKeyDist was lost) — re-send the cached
        // reply instead of rejecting.
        if (state_ == State::waiting_for_key_ack && last_auth_init_seen_ &&
            e == *last_auth_init_seen_) {
          HandleOutcome out;
          out.reply = *last_key_dist_sent_;
          out.duplicate_retransmit = true;
          return out;
        }
        // Re-authentication supersession: a member whose ReqClose was lost
        // (or that crashed) holds no session state yet the leader still
        // does — without this clause the two would deadlock, the member
        // re-offering fresh handshakes forever and the leader refusing
        // them all. Only the member can mint a FRESH AuthInitReq under
        // Pa; a replayed opener carries an N1 we already consumed.
        if (auto plain = wire::open_sealed(aead_, pa_.view(), e)) {
          auto payload = wire::decode<wire::AuthInitPayload>(*plain);
          if (payload && payload->a == member_id_ &&
              payload->l == leader_id_) {
            if (seen_init_n1_.count(payload->n1))
              return reject(Errc::stale, "AuthInitReq replayed",
                            &RejectStats::stale);
            close_session(/*fire_oops=*/true);
            auto out = on_auth_init(e);
            if (out) {
              out->superseded = true;
              out->closed = true;
            }
            return out;
          }
        }
        return reject(Errc::unexpected, "AuthInitReq while in session",
                      &RejectStats::bad_label);
      }
      return on_auth_init(e);
    case wire::Label::AuthAckKey:
      if (state_ != State::waiting_for_key_ack) {
        // Benign crossing: if we already advanced past waiting_for_key_ack
        // because this exact AuthAckKey was already processed, ignore it
        // idempotently rather than counting an intrusion.
        if (last_auth_ack_seen_ && e == *last_auth_ack_seen_) {
          HandleOutcome out;
          out.duplicate_retransmit = true;
          return out;
        }
        return reject(Errc::unexpected, "AuthAckKey out of state",
                      &RejectStats::bad_label);
      }
      return on_auth_ack_key(e);
    case wire::Label::Ack:
      if (state_ != State::waiting_for_ack)
        return reject(Errc::unexpected, "Ack out of state",
                      &RejectStats::bad_label);
      return on_ack(e);
    case wire::Label::ReqClose:
      if (state_ == State::not_connected) {
        // Benign retransmit: the close that ended this session, re-sent on
        // the member's budgeted fire-and-forget policy. Answer it
        // idempotently; anything else against a closed slot is evidence.
        if (last_req_close_seen_ && e == *last_req_close_seen_) {
          HandleOutcome out;
          out.duplicate_retransmit = true;
          return out;
        }
        return reject(Errc::unexpected, "ReqClose with no session",
                      &RejectStats::bad_label);
      }
      return on_req_close(e);
    default:
      return reject(Errc::unexpected, "label not for leader",
                    &RejectStats::bad_label);
  }
}

Result<LeaderSession::HandleOutcome> LeaderSession::on_auth_init(
    const wire::Envelope& e) {
  auto plain = wire::open_sealed(aead_, pa_.view(), e);
  if (!plain)
    return reject(Errc::auth_failed, "AuthInitReq does not open under Pa",
                  &RejectStats::undecryptable);
  auto payload = wire::decode<wire::AuthInitPayload>(*plain);
  if (!payload)
    return reject(Errc::malformed, "AuthInitReq payload malformed",
                  &RejectStats::undecryptable);
  // Section 2.2: "L checks that the two encrypted identities are correct".
  if (payload->a != member_id_ || payload->l != leader_id_)
    return reject(Errc::identity_mismatch, "AuthInitReq identities",
                  &RejectStats::identity);

  if (seen_init_n1_.count(payload->n1))
    return reject(Errc::stale, "AuthInitReq replayed", &RejectStats::stale);
  seen_init_n1_.insert(payload->n1);

  // Fresh challenge nonce N2 and fresh session key Ka.
  nl_ = crypto::ProtocolNonce::random(rng_);
  ka_ = crypto::SessionKey::random(rng_);
  wire::AuthKeyDistPayload payload_out{leader_id_, member_id_, payload->n1,
                                       nl_, ka_};
  auto reply = wire::make_sealed(aead_, pa_.view(), rng_,
                                 wire::Label::AuthKeyDist, leader_id_,
                                 member_id_, wire::encode(payload_out));
  state_ = State::waiting_for_key_ack;
  last_auth_ack_seen_.reset();
  last_req_close_seen_.reset();
  last_auth_init_seen_ = e;
  last_key_dist_sent_ = reply;

  HandleOutcome out;
  out.reply = std::move(reply);
  return out;
}

std::optional<wire::Envelope> LeaderSession::pending_retransmit() const {
  if (state_ == State::waiting_for_key_ack) return last_key_dist_sent_;
  if (state_ == State::waiting_for_ack) return outstanding_;
  return std::nullopt;
}

Result<LeaderSession::HandleOutcome> LeaderSession::on_auth_ack_key(
    const wire::Envelope& e) {
  auto plain = wire::open_sealed(aead_, ka_.view(), e);
  if (!plain)
    return reject(Errc::auth_failed, "AuthAckKey does not open under Ka",
                  &RejectStats::undecryptable);
  auto payload = wire::decode<wire::AuthAckPayload>(*plain);
  if (!payload)
    return reject(Errc::malformed, "AuthAckKey payload malformed",
                  &RejectStats::undecryptable);
  // Echo of N2 proves the member holds Ka NOW (not a replay from an earlier
  // session: Ka and N2 are both fresh to this exchange).
  if (payload->n2 != nl_)
    return reject(Errc::stale, "AuthAckKey nonce echo mismatch",
                  &RejectStats::stale);

  na_ = payload->n3;  // seed of the admin nonce chain
  state_ = State::connected;
  last_auth_ack_seen_ = e;

  HandleOutcome out;
  out.authenticated = true;
  // Drain one queued admin message immediately, if any.
  if (!pending_.empty()) {
    wire::AdminBody body = std::move(pending_.front());
    pending_.pop_front();
    out.sent_admin_kind = wire::admin_kind_name(body);
    out.reply = build_admin_msg(std::move(body));
  }
  return out;
}

wire::Envelope LeaderSession::build_admin_msg(wire::AdminBody body) {
  // AdminMsg, L, A, {L, A, N_{2i+1}, N_{2i+2}, X}_Ka
  nl_ = crypto::ProtocolNonce::random(rng_);
  wire::AdminPayload payload{leader_id_, member_id_, na_, nl_, body};
  auto env = wire::make_sealed(aead_, ka_.view(), rng_, wire::Label::AdminMsg,
                               leader_id_, member_id_, wire::encode(payload));
  snd_log_.push_back(std::move(body));
  outstanding_ = env;
  state_ = State::waiting_for_ack;
  return env;
}

Result<LeaderSession::HandleOutcome> LeaderSession::on_ack(
    const wire::Envelope& e) {
  auto plain = wire::open_sealed(aead_, ka_.view(), e);
  if (!plain)
    return reject(Errc::auth_failed, "Ack does not open under Ka",
                  &RejectStats::undecryptable);
  auto payload = wire::decode<wire::AckPayload>(*plain);
  if (!payload)
    return reject(Errc::malformed, "Ack payload malformed",
                  &RejectStats::undecryptable);
  if (payload->a != member_id_ || payload->l != leader_id_)
    return reject(Errc::identity_mismatch, "Ack identities",
                  &RejectStats::identity);
  // N_{2i+2} echo proves this acknowledges THIS AdminMsg.
  if (payload->n_prev != nl_)
    return reject(Errc::stale, "Ack freshness nonce mismatch",
                  &RejectStats::stale);

  na_ = payload->n_next;
  outstanding_.reset();
  state_ = State::connected;
  ++acked_count_;

  HandleOutcome out;
  out.acked = true;
  if (!pending_.empty()) {
    wire::AdminBody body = std::move(pending_.front());
    pending_.pop_front();
    out.sent_admin_kind = wire::admin_kind_name(body);
    out.reply = build_admin_msg(std::move(body));
  }
  return out;
}

Result<LeaderSession::HandleOutcome> LeaderSession::on_req_close(
    const wire::Envelope& e) {
  auto plain = wire::open_sealed(aead_, ka_.view(), e);
  if (!plain)
    return reject(Errc::auth_failed, "ReqClose does not open under Ka",
                  &RejectStats::undecryptable);
  auto payload = wire::decode<wire::ReqClosePayload>(*plain);
  if (!payload)
    return reject(Errc::malformed, "ReqClose payload malformed",
                  &RejectStats::undecryptable);
  if (payload->a != member_id_ || payload->l != leader_id_)
    return reject(Errc::identity_mismatch, "ReqClose identities",
                  &RejectStats::identity);
  // Freshness argument (Section 3.2): at most one ReqClose per session key,
  // so possession of Ka is itself the freshness proof. A replay from an
  // earlier session fails to open under the current Ka.

  last_req_close_seen_ = e;
  close_session(/*fire_oops=*/true);
  HandleOutcome out;
  out.closed = true;
  return out;
}

void LeaderSession::close_session(bool fire_oops) {
  crypto::SessionKey old = ka_;
  // Discard all session state (the paper: "Ka is discarded and no further
  // group-management message is sent to A"; snd_A is emptied).
  state_ = State::not_connected;
  ka_ = crypto::SessionKey{};
  pending_.clear();
  outstanding_.reset();
  snd_log_.clear();
  last_auth_ack_seen_.reset();
  last_auth_init_seen_.reset();
  last_key_dist_sent_.reset();
  // The paper attaches Oops(Ka) to the ReqClose transition only: a key is
  // released to the world when its session ends normally. Administrative
  // closes hand the key back to the caller instead (force_close).
  if (fire_oops && on_session_closed) on_session_closed(old);
}

std::optional<wire::Envelope> LeaderSession::submit_admin(
    wire::AdminBody body) {
  if (state_ == State::connected) return build_admin_msg(std::move(body));
  if (state_ == State::not_connected) return std::nullopt;  // dropped
  pending_.push_back(std::move(body));
  return std::nullopt;
}

std::optional<crypto::SessionKey> LeaderSession::force_close() {
  if (state_ == State::not_connected) return std::nullopt;
  crypto::SessionKey old = ka_;
  close_session(/*fire_oops=*/false);
  return old;
}

}  // namespace enclaves::core
