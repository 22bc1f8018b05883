#include "legacy/legacy_leader.h"

#include "util/logging.h"
#include "wire/legacy_payloads.h"
#include "wire/payloads.h"
#include "wire/seal.h"

namespace enclaves::legacy {

LegacyLeader::LegacyLeader(LegacyLeaderConfig config, Rng& rng,
                           const crypto::Aead& aead)
    : config_(std::move(config)), rng_(rng), aead_(aead) {}

Status LegacyLeader::register_member(const std::string& member_id,
                                     crypto::LongTermKey pa) {
  if (member_id == config_.id)
    return make_error(Errc::denied, "member id collides with leader id");
  if (sessions_.count(member_id))
    return make_error(Errc::already_exists, member_id);
  sessions_.emplace(member_id, Session{pa, SessionState::not_connected,
                                       crypto::ProtocolNonce{},
                                       crypto::SessionKey{}});
  return Status::success();
}

void LegacyLeader::send(const std::string& to, wire::Envelope e) {
  if (send_) send_(to, std::move(e));
}

void LegacyLeader::handle(const wire::Envelope& e) {
  switch (e.label) {
    case wire::Label::LegacyReqOpen: {
      // Pre-auth policy check: registered users get ack_open, others get
      // connection_denied — both in the clear, as in the paper.
      wire::Envelope reply;
      reply.sender = config_.id;
      reply.recipient = e.sender;
      auto it = sessions_.find(e.sender);
      if (it == sessions_.end() ||
          it->second.state != SessionState::not_connected) {
        reply.label = wire::Label::LegacyConnectionDenied;
      } else {
        reply.label = wire::Label::LegacyAckOpen;
        it->second.state = SessionState::opened;
      }
      send(e.sender, std::move(reply));
      return;
    }

    case wire::Label::LegacyAuthInit: {
      auto it = sessions_.find(e.sender);
      if (it == sessions_.end() || it->second.state != SessionState::opened)
        return;
      Session& s = it->second;
      auto plain = wire::open_sealed(aead_, s.pa.view(), e);
      if (!plain) return;
      auto payload = wire::decode<wire::LegacyAuthInitPayload>(*plain);
      if (!payload) return;
      if (payload->a != it->first || payload->l != config_.id) return;

      // First member accepted: generate the first group key (Section 2.2).
      if (!kg_initialized_) {
        kg_ = crypto::GroupKey::random(rng_);
        epoch_ = 1;
        kg_initialized_ = true;
      }
      s.n2 = crypto::ProtocolNonce::random(rng_);
      s.ka = crypto::SessionKey::random(rng_);
      wire::LegacyAuthReplyPayload reply{config_.id, it->first, payload->n1,
                                         s.n2,       s.ka,
                                         rng_.bytes(16),  // the paper's I.V.
                                         kg_,        epoch_};
      auto env = wire::make_sealed(aead_, s.pa.view(), rng_,
                                   wire::Label::LegacyAuthReply, config_.id,
                                   it->first, wire::encode(reply));
      send(it->first, std::move(env));
      s.state = SessionState::waiting_auth_ack;
      return;
    }

    case wire::Label::LegacyAuthAck: {
      auto it = sessions_.find(e.sender);
      if (it == sessions_.end() ||
          it->second.state != SessionState::waiting_auth_ack)
        return;
      Session& s = it->second;
      auto plain = wire::open_sealed(aead_, s.ka.view(), e);
      if (!plain) return;
      auto payload = wire::decode<wire::LegacyAuthAckPayload>(*plain);
      if (!payload) return;
      if (payload->n2 != s.n2) return;

      s.state = SessionState::connected;
      const std::string& joiner = it->first;

      // Tell the group; tell the joiner who is already here. All of these
      // notices are sealed under the shared Kg (the V3 weakness).
      broadcast_membership(wire::Label::LegacyMemAdded, joiner, joiner);
      for (const auto& m : members_) {
        wire::LegacyMembershipPayload note{m};
        auto env = wire::make_sealed(aead_, kg_.view(), rng_,
                                     wire::Label::LegacyMemAdded, config_.id,
                                     joiner, wire::encode(note));
        send(joiner, std::move(env));
      }
      members_.insert(joiner);
      if (config_.rekey.on_join) rekey();
      return;
    }

    case wire::Label::LegacyNewKeyAck:
      return;  // fire-and-forget bookkeeping only

    case wire::Label::LegacyReqClose: {
      // PLAINTEXT close request: the leader believes the sender field.
      auto it = sessions_.find(e.sender);
      if (it == sessions_.end() ||
          it->second.state != SessionState::connected)
        return;
      wire::Envelope ack;
      ack.label = wire::Label::LegacyCloseConnection;
      ack.sender = config_.id;
      ack.recipient = e.sender;
      send(e.sender, std::move(ack));
      close_member(e.sender, /*announce=*/true);
      return;
    }

    case wire::Label::GroupData: {
      if (!kg_initialized_ || !members_.count(e.sender)) return;
      auto plain = wire::open_sealed(aead_, kg_.view(), e);
      if (!plain) return;
      for (const auto& m : members_) {
        if (m != e.sender) send(m, e);
      }
      return;
    }

    default:
      return;
  }
}

void LegacyLeader::broadcast_membership(wire::Label label,
                                        const std::string& member,
                                        const std::string& exclude) {
  if (!kg_initialized_) return;
  wire::LegacyMembershipPayload note{member};
  for (const auto& m : members_) {
    if (m == exclude) continue;
    auto env = wire::make_sealed(aead_, kg_.view(), rng_, label, config_.id,
                                 m, wire::encode(note));
    send(m, std::move(env));
  }
}

void LegacyLeader::send_new_key_to(const std::string& member_id) {
  auto it = sessions_.find(member_id);
  if (it == sessions_.end() || it->second.state != SessionState::connected)
    return;
  wire::LegacyNewKeyPayload payload{kg_, rng_.bytes(16), epoch_};
  auto env = wire::make_sealed(aead_, it->second.ka.view(), rng_,
                               wire::Label::LegacyNewKey, config_.id,
                               member_id, wire::encode(payload));
  send(member_id, std::move(env));
}

void LegacyLeader::rekey() {
  if (!kg_initialized_) return;
  kg_ = crypto::GroupKey::random(rng_);
  ++epoch_;
  for (const auto& m : members_) send_new_key_to(m);
}

void LegacyLeader::close_member(const std::string& member_id, bool announce) {
  auto it = sessions_.find(member_id);
  if (it == sessions_.end()) return;
  it->second.state = SessionState::not_connected;
  it->second.ka = crypto::SessionKey{};
  members_.erase(member_id);
  if (announce)
    broadcast_membership(wire::Label::LegacyMemRemoved, member_id, member_id);
  if (config_.rekey.on_leave && !members_.empty()) rekey();
}

Status LegacyLeader::expel(const std::string& member_id) {
  if (!members_.count(member_id))
    return make_error(Errc::unknown_peer, member_id);
  wire::Envelope ack;
  ack.label = wire::Label::LegacyCloseConnection;
  ack.sender = config_.id;
  ack.recipient = member_id;
  send(member_id, std::move(ack));
  close_member(member_id, /*announce=*/true);
  return Status::success();
}

std::vector<std::string> LegacyLeader::members() const {
  return std::vector<std::string>(members_.begin(), members_.end());
}

}  // namespace enclaves::legacy
