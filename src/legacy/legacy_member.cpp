#include "legacy/legacy_member.h"

#include "util/logging.h"
#include "wire/legacy_payloads.h"
#include "wire/payloads.h"
#include "wire/seal.h"

namespace enclaves::legacy {

const char* to_string(LegacyMember::State s) {
  switch (s) {
    case LegacyMember::State::not_connected: return "NotConnected";
    case LegacyMember::State::pre_open: return "PreOpen";
    case LegacyMember::State::waiting_reply: return "WaitingReply";
    case LegacyMember::State::connected: return "Connected";
    case LegacyMember::State::denied: return "Denied";
  }
  return "?";
}

LegacyMember::LegacyMember(std::string id, std::string leader_id,
                           crypto::LongTermKey pa, Rng& rng,
                           const crypto::Aead& aead)
    : id_(std::move(id)),
      leader_id_(std::move(leader_id)),
      pa_(pa),
      rng_(rng),
      aead_(aead) {}

void LegacyMember::emit(core::GroupEvent event) {
  if (on_event_) on_event_(event);
}

Status LegacyMember::join() {
  if (state_ != State::not_connected && state_ != State::denied)
    return make_error(Errc::unexpected, "join while busy");
  // Pre-auth exchange, in the clear (Section 2.2, step 1).
  wire::Envelope e;
  e.label = wire::Label::LegacyReqOpen;
  e.sender = id_;
  e.recipient = leader_id_;
  if (send_) send_(leader_id_, std::move(e));
  state_ = State::pre_open;
  return Status::success();
}

Status LegacyMember::leave() {
  if (state_ != State::connected)
    return make_error(Errc::unexpected, "leave while not connected");
  // Plaintext req_close, exactly as the paper specifies it.
  wire::Envelope e;
  e.label = wire::Label::LegacyReqClose;
  e.sender = id_;
  e.recipient = leader_id_;
  if (send_) send_(leader_id_, std::move(e));
  state_ = State::not_connected;
  // NOTE: deliberately do NOT wipe kg_/epoch_ — the paper's threat model is
  // precisely that past members retain old group keys.
  view_.clear();
  emit(core::SessionClosed{"left"});
  return Status::success();
}

Status LegacyMember::send_data(BytesView payload) {
  if (state_ != State::connected || !have_kg_)
    return make_error(Errc::unexpected, "not in session");
  wire::GroupDataPayload body{id_, epoch_, 0, Bytes(payload.begin(),
                                                    payload.end())};
  auto env = wire::make_sealed(aead_, kg_.view(), rng_, wire::Label::GroupData,
                               id_, wire::kGroupRecipient, wire::encode(body));
  if (send_) send_(leader_id_, std::move(env));
  return Status::success();
}

void LegacyMember::handle(const wire::Envelope& e) {
  switch (e.label) {
    case wire::Label::LegacyAckOpen: {
      if (state_ != State::pre_open) return;
      // Proceed to the authentication protocol (Section 2.2, message 1).
      n1_ = crypto::ProtocolNonce::random(rng_);
      wire::LegacyAuthInitPayload payload{id_, leader_id_, n1_};
      auto env = wire::make_sealed(aead_, pa_.view(), rng_,
                                   wire::Label::LegacyAuthInit, id_,
                                   leader_id_, wire::encode(payload));
      if (send_) send_(leader_id_, std::move(env));
      state_ = State::waiting_reply;
      return;
    }

    case wire::Label::LegacyConnectionDenied: {
      if (state_ != State::pre_open) return;
      // VULNERABILITY V1: no evidence this came from the leader. A forged
      // denial locks the user out (Section 2.3 DoS attack).
      ENCLAVES_LOG(info) << id_ << ": connection denied, giving up";
      state_ = State::denied;
      emit(core::SessionClosed{"denied"});
      return;
    }

    case wire::Label::LegacyAuthReply: {
      if (state_ != State::waiting_reply) return;
      auto plain = wire::open_sealed(aead_, pa_.view(), e);
      if (!plain) return;
      auto payload = wire::decode<wire::LegacyAuthReplyPayload>(*plain);
      if (!payload) return;
      if (payload->l != leader_id_ || payload->a != id_) return;
      if (payload->n1 != n1_) return;
      ka_ = payload->ka;
      kg_ = payload->kg;
      epoch_ = payload->epoch;
      have_kg_ = true;
      wire::LegacyAuthAckPayload ack{payload->n2};
      auto env = wire::make_sealed(aead_, ka_.view(), rng_,
                                   wire::Label::LegacyAuthAck, id_,
                                   leader_id_, wire::encode(ack));
      if (send_) send_(leader_id_, std::move(env));
      state_ = State::connected;
      view_.insert(id_);
      emit(core::SessionEstablished{});
      return;
    }

    case wire::Label::LegacyNewKey: {
      if (state_ != State::connected) return;
      auto plain = wire::open_sealed(aead_, ka_.view(), e);
      if (!plain) return;
      auto payload = wire::decode<wire::LegacyNewKeyPayload>(*plain);
      if (!payload) return;
      // VULNERABILITY V2: no freshness check whatsoever. A replayed old
      // new_key is indistinguishable from a genuine one, so the member
      // happily steps BACK to a compromised old key (Section 2.3).
      kg_ = payload->kg;
      epoch_ = payload->epoch;
      have_kg_ = true;
      ++rekeys_accepted_;
      wire::LegacyNewKeyAckPayload ack{payload->kg};
      auto env = wire::make_sealed(aead_, kg_.view(), rng_,
                                   wire::Label::LegacyNewKeyAck, id_,
                                   leader_id_, wire::encode(ack));
      if (send_) send_(leader_id_, std::move(env));
      emit(core::EpochChanged{epoch_});
      return;
    }

    case wire::Label::LegacyMemAdded:
    case wire::Label::LegacyMemRemoved: {
      if (state_ != State::connected || !have_kg_) return;
      // VULNERABILITY V3: sealed under the SHARED Kg — any member can forge
      // membership notices (Section 2.3).
      auto plain = wire::open_sealed(aead_, kg_.view(), e);
      if (!plain) return;
      auto payload = wire::decode<wire::LegacyMembershipPayload>(*plain);
      if (!payload) return;
      if (e.label == wire::Label::LegacyMemAdded)
        view_.insert(payload->member);
      else
        view_.erase(payload->member);
      if (on_event_) emit(core::ViewChanged{view_.snapshot()});
      return;
    }

    case wire::Label::LegacyCloseConnection:
      // Acknowledgment of our req_close; nothing left to do.
      return;

    case wire::Label::GroupData: {
      if (state_ != State::connected || !have_kg_) return;
      auto plain = wire::open_sealed(aead_, kg_.view(), e);
      if (!plain) return;
      auto payload = wire::decode<wire::GroupDataPayload>(*plain);
      if (!payload) return;
      // VULNERABILITY V4: no sequence/epoch enforcement.
      emit(core::DataReceived{payload->origin, payload->payload});
      return;
    }

    default:
      return;  // not a legacy-member label
  }
}

std::vector<std::string> LegacyMember::view() const {
  return view_.members();
}

}  // namespace enclaves::legacy
