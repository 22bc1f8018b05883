#include "wire/envelope.h"

#include "wire/codec.h"
#include "wire/frame.h"

namespace enclaves::wire {

const char* label_name(Label label) {
  switch (label) {
    case Label::AuthInitReq: return "AuthInitReq";
    case Label::AuthKeyDist: return "AuthKeyDist";
    case Label::AuthAckKey: return "AuthAckKey";
    case Label::AdminMsg: return "AdminMsg";
    case Label::Ack: return "Ack";
    case Label::ReqClose: return "ReqClose";
    case Label::LegacyReqOpen: return "LegacyReqOpen";
    case Label::LegacyAckOpen: return "LegacyAckOpen";
    case Label::LegacyConnectionDenied: return "LegacyConnectionDenied";
    case Label::LegacyAuthInit: return "LegacyAuthInit";
    case Label::LegacyAuthReply: return "LegacyAuthReply";
    case Label::LegacyAuthAck: return "LegacyAuthAck";
    case Label::LegacyNewKey: return "LegacyNewKey";
    case Label::LegacyNewKeyAck: return "LegacyNewKeyAck";
    case Label::LegacyMemRemoved: return "LegacyMemRemoved";
    case Label::LegacyMemAdded: return "LegacyMemAdded";
    case Label::LegacyReqClose: return "LegacyReqClose";
    case Label::LegacyCloseConnection: return "LegacyCloseConnection";
    case Label::GroupData: return "GroupData";
    case Label::ReplDelta: return "ReplDelta";
    case Label::ReplSnapshot: return "ReplSnapshot";
    case Label::ReplAck: return "ReplAck";
    case Label::ReplHeartbeat: return "ReplHeartbeat";
    case Label::ReconcileOffer: return "ReconcileOffer";
    case Label::ReconcileVerdict: return "ReconcileVerdict";
    case Label::OpReplay: return "OpReplay";
    case Label::KeyTreeUpdate: return "KeyTreeUpdate";
    case Label::KeyTreeRecover: return "KeyTreeRecover";
    case Label::KeyTreePath: return "KeyTreePath";
    case Label::FedRedirect: return "FedRedirect";
    case Label::FedMigrateOffer: return "FedMigrateOffer";
    case Label::FedMigrateAck: return "FedMigrateAck";
    case Label::FedMigrateCommit: return "FedMigrateCommit";
    case Label::FedDirSync: return "FedDirSync";
  }
  return "?";
}

bool is_known_label(std::uint8_t raw) {
  switch (static_cast<Label>(raw)) {
    case Label::AuthInitReq:
    case Label::AuthKeyDist:
    case Label::AuthAckKey:
    case Label::AdminMsg:
    case Label::Ack:
    case Label::ReqClose:
    case Label::LegacyReqOpen:
    case Label::LegacyAckOpen:
    case Label::LegacyConnectionDenied:
    case Label::LegacyAuthInit:
    case Label::LegacyAuthReply:
    case Label::LegacyAuthAck:
    case Label::LegacyNewKey:
    case Label::LegacyNewKeyAck:
    case Label::LegacyMemRemoved:
    case Label::LegacyMemAdded:
    case Label::LegacyReqClose:
    case Label::LegacyCloseConnection:
    case Label::GroupData:
    case Label::ReplDelta:
    case Label::ReplSnapshot:
    case Label::ReplAck:
    case Label::ReplHeartbeat:
    case Label::ReconcileOffer:
    case Label::ReconcileVerdict:
    case Label::OpReplay:
    case Label::KeyTreeUpdate:
    case Label::KeyTreeRecover:
    case Label::KeyTreePath:
    case Label::FedRedirect:
    case Label::FedMigrateOffer:
    case Label::FedMigrateAck:
    case Label::FedMigrateCommit:
    case Label::FedDirSync:
      return true;
  }
  return false;
}

namespace {

std::size_t encoded_size(const Envelope& e) {
  return 1 + 4 + e.sender.size() + 4 + e.recipient.size() + 4 + e.body.size();
}

void write_envelope(Writer& w, const Envelope& e) {
  w.u8(static_cast<std::uint8_t>(e.label));
  w.str(e.sender);
  w.str(e.recipient);
  w.var_bytes(e.body);
}

}  // namespace

Bytes encode(const Envelope& e) {
  Writer w(encoded_size(e));
  write_envelope(w, e);
  return std::move(w).take();
}

Bytes encode_framed(const Envelope& e) {
  const std::size_t n = encoded_size(e);
  Writer w(4 + n);
  write_frame_header(w, n);
  write_envelope(w, e);
  return std::move(w).take();
}

Result<Envelope> decode_envelope(BytesView raw) {
  Reader r(raw);
  auto label = r.u8();
  if (!label) return label.error();
  if (!is_known_label(*label))
    return make_error(Errc::malformed, "unknown label");
  auto sender = r.str();
  if (!sender) return sender.error();
  auto recipient = r.str();
  if (!recipient) return recipient.error();
  auto body = r.var_bytes();
  if (!body) return body.error();
  if (auto end = r.expect_end(); !end) return end.error();

  Envelope e;
  e.label = static_cast<Label>(*label);
  e.sender = *std::move(sender);
  e.recipient = *std::move(recipient);
  e.body = *std::move(body);
  return e;
}

std::string describe(const Envelope& e) {
  std::string s = label_name(e.label);
  s += " ";
  s += e.sender;
  s += "->";
  s += e.recipient;
  s += " (";
  s += std::to_string(e.body.size());
  s += "B)";
  return s;
}

}  // namespace enclaves::wire
