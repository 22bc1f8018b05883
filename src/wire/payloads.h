// Plaintext payloads of the improved protocol (Section 3.2).
//
// These are the fields *inside* the encryptions:
//   1. AuthInitReq,  A, L, {A, L, N1}_Pa                 -> AuthInitPayload
//   2. AuthKeyDist,  L, A, {L, A, N1, N2, Ka}_Pa         -> AuthKeyDistPayload
//   3. AuthAckKey,   A, L, {N2, N3}_Ka                   -> AuthAckPayload
//      AdminMsg,     L, A, {L, A, N2i+1, N2i+2, X}_Ka    -> AdminPayload
//      Ack,          A, L, {A, L, N2i+2, N2i+3}_Ka       -> AckPayload
//      ReqClose,     A, L, {A, L}_Ka                     -> ReqClosePayload
// The embedded identities are what the verifier checks against its own view
// (the envelope's sender field proves nothing). Every payload begins with
// its own type octet and wire::decode<T> refuses trailing bytes (codec.h),
// so two distinct payload types can never decode from the same plaintext,
// even under the same key.
#pragma once

#include <string>
#include <tuple>

#include "crypto/keys.h"
#include "util/bytes.h"
#include "wire/admin_body.h"

namespace enclaves::wire {

struct AuthInitPayload {
  static constexpr std::uint8_t kType = 0xA1;
  std::string a;  // claimed member identity (encrypted copy)
  std::string l;  // leader identity
  crypto::ProtocolNonce n1;
  auto fields() { return std::tie(a, l, n1); }
  friend bool operator==(const AuthInitPayload&,
                         const AuthInitPayload&) = default;
};

struct AuthKeyDistPayload {
  static constexpr std::uint8_t kType = 0xA2;
  std::string l;
  std::string a;
  crypto::ProtocolNonce n1;  // echo of the member's nonce: freshness proof
  crypto::ProtocolNonce n2;  // leader's challenge
  crypto::SessionKey ka;     // fresh session key
  auto fields() { return std::tie(l, a, n1, n2, ka); }
  friend bool operator==(const AuthKeyDistPayload&,
                         const AuthKeyDistPayload&) = default;
};

struct AuthAckPayload {
  static constexpr std::uint8_t kType = 0xA3;
  crypto::ProtocolNonce n2;  // echo of leader's challenge
  crypto::ProtocolNonce n3;  // seed of the admin-message nonce chain
  auto fields() { return std::tie(n2, n3); }
  friend bool operator==(const AuthAckPayload&,
                         const AuthAckPayload&) = default;
};

struct AdminPayload {
  static constexpr std::uint8_t kType = 0xA4;
  std::string l;
  std::string a;
  crypto::ProtocolNonce n_prev;  // N_{2i+1}: proves freshness to A
  crypto::ProtocolNonce n_next;  // N_{2i+2}: leader's new challenge
  AdminBody body;                // the X field
  auto fields() { return std::tie(l, a, n_prev, n_next, body); }
  friend bool operator==(const AdminPayload&, const AdminPayload&) = default;
};

struct AckPayload {
  static constexpr std::uint8_t kType = 0xA5;
  std::string a;
  std::string l;
  crypto::ProtocolNonce n_prev;  // N_{2i+2}: proves freshness to L
  crypto::ProtocolNonce n_next;  // N_{2i+3}: next chain nonce
  auto fields() { return std::tie(a, l, n_prev, n_next); }
  friend bool operator==(const AckPayload&, const AckPayload&) = default;
};

struct ReqClosePayload {
  static constexpr std::uint8_t kType = 0xA6;
  std::string a;
  std::string l;
  auto fields() { return std::tie(a, l); }
  friend bool operator==(const ReqClosePayload&,
                         const ReqClosePayload&) = default;
};

/// Group data-plane plaintext, sealed under the group key Kg. `origin` is the
/// authoring member; `seq` is that member's per-epoch sequence number so
/// receivers can detect data-plane replays within an epoch.
struct GroupDataPayload {
  static constexpr std::uint8_t kType = 0xA7;
  std::string origin;
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
  Bytes payload;
  auto fields() { return std::tie(origin, epoch, seq, payload); }
  friend bool operator==(const GroupDataPayload&,
                         const GroupDataPayload&) = default;
};

}  // namespace enclaves::wire
