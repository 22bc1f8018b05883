// Plaintext payloads of the ORIGINAL Enclaves protocol (Section 2.2).
//
// This is the vulnerable baseline, reproduced faithfully so the attack
// harness can demonstrate the Section 2.3 weaknesses:
//   - pre-auth exchange in the clear (forgeable connection_denied),
//   - Kg delivered inside the auth reply,
//   - new_key messages with no freshness evidence (replayable),
//   - membership notices under the shared group key (insider-forgeable).
// Do NOT use this protocol for anything but experiments.
#pragma once

#include <string>
#include <tuple>

#include "crypto/keys.h"
#include "util/bytes.h"
#include "wire/codec.h"

namespace enclaves::wire {

/// The paper's initialization vector length; any other is malformed.
constexpr std::size_t kLegacyIvLen = 16;

/// {A, L, N1}_Pa — legacy auth message 1 content.
struct LegacyAuthInitPayload {
  static constexpr std::uint8_t kType = 0xB1;
  std::string a;
  std::string l;
  crypto::ProtocolNonce n1;
  auto fields() { return std::tie(a, l, n1); }
  friend bool operator==(const LegacyAuthInitPayload&,
                         const LegacyAuthInitPayload&) = default;
};

/// {L, A, N1, N2, Ka, IV, Kg}_Pa — legacy auth message 2 content.
struct LegacyAuthReplyPayload {
  static constexpr std::uint8_t kType = 0xB2;
  std::string l;
  std::string a;
  crypto::ProtocolNonce n1;
  crypto::ProtocolNonce n2;
  crypto::SessionKey ka;
  Bytes iv;  // 16-byte initialization vector, faithful to the paper
  crypto::GroupKey kg;
  std::uint64_t epoch = 0;  // implementation detail: identifies Kg versions
  auto fields() {
    return tie_fields(l, a, n1, n2, ka, exact<kLegacyIvLen>(iv), kg, epoch);
  }
  friend bool operator==(const LegacyAuthReplyPayload&,
                         const LegacyAuthReplyPayload&) = default;
};

/// {N2}_Ka — legacy auth message 3 content.
struct LegacyAuthAckPayload {
  static constexpr std::uint8_t kType = 0xB3;
  crypto::ProtocolNonce n2;
  auto fields() { return std::tie(n2); }
  friend bool operator==(const LegacyAuthAckPayload&,
                         const LegacyAuthAckPayload&) = default;
};

/// {Kg', IV}_Ka — legacy rekey content. NO freshness field: this is the
/// replay vulnerability of Section 2.3.
struct LegacyNewKeyPayload {
  static constexpr std::uint8_t kType = 0xB4;
  crypto::GroupKey kg;
  Bytes iv;
  std::uint64_t epoch = 0;
  auto fields() { return tie_fields(kg, exact<kLegacyIvLen>(iv), epoch); }
  friend bool operator==(const LegacyNewKeyPayload&,
                         const LegacyNewKeyPayload&) = default;
};

/// {Kg'}_Kg' — legacy rekey acknowledgment content.
struct LegacyNewKeyAckPayload {
  static constexpr std::uint8_t kType = 0xB5;
  crypto::GroupKey kg;
  auto fields() { return std::tie(kg); }
  friend bool operator==(const LegacyNewKeyAckPayload&,
                         const LegacyNewKeyAckPayload&) = default;
};

/// {A}_Kg — membership notice content (mem_removed / mem_added). Encrypted
/// under the SHARED group key: any member can forge it (Section 2.3).
struct LegacyMembershipPayload {
  static constexpr std::uint8_t kType = 0xB6;
  std::string member;
  auto fields() { return std::tie(member); }
  friend bool operator==(const LegacyMembershipPayload&,
                         const LegacyMembershipPayload&) = default;
};

}  // namespace enclaves::wire
