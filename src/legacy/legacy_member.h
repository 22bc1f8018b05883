// LegacyMember — client side of the ORIGINAL Enclaves protocol
// (Section 2.2), reproduced faithfully INCLUDING its vulnerabilities:
//
//   V1. The pre-auth exchange is plaintext: this member believes any
//       connection_denied reply (forgeable denial-of-service, Section 2.3).
//   V2. new_key messages carry no freshness evidence: any {Kg', IV}_Ka that
//       opens is accepted, including replays of old rekeys (old-key-reuse
//       attack, Section 2.3).
//   V3. mem_removed / mem_added notices are sealed under the SHARED group
//       key: any member can forge them (membership-lie attack, Section 2.3).
//   V4. The data plane has no replay or origin protection.
//
// Baseline for the attack-matrix experiments; never use this for real work.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/events.h"
#include "core/roster.h"
#include "crypto/aead.h"
#include "crypto/keys.h"
#include "util/result.h"
#include "wire/envelope.h"

namespace enclaves::legacy {

using SendFn = std::function<void(const std::string& to, wire::Envelope)>;

class LegacyMember {
 public:
  enum class State : std::uint8_t {
    not_connected,
    pre_open,       // req_open sent, awaiting ack_open / connection_denied
    waiting_reply,  // auth message 1 sent
    connected,
    denied,         // gave up after (possibly forged) connection_denied
  };

  LegacyMember(std::string id, std::string leader_id, crypto::LongTermKey pa,
               Rng& rng, const crypto::Aead& aead = crypto::default_aead());

  void set_send(SendFn send) { send_ = std::move(send); }
  void set_event_handler(core::EventHandler handler) {
    on_event_ = std::move(handler);
  }

  const std::string& id() const { return id_; }
  State state() const { return state_; }
  bool connected() const { return state_ == State::connected; }
  bool was_denied() const { return state_ == State::denied; }

  Status join();
  Status leave();
  Status send_data(BytesView payload);
  void handle(const wire::Envelope& e);

  std::uint64_t epoch() const { return epoch_; }
  const crypto::GroupKey& group_key() const { return kg_; }
  const crypto::SessionKey& session_key() const { return ka_; }
  std::vector<std::string> view() const;

  /// How many times the group key changed (genuine or replayed rekeys).
  std::uint64_t rekeys_accepted() const { return rekeys_accepted_; }

 private:
  void emit(core::GroupEvent event);

  std::string id_;
  std::string leader_id_;
  crypto::LongTermKey pa_;
  Rng& rng_;
  const crypto::Aead& aead_;
  SendFn send_;
  core::EventHandler on_event_;

  State state_ = State::not_connected;
  crypto::ProtocolNonce n1_;
  crypto::SessionKey ka_;
  crypto::GroupKey kg_;
  std::uint64_t epoch_ = 0;
  bool have_kg_ = false;
  core::Roster view_;
  std::uint64_t rekeys_accepted_ = 0;
};

const char* to_string(LegacyMember::State s);

}  // namespace enclaves::legacy
