// Observable events surfaced to the application by Member and Leader.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "util/bytes.h"
#include "wire/admin_body.h"

namespace enclaves::core {

/// The member completed authentication and holds a session key.
struct SessionEstablished {};

/// The member's session ended (voluntary leave, expulsion, or local close).
struct SessionClosed {
  std::string reason;
};

/// A group-management message was accepted (authenticated, fresh, in order).
struct AdminAccepted {
  wire::AdminBody body;
};

/// The membership view changed (join/leave/list snapshot applied). One
/// event per applied notice, even one that left the view as it was. The
/// snapshot is the member's own copy-on-write roster (core/roster.h), not a
/// copy of it: emitting costs nothing per member (EXPERIMENTS.md E18). A
/// handler may retain it without copying; the roster then copies itself on
/// its next change, so a retained snapshot never changes.
struct ViewChanged {
  std::shared_ptr<const std::vector<std::string>> snapshot;

  /// The sorted member list (empty for a default-constructed event).
  const std::vector<std::string>& members() const {
    static const std::vector<std::string> kEmpty;
    return snapshot ? *snapshot : kEmpty;
  }
};

/// A new group key took effect.
struct EpochChanged {
  std::uint64_t epoch;
};

/// Application data relayed through the leader was received and decrypted.
struct DataReceived {
  std::string origin;  // claimed author — forgeable by insiders (see docs)
  Bytes payload;
};

using GroupEvent = std::variant<SessionEstablished, SessionClosed,
                                AdminAccepted, ViewChanged, EpochChanged,
                                DataReceived>;

using EventHandler = std::function<void(const GroupEvent&)>;

}  // namespace enclaves::core
