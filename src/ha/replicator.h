// LeaderReplicator — streams the active leader's durable state to a warm
// standby (PROTOCOL.md §11).
//
// `Leader::snapshot()` is the one definition of durable state. Each tick
// the replicator takes a fresh snapshot and, if it differs from the last
// one shipped, appends their diff (repl_log.h) to a ReplLog as one
// ReplDelta keyed (epoch, seq), so the standby trails the leader by at most
// one tick. Deltas travel sealed under the pairwise replication key; a full
// LeaderSnapshot baseline is shipped at start(), after every
// kSnapshotInterval deltas for compaction, and whenever the standby reports
// a gap. Retransmission of the unacked suffix runs on the same RetryPolicy
// machinery as the protocol's admin channel.
//
// Fencing: a standby that has been promoted answers replication traffic
// with a fenced ReplAck. On seeing one, the replicator declares this leader
// DEPOSED — it stops replicating and fires on_deposed so the host can stand
// the old incarnation down (its epoch is below the promoted leader's fence,
// so members reject its group keys regardless).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "core/leader.h"
#include "core/retry.h"
#include "crypto/aead.h"
#include "crypto/keys.h"
#include "ha/repl_log.h"
#include "obs/event.h"
#include "util/clock.h"
#include "util/result.h"
#include "util/rng.h"
#include "wire/envelope.h"
#include "wire/repl.h"

namespace enclaves::ha {

struct ReplicatorConfig {
  std::string standby_id = "L2";
  /// Pairwise replication key, fresh per active/standby pairing. Seals the
  /// stream (deltas carry long-term keys and parole keys) and doubles as
  /// the storage key for baseline snapshot blobs.
  crypto::SessionKey repl_key;
  /// Retransmission schedule for the unacked suffix.
  core::RetryPolicy retry = core::RetryPolicy::every_tick();
  /// Send a ReplHeartbeat after this many idle ticks, so the standby's
  /// failover timer distinguishes a quiet leader from a dead one.
  /// 0 disables heartbeats.
  Tick heartbeat_interval = 2;
};

class LeaderReplicator {
 public:
  /// A fresh baseline follows this many deltas (compaction: the standby can
  /// discard buffered history, and a resync never replays the full group
  /// lifetime).
  static constexpr std::uint64_t kSnapshotInterval = 32;

  LeaderReplicator(core::Leader& leader, ReplicatorConfig config, Rng& rng,
                   const crypto::Aead& aead = crypto::default_aead());

  void set_send(core::SendFn send) { send_ = std::move(send); }

  /// Ships the initial baseline snapshot. Call once, after set_send.
  void start();

  /// Feeds one inbound envelope addressed to this leader's replication
  /// plane (ReplAck). Unauthentic or malformed input is rejected silently.
  void handle(const wire::Envelope& e);

  /// Advances the virtual clock: retransmits the unacked suffix on the
  /// retry schedule, ships the delta of whatever the leader's snapshot
  /// changed since the last one (plus a compaction baseline when due), and
  /// emits heartbeats when idle. Returns envelopes sent.
  std::size_t tick();

  std::uint64_t head() const { return log_.head(); }
  std::uint64_t acked() const { return log_.acked(); }
  std::uint64_t lag() const { return log_.head() - log_.acked(); }

  /// True once a fenced ReplAck proved a standby was promoted over us.
  bool deposed() const { return deposed_; }

  /// Test/observability hook: fires after each delta is first shipped, with
  /// the payload as sent (chaos tests record the active leader's snapshot
  /// per seq here and later diff it against the standby's reconstruction).
  std::function<void(const wire::ReplDeltaPayload&)> on_delta;

  /// Fires once, with the fencing epoch, when a fenced ack deposes us.
  std::function<void(std::uint64_t)> on_deposed;

 private:
  void send_delta(const wire::ReplDeltaPayload& delta,
                  std::string_view detail);
  void send_snapshot();
  void seal_and_send(wire::Label label, const Bytes& body);

  core::Leader& leader_;
  ReplicatorConfig config_;
  Rng& rng_;
  const crypto::Aead& aead_;
  core::SendFn send_;

  ReplLog log_;
  core::LeaderSnapshot shipped_;  // the state the standby holds at head()
  VirtualClock clock_;
  obs::EventCounters counters_;  // obs::emit's cached counter cells
  core::RetryState retry_;
  std::uint64_t deltas_since_snapshot_ = 0;
  Tick last_send_ = 0;
  bool started_ = false;
  bool deposed_ = false;
};

}  // namespace enclaves::ha
