// StandbyLeader — the warm standby of PROTOCOL.md §11: consumes the
// replication stream and maintains a reconstruction of the active leader's
// durable state (credential registry + epoch) that is bit-identical to
// `Leader::snapshot()` at every replicated point.
//
// Apply discipline: a baseline snapshot must arrive before any delta takes
// effect (the stream always opens with one). Deltas then apply strictly in
// sequence order; duplicates (seq <= applied) are suppressed and re-acked,
// out-of-order arrivals are buffered up to `max_buffered` awaiting the gap
// fill, and an unfillable gap is reported via ReplAck{gap} so the active
// resyncs with a fresh baseline. Acks are cumulative: ack.seq is the highest
// contiguously applied index.
//
// Promotion: promote() turns the replicated state into a live Leader whose
// epoch floor is fenced `epoch_fence` above the last replicated epoch —
// every group key the promoted leader issues is strictly newer than
// anything the old incarnation could have distributed (even keys it rekeyed
// after replication stopped, as long as it managed fewer than `epoch_fence`
// of them — pick the fence above any plausible partition-time rekey count).
// After promotion the standby answers all further replication traffic with
// ReplAck{fenced}, deposing the old leader when it resurfaces.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/leader.h"
#include "core/registry.h"
#include "crypto/aead.h"
#include "crypto/keys.h"
#include "obs/event.h"
#include "util/clock.h"
#include "util/result.h"
#include "util/rng.h"
#include "wire/envelope.h"
#include "wire/repl.h"

namespace enclaves::ha {

struct StandbyConfig {
  std::string id = "L2";
  std::string active_id = "L";
  /// Pairwise replication key (must match the active's ReplicatorConfig).
  crypto::SessionKey repl_key;
  /// Out-of-order deltas held while awaiting a gap fill; beyond this the
  /// standby reports a gap instead of buffering without bound.
  std::size_t max_buffered = 64;
};

class StandbyLeader {
 public:
  StandbyLeader(StandbyConfig config, Rng& rng,
                const crypto::Aead& aead = crypto::default_aead());

  void set_send(core::SendFn send) { send_ = std::move(send); }

  /// The standby has no tick loop of its own; whoever drives it (normally
  /// the FailoverController) publishes the current virtual time here so
  /// trace events carry meaningful ticks.
  void set_now(Tick now) { now_ = now; }

  /// Feeds one inbound envelope (ReplDelta / ReplSnapshot / ReplHeartbeat).
  /// Unauthentic or malformed input is rejected silently; authentic input
  /// fires on_activity (the failover controller's liveness signal).
  void handle(const wire::Envelope& e);

  /// The reconstructed durable state. Equals the active's
  /// `Leader::snapshot()` as of replication index applied_seq().
  core::LeaderSnapshot snapshot() const;

  bool has_baseline() const { return has_baseline_; }
  std::uint64_t applied_seq() const { return applied_; }
  std::uint64_t epoch() const { return epoch_; }
  bool promoted() const { return promoted_; }
  std::uint64_t fenced_epoch() const { return fenced_epoch_; }

  struct Stats {
    std::uint64_t deltas_applied = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t gaps_detected = 0;
    std::uint64_t snapshots_installed = 0;
    std::uint64_t rejects = 0;  // undecryptable / malformed / mis-addressed
  };
  const Stats& stats() const { return stats_; }

  /// Promotes the replicated state into a live Leader (fresh sessions, no
  /// members — the survivors re-authenticate and a first rekey issues a
  /// fresh Kg above the fence). The standby itself stays alive purely to
  /// fence the old incarnation's replication traffic. Errc::unexpected if
  /// promoted before a baseline arrived or twice.
  Result<std::unique_ptr<core::Leader>> promote(core::LeaderConfig config,
                                                std::uint64_t epoch_fence);

  /// Fires on every authentic replication message (liveness evidence).
  std::function<void()> on_activity;

 private:
  void apply(const wire::ReplDeltaPayload& delta);
  void drain_buffer();
  void send_ack(bool gap);
  void send_fenced_ack();

  StandbyConfig config_;
  Rng& rng_;
  const crypto::Aead& aead_;
  core::SendFn send_;

  core::Registry registry_;  // credentials, note "snapshot" (see snapshot())
  std::uint64_t epoch_ = 0;
  std::uint64_t applied_ = 0;
  bool has_baseline_ = false;
  std::map<std::uint64_t, wire::ReplDeltaPayload> buffer_;  // out-of-order

  bool promoted_ = false;
  std::uint64_t fenced_epoch_ = 0;
  Tick now_ = 0;
  obs::EventCounters counters_;  // obs::emit's cached counter cells
  Stats stats_;
};

}  // namespace enclaves::ha
