// MultiGroupHost — several independent enclaves on one node.
//
// The original Enclaves system (Gong '97, cited as [5]) lets users
// participate in multiple named enclaves at once; the DSN'01 paper analyzes
// one group, whose guarantees are per-group. This host composes one fully
// independent Leader per named group — separate password registries,
// session keys, group keys, epochs and policies — under a single node
// identity. Group `g` on host `h` is addressed as leader "h/g"; a user
// participating in several groups runs one Member per group,
// exactly as the per-group analysis assumes.
//
// Isolation is cryptographic, not just structural: nothing sealed for one
// group can authenticate in another (distinct Pa registrations and Kg), and
// the cross-group replay tests assert it.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/leader.h"

namespace enclaves::core {

class MultiGroupHost {
 public:
  /// Answers "which leader id owns this group?" for groups this host does
  /// NOT hold — the federation directory (src/fed/) plugs in here. Returns
  /// empty when the group is unknown everywhere.
  using FederationLookup = std::function<std::string(const std::string&)>;
  MultiGroupHost(std::string host_id, Rng& rng,
                 const crypto::Aead& aead = crypto::default_aead());

  const std::string& host_id() const { return host_id_; }

  /// The leader identity members of `group` must talk to ("host/group").
  std::string leader_id_for(const std::string& group) const {
    return host_id_ + "/" + group;
  }

  /// Creates an independent group. Errc::already_exists on duplicates.
  Result<Leader*> create_group(const std::string& group,
                               RekeyPolicy policy = RekeyPolicy::strict());

  /// Same, with a full LeaderConfig (parole window, retry schedule, tree
  /// depth, ...). `config.id` is overwritten with leader_id_for(group).
  Result<Leader*> create_group(const std::string& group, LeaderConfig config);

  Leader* group(const std::string& name);
  const Leader* group(const std::string& name) const;
  std::vector<std::string> groups() const;

  /// Expels every member of the group (with `reason`), then removes it.
  /// Errc::unknown_peer when absent.
  Status drop_group(const std::string& name, const std::string& reason = {});

  /// Outbound transport shared by all groups.
  void set_send(SendFn send);

  /// Installs the cross-shard ownership lookup. With a lookup attached,
  /// traffic for a group that lives on another federation shard fails with
  /// Errc::wrong_shard whose message names the owning leader id (a typed
  /// redirect hint); without one, such traffic stays Errc::unknown_peer.
  void set_federation_lookup(FederationLookup lookup) {
    fed_lookup_ = std::move(lookup);
  }

  /// Routes one inbound envelope to the named group's leader.
  /// Errc::unknown_peer when the group does not exist anywhere;
  /// Errc::wrong_shard (message = owning leader id) when the federation
  /// lookup says another shard owns it.
  Status handle(const std::string& group, const wire::Envelope& e);

  /// Convenience: routes by the leader identity ("host/group") that the
  /// transport layer delivered this envelope to.
  Status handle_addressed_to(const std::string& leader_id,
                             const wire::Envelope& e);

  /// Fires all groups' retransmission timers; returns envelopes re-sent.
  std::size_t tick();

 private:
  std::string host_id_;
  Rng& rng_;
  const crypto::Aead& aead_;
  SendFn send_;
  FederationLookup fed_lookup_;
  std::map<std::string, std::unique_ptr<Leader>> groups_;
};

}  // namespace enclaves::core
