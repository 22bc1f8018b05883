#include "fed/federation.h"

#include "core/registry.h"
#include "crypto/hkdf.h"
#include "obs/event.h"
#include "wire/seal.h"

namespace enclaves::fed {

namespace {
constexpr std::string_view kPairSalt = "enclaves.fed.pair.v1";
}  // namespace

FedNode::FedNode(FedNodeConfig config, Rng& rng, const crypto::Aead& aead)
    : config_(std::move(config)),
      rng_(rng),
      aead_(aead),
      host_(config_.shard_id, rng, aead),
      ring_(config_.ring_vnodes),
      migrator_(
          [&] {
            MigratorConfig m = config_.migrate;
            m.shard_id = config_.shard_id;
            return m;
          }(),
          rng) {
  ring_.add_shard(config_.shard_id);

  // Groups absent here but present in the directory answer with a typed
  // redirect hint instead of unknown_peer (multi_group.h).
  host_.set_federation_lookup([this](const std::string& group) -> std::string {
    const std::string owner = directory_.owner(group);
    if (owner.empty() || owner == config_.shard_id) return {};
    return owner + "/" + group;
  });

  Migrator::Hooks hooks;
  hooks.send = [this](const std::string& to, wire::Label label,
                      Bytes payload) { sealed_send(to, label, payload); };
  hooks.offer_fresh = [this](const wire::FedMigrateOfferPayload& o) {
    const std::uint64_t v = directory_.version(o.group);
    const bool fresh = v == 0 || o.dir_version > v ||
                       (o.dir_version == v &&
                        directory_.owner(o.group) == o.source_shard);
    if (!fresh) {
      // The resurrected-source case: an offer carrying an ownership version
      // the directory already superseded. Refused, with attribution.
      obs::emit(counters_, obs::Event::stale_offer, clock_.now(), o.group,
                config_.shard_id, o.source_shard, "stale migration offer",
                o.dir_version);
    }
    return fresh;
  };
  hooks.install =
      [this](const wire::FedMigrateOfferPayload& o) -> Result<std::uint64_t> {
    if (host_.group(o.group)) return make_error(Errc::already_exists, o.group);
    auto snap = wire::mac_decode<core::LeaderSnapshot>(
        o.snapshot, pair_key(o.source_shard));
    if (!snap) {
      obs::emit(counters_, obs::Event::fed_malformed,
                obs::evidence_kind_for(snap.error().code), clock_.now(),
                o.group, config_.shard_id, o.source_shard,
                "migration snapshot rejected");
      return snap.error();
    }
    core::Leader* leader = build_group(o.group);
    if (!leader) return make_error(Errc::internal, o.group);
    snap->install(*leader);
    // Fence above anything the source could plausibly have issued while the
    // commit is in flight (or while a zombie source keeps rekeying) — the
    // same headroom rule as an HA promotion (PROTOCOL.md §11).
    const std::uint64_t fence = o.epoch + config_.migrate.epoch_fence_jump;
    leader->set_epoch_floor(fence);
    // Provisional local claim so traffic routes here even if the source
    // dies before committing; the commit (or the source's own dir sync)
    // confirms the same version.
    directory_.claim(o.group, config_.shard_id, o.dir_version + 1);
    gauge_groups();
    return fence;
  };
  hooks.handover = [this](const std::string& group,
                          const std::string& target) {
    (void)host_.drop_group(group, "migrated");
    const std::uint64_t v = directory_.version(group) + 1;
    directory_.claim(group, target, v);
    broadcast_dir(group);
    gauge_groups();
    return v;
  };
  hooks.committed = [this](const std::string& group, std::uint64_t version) {
    directory_.claim(group, config_.shard_id, version);
    broadcast_dir(group);
  };
  migrator_.set_hooks(std::move(hooks));
}

void FedNode::set_send(core::SendFn send) {
  send_ = std::move(send);
  host_.set_send(send_);
}

Bytes FedNode::pair_key(const std::string& other_shard) const {
  const bool first = config_.shard_id < other_shard;
  const std::string& a = first ? config_.shard_id : other_shard;
  const std::string& b = first ? other_shard : config_.shard_id;
  return crypto::hkdf(to_bytes(kPairSalt), config_.fed_key.view(),
                      to_bytes(a + "|" + b), crypto::kKeyBytes);
}

void FedNode::sealed_send(const std::string& to_shard, wire::Label label,
                          BytesView payload) {
  if (!send_) return;
  send_(to_shard, wire::make_sealed(aead_, pair_key(to_shard), rng_, label,
                                    config_.shard_id, to_shard, payload));
}

void FedNode::gauge_groups() const {
  obs::gauge_set("fed", config_.shard_id, "groups_owned",
                 static_cast<std::int64_t>(host_.groups().size()));
}

core::Leader* FedNode::build_group(const std::string& group) {
  core::LeaderConfig cfg;
  cfg.rekey = config_.rekey;
  cfg.parole_epochs = config_.parole_epochs;
  auto leader = host_.create_group(group, std::move(cfg));
  return leader ? *leader : nullptr;
}

Result<core::Leader*> FedNode::create_group(const std::string& group) {
  const std::string place = ring_.owner(group);
  if (place != config_.shard_id) return make_error(Errc::wrong_shard, place);
  if (host_.group(group)) return make_error(Errc::already_exists, group);
  core::Leader* leader = build_group(group);
  if (!leader) return make_error(Errc::internal, group);
  directory_.claim(group, config_.shard_id, 1);
  broadcast_dir(group);
  gauge_groups();
  return leader;
}

Status FedNode::migrate_out(const std::string& group,
                            const std::string& target_shard) {
  core::Leader* leader = host_.group(group);
  if (!leader) return make_error(Errc::unknown_peer, group);
  if (target_shard == config_.shard_id)
    return make_error(Errc::unexpected, "migrate to self");
  if (!ring_.contains(target_shard))
    return make_error(Errc::unknown_peer, target_shard);
  core::LeaderSnapshot snap = leader->snapshot();
  Bytes blob = wire::mac_encode(snap, pair_key(target_shard));
  auto id = migrator_.begin(group, target_shard, std::move(blob), snap.epoch,
                            directory_.version(group));
  if (!id) return id.error();
  return Status::success();
}

void FedNode::broadcast_dir(const std::string& group) {
  const Ownership* own = directory_.find(group);
  if (!own) return;
  Bytes payload =
      wire::encode(wire::FedDirSyncPayload{group, own->owner_shard,
                                           own->version});
  for (const std::string& shard : ring_.shards()) {
    if (shard == config_.shard_id) continue;
    sealed_send(shard, wire::Label::FedDirSync, payload);
  }
  obs::count("fed", config_.shard_id, "dir_broadcasts_total");
}

void FedNode::send_redirect(const std::string& member,
                            const std::string& group,
                            const std::string& stale_leader,
                            const std::string& owner_leader) {
  obs::emit(counters_, obs::Event::redirect_sent, clock_.now(), group,
            config_.shard_id, member, "sent", directory_.version(group));
  // Observed-not-processed evidence. No accusation: arriving at the wrong
  // shard is the expected aftermath of a migration, not an attack.
  obs::emit(counters_, obs::Event::wrong_shard, clock_.now(), group,
            config_.shard_id, /*peer=*/{}, owner_leader);
  wire::Envelope env{wire::Label::FedRedirect, config_.shard_id, member,
                     wire::encode(wire::FedRedirectPayload{
                         group, stale_leader, owner_leader,
                         directory_.version(group)})};
  if (send_) send_(member, std::move(env));
}

void FedNode::handle(const std::string& to, const wire::Envelope& e) {
  if (to == config_.shard_id) {
    handle_fed(e);
    return;
  }
  const std::string prefix = config_.shard_id + "/";
  if (to.rfind(prefix, 0) != 0) return;  // not addressed to this node
  const std::string group = to.substr(prefix.size());
  if (migrator_.frozen(group)) {
    // Mid-migration quiesce: the snapshot in flight must stay authoritative.
    // The member's own retransmission covers the gap; after the handover it
    // is answered with a redirect instead.
    obs::count("fed", config_.shard_id, "frozen_drops_total");
    return;
  }
  Status s = host_.handle(group, e);
  if (s.ok()) return;
  if (s.error().code == Errc::wrong_shard) {
    send_redirect(e.sender, group, to, s.error().message);
    return;
  }
  obs::count("fed", config_.shard_id, "unroutable_drops_total");
}

void FedNode::handle_fed(const wire::Envelope& e) {
  using wire::Label;
  if (e.label != Label::FedMigrateOffer && e.label != Label::FedMigrateAck &&
      e.label != Label::FedMigrateCommit && e.label != Label::FedDirSync) {
    obs::emit(counters_, obs::Event::fed_label_refused, clock_.now(), "fed",
              config_.shard_id, e.sender, wire::enum_name(e.label));
    return;
  }
  if (e.sender.empty() || e.sender == config_.shard_id) return;
  auto plain = wire::open_sealed(aead_, pair_key(e.sender), e);
  if (!plain) {
    obs::emit(counters_, obs::Event::fed_seal_refused, clock_.now(), "fed",
              config_.shard_id, e.sender, wire::enum_name(e.label));
    return;
  }
  auto malformed = [&](const Error& err) {
    obs::emit(counters_, obs::Event::fed_malformed, clock_.now(), "fed",
              config_.shard_id, e.sender, err.to_string());
  };
  switch (e.label) {
    case Label::FedMigrateOffer: {
      auto p = wire::decode<wire::FedMigrateOfferPayload>(*plain);
      if (!p) return malformed(p.error());
      migrator_.handle_offer(*p);
      return;
    }
    case Label::FedMigrateAck: {
      auto p = wire::decode<wire::FedMigrateAckPayload>(*plain);
      if (!p) return malformed(p.error());
      migrator_.handle_ack(*p);
      return;
    }
    case Label::FedMigrateCommit: {
      auto p = wire::decode<wire::FedMigrateCommitPayload>(*plain);
      if (!p) return malformed(p.error());
      migrator_.handle_commit(*p);
      return;
    }
    case Label::FedDirSync: {
      auto p = wire::decode<wire::FedDirSyncPayload>(*plain);
      if (!p) return malformed(p.error());
      const Directory::Claim claim =
          directory_.claim(p->group, p->owner_shard, p->version);
      obs::emit(counters_, obs::Event::dir_claim, clock_.now(), p->group,
                config_.shard_id, e.sender, p->owner_shard, p->version);
      if (claim == Directory::Claim::stale) {
        // An authentic shard asserting ownership the directory already
        // superseded — the resurrected source, or a replayed sync.
        obs::emit(counters_, obs::Event::stale_dir_claim, clock_.now(),
                  p->group, config_.shard_id, e.sender, "stale directory claim",
                  p->version);
      } else if (claim == Directory::Claim::installed) {
        obs::count("fed", config_.shard_id, "dir_updates_total");
      }
      return;
    }
    default:
      return;
  }
}

std::size_t FedNode::tick() {
  clock_.advance();
  return host_.tick() + migrator_.tick();
}

}  // namespace enclaves::fed
