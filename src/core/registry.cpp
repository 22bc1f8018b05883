#include "core/registry.h"

#include "core/leader.h"

namespace enclaves::core {

Status Registry::add(std::string member_id, Credential credential) {
  auto [it, inserted] =
      entries_.emplace(std::move(member_id), std::move(credential));
  if (!inserted) return make_error(Errc::already_exists, it->first);
  return Status::success();
}

bool Registry::contains(const std::string& member_id) const {
  return entries_.count(member_id) > 0;
}

const Credential* Registry::find(const std::string& member_id) const {
  auto it = entries_.find(member_id);
  return it == entries_.end() ? nullptr : &it->second;
}

Status Registry::remove(const std::string& member_id) {
  if (entries_.erase(member_id) == 0)
    return make_error(Errc::unknown_peer, member_id);
  return Status::success();
}

std::vector<std::string> Registry::ids() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [id, cred] : entries_) out.push_back(id);
  return out;
}

std::size_t Registry::install(Leader& leader) const {
  std::size_t installed = 0;
  for (const auto& [id, cred] : entries_) {
    if (leader.register_member(id, cred.pa).ok()) ++installed;
  }
  return installed;
}

std::size_t LeaderSnapshot::install(Leader& leader) const {
  std::size_t installed = registry.install(leader);
  leader.set_epoch_floor(epoch);
  if (!keytree_slots.empty())
    leader.set_keytree_hints(keytree_slots, keytree_depth);
  for (const auto& [id, record] : parole)
    leader.restore_parole(id, record.kr, record.fence_epoch);
  return installed;
}

}  // namespace enclaves::core
