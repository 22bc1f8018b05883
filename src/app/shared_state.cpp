#include "app/shared_state.h"

#include <algorithm>

namespace enclaves::app {

SharedState::SharedState(core::Member& member) : member_(member) {
  member_.set_event_handler(
      [this](const core::GroupEvent& ev) { on_event(ev); });
}

std::uint64_t SharedState::next_clock() const {
  std::uint64_t max_clock = 0;
  for (const auto& [key, entry] : entries_)
    max_clock = std::max(max_clock, entry.version.clock);
  return max_clock + 1;
}

Status SharedState::publish(BytesView payload) {
  return member_.send_data(payload);
}

Status SharedState::set(const std::string& key, const std::string& value) {
  StateUpdate u{key, Entry{value, Version{next_clock(), member_.id()}, false}};
  auto s = publish(wire::encode(u));
  if (!s.ok()) return s;
  apply(u);  // local echo
  return Status::success();
}

Status SharedState::erase(const std::string& key) {
  StateUpdate u{key, Entry{{}, Version{next_clock(), member_.id()}, true}};
  auto s = publish(wire::encode(u));
  if (!s.ok()) return s;
  apply(u);
  return Status::success();
}

Status SharedState::request_snapshot() {
  return publish(wire::encode(SnapshotRequest{}));
}

bool SharedState::apply(const StateUpdate& update) {
  auto it = entries_.find(update.key);
  if (it == entries_.end()) {
    entries_.emplace(update.key, update.entry);
    return true;
  }
  if (it->second.version < update.entry.version) {
    bool visible_change = it->second.value != update.entry.value ||
                          it->second.tombstone != update.entry.tombstone;
    it->second = update.entry;
    return visible_change;
  }
  return false;  // stale or duplicate: LWW keeps the newer entry
}

void SharedState::on_event(const core::GroupEvent& ev) {
  if (const auto* d = std::get_if<core::DataReceived>(&ev)) {
    auto msg = wire::decode<StateMessage>(d->payload);
    if (!msg) {
      ++decode_failures_;
    } else if (const auto* u = std::get_if<StateUpdate>(&*msg)) {
      if (apply(*u) && on_change) on_change(u->key);
    } else if (std::holds_alternative<SnapshotRequest>(*msg)) {
      // Answer with our full state (including tombstones, so deletions
      // propagate to the newcomer too).
      SnapshotReply reply;
      for (const auto& [key, entry] : entries_)
        reply.entries.push_back(StateUpdate{key, entry});
      (void)publish(wire::encode(reply));
    } else if (const auto* reply = std::get_if<SnapshotReply>(&*msg)) {
      for (const auto& u : reply->entries) {
        if (apply(u) && on_change) on_change(u.key);
      }
    }
  }
  if (passthrough_) passthrough_(ev);
}

std::optional<std::string> SharedState::get(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.tombstone) return std::nullopt;
  return it->second.value;
}

bool SharedState::contains(const std::string& key) const {
  return get(key).has_value();
}

std::vector<std::string> SharedState::keys() const {
  std::vector<std::string> out;
  for (const auto& [key, entry] : entries_) {
    if (!entry.tombstone) out.push_back(key);
  }
  return out;
}

std::size_t SharedState::size() const { return keys().size(); }

}  // namespace enclaves::app
