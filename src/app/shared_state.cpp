#include "app/shared_state.h"

#include <algorithm>

#include "wire/codec.h"

namespace enclaves::app {

namespace {
constexpr std::uint8_t kUpdateTag = 0xD1;
constexpr std::uint8_t kSnapshotRequestTag = 0xD2;
constexpr std::uint8_t kSnapshotReplyTag = 0xD3;
constexpr std::uint32_t kMaxSnapshotEntries = 1 << 16;

void write_update(wire::Writer& w, const StateUpdate& u) {
  w.str(u.key);
  w.str(u.entry.value);
  w.u64(u.entry.version.clock);
  w.str(u.entry.version.author);
  w.u8(u.entry.tombstone ? 1 : 0);
}

Result<StateUpdate> read_update(wire::Reader& r) {
  auto key = r.str();
  if (!key) return key.error();
  auto value = r.str();
  if (!value) return value.error();
  auto clock = r.u64();
  if (!clock) return clock.error();
  auto author = r.str();
  if (!author) return author.error();
  auto tomb = r.u8();
  if (!tomb) return tomb.error();
  if (*tomb > 1) return make_error(Errc::malformed, "tombstone flag");
  return StateUpdate{*std::move(key),
                     Entry{*std::move(value),
                           Version{*clock, *std::move(author)}, *tomb == 1}};
}

}  // namespace

Bytes encode(const StateUpdate& u) {
  wire::Writer w;
  w.u8(kUpdateTag);
  write_update(w, u);
  return std::move(w).take();
}

Bytes encode(const SnapshotRequest&) {
  wire::Writer w;
  w.u8(kSnapshotRequestTag);
  return std::move(w).take();
}

Bytes encode(const SnapshotReply& r) {
  wire::Writer w;
  w.u8(kSnapshotReplyTag);
  w.u32(static_cast<std::uint32_t>(r.entries.size()));
  for (const auto& u : r.entries) write_update(w, u);
  return std::move(w).take();
}

Result<StateMessage> decode_state_message(BytesView raw) {
  wire::Reader r(raw);
  auto tag = r.u8();
  if (!tag) return tag.error();
  switch (*tag) {
    case kUpdateTag: {
      auto u = read_update(r);
      if (!u) return u.error();
      if (auto end = r.expect_end(); !end) return end.error();
      return StateMessage(*std::move(u));
    }
    case kSnapshotRequestTag: {
      if (auto end = r.expect_end(); !end) return end.error();
      return StateMessage(SnapshotRequest{});
    }
    case kSnapshotReplyTag: {
      auto count = r.u32();
      if (!count) return count.error();
      if (*count > kMaxSnapshotEntries)
        return make_error(Errc::oversized, "snapshot entries");
      SnapshotReply reply;
      // Every entry takes at least one octet: never reserve more entries
      // than the bytes left could hold.
      reply.entries.reserve(std::min<std::size_t>(*count, r.remaining()));
      for (std::uint32_t i = 0; i < *count; ++i) {
        auto u = read_update(r);
        if (!u) return u.error();
        reply.entries.push_back(*std::move(u));
      }
      if (auto end = r.expect_end(); !end) return end.error();
      return StateMessage(std::move(reply));
    }
    default:
      return make_error(Errc::malformed, "not a shared-state payload");
  }
}

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
  auto s = publish(encode(u));
  if (!s.ok()) return s;
  apply(u);  // local echo
  return Status::success();
}

Status SharedState::erase(const std::string& key) {
  StateUpdate u{key, Entry{{}, Version{next_clock(), member_.id()}, true}};
  auto s = publish(encode(u));
  if (!s.ok()) return s;
  apply(u);
  return Status::success();
}

Status SharedState::request_snapshot() {
  return publish(encode(SnapshotRequest{}));
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
    auto msg = decode_state_message(d->payload);
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
      (void)publish(encode(reply));
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
