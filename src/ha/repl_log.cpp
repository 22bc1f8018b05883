#include "ha/repl_log.h"

#include <string_view>
#include <utility>

namespace enclaves::ha {

namespace {

// The three snapshot maps' values as they travel, and how a travelled value
// is stored back.
wire::ReplCredential to_wire(const core::Credential& c) {
  return {c.pa, c.note};
}
std::uint32_t to_wire(std::uint32_t leaf) { return leaf; }
wire::ReplParole to_wire(const core::ParoleRecord& p) {
  return {p.kr, p.fence_epoch};
}

void put(core::Registry& registry, const std::string& id,
         const wire::ReplCredential& c) {
  (void)registry.remove(id);
  (void)registry.add(id, {c.pa, c.note});
}
void put(std::map<std::string, std::uint32_t>& slots, const std::string& id,
         std::uint32_t leaf) {
  slots.insert_or_assign(id, leaf);
}
void put(std::map<std::string, core::ParoleRecord>& parole,
         const std::string& id, const wire::ReplParole& p) {
  parole.insert_or_assign(id, core::ParoleRecord{p.kr, p.fence_epoch});
}

void erase(core::Registry& registry, const std::string& id) {
  (void)registry.remove(id);
}
template <class V>
void erase(std::map<std::string, V>& map, const std::string& id) {
  map.erase(id);
}

template <class T, class V>
void diff_map(const std::map<std::string, T>& from,
              const std::map<std::string, T>& to, wire::ReplMapDiff<V>& out) {
  for (const auto& [key, value] : to) {
    auto it = from.find(key);
    if (it == from.end() || !(it->second == value))
      out.set.push_back({key, to_wire(value)});
  }
  for (const auto& [key, value] : from)
    if (!to.count(key)) out.erased.push_back(key);
}

template <class Map, class V>
bool patch_map(Map& map, const wire::ReplMapDiff<V>& diff) {
  for (const auto& entry : diff.set) put(map, entry.key, entry.value);
  for (const auto& key : diff.erased) erase(map, key);
  return !diff.set.empty() || !diff.erased.empty();
}

}  // namespace

wire::ReplDeltaPayload diff(const core::LeaderSnapshot& from,
                            const core::LeaderSnapshot& to) {
  wire::ReplDeltaPayload delta;
  delta.epoch = to.epoch;
  delta.keytree_depth = to.keytree_depth;
  diff_map(from.registry.entries(), to.registry.entries(), delta.credentials);
  diff_map(from.keytree_slots, to.keytree_slots, delta.slots);
  diff_map(from.parole, to.parole, delta.parole);
  return delta;
}

std::string patch(core::LeaderSnapshot& snap,
                  const wire::ReplDeltaPayload& delta) {
  std::string changed;
  const auto note = [&changed](bool hit, std::string_view name) {
    if (!hit) return;
    if (!changed.empty()) changed += ',';
    changed += name;
  };
  note(std::exchange(snap.epoch, delta.epoch) != delta.epoch, "epoch");
  note(std::exchange(snap.keytree_depth, delta.keytree_depth) !=
           delta.keytree_depth,
       "depth");
  note(patch_map(snap.registry, delta.credentials), "credentials");
  note(patch_map(snap.keytree_slots, delta.slots), "slots");
  note(patch_map(snap.parole, delta.parole), "parole");
  return changed;
}

std::uint64_t ReplLog::append(wire::ReplDeltaPayload delta) {
  delta.seq = ++head_;
  entries_.emplace(head_, std::move(delta));
  return head_;
}

void ReplLog::ack(std::uint64_t seq) {
  if (seq <= acked_) return;
  // An ack beyond head would mean the standby applied deltas we never
  // emitted; clamp rather than trust it (the stream is authenticated, but a
  // buggy peer must not be able to poison our bookkeeping).
  if (seq > head_) seq = head_;
  acked_ = seq;
  entries_.erase(entries_.begin(), entries_.upper_bound(seq));
}

}  // namespace enclaves::ha
