// Presence board: the GroupChat application layer + public-key (X25519)
// authentication + the credential registry, together.
//
// A small team authenticates with key pairs instead of passwords (the
// paper's footnoted extension), publishes presence statuses and chat lines,
// and the example renders each member's live "board": the authenticated
// roster (from the group-management channel) annotated with presence (from
// the data plane). One member is then expelled by policy and the board
// updates everywhere.
//
// Run: ./build/examples/presence_board
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "app/group_chat.h"
#include "core/leader.h"
#include "core/registry.h"
#include "crypto/x25519.h"
#include "net/sim_network.h"
#include "obs/record.h"
#include "util/rng.h"

using namespace enclaves;

namespace {

void print_board(const std::string& viewer, const app::GroupChat& chat) {
  std::printf("  %s's board:\n", viewer.c_str());
  for (const auto& id : chat.roster()) {
    auto it = chat.presence().find(id);
    std::printf("    %-8s %s\n", id.c_str(),
                it == chat.presence().end() ? "-" : it->second.c_str());
  }
}

}  // namespace

int main() {
  std::printf("Enclaves presence board (X25519 credentials + GroupChat)\n");
  std::printf("========================================================\n\n");

  OsRng rng;
  net::SimNetwork net;
  // The leader's membership and key changes, as typed trace events.
  obs::EventStore trace;
  obs::ScopedEventSink trace_sink(trace);

  // --- Key pairs. In a deployment each party generates its own and shares
  // only the PUBLIC half with the leader; no password ever exists.
  auto leader_keys = crypto::X25519KeyPair::generate();
  if (!leader_keys.ok()) return 1;

  const std::vector<std::string> team = {"ada", "grace", "edsger", "barbara"};
  std::map<std::string, crypto::X25519KeyPair> member_keys;
  core::Registry registry;
  for (const auto& id : team) {
    auto keys = crypto::X25519KeyPair::generate();
    if (!keys.ok()) return 1;
    // The leader derives the shared long-term key from ITS private key and
    // the member's public key and stores it in the registry.
    auto pa = crypto::derive_long_term_key_x25519(
        leader_keys->private_key, keys->public_key, id, "L");
    if (!pa.ok()) return 1;
    (void)registry.add(core::Credential{id, *pa, "x25519"});
    member_keys.emplace(id, *std::move(keys));
  }

  core::Leader leader(core::LeaderConfig{"L", core::RekeyPolicy::strict()},
                      rng);
  leader.set_send([&net](const std::string& to, wire::Envelope e) {
    net.send(to, std::move(e));
  });
  net.attach("L", [&leader](const wire::Envelope& e) { leader.handle(e); });
  std::printf("registry holds %zu x25519-derived credentials; installing "
              "into the leader\n\n", registry.size());
  registry.install(leader);

  // --- Members join; each runs a GroupChat on top of its Member.
  std::map<std::string, std::unique_ptr<core::Member>> members;
  std::map<std::string, std::unique_ptr<app::GroupChat>> chats;
  for (const auto& id : team) {
    auto pa = crypto::derive_long_term_key_x25519(
        member_keys.at(id).private_key, leader_keys->public_key, id, "L");
    if (!pa.ok()) return 1;
    auto m = std::make_unique<core::Member>(id, "L", *pa, rng);
    m->set_send([&net](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    auto* raw = m.get();
    net.attach(id, [raw](const wire::Envelope& e) { raw->handle(e); });
    chats[id] = std::make_unique<app::GroupChat>(*raw);
    members[id] = std::move(m);
    (void)members[id]->join();
    net.run();
  }
  std::printf("everyone joined; epoch %llu\n\n",
              static_cast<unsigned long long>(leader.epoch()));

  // --- Presence and chatter.
  (void)chats["ada"]->set_presence("proving programs correct");
  (void)chats["grace"]->set_presence("writing a compiler");
  (void)chats["edsger"]->set_presence("composing EWD memo");
  (void)chats["barbara"]->set_presence("designing abstractions");
  net.run();
  (void)chats["grace"]->post("the nanoseconds are on my desk");
  net.run();

  print_board("ada", *chats["ada"]);
  std::printf("\n  chat history at edsger:\n");
  for (const auto& m : chats["edsger"]->history())
    std::printf("    <%s> %s\n", m.author.c_str(), m.content.c_str());

  // --- Expulsion by policy: the board updates via the AUTHENTICATED
  // membership channel; no insider could fake this.
  std::printf("\n-- leader expels edsger (memo policy) --\n");
  (void)leader.expel("edsger", "memo backlog exceeded");
  net.run();

  print_board("barbara", *chats["barbara"]);
  std::printf("  edsger's own client knows: connected=%s\n",
              chats["edsger"]->connected() ? "true" : "false");
  std::printf("\nfinal epoch %llu (rekeyed on expulsion), leader trail:\n",
              static_cast<unsigned long long>(leader.epoch()));
  std::vector<obs::TraceEvent> trail;
  for (const auto& ev : trace.events()) {
    if (ev.agent == "L" &&
        (ev.kind == obs::TraceKind::join || ev.kind == obs::TraceKind::expel ||
         ev.kind == obs::TraceKind::rekey))
      trail.push_back(ev);
  }
  for (std::size_t i = trail.size() > 6 ? trail.size() - 6 : 0;
       i < trail.size(); ++i) {
    const obs::TraceEvent& ev = trail[i];
    std::printf("  %-6s %s", std::string(obs::trace_kind_name(ev.kind)).c_str(),
                ev.peer.c_str());
    if (!ev.detail.empty()) std::printf(" (%s)", ev.detail.c_str());
    if (ev.kind == obs::TraceKind::rekey)
      std::printf("epoch %llu", static_cast<unsigned long long>(ev.value));
    std::printf("\n");
  }
  return 0;
}
