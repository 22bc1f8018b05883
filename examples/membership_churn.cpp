// Membership churn under the strict rekey policy: 24 members join and leave
// randomly for several hundred steps while the group keeps chatting. At
// every quiescent point the example audits the paper's service guarantees:
//
//   - view consistency: every in-session member's view equals the leader's
//     membership (accurate group-membership information, §3.1);
//   - epoch agreement: every member holds the current group key;
//   - forward secrecy of the data plane: a member who left cannot decrypt
//     traffic sealed after the post-leave rekey (checked with a real
//     decryption attempt using the departed member's last key).
//
// Run: ./build/examples/membership_churn
#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "core/leader.h"
#include "core/member.h"
#include "crypto/password.h"
#include "net/sim_network.h"
#include "util/rng.h"
#include "wire/seal.h"

using namespace enclaves;

int main() {
  std::printf("Enclaves membership churn audit\n");
  std::printf("===============================\n\n");

  const int kMembers = 24;
  const int kSteps = 400;

  net::SimNetwork net;
  DeterministicRng rng(20010701);  // DSN'01 in Göteborg
  core::Leader leader(core::LeaderConfig{"L", core::RekeyPolicy::strict()},
                      rng);
  leader.set_send([&net](const std::string& to, wire::Envelope e) {
    net.send(to, std::move(e));
  });
  net.attach("L", [&leader](const wire::Envelope& e) { leader.handle(e); });

  std::map<std::string, std::unique_ptr<core::Member>> members;
  std::vector<std::string> ids;
  for (int i = 0; i < kMembers; ++i) {
    std::string id = "m" + std::to_string(i);
    ids.push_back(id);
    auto pa = crypto::derive_long_term_key(id, "pw-" + id,
                                           {64, "churn-demo"});
    (void)leader.register_member(id, pa);
    auto m = std::make_unique<core::Member>(id, "L", pa, rng);
    m->set_send([&net](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    auto* raw = m.get();
    net.attach(id, [raw](const wire::Envelope& e) { raw->handle(e); });
    members[id] = std::move(m);
  }

  // Departed members keep their last group key (the paper's threat model);
  // we retain a copy to verify it is useless after the rekey.
  struct Departed {
    crypto::GroupKey old_key;
    std::uint64_t old_epoch;
  };
  std::map<std::string, Departed> departed;

  std::uint64_t joins = 0, leaves = 0, chats = 0;
  int audits_passed = 0, audits_failed = 0;

  auto audit = [&]() {
    net.run();
    auto expected = leader.members();
    bool ok = true;
    for (const auto& id : ids) {
      core::Member& m = *members[id];
      if (leader.is_member(id)) {
        if (!m.connected() || m.view() != expected ||
            m.epoch() != leader.epoch()) {
          ok = false;
          std::printf("AUDIT FAIL: %s view/epoch inconsistent\n", id.c_str());
        }
      } else if (m.connected()) {
        ok = false;
        std::printf("AUDIT FAIL: %s thinks it is in but is not\n",
                    id.c_str());
      }
    }
    ok ? ++audits_passed : ++audits_failed;
  };

  for (int step = 0; step < kSteps; ++step) {
    const std::string& id = ids[rng.below(kMembers)];
    core::Member& m = *members[id];
    switch (rng.below(4)) {
      case 0:
        if (!m.connected()) {
          (void)m.join();
          ++joins;
        }
        break;
      case 1:
        if (m.connected() && leader.member_count() > 1) {
          departed[id] = {crypto::GroupKey::from_bytes(
                              leader.group_key().to_bytes()),
                          leader.epoch()};
          (void)m.leave();
          ++leaves;
        }
        break;
      default:
        if (m.connected() && m.has_group_key()) {
          (void)m.send_data(to_bytes("step " + std::to_string(step)));
          ++chats;
        }
        break;
    }
    if (step % 20 == 19) audit();
  }
  audit();

  // Forward-secrecy probe: seal a message under the CURRENT key and check
  // that no departed member's retained key opens any current-epoch traffic.
  std::size_t stale_key_openings = 0, probes = 0;
  if (leader.member_count() > 0) {
    for (const auto& p : net.log()) {
      if (p.envelope.label != wire::Label::GroupData) continue;
      for (const auto& [id, d] : departed) {
        if (d.old_epoch == leader.epoch()) continue;  // left this epoch
        ++probes;
        auto attempt = wire::open_sealed(crypto::default_aead(),
                                         d.old_key.view(), p.envelope);
        if (attempt.ok()) {
          auto payload = wire::decode<wire::GroupDataPayload>(*attempt);
          if (payload && payload->epoch == leader.epoch())
            ++stale_key_openings;
        }
      }
    }
  }

  std::printf("churn: %llu joins, %llu leaves, %llu chat messages, "
              "%llu wire packets\n",
              static_cast<unsigned long long>(joins),
              static_cast<unsigned long long>(leaves),
              static_cast<unsigned long long>(chats),
              static_cast<unsigned long long>(net.packets_sent()));
  std::printf("final: %zu members in session, epoch %llu\n",
              leader.member_count(),
              static_cast<unsigned long long>(leader.epoch()));
  std::printf("consistency audits: %d passed, %d failed\n", audits_passed,
              audits_failed);
  std::printf("forward-secrecy probes with departed members' keys: %zu "
              "attempted, %zu opened current-epoch traffic\n",
              probes, stale_key_openings);

  bool ok = audits_failed == 0 && stale_key_openings == 0;
  std::printf("\n%s\n", ok ? "All audits passed: views stay accurate and "
                             "departed members are cryptographically out."
                           : "AUDIT FAILURES — see above.");
  return ok ? 0 : 1;
}
