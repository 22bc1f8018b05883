// Security-ledger attribution: every authentication/freshness refusal in
// the protocol yields exactly one ledger entry naming the observer, the
// evidence kind, and the (untrusted) accused origin — and benign
// retransmissions yield none.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adversary/attacks.h"
#include "core/leader.h"
#include "core/member.h"
#include "crypto/aead.h"
#include "net/sim_network.h"
#include "obs/metrics.h"
#include "obs/record.h"
#include "util/rng.h"
#include "wire/payloads.h"
#include "wire/seal.h"

namespace enclaves::core {
namespace {

using obs::EvidenceKind;
using obs::SecurityEvidence;

// A two-plane view of the ledger: the clockless crypto plane files its own
// tag-mismatch evidence, so protocol-level assertions filter to the group.
std::vector<SecurityEvidence> core_entries(const obs::EventStore& ledger) {
  std::vector<SecurityEvidence> out;
  for (const auto& e : ledger.entries())
    if (e.group != "crypto") out.push_back(e);
  return out;
}

struct LedgeredWorld {
  explicit LedgeredWorld(std::uint64_t seed)
      : rng(seed),
        leader(LeaderConfig{"L", RekeyPolicy::strict()}, rng),
        metrics_sink(metrics),
        ledger_sink(ledger) {
    leader.set_send([this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    net.attach("L", [this](const wire::Envelope& e) { leader.handle(e); });
  }

  Member& add(const std::string& id) {
    auto pa = crypto::LongTermKey::random(rng);
    EXPECT_TRUE(leader.register_member(id, pa).ok());
    auto m = std::make_unique<Member>(id, "L", pa, rng);
    m->set_send([this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    auto* raw = m.get();
    net.attach(id, [raw](const wire::Envelope& e) { raw->handle(e); });
    members[id] = std::move(m);
    return *raw;
  }

  net::SimNetwork net;
  DeterministicRng rng;
  Leader leader;
  obs::MetricsRegistry metrics;
  obs::EventStore ledger;
  obs::ScopedMetricsSink metrics_sink;
  obs::ScopedEventSink ledger_sink;
  std::map<std::string, std::unique_ptr<Member>> members;
};

TEST(SecurityLedger, ForgedAdminMsgYieldsExactlyOneCoreEntry) {
  LedgeredWorld w(1);
  auto& alice = w.add("alice");
  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  ASSERT_TRUE(alice.connected());
  w.ledger.clear();

  // Well-formed sealed AdminMsg under a key alice does not hold: the session
  // refuses it as an authentication failure and accuses the claimed sender.
  DeterministicRng forge_rng(99);
  auto wrong_key = crypto::SessionKey::random(forge_rng);
  w.net.inject("alice",
               wire::make_sealed(crypto::default_aead(), wrong_key.view(),
                                 forge_rng, wire::Label::AdminMsg, "L",
                                 "alice", to_bytes("forged")));
  w.net.run();

  auto core = core_entries(w.ledger);
  ASSERT_EQ(core.size(), 1u);
  EXPECT_EQ(core[0].kind, EvidenceKind::aead_open_failure);
  EXPECT_EQ(core[0].group, "L");
  EXPECT_EQ(core[0].agent, "alice");
  EXPECT_EQ(core[0].peer, "L");
  // The crypto plane independently filed the tag mismatch.
  EXPECT_GE(w.ledger.entries().size(), 2u);
  EXPECT_EQ(w.ledger.suspicion("L"), 1u);
}

TEST(SecurityLedger, UnknownSenderAttributedAtLeader) {
  LedgeredWorld w(2);
  auto& alice = w.add("alice");
  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  w.ledger.clear();

  w.net.inject("L", wire::Envelope{wire::Label::AuthInitReq, "mallory", "L",
                                   to_bytes("hello")});
  w.net.run();

  auto core = core_entries(w.ledger);
  ASSERT_EQ(core.size(), 1u);
  EXPECT_EQ(core[0].kind, EvidenceKind::unknown_sender);
  EXPECT_EQ(core[0].agent, "L");
  EXPECT_EQ(core[0].peer, "mallory");
  EXPECT_EQ(core[0].detail, "AuthInitReq");
  EXPECT_EQ(w.ledger.suspicion("mallory"), 1u);
}

TEST(SecurityLedger, NonMemberGroupDataRelayRejected) {
  LedgeredWorld w(3);
  auto& alice = w.add("alice");
  w.add("eve");  // registered credential, but eve never joins
  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  w.ledger.clear();

  DeterministicRng forge_rng(7);
  wire::GroupDataPayload p{"eve", w.leader.epoch(), 1, to_bytes("smuggled")};
  w.net.inject("L", wire::make_sealed(crypto::default_aead(),
                                      w.leader.group_key().view(), forge_rng,
                                      wire::Label::GroupData, "eve",
                                      wire::kGroupRecipient,
                                      wire::encode(p)));
  w.net.run();

  auto core = core_entries(w.ledger);
  ASSERT_EQ(core.size(), 1u);
  EXPECT_EQ(core[0].kind, EvidenceKind::relay_reject);
  EXPECT_EQ(core[0].agent, "L");
  EXPECT_EQ(core[0].peer, "eve");
  EXPECT_EQ(core[0].detail, "not a member");
}

TEST(SecurityLedger, ReplayedSequenceAccusesTheClaimedOrigin) {
  LedgeredWorld w(4);
  auto& alice = w.add("alice");
  auto& bob = w.add("bob");
  ASSERT_TRUE(alice.join().ok());
  ASSERT_TRUE(bob.join().ok());
  w.net.run();
  ASSERT_TRUE(bob.connected());
  w.ledger.clear();

  // A valid delivery for (alice, current epoch, seq 5), then its replay.
  DeterministicRng seal_rng(11);
  wire::GroupDataPayload p{"alice", w.leader.epoch(), 5, to_bytes("d5")};
  auto env = wire::make_sealed(crypto::default_aead(),
                               w.leader.group_key().view(), seal_rng,
                               wire::Label::GroupData, "alice",
                               wire::kGroupRecipient, wire::encode(p));
  w.net.inject("bob", env);
  w.net.run();
  EXPECT_TRUE(core_entries(w.ledger).empty()) << "first delivery is genuine";

  w.net.inject("bob", env);
  w.net.run();
  auto core = core_entries(w.ledger);
  ASSERT_EQ(core.size(), 1u);
  EXPECT_EQ(core[0].kind, EvidenceKind::replayed_seq);
  EXPECT_EQ(core[0].agent, "bob");
  EXPECT_EQ(core[0].peer, "alice");
  EXPECT_EQ(w.ledger.suspicion("alice"), 1u);
}

TEST(SecurityLedger, WrongEpochNumberIsStaleEpochEvidence) {
  LedgeredWorld w(5);
  auto& alice = w.add("alice");
  auto& bob = w.add("bob");
  ASSERT_TRUE(alice.join().ok());
  ASSERT_TRUE(bob.join().ok());
  w.net.run();
  w.ledger.clear();

  // Sealed under the CURRENT key but stamped with a past epoch: opens fine,
  // fails the freshness check.
  DeterministicRng seal_rng(13);
  wire::GroupDataPayload p{"alice", w.leader.epoch() - 1, 9, to_bytes("old")};
  w.net.inject("bob", wire::make_sealed(crypto::default_aead(),
                                        w.leader.group_key().view(), seal_rng,
                                        wire::Label::GroupData, "alice",
                                        wire::kGroupRecipient,
                                        wire::encode(p)));
  w.net.run();

  auto core = core_entries(w.ledger);
  ASSERT_EQ(core.size(), 1u);
  EXPECT_EQ(core[0].kind, EvidenceKind::stale_epoch);
  EXPECT_EQ(core[0].agent, "bob");
  EXPECT_EQ(core[0].peer, "alice");
}

// The stop-and-wait channel absorbs a byte-identical retransmission of the
// LATEST exchange with a cached re-answer — a benign duplicate is not
// intrusion evidence. Replaying an OLDER admin message, however, fails the
// freshness chain and is ledgered as a stale nonce.
TEST(SecurityLedger, DuplicateOfLatestAbsorbedOlderReplayLedgered) {
  LedgeredWorld w(6);
  std::vector<net::Packet> captured;
  w.net.set_tap([&captured](const net::Packet& p) {
    captured.push_back(p);
    return net::TapVerdict::deliver;
  });
  auto& alice = w.add("alice");
  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  ASSERT_TRUE(alice.connected());
  w.ledger.clear();

  std::vector<wire::Envelope> admin_to_alice;
  for (const auto& p : captured)
    if (p.to == "alice" && p.envelope.label == wire::Label::AdminMsg)
      admin_to_alice.push_back(p.envelope);
  ASSERT_GE(admin_to_alice.size(), 2u) << "join ships Kg then the view";

  // Detach the leader: the member's cached re-answer Ack would otherwise
  // arrive at a leader with no exchange pending, which is itself ledgered
  // (as replayed traffic) and would muddy the member-side assertion.
  w.net.detach("L");

  const std::uint64_t reanswers_before =
      w.metrics.counter_total("reanswers_total");
  w.net.inject("alice", admin_to_alice.back());
  w.net.run();
  EXPECT_TRUE(core_entries(w.ledger).empty())
      << "benign retransmission must not be evidence";
  EXPECT_GT(w.metrics.counter_total("reanswers_total"), reanswers_before);

  w.net.inject("alice", admin_to_alice.front());
  w.net.run();
  auto core = core_entries(w.ledger);
  ASSERT_EQ(core.size(), 1u);
  EXPECT_EQ(core[0].kind, EvidenceKind::stale_nonce);
  EXPECT_EQ(core[0].agent, "alice");
  EXPECT_EQ(core[0].peer, "L");
}

// Every ledger entry bumps the security.* metrics through the same sink
// gate: total refusals and per-accused suspicion must agree exactly.
TEST(SecurityLedger, MetricsAgreeWithLedger) {
  LedgeredWorld w(8);
  auto& alice = w.add("alice");
  ASSERT_TRUE(alice.join().ok());
  w.net.run();

  w.net.inject("L", wire::Envelope{wire::Label::AuthInitReq, "mallory", "L",
                                   to_bytes("x")});
  w.net.inject("L", wire::Envelope{wire::Label::GroupData, "mallory", "L",
                                   to_bytes("y")});
  w.net.run();

  EXPECT_EQ(w.metrics.counter_total("refusals_total"),
            w.ledger.entries().size());
  std::uint64_t suspicion_metric = 0;
  for (const auto& [key, value] : w.metrics.snapshot().counters)
    if (key.group == "security" && key.name == "suspicion_total")
      suspicion_metric += value;
  std::uint64_t suspicion_ledger = 0;
  for (const auto& [accused, n] : w.ledger.suspicion_counts())
    suspicion_ledger += n;
  EXPECT_EQ(suspicion_metric, suspicion_ledger);
}

TEST(SecurityLedger, JsonlExportNamesEveryField) {
  obs::EventStore ledger;
  ledger.append({7, {}, EvidenceKind::relay_reject, "L", "L", "e\"ve",
                 "not a member", 0});
  const std::string jsonl = ledger.to_jsonl(obs::View::ledger);
  EXPECT_NE(jsonl.find("\"kind\":\"relay_reject\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"accused\":\"e\\\"ve\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"observer\":\"L\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"detail\":\"not a member\""), std::string::npos);
}

// The whole Section 2.3 attack catalogue, run with the ledger attached: the
// improved protocol's refusals all land as attributed evidence.
TEST(SecurityLedger, AttackMatrixProducesAttributedEvidence) {
  obs::MetricsRegistry metrics;
  obs::EventStore ledger;
  obs::ScopedMetricsSink metrics_sink(metrics);
  obs::ScopedEventSink ledger_sink(ledger);

  auto reports = adversary::run_all_attacks(7);
  ASSERT_EQ(reports.size(), 12u);
  for (const auto& r : reports) {
    if (r.protocol == "intrusion-tolerant") {
      EXPECT_FALSE(r.attacker_succeeded) << r.attack << ": " << r.detail;
    }
  }

  EXPECT_GT(ledger.entries().size(), 0u)
      << "blocked attacks must leave evidence";
  EXPECT_EQ(metrics.counter_total("refusals_total"), ledger.entries().size());
  for (const auto& e : ledger.entries()) {
    EXPECT_FALSE(e.group.empty());
    EXPECT_FALSE(e.agent.empty());
    EXPECT_NE(std::string_view(obs::evidence_kind_name(e.kind)), "");
  }
  EXPECT_FALSE(ledger.suspicion_counts().empty());
}

}  // namespace
}  // namespace enclaves::core
