// Credential registry and the sealed LeaderSnapshot it persists in: CRUD,
// the one-MAC blob (wire::mac_encode), its refusals, leader restore.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/leader.h"
#include "core/member.h"
#include "core/registry.h"
#include "crypto/hmac.h"
#include "crypto/password.h"
#include "net/sim_network.h"
#include "util/hex.h"
#include "util/rng.h"
#include "wire/seal.h"

namespace enclaves::core {
namespace {

Credential make_cred(const std::string& id) {
  return Credential{
      crypto::derive_long_term_key(id, "pw-" + id, {16, "registry-test"}),
      "password"};
}

// A credential set persists as a snapshot at epoch 0.
LeaderSnapshot credentials(std::initializer_list<const char*> ids) {
  LeaderSnapshot snap;
  for (const char* id : ids)
    EXPECT_TRUE(snap.registry.add(id, make_cred(id)).ok());
  return snap;
}

// A snapshot with every map filled: two credentials, two key-tree slots and
// two parole records, under ids whose bytes occur once in the blob.
LeaderSnapshot full_snapshot() {
  LeaderSnapshot snap = credentials({"cred-1", "cred-2"});
  snap.epoch = 7;
  snap.keytree_depth = 3;
  snap.keytree_slots = {{"slot-1", 4}, {"slot-2", 5}};
  DeterministicRng rng(21);
  snap.parole = {{"park-1", {crypto::SessionKey::random(rng), 9}},
                 {"park-2", {crypto::SessionKey::random(rng), 10}}};
  return snap;
}

// `blob` with its MAC'd body edited by `edit` and re-MAC'd under `key`: only
// a key holder (or a buggy encoder) could produce it, so only the decoder
// stands between it and the leader.
template <class Edit>
Bytes remac(const Bytes& blob, BytesView key, Edit edit) {
  Bytes body(blob.begin(), blob.end() - crypto::HmacSha256::kTagSize);
  edit(body);
  const auto tag = crypto::HmacSha256::mac(key, body);
  body.insert(body.end(), tag.begin(), tag.end());
  return body;
}

// Overwrites the one occurrence of `from` in `body` with `to` (same length).
void replace_once(Bytes& body, std::string_view from, std::string_view to) {
  ASSERT_EQ(from.size(), to.size());
  auto it = std::search(body.begin(), body.end(), from.begin(), from.end());
  ASSERT_NE(it, body.end()) << from;
  ASSERT_EQ(std::search(it + 1, body.end(), from.begin(), from.end()),
            body.end())
      << from << " occurs twice";
  std::copy(to.begin(), to.end(), it);
}

TEST(Registry, AddFindRemove) {
  Registry reg;
  ASSERT_TRUE(reg.add("alice", make_cred("alice")).ok());
  ASSERT_TRUE(reg.add("bob", make_cred("bob")).ok());
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_TRUE(reg.contains("alice"));
  ASSERT_NE(reg.find("alice"), nullptr);
  EXPECT_EQ(reg.find("alice")->note, "password");
  EXPECT_EQ(reg.find("ghost"), nullptr);
  EXPECT_EQ(reg.ids(), (std::vector<std::string>{"alice", "bob"}));

  auto dup = reg.add("alice", make_cred("alice"));
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), Errc::already_exists);

  ASSERT_TRUE(reg.remove("alice").ok());
  EXPECT_FALSE(reg.contains("alice"));
  EXPECT_EQ(reg.remove("alice").code(), Errc::unknown_peer);
}

TEST(Registry, SerializeRoundTrip) {
  const LeaderSnapshot snap = credentials({"alice", "bob"});
  Bytes key = to_bytes("storage-key");
  auto back =
      wire::mac_decode<LeaderSnapshot>(wire::mac_encode(snap, key), key);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, snap);
  EXPECT_EQ(back->epoch, 0u);
}

TEST(Registry, EmptyRoundTrip) {
  Bytes key = to_bytes("k");
  auto back = wire::mac_decode<LeaderSnapshot>(
      wire::mac_encode(LeaderSnapshot{}, key), key);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->registry.size(), 0u);
}

TEST(Registry, TamperingDetected) {
  Bytes key = to_bytes("storage-key");
  Bytes data = wire::mac_encode(full_snapshot(), key);
  // Flip any byte — type octet, entry, or MAC — and loading fails closed.
  for (std::size_t pos = 0; pos < data.size(); ++pos) {
    Bytes bad = data;
    bad[pos] ^= 0x01;
    auto r = wire::mac_decode<LeaderSnapshot>(bad, key);
    ASSERT_FALSE(r.ok()) << "pos=" << pos;
    EXPECT_EQ(r.code(), Errc::auth_failed) << "pos=" << pos;
  }
}

TEST(Registry, WrongStorageKeyRejected) {
  Bytes data = wire::mac_encode(full_snapshot(), to_bytes("right"));
  auto r = wire::mac_decode<LeaderSnapshot>(data, to_bytes("wrong"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::auth_failed);
}

TEST(Registry, TruncationRejected) {
  Bytes key = to_bytes("k");
  Bytes data = wire::mac_encode(full_snapshot(), key);
  for (std::size_t len = 0; len < data.size(); ++len) {
    auto r = wire::mac_decode<LeaderSnapshot>({data.data(), len}, key);
    ASSERT_FALSE(r.ok()) << "len=" << len;
    EXPECT_EQ(r.code(), Errc::auth_failed) << "len=" << len;
  }
}

// Trailing bytes are rejected by two independent layers: a suffix APPENDED
// to the blob shifts the presumed MAC window and fails authentication, and
// junk smuggled in FRONT of the tag (re-MAC'd) dies on the decoder's
// refusal of trailing bytes.
void expect_trailing_bytes_refused(const LeaderSnapshot& snap) {
  Bytes key = to_bytes("k");
  Bytes data = wire::mac_encode(snap, key);

  Bytes appended = data;
  appended.push_back(0x00);
  auto r1 = wire::mac_decode<LeaderSnapshot>(appended, key);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.code(), Errc::auth_failed);

  auto r2 = wire::mac_decode<LeaderSnapshot>(
      remac(data, key, [](Bytes& body) { body.push_back(0xEE); }), key);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.code(), Errc::malformed);
}

TEST(Registry, TrailingBytesRejected) {
  expect_trailing_bytes_refused(credentials({"alice"}));
}

TEST(Registry, SnapshotTrailingBytesRejected) {
  expect_trailing_bytes_refused(full_snapshot());
}

// The snapshot is one encoding under one MAC: the registry inside it is
// plain fields, not a second MAC'd blob.
TEST(LeaderSnapshot, OneMacCoversTheWholeBlob) {
  Bytes key = to_bytes("k");
  const LeaderSnapshot snap = full_snapshot();
  const Bytes blob = wire::mac_encode(snap, key);
  const Bytes body = wire::encode(snap);
  ASSERT_EQ(blob.size(), body.size() + crypto::HmacSha256::kTagSize);
  EXPECT_TRUE(std::equal(body.begin(), body.end(), blob.begin()));
  EXPECT_EQ(body[0], LeaderSnapshot::kType);
  auto back = wire::mac_decode<LeaderSnapshot>(blob, key);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, snap);
}

// A correctly MAC'd body that is not a snapshot is malformed, not mis-read:
// junk, and a blob of the retired hand-written format.
TEST(LeaderSnapshot, JunkAndOldHeaderUnderAValidMacAreMalformed) {
  Bytes key = to_bytes("k");
  auto junk = wire::mac_decode<LeaderSnapshot>(
      wire::append_mac(to_bytes("junk inside the mac"), key), key);
  ASSERT_FALSE(junk.ok());
  EXPECT_EQ(junk.code(), Errc::malformed);

  // A v3 snapshot, valid in every byte: "ENCS", u16 3, u64 epoch 7, the
  // registry as its own MAC'd blob ("ENCR", u16 1, no entries), depth 0, no
  // slots, no parole.
  const Bytes registry =
      wire::append_mac(must_from_hex("454e4352000100000000"), key);
  Bytes v3 = must_from_hex("454e4353000300000000000000070000002a");
  v3.insert(v3.end(), registry.begin(), registry.end());
  v3.resize(v3.size() + 12, 0);
  auto old = wire::mac_decode<LeaderSnapshot>(wire::append_mac(v3, key), key);
  ASSERT_FALSE(old.ok());
  EXPECT_EQ(old.code(), Errc::malformed);
}

// One rule for a repeated id in any of the snapshot's three maps: the blob
// is malformed, never silently resolved to the first entry (the retired
// format kept the first parole record and key-tree slot).
TEST(LeaderSnapshot, RepeatedIdInAnyMapIsMalformed) {
  Bytes key = to_bytes("k");
  const Bytes blob = wire::mac_encode(full_snapshot(), key);
  for (const auto& [from, to] :
       {std::pair{"park-2", "park-1"}, std::pair{"slot-2", "slot-1"},
        std::pair{"cred-2", "cred-1"}}) {
    auto r = wire::mac_decode<LeaderSnapshot>(
        remac(blob, key, [&](Bytes& body) { replace_once(body, from, to); }),
        key);
    ASSERT_FALSE(r.ok()) << from;
    EXPECT_EQ(r.code(), Errc::malformed) << from;
  }
}

TEST(Registry, InstallRestoresLeaderAfterRestart) {
  Bytes storage_key = to_bytes("ops-key");
  const Bytes persisted =
      wire::mac_encode(credentials({"alice", "bob"}), storage_key);

  // "Restart": a brand-new leader restores credentials from the blob, and a
  // member authenticates against it with the same password-derived key.
  auto restored = wire::mac_decode<LeaderSnapshot>(persisted, storage_key);
  ASSERT_TRUE(restored.ok());

  DeterministicRng rng(55);
  net::SimNetwork net;
  Leader leader(LeaderConfig{"L", RekeyPolicy::strict()}, rng);
  leader.set_send([&net](const std::string& to, wire::Envelope e) {
    net.send(to, std::move(e));
  });
  net.attach("L", [&leader](const wire::Envelope& e) { leader.handle(e); });
  EXPECT_EQ(restored->install(leader), 2u);
  EXPECT_EQ(restored->install(leader), 0u) << "idempotent";

  Member alice("alice", "L",
               crypto::derive_long_term_key("alice", "pw-alice",
                                            {16, "registry-test"}),
               rng);
  alice.set_send([&net](const std::string& to, wire::Envelope e) {
    net.send(to, std::move(e));
  });
  net.attach("alice", [&alice](const wire::Envelope& e) { alice.handle(e); });
  ASSERT_TRUE(alice.join().ok());
  net.run();
  EXPECT_TRUE(alice.connected());
}

}  // namespace
}  // namespace enclaves::core
