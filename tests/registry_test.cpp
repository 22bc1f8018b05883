// Credential registry: CRUD, MAC-sealed serialization, tamper rejection,
// file round trip, leader restore.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/leader.h"
#include "core/member.h"
#include "core/registry.h"
#include "crypto/hmac.h"
#include "crypto/password.h"
#include "net/sim_network.h"
#include "util/rng.h"

namespace enclaves::core {
namespace {

Credential make_cred(const std::string& id) {
  return Credential{
      id,
      crypto::derive_long_term_key(id, "pw-" + id, {16, "registry-test"}),
      "password"};
}

TEST(Registry, AddFindRemove) {
  Registry reg;
  ASSERT_TRUE(reg.add(make_cred("alice")).ok());
  ASSERT_TRUE(reg.add(make_cred("bob")).ok());
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_TRUE(reg.contains("alice"));
  ASSERT_NE(reg.find("alice"), nullptr);
  EXPECT_EQ(reg.find("alice")->note, "password");
  EXPECT_EQ(reg.find("ghost"), nullptr);
  EXPECT_EQ(reg.ids(), (std::vector<std::string>{"alice", "bob"}));

  auto dup = reg.add(make_cred("alice"));
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), Errc::already_exists);

  ASSERT_TRUE(reg.remove("alice").ok());
  EXPECT_FALSE(reg.contains("alice"));
  EXPECT_EQ(reg.remove("alice").code(), Errc::unknown_peer);
}

TEST(Registry, SerializeRoundTrip) {
  Registry reg;
  ASSERT_TRUE(reg.add(make_cred("alice")).ok());
  ASSERT_TRUE(reg.add(make_cred("bob")).ok());
  Bytes key = to_bytes("storage-key");
  Bytes data = reg.serialize(key);
  auto back = Registry::deserialize(data, key);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, reg);
}

TEST(Registry, EmptyRoundTrip) {
  Registry reg;
  Bytes key = to_bytes("k");
  auto back = Registry::deserialize(reg.serialize(key), key);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 0u);
}

TEST(Registry, TamperingDetected) {
  Registry reg;
  ASSERT_TRUE(reg.add(make_cred("alice")).ok());
  Bytes key = to_bytes("storage-key");
  Bytes data = reg.serialize(key);
  // Flip any byte — header, entry, or MAC — and loading must fail closed.
  for (std::size_t pos : {std::size_t{0}, data.size() / 2, data.size() - 1}) {
    Bytes bad = data;
    bad[pos] ^= 0x01;
    auto r = Registry::deserialize(bad, key);
    ASSERT_FALSE(r.ok()) << "pos=" << pos;
    EXPECT_EQ(r.code(), Errc::auth_failed) << "pos=" << pos;
  }
}

TEST(Registry, WrongStorageKeyRejected) {
  Registry reg;
  ASSERT_TRUE(reg.add(make_cred("alice")).ok());
  Bytes data = reg.serialize(to_bytes("right"));
  auto r = Registry::deserialize(data, to_bytes("wrong"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::auth_failed);
}

TEST(Registry, TruncationRejected) {
  Registry reg;
  ASSERT_TRUE(reg.add(make_cred("alice")).ok());
  Bytes key = to_bytes("k");
  Bytes data = reg.serialize(key);
  EXPECT_FALSE(Registry::deserialize({data.data(), 10}, key).ok());
  EXPECT_FALSE(Registry::deserialize({}, key).ok());
}

// Trailing bytes are rejected by two independent layers: a suffix APPENDED
// to the blob shifts the presumed MAC window and fails authentication, and
// junk smuggled in FRONT of the tag (re-MAC'd — only a key holder, i.e. a
// buggy future serializer, could produce this) dies on the decoder's
// expect_end. Both must hold for Registry and LeaderSnapshot alike.
TEST(Registry, TrailingBytesRejected) {
  Registry reg;
  ASSERT_TRUE(reg.add(make_cred("alice")).ok());
  Bytes key = to_bytes("k");
  Bytes data = reg.serialize(key);

  Bytes appended = data;
  appended.push_back(0x00);
  auto r1 = Registry::deserialize(appended, key);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.code(), Errc::auth_failed);

  Bytes body(data.begin(), data.end() - crypto::HmacSha256::kTagSize);
  body.push_back(0xEE);  // junk inside the authenticated region
  auto tag = crypto::HmacSha256::mac(key, body);
  Bytes remacd = body;
  remacd.insert(remacd.end(), tag.begin(), tag.end());
  auto r2 = Registry::deserialize(remacd, key);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.code(), Errc::malformed);
}

TEST(Registry, SnapshotTrailingBytesRejected) {
  Registry reg;
  ASSERT_TRUE(reg.add(make_cred("alice")).ok());
  LeaderSnapshot snap;
  snap.registry = reg;
  snap.epoch = 7;
  Bytes key = to_bytes("k");
  Bytes data = snap.serialize(key);

  Bytes appended = data;
  appended.push_back(0x00);
  auto r1 = LeaderSnapshot::deserialize(appended, key);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.code(), Errc::auth_failed);

  Bytes body(data.begin(), data.end() - crypto::HmacSha256::kTagSize);
  body.push_back(0xEE);
  auto tag = crypto::HmacSha256::mac(key, body);
  Bytes remacd = body;
  remacd.insert(remacd.end(), tag.begin(), tag.end());
  auto r2 = LeaderSnapshot::deserialize(remacd, key);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.code(), Errc::malformed);
}

TEST(Registry, FileRoundTrip) {
  Registry reg;
  ASSERT_TRUE(reg.add(make_cred("alice")).ok());
  ASSERT_TRUE(reg.add(make_cred("carol")).ok());
  Bytes key = to_bytes("file-key");
  const std::string path = "/tmp/enclaves_registry_test.bin";
  ASSERT_TRUE(reg.save_file(path, key).ok());
  auto back = Registry::load_file(path, key);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, reg);
  std::remove(path.c_str());
}

TEST(Registry, LoadMissingFileFails) {
  auto r = Registry::load_file("/tmp/enclaves_does_not_exist.bin",
                               to_bytes("k"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::io_error);
}

TEST(Registry, InstallRestoresLeaderAfterRestart) {
  Bytes storage_key = to_bytes("ops-key");
  Bytes persisted;
  {
    Registry reg;
    ASSERT_TRUE(reg.add(make_cred("alice")).ok());
    ASSERT_TRUE(reg.add(make_cred("bob")).ok());
    persisted = reg.serialize(storage_key);
  }

  // "Restart": a brand-new leader restores credentials from the blob, and a
  // member authenticates against it with the same password-derived key.
  auto restored = Registry::deserialize(persisted, storage_key);
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
