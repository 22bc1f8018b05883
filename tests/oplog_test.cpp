// OpLog — the disconnected-operation queue (PROTOCOL.md §12): HMAC chain
// determinism, append semantics, and registry-style sealed persistence.
#include "core/oplog.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace enclaves::core {
namespace {

Bytes bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

crypto::SessionKey test_key(std::uint64_t seed) {
  DeterministicRng rng(seed);
  return crypto::SessionKey::random(rng);
}

TEST(OpLog, ChainIsDeterministicAndPositionBound) {
  auto kr = test_key(1);
  crypto::HmacSha256::Tag zero{};
  auto a = OpLog::chain_next(kr.view(), zero, 1, 7, bytes("hello"));
  auto b = OpLog::chain_next(kr.view(), zero, 1, 7, bytes("hello"));
  EXPECT_EQ(a, b) << "same inputs, same link";
  EXPECT_NE(a, OpLog::chain_next(kr.view(), zero, 2, 7, bytes("hello")))
      << "seq is bound into the link";
  EXPECT_NE(a, OpLog::chain_next(kr.view(), zero, 1, 8, bytes("hello")))
      << "epoch is bound into the link";
  EXPECT_NE(a, OpLog::chain_next(kr.view(), a, 1, 7, bytes("hello")))
      << "previous link is bound in";
  EXPECT_NE(a, OpLog::chain_next(test_key(2).view(), zero, 1, 7,
                                 bytes("hello")))
      << "key is bound in";
}

TEST(OpLog, AppendExtendsChainAndHead) {
  auto kr = test_key(3);
  OpLog log(kr);
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.head(), crypto::HmacSha256::Tag{}) << "all-zero while empty";

  ASSERT_TRUE(log.append(5, bytes("one")).ok());
  ASSERT_TRUE(log.append(5, bytes("two")).ok());
  ASSERT_EQ(log.size(), 2u);

  // Entries are 1-based and the stored MACs follow the published rule.
  crypto::HmacSha256::Tag prev{};
  for (std::size_t i = 0; i < log.entries().size(); ++i) {
    const auto& e = log.entries()[i];
    EXPECT_EQ(e.seq, i + 1);
    EXPECT_EQ(e.epoch, 5u);
    EXPECT_EQ(e.mac, OpLog::chain_next(kr.view(), prev, e.seq, e.epoch,
                                       e.payload));
    prev = e.mac;
  }
  EXPECT_EQ(log.head(), log.entries().back().mac);

  log.clear();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.head(), crypto::HmacSha256::Tag{}) << "chain restarts";
}

TEST(OpLog, UnkeyedLogRefusesAppends) {
  OpLog log;
  auto s = log.append(1, bytes("x"));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, Errc::denied);
}

TEST(OpLog, FullLogRefusesAppends) {
  OpLog log(test_key(4));
  for (std::size_t i = 0; i < OpLog::kMaxEntries; ++i)
    ASSERT_TRUE(log.append(1, bytes("op")).ok());
  auto s = log.append(1, bytes("one too many"));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, Errc::oversized);
  EXPECT_EQ(log.size(), OpLog::kMaxEntries);
}

TEST(OpLog, SerializeRoundTripsUnderStorageKey) {
  auto kr = test_key(5);
  auto storage = test_key(6);
  OpLog log(kr);
  ASSERT_TRUE(log.append(3, bytes("alpha")).ok());
  ASSERT_TRUE(log.append(3, bytes("beta")).ok());

  Bytes blob = log.serialize(storage.view());
  auto restored = OpLog::deserialize(blob, storage.view());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->entries(), log.entries());
  EXPECT_EQ(restored->head(), log.head());
  // Deserialized logs are unkeyed: replayable, not appendable.
  EXPECT_EQ(restored->append(3, bytes("gamma")).error().code, Errc::denied);
}

TEST(OpLog, DeserializeRejectsTamperAndWrongKey) {
  auto storage = test_key(7);
  OpLog log(test_key(8));
  ASSERT_TRUE(log.append(1, bytes("payload")).ok());
  Bytes blob = log.serialize(storage.view());

  // Any flipped bit fails the trailing MAC before parsing begins.
  Bytes bad = blob;
  bad[bad.size() / 2] ^= 0x01;
  EXPECT_EQ(OpLog::deserialize(bad, storage.view()).error().code,
            Errc::auth_failed);

  EXPECT_EQ(OpLog::deserialize(blob, test_key(9).view()).error().code,
            Errc::auth_failed);

  Bytes truncated(blob.begin(), blob.begin() + 8);
  EXPECT_FALSE(OpLog::deserialize(truncated, storage.view()).ok());
}

TEST(OpLog, DeserializeRejectsSeqGaps) {
  // A log whose entries skip a seq is structurally invalid even when the
  // storage MAC verifies: re-seal a doctored body under the right key.
  auto storage = test_key(10);
  OpLog log(test_key(11));
  ASSERT_TRUE(log.append(1, bytes("a")).ok());
  ASSERT_TRUE(log.append(1, bytes("b")).ok());
  Bytes blob = log.serialize(storage.view());

  // Bump the second entry's seq from 2 to 3 and re-seal under the correct
  // storage key, so only the contiguity check can reject it. Layout (all
  // big-endian): type octet + u32 count, then per entry
  // u64 seq + u64 epoch + 32-byte mac + u32 len + payload.
  const std::size_t entry1_size = 8 + 8 + 32 + 4 + 1;  // payload "a"
  const std::size_t seq2_off = 5 + entry1_size;
  Bytes body(blob.begin(), blob.end() - 32);
  ASSERT_EQ(body[seq2_off + 7], 0x02);
  body[seq2_off + 7] = 0x03;
  auto mac = crypto::HmacSha256::mac(storage.view(), body);
  Bytes doctored = body;
  doctored.insert(doctored.end(), mac.begin(), mac.end());
  auto r = OpLog::deserialize(doctored, storage.view());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::malformed);
}

// The blob's remaining refusals: every truncation and an appended byte fail
// the MAC; under a valid MAC, junk, the retired "ENOL" format and a repeated
// seq are malformed.
TEST(OpLog, DeserializeRefusesCutAppendedJunkOldFormatAndRepeatedSeq) {
  auto storage = test_key(12);
  OpLog log(test_key(13));
  ASSERT_TRUE(log.append(1, bytes("a")).ok());
  ASSERT_TRUE(log.append(1, bytes("b")).ok());
  const Bytes blob = log.serialize(storage.view());

  for (std::size_t len = 0; len < blob.size(); ++len)
    EXPECT_EQ(OpLog::deserialize({blob.data(), len}, storage.view()).code(),
              Errc::auth_failed)
        << "len=" << len;
  Bytes appended = blob;
  appended.push_back(0x00);
  EXPECT_EQ(OpLog::deserialize(appended, storage.view()).code(),
            Errc::auth_failed);

  const auto remacd = [&storage](Bytes body) {
    const auto mac = crypto::HmacSha256::mac(storage.view(), body);
    body.insert(body.end(), mac.begin(), mac.end());
    return body;
  };
  EXPECT_EQ(OpLog::deserialize(remacd(bytes("junk")), storage.view()).code(),
            Errc::malformed);
  // "ENOL", u16 version 1, no entries: a valid empty log of the old format.
  const Bytes v1{'E', 'N', 'O', 'L', 0, 1, 0, 0, 0, 0};
  EXPECT_EQ(OpLog::deserialize(remacd(v1), storage.view()).code(),
            Errc::malformed);

  // The second entry's seq set back to 1: a repeated position.
  Bytes body(blob.begin(), blob.end() - 32);
  const std::size_t seq2_off = 5 + (8 + 8 + 32 + 4 + 1);
  ASSERT_EQ(body[seq2_off + 7], 0x02);
  body[seq2_off + 7] = 0x01;
  EXPECT_EQ(OpLog::deserialize(remacd(body), storage.view()).code(),
            Errc::malformed);
}

}  // namespace
}  // namespace enclaves::core
