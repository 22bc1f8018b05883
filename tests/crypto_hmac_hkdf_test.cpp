// HMAC-SHA256 (RFC 4231), HKDF (RFC 5869), PBKDF2 (RFC 7914 §11 vector and
// OpenSSL cross-check), and the password->Pa derivation.
#include <gtest/gtest.h>
#include <openssl/evp.h>
#include <openssl/hmac.h>

#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "crypto/password.h"
#include "crypto/pbkdf2.h"
#include "util/hex.h"
#include "util/rng.h"

namespace enclaves::crypto {
namespace {

TEST(HmacSha256, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  auto tag = HmacSha256::mac(key, to_bytes("Hi There"));
  EXPECT_EQ(to_hex({tag.data(), tag.size()}),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  auto tag = HmacSha256::mac(to_bytes("Jefe"),
                             to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(to_hex({tag.data(), tag.size()}),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  auto tag = HmacSha256::mac(key, data);
  EXPECT_EQ(to_hex({tag.data(), tag.size()}),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, Rfc4231Case6LongKey) {
  Bytes key(131, 0xaa);
  auto tag = HmacSha256::mac(
      key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(to_hex({tag.data(), tag.size()}),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, IncrementalMatchesOneShot) {
  Bytes key = to_bytes("incremental-key");
  Bytes msg = to_bytes("the quick brown fox jumps over the lazy dog");
  HmacSha256 h(key);
  h.update({msg.data(), 10});
  h.update({msg.data() + 10, msg.size() - 10});
  EXPECT_EQ(h.finish(), HmacSha256::mac(key, msg));
}

TEST(HmacSha256, ResetProducesSameTag) {
  HmacSha256 h(to_bytes("k"));
  h.update(to_bytes("first"));
  auto t1 = h.finish();
  h.reset();
  h.update(to_bytes("first"));
  EXPECT_EQ(h.finish(), t1);
}

// A keyed object is a value: a copy carries the key's midstates, and each
// copy (or reset) starts a computation no earlier one leaks into.
TEST(HmacSha256, CopiedKeyedObjectMatchesFreshOnes) {
  const HmacSha256 keyed(to_bytes("copied-key"));
  HmacSha256 copy = keyed;
  copy.update(to_bytes("first message"));
  EXPECT_EQ(copy.finish(),
            HmacSha256::mac(to_bytes("copied-key"), to_bytes("first message")));
  copy = keyed;
  copy.update(to_bytes("second"));
  EXPECT_EQ(copy.finish(),
            HmacSha256::mac(to_bytes("copied-key"), to_bytes("second")));
  copy.reset();
  EXPECT_EQ(copy.finish(), HmacSha256::mac(to_bytes("copied-key"), {}));
}

class HmacCross : public ::testing::TestWithParam<std::size_t> {};

// Key lengths straddle the block size (64): shorter keys are zero-padded,
// longer ones hashed first. Data lengths are random, 0-300 bytes.
TEST_P(HmacCross, MatchesOpenSsl) {
  const std::size_t key_len = GetParam();
  DeterministicRng rng(4231 + key_len);
  const Bytes key = rng.bytes(key_len);
  for (int trial = 0; trial < 32; ++trial) {
    const Bytes data = rng.bytes(static_cast<std::size_t>(rng.below(301)));
    std::uint8_t ref[EVP_MAX_MD_SIZE];
    unsigned int ref_len = 0;
    ASSERT_NE(nullptr, HMAC(EVP_sha256(), key.data(), static_cast<int>(key.size()),
                            data.data(), data.size(), ref, &ref_len));
    auto mine = HmacSha256::mac(key, data);
    ASSERT_EQ(ref_len, mine.size());
    EXPECT_TRUE(std::equal(mine.begin(), mine.end(), ref))
        << "key_len=" << key_len << " data_len=" << data.size();
  }
}

INSTANTIATE_TEST_SUITE_P(KeyLengths, HmacCross,
                         ::testing::Values(0u, 1u, 32u, 63u, 64u, 65u, 200u));

TEST(HmacSha256, VerifyAcceptsAndRejects) {
  Bytes key = to_bytes("verify-key");
  Bytes msg = to_bytes("message");
  auto tag = HmacSha256::mac(key, msg);
  EXPECT_TRUE(hmac_verify(key, msg, {tag.data(), tag.size()}));
  tag[0] ^= 1;
  EXPECT_FALSE(hmac_verify(key, msg, {tag.data(), tag.size()}));
  EXPECT_FALSE(hmac_verify(key, msg, {tag.data(), tag.size() - 1}));
}

TEST(Hkdf, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = must_from_hex("000102030405060708090a0b0c");
  Bytes info = must_from_hex("f0f1f2f3f4f5f6f7f8f9");
  Bytes okm = hkdf(salt, ikm, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a"
            "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, Rfc5869Case3EmptySaltInfo) {
  Bytes ikm(22, 0x0b);
  Bytes okm = hkdf({}, ikm, {}, 42);
  EXPECT_EQ(to_hex(okm),
            "8da4e775a563c18f715f802a063c5a31"
            "b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, DistinctInfoDistinctKeys) {
  Bytes ikm = to_bytes("shared-secret");
  EXPECT_NE(hkdf({}, ikm, to_bytes("data"), 32),
            hkdf({}, ikm, to_bytes("admin"), 32));
}

TEST(Hkdf, ExpandLargeOutput) {
  Bytes prk = hkdf_extract(to_bytes("s"), to_bytes("ikm"));
  Bytes okm = hkdf_expand(prk, to_bytes("i"), 255 * 32);
  EXPECT_EQ(okm.size(), 255u * 32u);
  // Prefix property: shorter outputs are prefixes of longer ones.
  Bytes small = hkdf_expand(prk, to_bytes("i"), 16);
  EXPECT_TRUE(std::equal(small.begin(), small.end(), okm.begin()));
}

TEST(Pbkdf2, Rfc7914Vector) {
  Bytes dk = pbkdf2_hmac_sha256(to_bytes("passwd"), to_bytes("salt"), 1, 64);
  EXPECT_EQ(to_hex(dk),
            "55ac046e56e3089fec1691c22544b605f94185216dde0465e68b9d57c20dacbc"
            "49ca9cccf179b645991664b39d77ef317c71b845b1e30bd509112041d3a19783");
}

class Pbkdf2Cross : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(Pbkdf2Cross, MatchesOpenSsl) {
  const std::uint32_t iters = GetParam();
  Bytes password = to_bytes("correct horse battery staple");
  Bytes salt = to_bytes("enclaves-salt");
  Bytes mine = pbkdf2_hmac_sha256(password, salt, iters, 32);
  Bytes ref(32);
  ASSERT_EQ(1, PKCS5_PBKDF2_HMAC(
                   reinterpret_cast<const char*>(password.data()),
                   static_cast<int>(password.size()), salt.data(),
                   static_cast<int>(salt.size()), static_cast<int>(iters),
                   EVP_sha256(), static_cast<int>(ref.size()), ref.data()));
  EXPECT_EQ(mine, ref);
}

INSTANTIATE_TEST_SUITE_P(Iterations, Pbkdf2Cross,
                         ::testing::Values(1u, 2u, 7u, 100u, 1000u));

TEST(Password, DistinctUsersSamePasswordDistinctKeys) {
  PasswordParams p{16, "test"};
  auto a = derive_long_term_key("alice", "hunter2", p);
  auto b = derive_long_term_key("bob", "hunter2", p);
  EXPECT_NE(a.view()[0] == b.view()[0] && equal(a.view(), b.view()), true);
  EXPECT_FALSE(equal(a.view(), b.view()));
}

TEST(Password, Deterministic) {
  PasswordParams p{16, "test"};
  EXPECT_TRUE(equal(derive_long_term_key("alice", "pw", p).view(),
                    derive_long_term_key("alice", "pw", p).view()));
}

TEST(Password, DomainSeparates) {
  PasswordParams p1{16, "deployment-1"};
  PasswordParams p2{16, "deployment-2"};
  EXPECT_FALSE(equal(derive_long_term_key("alice", "pw", p1).view(),
                     derive_long_term_key("alice", "pw", p2).view()));
}

}  // namespace
}  // namespace enclaves::crypto
