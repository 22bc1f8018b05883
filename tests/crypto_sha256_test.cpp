// SHA-256 against FIPS 180-4 / NIST CAVP vectors plus incremental-update
// behaviour, a cross-check against OpenSSL, and the SHA-NI kernel diffed
// against the portable one.
#include <gtest/gtest.h>
#include <openssl/sha.h>

#include <array>

#include "crypto/cpu.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"
#include "util/hex.h"
#include "util/rng.h"

namespace enclaves::crypto {
namespace {

std::string hash_hex(BytesView data) {
  auto d = Sha256::hash(data);
  return to_hex({d.data(), d.size()});
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hash_hex({}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hash_hex(to_bytes("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hash_hex(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  auto d = h.finish();
  EXPECT_EQ(to_hex({d.data(), d.size()}),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 55, 56, 63, 64, 65 bytes straddle the padding edge cases.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    Bytes msg(len, 0xAB);
    unsigned char ref[SHA256_DIGEST_LENGTH];
    SHA256(msg.data(), msg.size(), ref);
    auto mine = Sha256::hash(msg);
    EXPECT_EQ(to_hex({mine.data(), mine.size()}),
              to_hex({ref, SHA256_DIGEST_LENGTH}))
        << "len=" << len;
  }
}

TEST(Sha256, IncrementalMatchesOneShot) {
  DeterministicRng rng(42);
  Bytes msg = rng.bytes(10000);
  for (std::size_t chunk : {1u, 3u, 17u, 64u, 100u, 1000u}) {
    Sha256 h;
    for (std::size_t off = 0; off < msg.size(); off += chunk) {
      std::size_t n = std::min(chunk, msg.size() - off);
      h.update({msg.data() + off, n});
    }
    EXPECT_EQ(h.finish(), Sha256::hash(msg)) << "chunk=" << chunk;
  }
}

TEST(Sha256, ResetReusesObject) {
  Sha256 h;
  h.update(to_bytes("garbage"));
  h.reset();
  h.update(to_bytes("abc"));
  auto d = h.finish();
  EXPECT_EQ(to_hex({d.data(), d.size()}),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

class Sha256RandomCross : public ::testing::TestWithParam<int> {};

TEST_P(Sha256RandomCross, MatchesOpenSsl) {
  DeterministicRng rng(static_cast<std::uint64_t>(GetParam()));
  std::size_t len = static_cast<std::size_t>(rng.below(4096));
  Bytes msg = rng.bytes(len);
  unsigned char ref[SHA256_DIGEST_LENGTH];
  SHA256(msg.data(), msg.size(), ref);
  auto mine = Sha256::hash(msg);
  EXPECT_TRUE(std::equal(mine.begin(), mine.end(), ref));
}

INSTANTIATE_TEST_SUITE_P(RandomLengths, Sha256RandomCross,
                         ::testing::Range(0, 24));

// The portable kernel is the oracle: from random midstates (not just the
// IV), over runs of 1-8 blocks, SHA-NI must land on the same state.
TEST(Sha256Kernels, ShaNiMatchesPortable) {
  if (!cpu_has_sha_ni()) GTEST_SKIP() << "CPU lacks SHA-NI";
  DeterministicRng rng(180);
  for (int trial = 0; trial < 10000; ++trial) {
    std::array<std::uint32_t, 8> portable;
    for (auto& word : portable)
      word = static_cast<std::uint32_t>(rng.below(std::uint64_t{1} << 32));
    auto shani = portable;
    const std::size_t nblocks = 1 + static_cast<std::size_t>(rng.below(8));
    const Bytes data = rng.bytes(nblocks * Sha256::kBlockSize);
    sha256_blocks_portable(portable.data(), data.data(), nblocks);
    sha256_blocks_shani(shani.data(), data.data(), nblocks);
    ASSERT_EQ(portable, shani) << "trial " << trial << ", " << nblocks
                               << " blocks";
  }
}

// Runs on every host, whichever kernel Sha256 dispatches to: "abc" padded
// by hand to one block, from the FIPS 180-4 IV.
TEST(Sha256Kernels, PortableKernelHashesAbc) {
  std::array<std::uint32_t, 8> state = {
      0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
      0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::array<std::uint8_t, Sha256::kBlockSize> block{};
  block[0] = 'a';
  block[1] = 'b';
  block[2] = 'c';
  block[3] = 0x80;
  block[63] = 24;  // bit length
  sha256_blocks_portable(state.data(), block.data(), 1);
  const std::array<std::uint32_t, 8> expect = {
      0xba7816bf, 0x8f01cfea, 0x414140de, 0x5dae2223,
      0xb00361a3, 0x96177a9c, 0xb410ff61, 0xf20015ad};
  EXPECT_EQ(state, expect);
}

TEST(Sha256Kernels, DispatchFollowsTheProbe) {
  EXPECT_STREQ(sha256_kernel_name(),
               cpu_has_sha_ni() ? "shani" : "portable");
}

}  // namespace
}  // namespace enclaves::crypto
