// Differential testing of the from-scratch primitives against OpenSSL:
// ChaCha20 keystreams via EVP_chacha20, Poly1305 tags via EVP_MAC, and the
// combined AEAD via EVP_chacha20_poly1305, over randomized inputs and the
// block-boundary edge sizes.
#include <gtest/gtest.h>
#include <openssl/evp.h>

#include <algorithm>

#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/poly1305.h"
#include "util/hex.h"
#include "util/rng.h"

namespace enclaves::crypto {
namespace {

Bytes openssl_chacha20(BytesView key, BytesView nonce12,
                       std::uint32_t counter, BytesView data) {
  // EVP_chacha20 takes a 16-byte IV: 4-byte little-endian counter || nonce.
  Bytes iv(16);
  for (int i = 0; i < 4; ++i)
    iv[static_cast<size_t>(i)] =
        static_cast<std::uint8_t>(counter >> (8 * i));
  std::copy(nonce12.begin(), nonce12.end(), iv.begin() + 4);

  EVP_CIPHER_CTX* ctx = EVP_CIPHER_CTX_new();
  EXPECT_EQ(1, EVP_EncryptInit_ex(ctx, EVP_chacha20(), nullptr, key.data(),
                                  iv.data()));
  Bytes out(data.size());
  int len = 0;
  if (!data.empty()) {
    EXPECT_EQ(1, EVP_EncryptUpdate(ctx, out.data(), &len, data.data(),
                                   static_cast<int>(data.size())));
  }
  int fin = 0;
  EXPECT_EQ(1, EVP_EncryptFinal_ex(ctx, out.data() + len, &fin));
  EVP_CIPHER_CTX_free(ctx);
  return out;
}

Bytes openssl_poly1305(BytesView key, BytesView data) {
  EVP_MAC* mac = EVP_MAC_fetch(nullptr, "POLY1305", nullptr);
  EXPECT_NE(mac, nullptr);
  EVP_MAC_CTX* ctx = EVP_MAC_CTX_new(mac);
  EXPECT_EQ(1, EVP_MAC_init(ctx, key.data(), key.size(), nullptr));
  if (!data.empty()) {
    EXPECT_EQ(1, EVP_MAC_update(ctx, data.data(), data.size()));
  }
  Bytes tag(16);
  std::size_t out_len = 0;
  EXPECT_EQ(1, EVP_MAC_final(ctx, tag.data(), &out_len, tag.size()));
  EXPECT_EQ(out_len, 16u);
  EVP_MAC_CTX_free(ctx);
  EVP_MAC_free(mac);
  return tag;
}

class ChaChaCross : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChaChaCross, KeystreamMatchesOpenSsl) {
  DeterministicRng rng(GetParam() * 31 + 7);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12);
  Bytes msg = rng.bytes(GetParam());
  ChaCha20 mine(key, nonce, 1);  // counter 1, as in the AEAD construction
  EXPECT_EQ(mine.transform(msg), openssl_chacha20(key, nonce, 1, msg));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChaChaCross,
                         ::testing::Values<std::size_t>(0, 1, 63, 64, 65,
                                                        127, 128, 129, 1000,
                                                        65536));

TEST(ChaChaCross, CounterZeroAlsoMatches) {
  DeterministicRng rng(2);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12), msg = rng.bytes(256);
  ChaCha20 mine(key, nonce, 0);
  EXPECT_EQ(mine.transform(msg), openssl_chacha20(key, nonce, 0, msg));
}

// Random chunk sequences through apply(): 1 B to 4 KiB chunks, totals up
// to 64 KiB, so the carried keystream is cut at every offset inside a
// 64-byte block and a 256-byte batch.
TEST(ChaChaCross, RandomChunkSequencesMatchOpenSsl) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    DeterministicRng rng(seed * 101);
    Bytes key = rng.bytes(32), nonce = rng.bytes(12);
    const auto counter = static_cast<std::uint32_t>(rng.below(1000));
    const Bytes msg = rng.bytes(1 + rng.below(64 * 1024));
    Bytes mine = msg;
    ChaCha20 cipher(key, nonce, counter);
    for (std::size_t off = 0; off < mine.size();) {
      const std::size_t want = rng.below(4) == 0 ? 1 + rng.below(4096)
                                                  : 1 + rng.below(300);
      const std::size_t n = std::min(want, mine.size() - off);
      cipher.apply(mine.data() + off, n);
      off += n;
    }
    ASSERT_EQ(mine, openssl_chacha20(key, nonce, counter, msg))
        << "seed=" << seed << " len=" << msg.size();
  }
}

// A four-block batch equals four scalar block() calls, including across the
// 32-bit counter wrap (the counter wraps to 0; the nonce is untouched).
TEST(ChaChaCross, BatchEqualsFourScalarBlocks) {
  DeterministicRng rng(44);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12);
  for (std::uint32_t counter :
       {0u, 1u, 0xfffffffcu, 0xfffffffdu, 0xfffffffeu, 0xffffffffu}) {
    Bytes scalar;
    for (std::uint32_t i = 0; i < 8; ++i) {
      auto b = ChaCha20::block(key, nonce, counter + i);
      scalar.insert(scalar.end(), b.begin(), b.end());
    }
    // Whole batches XORed in place.
    Bytes bulk(512, 0);
    ChaCha20(key, nonce, counter).apply(bulk.data(), bulk.size());
    EXPECT_EQ(bulk, scalar) << "counter=" << counter;
    // A batch computed for a tail and carried over.
    Bytes tail(200, 0);
    ChaCha20 c(key, nonce, counter);
    c.apply(tail.data(), tail.size());
    EXPECT_EQ(tail, Bytes(scalar.begin(), scalar.begin() + 200))
        << "counter=" << counter;
    // One block applied alone, as the AEAD takes its Poly1305 key, then the
    // rest of its batch and beyond.
    Bytes first(64, 0), rest(448, 0);
    ChaCha20 n(key, nonce, counter);
    n.apply(first.data(), first.size());
    n.apply(rest.data(), rest.size());
    EXPECT_EQ(first, Bytes(scalar.begin(), scalar.begin() + 64))
        << "counter=" << counter;
    EXPECT_EQ(rest, Bytes(scalar.begin() + 64, scalar.end()))
        << "counter=" << counter;
  }
}

class PolyCross : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PolyCross, TagMatchesOpenSsl) {
  DeterministicRng rng(GetParam() * 17 + 3);
  Bytes key = rng.bytes(32);
  Bytes msg = rng.bytes(GetParam());
  auto mine = Poly1305::mac(key, msg);
  EXPECT_EQ(Bytes(mine.begin(), mine.end()), openssl_poly1305(key, msg));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PolyCross,
                         ::testing::Values<std::size_t>(0, 1, 15, 16, 17, 31,
                                                        32, 33, 255, 1000,
                                                        10000));

TEST(PolyCross, AllOnesEdgeInputs) {
  // h accumulation near 2^130-5: all-0xFF blocks with extreme r values.
  for (std::uint8_t fill : {std::uint8_t{0xFF}, std::uint8_t{0x00}}) {
    Bytes key(32, fill);
    for (std::size_t len : {16u, 32u, 48u, 160u}) {
      Bytes msg(len, 0xFF);
      auto mine = Poly1305::mac(key, msg);
      EXPECT_EQ(Bytes(mine.begin(), mine.end()), openssl_poly1305(key, msg))
          << "fill=" << int(fill) << " len=" << len;
    }
  }
}

// 1 000 seeded (key, message) pairs, messages up to 4 KiB, each fed to
// update() in uneven pieces; an empty piece is passed as a null view.
TEST(PolyCross, RandomKeysAndSplitsMatchOpenSsl) {
  DeterministicRng rng(1305);
  for (int trial = 0; trial < 1000; ++trial) {
    Bytes key = rng.bytes(32);
    const Bytes msg = rng.bytes(rng.below(4097));
    Poly1305 mac(key);
    for (std::size_t off = 0; off < msg.size();) {
      const std::size_t n =
          std::min<std::size_t>(rng.below(80), msg.size() - off);
      mac.update(n == 0 ? BytesView{} : BytesView{msg.data() + off, n});
      off += n;
    }
    auto mine = mac.finish();
    ASSERT_EQ(Bytes(mine.begin(), mine.end()), openssl_poly1305(key, msg))
        << "trial=" << trial << " len=" << msg.size();
  }
}

// Limb edges: r clamped from all-ones, s all-ones or zero, and all-0xFF
// messages of every length up to 4 blocks plus a long one, so each limb of
// h runs full and the final reduction meets h >= p.
TEST(PolyCross, AllOnesLimbEdges) {
  for (std::uint8_t r_fill : {std::uint8_t{0xFF}, std::uint8_t{0x00}}) {
    for (std::uint8_t s_fill : {std::uint8_t{0xFF}, std::uint8_t{0x00}}) {
      Bytes key(16, r_fill);
      key.resize(32, s_fill);
      for (std::size_t len = 0; len <= 64; ++len) {
        const Bytes msg(len, 0xFF);
        auto mine = Poly1305::mac(key, msg);
        EXPECT_EQ(Bytes(mine.begin(), mine.end()), openssl_poly1305(key, msg))
            << "r=" << int(r_fill) << " s=" << int(s_fill) << " len=" << len;
      }
      const Bytes long_msg(4096 + 7, 0xFF);
      auto mine = Poly1305::mac(key, long_msg);
      EXPECT_EQ(Bytes(mine.begin(), mine.end()),
                openssl_poly1305(key, long_msg))
          << "r=" << int(r_fill) << " s=" << int(s_fill);
    }
  }
}

class AeadCross : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AeadCross, SealedOutputMatchesOpenSslChaChaPoly) {
  DeterministicRng rng(GetParam() * 13 + 5);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12), aad = rng.bytes(24);
  Bytes msg = rng.bytes(GetParam());

  Bytes mine = chacha20poly1305().seal(key, nonce, aad, msg);

  EVP_CIPHER_CTX* ctx = EVP_CIPHER_CTX_new();
  ASSERT_EQ(1, EVP_EncryptInit_ex(ctx, EVP_chacha20_poly1305(), nullptr,
                                  key.data(), nonce.data()));
  int len = 0;
  ASSERT_EQ(1, EVP_EncryptUpdate(ctx, nullptr, &len, aad.data(),
                                 static_cast<int>(aad.size())));
  Bytes ref(msg.size() + 16);
  if (!msg.empty()) {
    ASSERT_EQ(1, EVP_EncryptUpdate(ctx, ref.data(), &len, msg.data(),
                                   static_cast<int>(msg.size())));
  }
  int fin = 0;
  ASSERT_EQ(1, EVP_EncryptFinal_ex(ctx, ref.data() + len, &fin));
  ASSERT_EQ(1, EVP_CIPHER_CTX_ctrl(ctx, EVP_CTRL_AEAD_GET_TAG, 16,
                                   ref.data() + msg.size()));
  EVP_CIPHER_CTX_free(ctx);

  EXPECT_EQ(mine, ref);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AeadCross,
                         ::testing::Values<std::size_t>(0, 1, 16, 64, 1000,
                                                        32768));

TEST(AeadCross, OpenSslCanOpenOurSeals) {
  DeterministicRng rng(9);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12), aad = rng.bytes(8);
  Bytes msg = to_bytes("interop both ways");
  Bytes sealed = chacha20poly1305().seal(key, nonce, aad, msg);

  EVP_CIPHER_CTX* ctx = EVP_CIPHER_CTX_new();
  ASSERT_EQ(1, EVP_DecryptInit_ex(ctx, EVP_chacha20_poly1305(), nullptr,
                                  key.data(), nonce.data()));
  int len = 0;
  ASSERT_EQ(1, EVP_DecryptUpdate(ctx, nullptr, &len, aad.data(),
                                 static_cast<int>(aad.size())));
  Bytes plain(msg.size());
  ASSERT_EQ(1, EVP_DecryptUpdate(ctx, plain.data(), &len, sealed.data(),
                                 static_cast<int>(msg.size())));
  Bytes tag(sealed.end() - 16, sealed.end());
  ASSERT_EQ(1,
            EVP_CIPHER_CTX_ctrl(ctx, EVP_CTRL_AEAD_SET_TAG, 16, tag.data()));
  int fin = 0;
  EXPECT_EQ(1, EVP_DecryptFinal_ex(ctx, plain.data() + len, &fin));
  EVP_CIPHER_CTX_free(ctx);
  EXPECT_EQ(plain, msg);
}

}  // namespace
}  // namespace enclaves::crypto
