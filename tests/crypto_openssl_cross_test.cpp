// Differential testing of the from-scratch primitives against OpenSSL:
// ChaCha20 keystreams via EVP_chacha20, Poly1305 tags via EVP_MAC, and the
// combined AEAD via EVP_chacha20_poly1305, over randomized inputs and the
// block-boundary edge sizes. The AVX2 kernels are also diffed against the
// portable ones directly (skipped, not passed, on a CPU without AVX2).
#include <gtest/gtest.h>
#include <openssl/evp.h>

#include <algorithm>
#include <array>
#include <optional>
#include <vector>

#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/chacha20_kernels.h"
#include "crypto/cpu.h"
#include "crypto/poly1305.h"
#include "crypto/poly1305_kernels.h"
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

// ChaCha20-Poly1305 through OpenSSL's EVP interface: seals `msg`, or, with
// `tag` set, opens `msg` under that tag (nullopt when OpenSSL refuses it).
std::optional<Bytes> openssl_aead(bool seal, BytesView key, BytesView nonce,
                                  BytesView aad, BytesView msg,
                                  BytesView tag = {}) {
  EVP_CIPHER_CTX* ctx = EVP_CIPHER_CTX_new();
  EXPECT_EQ(1, EVP_CipherInit_ex(ctx, EVP_chacha20_poly1305(), nullptr,
                                 key.data(), nonce.data(), seal ? 1 : 0));
  int len = 0;
  if (!aad.empty()) {
    EXPECT_EQ(1, EVP_CipherUpdate(ctx, nullptr, &len, aad.data(),
                                  static_cast<int>(aad.size())));
  }
  Bytes out(msg.size() + (seal ? 16 : 0));
  if (!msg.empty()) {
    EXPECT_EQ(1, EVP_CipherUpdate(ctx, out.data(), &len, msg.data(),
                                  static_cast<int>(msg.size())));
  }
  if (!seal) {
    Bytes t(tag.begin(), tag.end());
    EXPECT_EQ(1, EVP_CIPHER_CTX_ctrl(ctx, EVP_CTRL_AEAD_SET_TAG, 16,
                                     t.data()));
  }
  int fin = 0;
  const bool ok = EVP_CipherFinal_ex(ctx, out.data() + msg.size(), &fin) == 1;
  if (ok && seal) {
    EXPECT_EQ(1, EVP_CIPHER_CTX_ctrl(ctx, EVP_CTRL_AEAD_GET_TAG, 16,
                                     out.data() + msg.size()));
  }
  EVP_CIPHER_CTX_free(ctx);
  if (!ok) return std::nullopt;
  return out;
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

// The eight-block AVX2 batch equals the portable kernel (two four-block
// batches) from random states, over 1-4 batches, 16 KiB and 64 KiB, and
// with the batch starting at each counter from 0xfffffff8 to 0xffffffff,
// so the wrap to 0 lands on every lane.
TEST(ChaChaKernels, Avx2MatchesPortable) {
  if (!cpu_has_avx2()) GTEST_SKIP() << "CPU lacks AVX2";
  DeterministicRng rng(8439);
  auto check = [&](std::uint32_t counter, std::size_t nbatches) {
    std::array<std::uint32_t, 16> portable;
    for (auto& word : portable)
      word = static_cast<std::uint32_t>(rng.below(std::uint64_t{1} << 32));
    portable[12] = counter;
    auto avx2 = portable;
    const Bytes data = rng.bytes(nbatches * kChaCha20WideBatch);
    Bytes by_portable = data, by_avx2 = data;
    chacha20_xor_batches_portable(portable.data(), by_portable.data(),
                                  nbatches);
    chacha20_xor_batches_avx2(avx2.data(), by_avx2.data(), nbatches);
    EXPECT_EQ(by_avx2, by_portable)
        << "counter=" << counter << " batches=" << nbatches;
    EXPECT_EQ(avx2, portable)
        << "counter=" << counter << " batches=" << nbatches;
  };
  for (std::size_t nbatches : {1u, 2u, 3u, 4u, 32u, 128u})
    for (int trial = 0; trial < 8; ++trial)
      check(static_cast<std::uint32_t>(rng.below(std::uint64_t{1} << 32)),
            nbatches);
  for (std::uint32_t counter = 0xfffffff8u; counter != 0; ++counter) {
    check(counter, 1);
    check(counter, 2);
  }
}

// The AVX2 four-block batch (row layout) equals the portable one from
// random states, both storing and XORing, and with the batch starting at
// each counter from 0xfffffffc to 0xffffffff, so the wrap to 0 lands on
// every block and stays inside word 12. The state is left as it was.
TEST(ChaChaKernels, Batch4Avx2MatchesPortable) {
  if (!cpu_has_avx2()) GTEST_SKIP() << "CPU lacks AVX2";
  DeterministicRng rng(256);
  auto check = [&](std::uint32_t counter) {
    std::array<std::uint32_t, 16> state;
    for (auto& word : state)
      word = static_cast<std::uint32_t>(rng.below(std::uint64_t{1} << 32));
    state[12] = counter;
    const auto before = state;
    const Bytes data = rng.bytes(kChaCha20Batch4);
    for (bool xor_into : {false, true}) {
      Bytes by_portable = data, by_avx2 = data;
      chacha20_batch4_portable(state.data(), by_portable.data(), xor_into);
      chacha20_batch4_avx2(state.data(), by_avx2.data(), xor_into);
      EXPECT_EQ(by_avx2, by_portable)
          << "counter=" << counter << " xor_into=" << xor_into;
    }
    EXPECT_EQ(state, before);
  };
  for (int trial = 0; trial < 64; ++trial)
    check(static_cast<std::uint32_t>(rng.below(std::uint64_t{1} << 32)));
  for (std::uint32_t counter = 0xfffffffcu; counter != 0; ++counter)
    check(counter);
}

// apply() at every length 0..1100, 16 KiB and 64 KiB equals OpenSSL: below
// 512 bytes it runs only four-block batches, from 512 on it takes the
// dispatched eight-block kernel first.
TEST(ChaChaKernels, ApplyMatchesOpenSslAtEveryLength) {
  DeterministicRng rng(1100);
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 1100; ++len) lengths.push_back(len);
  lengths.push_back(16384);
  lengths.push_back(65536);
  for (std::size_t len : lengths) {
    const Bytes key = rng.bytes(32), nonce = rng.bytes(12);
    const auto counter = static_cast<std::uint32_t>(rng.below(1000));
    const Bytes msg = rng.bytes(len);
    Bytes mine = msg;
    ChaCha20(key, nonce, counter).apply(mine.data(), mine.size());
    ASSERT_EQ(mine, openssl_chacha20(key, nonce, counter, msg))
        << "len=" << len;
  }
}

// msg XORed with the keystream of ChaCha20::block (the scalar RFC 8439
// block function) for counter, counter+1, ..., wrapping modulo 2^32 as RFC
// 8439 does. EVP_chacha20 carries the counter into the nonce instead, so
// it is no oracle across the wrap.
Bytes scalar_chacha20(BytesView key, BytesView nonce, std::uint32_t counter,
                      BytesView msg) {
  Bytes out(msg.begin(), msg.end());
  for (std::size_t off = 0; off < out.size(); off += 64, ++counter) {
    const auto block = ChaCha20::block(key, nonce, counter);
    for (std::size_t i = 0; i < 64 && off + i < out.size(); ++i)
      out[off + i] ^= block[i];
  }
  return out;
}

// Two apply() calls whose split and second length straddle the 256-byte
// carry-over and the 512-byte batch: the second call drains the carried
// keystream, then takes eight-block batches, four-block batches and a tail
// in that order, also across the counter wrap.
TEST(ChaChaKernels, ChunkedApplyAcrossBatchBoundariesMatchesScalar) {
  DeterministicRng rng(512);
  const std::size_t cuts[] = {1,   63,  64,  65,  255, 256, 257,
                              511, 512, 513, 767, 768, 1023, 1024, 1025};
  for (std::uint32_t counter : {7u, 0xfffffff9u}) {
    for (std::size_t first : cuts) {
      for (std::size_t second : cuts) {
        const Bytes key = rng.bytes(32), nonce = rng.bytes(12);
        const Bytes msg = rng.bytes(first + second + 100);
        Bytes mine = msg;
        ChaCha20 cipher(key, nonce, counter);
        cipher.apply(mine.data(), first);
        cipher.apply(mine.data() + first, second);
        cipher.apply(mine.data() + first + second, 100);
        ASSERT_EQ(mine, scalar_chacha20(key, nonce, counter, msg))
            << "counter=" << counter << " first=" << first
            << " second=" << second;
      }
    }
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
// update() in uneven pieces, short and long; an empty piece is passed as a
// null view.
TEST(PolyCross, RandomKeysAndSplitsMatchOpenSsl) {
  DeterministicRng rng(1305);
  for (int trial = 0; trial < 1000; ++trial) {
    Bytes key = rng.bytes(32);
    const Bytes msg = rng.bytes(rng.below(4097));
    Poly1305 mac(key);
    for (std::size_t off = 0; off < msg.size();) {
      // Mostly short pieces; one in four is long enough (>= 1 KiB of full
      // blocks) to take the dispatched vector kernel.
      const std::size_t want =
          rng.below(4) == 0 ? 1024 + rng.below(2048) : rng.below(80);
      const std::size_t n = std::min<std::size_t>(want, msg.size() - off);
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

// h in the donna-64 form after `blocks` random full blocks under r.
std::array<std::uint64_t, 3> random_accumulator(DeterministicRng& rng,
                                                const std::uint64_t r[3]) {
  std::array<std::uint64_t, 3> h{};
  const std::size_t blocks = rng.below(4);
  const Bytes data = rng.bytes(16 * blocks);
  poly1305_blocks_portable(h.data(), r, data.data(), blocks);
  return h;
}

// The clamped r of a 32-byte key, as Poly1305's constructor splits it.
std::array<std::uint64_t, 3> clamped_r(BytesView key) {
  std::uint64_t t0 = 0, t1 = 0;
  for (int i = 7; i >= 0; --i) {
    t0 = (t0 << 8) | key[static_cast<std::size_t>(i)];
    t1 = (t1 << 8) | key[static_cast<std::size_t>(8 + i)];
  }
  return {t0 & 0xffc0fffffff, ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffff,
          (t1 >> 24) & 0x00ffffffc0f};
}

// The four-lane AVX2 Horner loop lands on the same h mod p as donna-64,
// from random keys and accumulators, for every block count 0..80 (the
// lanes plus a 0-3 block remainder), 1 KiB and 16 KiB; and for all-0xff
// blocks under the largest clamped r, where every limb runs full.
TEST(PolyKernels, Avx2MatchesPortable) {
  if (!cpu_has_avx2()) GTEST_SKIP() << "CPU lacks AVX2";
  DeterministicRng rng(1305);
  auto check = [&](BytesView key, BytesView data) {
    const auto r = clamped_r(key);
    auto portable = random_accumulator(rng, r.data());
    auto avx2 = portable;
    const std::size_t nblocks = data.size() / 16;
    poly1305_blocks_portable(portable.data(), r.data(), data.data(), nblocks);
    poly1305_blocks_avx2(avx2.data(), r.data(), data.data(), nblocks);
    poly1305_detail::reduce_full(portable.data());
    poly1305_detail::reduce_full(avx2.data());
    EXPECT_EQ(avx2, portable) << "blocks=" << nblocks;
  };
  std::vector<std::size_t> counts;
  for (std::size_t n = 0; n <= 80; ++n) counts.push_back(n);
  counts.push_back(64);
  counts.push_back(1024);
  for (std::size_t n : counts) {
    for (int trial = 0; trial < 4; ++trial)
      check(rng.bytes(32), rng.bytes(16 * n));
    check(Bytes(32, 0xFF), Bytes(16 * n, 0xFF));
  }
}

// Tags at lengths around the 1024-byte threshold and a 16 KiB message
// equal OpenSSL whichever kernel the dispatch picks, for random and
// all-0xff messages.
TEST(PolyKernels, ThresholdLengthsMatchOpenSsl) {
  DeterministicRng rng(1024);
  std::vector<std::size_t> lengths;
  for (std::size_t len = 1000; len <= 1100; ++len) lengths.push_back(len);
  for (std::size_t len : {2047u, 2048u, 2049u, 16384u, 16385u, 16399u})
    lengths.push_back(len);
  for (std::size_t len : lengths) {
    const Bytes key = rng.bytes(32);
    for (const Bytes& msg : {rng.bytes(len), Bytes(len, 0xFF)}) {
      auto mine = Poly1305::mac(key, msg);
      ASSERT_EQ(Bytes(mine.begin(), mine.end()), openssl_poly1305(key, msg))
          << "len=" << len;
    }
  }
}

// Streaming update()s that enter the vector loop mid-message: a short
// piece leaves bytes buffered, the long piece then runs the lanes from an
// unaligned offset with h already nonzero, and a last piece follows.
TEST(PolyKernels, StreamingIntoTheVectorLoopMatchesOpenSsl) {
  DeterministicRng rng(5000);
  const std::size_t pieces[][3] = {{15, 5000, 0},   {15, 5000, 33},
                                   {1, 1024, 15},   {17, 1023, 1},
                                   {16, 1024, 16},  {100, 4096, 7},
                                   {0, 16384, 0},   {1040, 1040, 1040}};
  for (const auto& piece : pieces) {
    const Bytes key = rng.bytes(32);
    const Bytes msg = rng.bytes(piece[0] + piece[1] + piece[2]);
    Poly1305 mac(key);
    std::size_t off = 0;
    for (std::size_t n : piece) {
      mac.update(n == 0 ? BytesView{} : BytesView{msg.data() + off, n});
      off += n;
    }
    auto mine = mac.finish();
    ASSERT_EQ(Bytes(mine.begin(), mine.end()), openssl_poly1305(key, msg))
        << piece[0] << "+" << piece[1] << "+" << piece[2];
  }
}

// All-0xff messages under the maximal clamped r (key bytes 0..15 all
// 0xff), s all-ones or zero, at lengths that take the vector loop.
TEST(PolyKernels, AllOnesUnderMaximalRMatchesOpenSsl) {
  for (std::uint8_t s_fill : {std::uint8_t{0xFF}, std::uint8_t{0x00}}) {
    Bytes key(16, 0xFF);
    key.resize(32, s_fill);
    for (std::size_t len : {1024u, 1025u, 1039u, 1088u, 4096u, 16384u}) {
      const Bytes msg(len, 0xFF);
      auto mine = Poly1305::mac(key, msg);
      EXPECT_EQ(Bytes(mine.begin(), mine.end()), openssl_poly1305(key, msg))
          << "s=" << int(s_fill) << " len=" << len;
    }
  }
}

// The one-call AEAD tag equals the streaming Poly1305 fed the five pieces
// of RFC 8439 §2.8 (aad, its pad16, ciphertext, its pad16, the lengths)
// for every AAD and ciphertext length 0..48, and for lengths around the
// 1 KiB run where poly1305_blocks() may take the vector loop.
TEST(PolyCross, AeadTagMatchesStreaming) {
  DeterministicRng rng(2808);
  auto streaming = [](BytesView key, BytesView aad, BytesView ct) {
    static constexpr std::uint8_t kZeros[15] = {};
    Poly1305 mac(key);
    mac.update(aad);
    if (aad.size() % 16 != 0) mac.update({kZeros, 16 - aad.size() % 16});
    mac.update(ct);
    if (ct.size() % 16 != 0) mac.update({kZeros, 16 - ct.size() % 16});
    std::uint8_t lengths[16];
    for (int i = 0; i < 8; ++i) {
      lengths[i] = static_cast<std::uint8_t>(aad.size() >> (8 * i));
      lengths[8 + i] = static_cast<std::uint8_t>(ct.size() >> (8 * i));
    }
    mac.update({lengths, 16});
    return mac.finish();
  };
  auto check = [&](std::size_t aad_len, std::size_t ct_len) {
    const Bytes key = rng.bytes(32);
    const Bytes aad = rng.bytes(aad_len), ct = rng.bytes(ct_len);
    EXPECT_EQ(poly1305_aead_tag(key, aad, ct), streaming(key, aad, ct))
        << "aad=" << aad_len << " ct=" << ct_len;
  };
  for (std::size_t aad_len = 0; aad_len <= 48; ++aad_len)
    for (std::size_t ct_len = 0; ct_len <= 48; ++ct_len)
      check(aad_len, ct_len);
  for (std::size_t big : {1008u, 1024u, 1040u}) {
    for (std::size_t other : {0u, 1u, 15u, 16u, 17u, 1008u, 1024u, 1040u}) {
      check(big, other);
      check(other, big);
    }
  }
}

class AeadCross : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AeadCross, SealedOutputMatchesOpenSslChaChaPoly) {
  DeterministicRng rng(GetParam() * 13 + 5);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12), aad = rng.bytes(24);
  Bytes msg = rng.bytes(GetParam());

  Bytes mine = chacha20poly1305().seal(key, nonce, aad, msg);
  const auto ref = openssl_aead(true, key, nonce, aad, msg);
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(mine, *ref);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AeadCross,
                         ::testing::Values<std::size_t>(0, 1, 16, 64, 512, 513,
                                                        1000, 1024, 16384,
                                                        32768));

TEST(AeadCross, OpenSslCanOpenOurSeals) {
  DeterministicRng rng(9);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12), aad = rng.bytes(8);
  Bytes msg = to_bytes("interop both ways");
  Bytes sealed = chacha20poly1305().seal(key, nonce, aad, msg);
  const auto plain =
      openssl_aead(false, key, nonce, aad, BytesView{sealed}.first(msg.size()),
                   BytesView{sealed}.last(16));
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(*plain, msg);
}

// Every plaintext length 0..600 under AAD lengths around one and two
// Poly1305 blocks, in both directions: our seal equals OpenSSL's, and each
// side opens the other's output.
TEST(AeadCross, EveryShortLengthAndAadBothWays) {
  DeterministicRng rng(600);
  const Aead& aead = chacha20poly1305();
  for (std::size_t aad_len : {0u, 1u, 15u, 16u, 17u, 33u}) {
    for (std::size_t len = 0; len <= 600; ++len) {
      const Bytes key = rng.bytes(32), nonce = rng.bytes(12);
      const Bytes aad = rng.bytes(aad_len), msg = rng.bytes(len);
      const Bytes mine = aead.seal(key, nonce, aad, msg);
      const auto theirs = openssl_aead(true, key, nonce, aad, msg);
      ASSERT_TRUE(theirs.has_value());
      ASSERT_EQ(mine, *theirs) << "aad=" << aad_len << " len=" << len;

      const BytesView body = BytesView{mine}.first(len);
      const auto by_openssl = openssl_aead(false, key, nonce, aad, body,
                                           BytesView{mine}.subspan(len));
      ASSERT_TRUE(by_openssl.has_value())
          << "aad=" << aad_len << " len=" << len;
      EXPECT_EQ(*by_openssl, msg);
      const auto by_us = aead.open(key, nonce, aad, *theirs);
      ASSERT_TRUE(by_us.ok()) << "aad=" << aad_len << " len=" << len;
      EXPECT_EQ(*by_us, msg);
    }
  }
}

// A one-bit flip in the ciphertext, the tag, the AAD or the nonce of a
// message of every length 0..192 is refused as auth_failed. Each byte is
// flipped once, at bit (position mod 8).
TEST(AeadCross, ShortForgeriesRefused) {
  DeterministicRng rng(192);
  const Aead& aead = chacha20poly1305();
  for (std::size_t len = 0; len <= 192; ++len) {
    const Bytes key = rng.bytes(32), nonce = rng.bytes(12);
    const Bytes aad = rng.bytes(22), msg = rng.bytes(len);
    const Bytes sealed = aead.seal(key, nonce, aad, msg);
    auto refused = [&](BytesView n, BytesView a, BytesView ct) {
      return aead.open(key, n, a, ct).code() == Errc::auth_failed;
    };
    for (std::size_t i = 0; i < sealed.size(); ++i) {
      Bytes forged = sealed;
      forged[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
      EXPECT_TRUE(refused(nonce, aad, forged))
          << "len=" << len << " ciphertext/tag byte " << i;
    }
    for (std::size_t i = 0; i < aad.size(); ++i) {
      Bytes forged = aad;
      forged[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
      EXPECT_TRUE(refused(nonce, forged, sealed))
          << "len=" << len << " aad byte " << i;
    }
    for (std::size_t i = 0; i < nonce.size(); ++i) {
      Bytes forged = nonce;
      forged[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
      EXPECT_TRUE(refused(forged, aad, sealed))
          << "len=" << len << " nonce byte " << i;
    }
  }
}

}  // namespace
}  // namespace enclaves::crypto
