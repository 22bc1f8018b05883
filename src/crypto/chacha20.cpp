#include "crypto/chacha20.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "crypto/chacha20_kernels.h"
#include "crypto/cpu.h"

namespace enclaves::crypto {

// Keystream words and data are moved with memcpy in host byte order, which
// is the little-endian order RFC 8439 serialises them in.
static_assert(std::endian::native == std::endian::little,
              "ChaCha20 stores keystream words in host byte order");

namespace {

using chacha20_detail::twenty_rounds;

// Four 32-bit lanes; lane i of word w is word w of block counter+i.
using u32x4 = std::uint32_t __attribute__((vector_size(16)));

std::uint32_t load_le32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

// Writes the 64-byte keystream block for `in` (scalar; one block). Only
// ChaCha20::block uses it.
void chacha_block(const std::array<std::uint32_t, 16>& in, std::uint8_t* out) {
  std::uint32_t x[16];
  std::copy(in.begin(), in.end(), x);
  twenty_rounds(x);
  for (int i = 0; i < 16; ++i) x[i] += in[static_cast<std::size_t>(i)];
  std::memcpy(out, x, ChaCha20::kBlockSize);
}

// Stores 16 keystream bytes at `out`, or XORs them into `out` if `xor_into`.
void put16(std::uint8_t* out, u32x4 v, bool xor_into) {
  if (xor_into) {
    u32x4 d;
    std::memcpy(&d, out, sizeof d);
    v ^= d;
  }
  std::memcpy(out, &v, sizeof v);
}

void xor_bytes(std::uint8_t* data, const std::uint8_t* ks, std::size_t len) {
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t d, k;
    std::memcpy(&d, data + i, 8);
    std::memcpy(&k, ks + i, 8);
    d ^= k;
    std::memcpy(data + i, &d, 8);
  }
  for (; i < len; ++i) data[i] ^= ks[i];
}

}  // namespace

void chacha20_batch4_portable(const std::uint32_t state[16],
                              std::uint8_t* out, bool xor_into) {
  u32x4 x[16], start[16];
  for (int i = 0; i < 16; ++i) start[i] = u32x4{} + state[i];
  start[12] += u32x4{0, 1, 2, 3};
  std::copy(start, start + 16, x);
  twenty_rounds(x);
  for (int i = 0; i < 16; ++i) x[i] += start[i];

  // Transpose each group of four words from word-major lanes into the four
  // blocks' byte order: block b, words 4g..4g+3 land at out + 64b + 16g.
  for (int g = 0; g < 4; ++g) {
    const u32x4 a = x[4 * g], b = x[4 * g + 1], c = x[4 * g + 2],
                d = x[4 * g + 3];
    const u32x4 ab_lo = __builtin_shufflevector(a, b, 0, 4, 1, 5);
    const u32x4 ab_hi = __builtin_shufflevector(a, b, 2, 6, 3, 7);
    const u32x4 cd_lo = __builtin_shufflevector(c, d, 0, 4, 1, 5);
    const u32x4 cd_hi = __builtin_shufflevector(c, d, 2, 6, 3, 7);
    std::uint8_t* o = out + 16 * g;
    put16(o, __builtin_shufflevector(ab_lo, cd_lo, 0, 1, 4, 5), xor_into);
    put16(o + 64, __builtin_shufflevector(ab_lo, cd_lo, 2, 3, 6, 7), xor_into);
    put16(o + 128, __builtin_shufflevector(ab_hi, cd_hi, 0, 1, 4, 5), xor_into);
    put16(o + 192, __builtin_shufflevector(ab_hi, cd_hi, 2, 3, 6, 7), xor_into);
  }
}

void chacha20_xor_batches_portable(std::uint32_t state[16], std::uint8_t* data,
                                   std::size_t nbatches) {
  for (std::size_t i = 0; i < 2 * nbatches; ++i) {
    chacha20_batch4_portable(state, data + i * kChaCha20Batch4, true);
    state[12] += 4;
  }
}

void chacha20_batch4(const std::uint32_t state[16], std::uint8_t* out,
                     bool xor_into) {
  if (cpu_has_avx2())
    chacha20_batch4_avx2(state, out, xor_into);
  else
    chacha20_batch4_portable(state, out, xor_into);
}

void chacha20_xor_batches(std::uint32_t state[16], std::uint8_t* data,
                          std::size_t nbatches) {
  if (cpu_has_avx2())
    chacha20_xor_batches_avx2(state, data, nbatches);
  else
    chacha20_xor_batches_portable(state, data, nbatches);
}

const char* chacha20_kernel_name() {
  return cpu_has_avx2() ? "avx2" : "portable";
}

ChaCha20::ChaCha20(BytesView key, BytesView nonce,
                   std::uint32_t initial_counter) {
  assert(key.size() == kKeySize);
  assert(nonce.size() == kNonceSize);
  state_[0] = 0x61707865;
  state_[1] = 0x3320646e;
  state_[2] = 0x79622d32;
  state_[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state_[4 + i] = load_le32(key.data() + 4 * i);
  state_[12] = initial_counter;
  for (int i = 0; i < 3; ++i) state_[13 + i] = load_le32(nonce.data() + 4 * i);
}

void ChaCha20::apply(std::uint8_t* data, std::size_t len) {
  if (ks_pos_ < ks_end_) {
    const std::size_t n = std::min(len, ks_end_ - ks_pos_);
    xor_bytes(data, keystream_.data() + ks_pos_, n);
    ks_pos_ += n;
    data += n;
    len -= n;
  }
  if (len >= kChaCha20WideBatch) {
    const std::size_t nbatches = len / kChaCha20WideBatch;
    chacha20_xor_batches(state_.data(), data, nbatches);
    data += nbatches * kChaCha20WideBatch;
    len -= nbatches * kChaCha20WideBatch;
  }
  for (; len >= kBatchSize; data += kBatchSize, len -= kBatchSize) {
    chacha20_batch4(state_.data(), data, true);
    state_[12] += 4;
  }
  if (len == 0) return;
  // The tail takes a whole batch; what it leaves unused carries over.
  chacha20_batch4(state_.data(), keystream_.data(), false);
  state_[12] += 4;
  xor_bytes(data, keystream_.data(), len);
  ks_pos_ = len;
  ks_end_ = kBatchSize;
}

Bytes ChaCha20::transform(BytesView data) {
  Bytes out(data.begin(), data.end());
  apply(out.data(), out.size());
  return out;
}

std::array<std::uint8_t, ChaCha20::kBlockSize> ChaCha20::block(
    BytesView key, BytesView nonce, std::uint32_t counter) {
  ChaCha20 c(key, nonce, counter);
  std::array<std::uint8_t, kBlockSize> out;
  chacha_block(c.state_, out.data());
  return out;
}

}  // namespace enclaves::crypto
