#include "crypto/poly1305.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "crypto/cpu.h"
#include "crypto/poly1305_kernels.h"

// The "donna-64" schedule: r and the accumulator h are held in three limbs
// of 44, 44 and 42 bits, and multiplied modulo 2^130 - 5 with 64x64->128-bit
// products (unsigned __int128); poly1305_detail::mul_r is the multiply.

namespace enclaves::crypto {

static_assert(std::endian::native == std::endian::little,
              "Poly1305 loads message words in host byte order");

namespace {

using poly1305_detail::kMask42;
using poly1305_detail::kMask44;

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store_le64(std::uint8_t* p, std::uint64_t v) {
  std::memcpy(p, &v, sizeof v);
}

// 2^128 in limb 2 (bit 128 - 88 = 40): the bit every full block carries.
constexpr std::uint64_t kHibit = std::uint64_t{1} << 40;

// Clamps r (RFC 8439 §2.5.1) from key bytes 0..15 while splitting it into
// 44/44/42-bit limbs.
void clamp_r(const std::uint8_t* key, std::uint64_t r[3]) {
  const std::uint64_t t0 = load_le64(key);
  const std::uint64_t t1 = load_le64(key + 8);
  r[0] = t0 & 0xffc0fffffff;
  r[1] = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffff;
  r[2] = (t1 >> 24) & 0x00ffffffc0f;
}

// Folds `nblocks` blocks into h0..h2 on donna-64, each with `hibit` added
// to limb 2. The limbs are the caller's locals, so they stay in registers.
[[gnu::always_inline]] inline void fold_blocks(
    std::uint64_t& h0, std::uint64_t& h1, std::uint64_t& h2,
    const poly1305_detail::MulKey& key, const std::uint8_t* data,
    std::size_t nblocks, std::uint64_t hibit) {
  for (; nblocks > 0; --nblocks, data += 16) {
    const std::uint64_t t0 = load_le64(data);
    const std::uint64_t t1 = load_le64(data + 8);
    h0 += t0 & kMask44;
    h1 += ((t0 >> 44) | (t1 << 20)) & kMask44;
    h2 += ((t1 >> 24) & kMask42) | hibit;
    poly1305_detail::mul_r(h0, h1, h2, key);
  }
}

// The tag: h fully reduced, plus the pad s = key bytes 16..31 (mod 2^128).
Poly1305::Tag finish_tag(std::uint64_t h[3], std::uint64_t s0,
                         std::uint64_t s1) {
  poly1305_detail::reduce_full(h);
  std::uint64_t h0 = h[0], h1 = h[1], h2 = h[2], c;

  // Add pad (mod 2^128), limb by limb.
  h0 += s0 & kMask44; c = h0 >> 44; h0 &= kMask44;
  h1 += (((s0 >> 44) | (s1 << 20)) & kMask44) + c; c = h1 >> 44; h1 &= kMask44;
  h2 += ((s1 >> 24) & kMask42) + c;

  Poly1305::Tag tag;
  store_le64(tag.data(), h0 | (h1 << 44));
  store_le64(tag.data() + 8, (h1 >> 20) | (h2 << 24));
  return tag;
}

// Folds `len` bytes as the AEAD lays them out: whole blocks, then the last
// partial block zero-padded to 16 bytes (pad16) and counted as a full
// block. A run of whole blocks that reaches kPoly1305Avx2MinBytes goes
// through poly1305_blocks(), which may take the AVX2 loop.
[[gnu::always_inline]] inline void fold_padded(
    std::uint64_t& h0, std::uint64_t& h1, std::uint64_t& h2,
    const poly1305_detail::MulKey& key, const std::uint64_t r[3],
    const std::uint8_t* data, std::size_t len) {
  const std::size_t nblocks = len / 16;
  if (nblocks * 16 >= kPoly1305Avx2MinBytes) {
    std::uint64_t h[3] = {h0, h1, h2};
    poly1305_blocks(h, r, data, nblocks);
    h0 = h[0];
    h1 = h[1];
    h2 = h[2];
  } else {
    fold_blocks(h0, h1, h2, key, data, nblocks, kHibit);
  }
  if (const std::size_t rest = len % 16; rest > 0) {
    std::uint8_t last[16] = {};
    std::memcpy(last, data + 16 * nblocks, rest);
    fold_blocks(h0, h1, h2, key, last, 1, kHibit);
  }
}

}  // namespace

Poly1305::Poly1305(BytesView key) {
  assert(key.size() == kKeySize);
  clamp_r(key.data(), r_);
  h_[0] = h_[1] = h_[2] = 0;
  pad_[0] = load_le64(key.data() + 16);
  pad_[1] = load_le64(key.data() + 24);
}

void poly1305_blocks_portable(std::uint64_t h[3], const std::uint64_t r[3],
                              const std::uint8_t* data, std::size_t nblocks,
                              bool final_partial) {
  // A padded final block has its 1 byte in the data instead of the hibit.
  // Local copies: h and r stay in registers (data may alias them).
  const poly1305_detail::MulKey key(r);
  std::uint64_t h0 = h[0], h1 = h[1], h2 = h[2];
  fold_blocks(h0, h1, h2, key, data, nblocks, final_partial ? 0 : kHibit);
  h[0] = h0;
  h[1] = h1;
  h[2] = h2;
}

void poly1305_blocks(std::uint64_t h[3], const std::uint64_t r[3],
                     const std::uint8_t* data, std::size_t nblocks) {
  if (nblocks * 16 >= kPoly1305Avx2MinBytes && cpu_has_avx2())
    poly1305_blocks_avx2(h, r, data, nblocks);
  else
    poly1305_blocks_portable(h, r, data, nblocks);
}

const char* poly1305_kernel_name() {
  return cpu_has_avx2() ? "avx2" : "portable";
}

void Poly1305::update(BytesView data) {
  if (data.empty()) return;  // an empty view's data() may be null
  const std::uint8_t* p = data.data();
  std::size_t len = data.size();

  if (buf_len_ > 0) {
    std::size_t take = std::min(std::size_t{16} - buf_len_, len);
    std::memcpy(buf_.data() + buf_len_, p, take);
    buf_len_ += take;
    p += take;
    len -= take;
    if (buf_len_ == 16) {
      poly1305_blocks(h_, r_, buf_.data(), 1);
      buf_len_ = 0;
    }
  }
  std::size_t full = len & ~std::size_t{15};
  if (full > 0) poly1305_blocks(h_, r_, p, full / 16);
  p += full;
  len -= full;
  if (len > 0) {
    std::memcpy(buf_.data(), p, len);
    buf_len_ = len;
  }
}

Poly1305::Tag Poly1305::finish() {
  if (buf_len_ > 0) {
    buf_[buf_len_] = 1;
    for (std::size_t i = buf_len_ + 1; i < 16; ++i) buf_[i] = 0;
    poly1305_blocks_portable(h_, r_, buf_.data(), 1, true);
    buf_len_ = 0;
  }
  return finish_tag(h_, pad_[0], pad_[1]);
}

Poly1305::Tag Poly1305::mac(BytesView key, BytesView data) {
  Poly1305 p(key);
  p.update(data);
  return p.finish();
}

Poly1305::Tag poly1305_aead_tag(BytesView key, BytesView aad,
                                BytesView ciphertext) {
  assert(key.size() == Poly1305::kKeySize);
  std::uint64_t r[3];
  clamp_r(key.data(), r);
  const poly1305_detail::MulKey mul_key(r);
  std::uint64_t h0 = 0, h1 = 0, h2 = 0;
  fold_padded(h0, h1, h2, mul_key, r, aad.data(), aad.size());
  fold_padded(h0, h1, h2, mul_key, r, ciphertext.data(), ciphertext.size());
  std::uint8_t lengths[16];
  store_le64(lengths, aad.size());
  store_le64(lengths + 8, ciphertext.size());
  fold_blocks(h0, h1, h2, mul_key, lengths, 1, kHibit);
  std::uint64_t h[3] = {h0, h1, h2};
  return finish_tag(h, load_le64(key.data() + 16), load_le64(key.data() + 24));
}

}  // namespace enclaves::crypto
