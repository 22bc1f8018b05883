#include "crypto/poly1305.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

// The "donna-64" schedule: r and the accumulator h are held in three limbs
// of 44, 44 and 42 bits, and multiplied modulo 2^130 - 5 with 64x64->128-bit
// products (unsigned __int128). Because 2^130 = 5 (mod p), a product term
// that lands at 2^132 or above folds back down multiplied by 4 * 5 = 20;
// s1 and s2 carry that factor.

namespace enclaves::crypto {

static_assert(std::endian::native == std::endian::little,
              "Poly1305 loads message words in host byte order");

namespace {

using u128 = unsigned __int128;

constexpr std::uint64_t kMask44 = (std::uint64_t{1} << 44) - 1;
constexpr std::uint64_t kMask42 = (std::uint64_t{1} << 42) - 1;

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store_le64(std::uint8_t* p, std::uint64_t v) {
  std::memcpy(p, &v, sizeof v);
}

}  // namespace

Poly1305::Poly1305(BytesView key) {
  assert(key.size() == kKeySize);
  const std::uint64_t t0 = load_le64(key.data());
  const std::uint64_t t1 = load_le64(key.data() + 8);
  // Clamp r (RFC 8439 §2.5.1) while splitting it into 44/44/42-bit limbs.
  r_[0] = t0 & 0xffc0fffffff;
  r_[1] = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffff;
  r_[2] = (t1 >> 24) & 0x00ffffffc0f;
  h_[0] = h_[1] = h_[2] = 0;
  pad_[0] = load_le64(key.data() + 16);
  pad_[1] = load_le64(key.data() + 24);
}

void Poly1305::blocks(const std::uint8_t* data, std::size_t len,
                      bool final_partial) {
  // 2^128 in limb 2 (bit 128 - 88 = 40); a padded final block has its 1
  // byte in the data instead.
  const std::uint64_t hibit = final_partial ? 0 : (std::uint64_t{1} << 40);
  const std::uint64_t r0 = r_[0], r1 = r_[1], r2 = r_[2];
  const std::uint64_t s1 = r1 * 20, s2 = r2 * 20;
  std::uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];

  for (; len >= 16; data += 16, len -= 16) {
    const std::uint64_t t0 = load_le64(data);
    const std::uint64_t t1 = load_le64(data + 8);
    h0 += t0 & kMask44;
    h1 += ((t0 >> 44) | (t1 << 20)) & kMask44;
    h2 += ((t1 >> 24) & kMask42) | hibit;

    const u128 d0 = u128{h0} * r0 + u128{h1} * s2 + u128{h2} * s1;
    u128 d1 = u128{h0} * r1 + u128{h1} * r0 + u128{h2} * s2;
    u128 d2 = u128{h0} * r2 + u128{h1} * r1 + u128{h2} * r0;

    std::uint64_t c = static_cast<std::uint64_t>(d0 >> 44);
    h0 = static_cast<std::uint64_t>(d0) & kMask44;
    d1 += c;
    c = static_cast<std::uint64_t>(d1 >> 44);
    h1 = static_cast<std::uint64_t>(d1) & kMask44;
    d2 += c;
    c = static_cast<std::uint64_t>(d2 >> 42);
    h2 = static_cast<std::uint64_t>(d2) & kMask42;
    h0 += c * 5;
    c = h0 >> 44;
    h0 &= kMask44;
    h1 += c;
  }

  h_[0] = h0;
  h_[1] = h1;
  h_[2] = h2;
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
      blocks(buf_.data(), 16, false);
      buf_len_ = 0;
    }
  }
  std::size_t full = len & ~std::size_t{15};
  if (full > 0) blocks(p, full, false);
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
    blocks(buf_.data(), 16, true);
    buf_len_ = 0;
  }

  std::uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];

  // Full carry, twice: the carry out of h2 folds back into h0 (times 5)
  // and can ripple once more.
  std::uint64_t c;
  for (int pass = 0; pass < 2; ++pass) {
    c = h1 >> 44; h1 &= kMask44;
    h2 += c; c = h2 >> 42; h2 &= kMask42;
    h0 += c * 5; c = h0 >> 44; h0 &= kMask44;
    h1 += c;
  }

  // Compute h + -p (i.e., h - (2^130 - 5)) and select it if h >= p.
  std::uint64_t g0 = h0 + 5; c = g0 >> 44; g0 &= kMask44;
  std::uint64_t g1 = h1 + c; c = g1 >> 44; g1 &= kMask44;
  std::uint64_t g2 = h2 + c - (std::uint64_t{1} << 42);

  std::uint64_t mask = (g2 >> 63) - 1;  // all-ones if h >= p
  g0 &= mask; g1 &= mask; g2 &= mask;
  mask = ~mask;
  h0 = (h0 & mask) | g0;
  h1 = (h1 & mask) | g1;
  h2 = (h2 & mask) | g2;

  // Add pad (mod 2^128), limb by limb.
  const std::uint64_t t0 = pad_[0], t1 = pad_[1];
  h0 += t0 & kMask44; c = h0 >> 44; h0 &= kMask44;
  h1 += (((t0 >> 44) | (t1 << 20)) & kMask44) + c; c = h1 >> 44; h1 &= kMask44;
  h2 += ((t1 >> 24) & kMask42) + c;

  Tag tag;
  store_le64(tag.data(), h0 | (h1 << 44));
  store_le64(tag.data() + 8, (h1 >> 20) | (h2 << 24));
  return tag;
}

Poly1305::Tag Poly1305::mac(BytesView key, BytesView data) {
  Poly1305 p(key);
  p.update(data);
  return p.finish();
}

}  // namespace enclaves::crypto
