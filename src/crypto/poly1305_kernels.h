// Internal: the Poly1305 block kernels behind Poly1305 (not a public API).
//
// Each kernel folds `nblocks` full 16-byte blocks, each with its 2^128 bit,
// into the accumulator h under the clamped key r: h = (h + m) * r mod
// 2^130 - 5 per block. h and r are in the donna-64 form, three limbs of 44,
// 44 and 42 bits (h1 may exceed 44 bits by a small carry between calls).
// The portable kernel (donna-64) is the oracle; the AVX2 kernel must land
// on the same h (tests/crypto_openssl_cross_test.cpp).
// poly1305_blocks() is the single dispatch point; it picks by
// cpu_has_avx2() and the length.
#pragma once

#include <cstddef>
#include <cstdint>

namespace enclaves::crypto {

namespace poly1305_detail {

using u128 = unsigned __int128;

inline constexpr std::uint64_t kMask44 = (std::uint64_t{1} << 44) - 1;
inline constexpr std::uint64_t kMask42 = (std::uint64_t{1} << 42) - 1;

/// The multiplier r with its fold factors. A product term that lands at
/// 2^132 or above folds back down multiplied by 4 * 5 = 20 (2^130 = 5 mod
/// p); s1 and s2 carry that factor.
struct MulKey {
  std::uint64_t r0, r1, r2, s1, s2;
  explicit MulKey(const std::uint64_t r[3])
      : r0(r[0]), r1(r[1]), r2(r[2]), s1(r[1] * 20), s2(r[2] * 20) {}
};

/// h = h * r mod 2^130 - 5, partially reduced: h0 < 2^44, h2 < 2^42 and
/// h1 < 2^44 plus a carry. The limbs are separate scalars so a caller's
/// loop keeps them in registers.
[[gnu::always_inline]] inline void mul_r(std::uint64_t& h0, std::uint64_t& h1,
                                         std::uint64_t& h2, const MulKey& k) {
  const u128 d0 = u128{h0} * k.r0 + u128{h1} * k.s2 + u128{h2} * k.s1;
  u128 d1 = u128{h0} * k.r1 + u128{h1} * k.r0 + u128{h2} * k.s2;
  u128 d2 = u128{h0} * k.r2 + u128{h1} * k.r1 + u128{h2} * k.r0;

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

/// h = h mod 2^130 - 5, fully reduced: the one representative below p.
inline void reduce_full(std::uint64_t h[3]) {
  std::uint64_t h0 = h[0], h1 = h[1], h2 = h[2];

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
  h[0] = (h0 & mask) | g0;
  h[1] = (h1 & mask) | g1;
  h[2] = (h2 & mask) | g2;
}

}  // namespace poly1305_detail

/// Below this many bytes of full blocks the AVX2 kernel's setup (three
/// powers of r, limb conversions) costs more than its four lanes save.
inline constexpr std::size_t kPoly1305Avx2MinBytes = 1024;

/// Donna-64 in plain C++; runs anywhere. With `final_partial` the blocks
/// get no 2^128 bit (a padded last block carries its own 1 byte instead).
void poly1305_blocks_portable(std::uint64_t h[3], const std::uint64_t r[3],
                              const std::uint8_t* data, std::size_t nblocks,
                              bool final_partial = false);

/// Four-lane Horner loop on AVX2 for the largest multiple of four blocks,
/// donna-64 for the rest. Precondition: cpu_has_avx2().
void poly1305_blocks_avx2(std::uint64_t h[3], const std::uint64_t r[3],
                          const std::uint8_t* data, std::size_t nblocks);

/// The kernel this CPU runs for `nblocks` full blocks: AVX2 when the probe
/// found it and the blocks reach kPoly1305Avx2MinBytes, else portable.
void poly1305_blocks(std::uint64_t h[3], const std::uint64_t r[3],
                     const std::uint8_t* data, std::size_t nblocks);

/// "avx2" or "portable": which kernel poly1305_blocks() runs here for
/// long inputs.
const char* poly1305_kernel_name();

}  // namespace enclaves::crypto
