// Poly1305 on AVX2: a four-lane Horner loop.
//
// Only the functions marked target("avx2") are compiled for AVX2, so the
// rest of the library keeps the baseline ISA and poly1305_blocks() calls
// here only after cpu_has_avx2() found it.
//
// For 4k blocks m_1..m_4k the tag polynomial (h + m_1) r^4k + m_2 r^(4k-1)
// + ... + m_4k r splits into four interleaved Horner chains in r^4: lane i
// starts at m_(i+1) (lane 0 also holds h), each step multiplies by r^4 and
// adds the next four blocks, and the last step multiplies the lanes by
// r^4, r^3, r^2, r before they are summed. Each lane keeps its value in
// five 26-bit limbs, one 64-bit lane of five __m256i, so _mm256_mul_epu32
// (32x32->64 bits) forms the 25 partial products. A product term at 2^130
// or above folds back multiplied by 5 (2^130 = 5 mod p).
//
// Lazy-reduction limb bound: the carry pass after each multiply leaves
// every limb below 2^26 + 2^9 (limbs 0, 2, 3 below 2^26; limb 1 takes the
// folded carry, < 2^26 + 2^9; limb 4 takes the last carry, < 2^26 + 2^7).
// A message adds < 2^26 per limb, so the multiplier inputs stay below
// 2^27 + 2^9 < 2^32, as _mm256_mul_epu32 needs. The powers of r are fully
// carried (limbs <= 2^26, times 5 < 2^29), so each 64-bit column sums five
// products below 2^27.01 * 2^28.33 and stays below 2^58; the four lanes'
// final columns sum below 2^60. Nothing overflows 64 bits.
//
// h and r enter and leave in the donna-64 form (44/44/42-bit limbs); the
// blocks past the last multiple of four stay on donna-64. No branch or
// index depends on the key or the data.
#include "crypto/poly1305_kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace enclaves::crypto {

namespace {

using poly1305_detail::kMask42;
using poly1305_detail::kMask44;

constexpr std::uint64_t kMask26 = (std::uint64_t{1} << 26) - 1;

// A value mod p in 44/44/42-bit limbs (h1 may carry over 44 bits) to five
// 26-bit limbs, each <= 2^26.
void limbs26_from_44(const std::uint64_t in[3], std::uint64_t out[5]) {
  std::uint64_t h0 = in[0], h1 = in[1], h2 = in[2];
  std::uint64_t c = h1 >> 44;
  h1 &= kMask44;
  h2 += c;
  c = h2 >> 42;
  h2 &= kMask42;
  h0 += c * 5;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += c;  // h1 <= 2^44 now; the sums below absorb a carry into bit 44
  out[0] = h0 & kMask26;
  out[1] = (h0 >> 26) + ((h1 & 0xff) << 18);
  out[2] = (h1 >> 8) & kMask26;
  out[3] = (h1 >> 34) + ((h2 & 0xffff) << 10);
  out[4] = h2 >> 16;
}

// Five 26-bit columns, each < 2^60, back to the donna-64 form.
void limbs44_from_26(std::uint64_t d[5], std::uint64_t out[3]) {
  std::uint64_t c;
  for (int i = 0; i < 4; ++i) {
    c = d[i] >> 26;
    d[i] &= kMask26;
    d[i + 1] += c;
  }
  c = d[4] >> 26;
  d[4] &= kMask26;
  d[0] += c * 5;
  c = d[0] >> 26;
  d[0] &= kMask26;
  d[1] += c;  // every limb < 2^26 now, d[1] < 2^26 + 2^11
  std::uint64_t s = d[0] + (d[1] << 26);
  out[0] = s & kMask44;
  s = (s >> 44) + (d[2] << 8) + (d[3] << 34);
  out[1] = s & kMask44;
  s = (s >> 44) + (d[4] << 16);
  out[2] = s & kMask42;
  out[0] += (s >> 42) * 5;
  out[1] += out[0] >> 44;
  out[0] &= kMask44;
}

#define POLY1305_AVX2 __attribute__((target("avx2"), always_inline)) inline

// The four 16-byte blocks at p as 26-bit limbs, each with its 2^128 bit.
// Lanes hold blocks 0, 2, 1, 3: unpacking 64-bit words within 128-bit
// halves needs no cross-half permute.
POLY1305_AVX2 void load_blocks(const std::uint8_t* p, __m256i m[5]) {
  const __m256i mask = _mm256_set1_epi64x(kMask26);
  const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  const __m256i b =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32));
  const __m256i lo = _mm256_unpacklo_epi64(a, b);
  const __m256i hi = _mm256_unpackhi_epi64(a, b);
  m[0] = _mm256_and_si256(lo, mask);
  m[1] = _mm256_and_si256(_mm256_srli_epi64(lo, 26), mask);
  m[2] = _mm256_and_si256(
      _mm256_or_si256(_mm256_srli_epi64(lo, 52), _mm256_slli_epi64(hi, 12)),
      mask);
  m[3] = _mm256_and_si256(_mm256_srli_epi64(hi, 14), mask);
  m[4] = _mm256_or_si256(_mm256_srli_epi64(hi, 40),
                         _mm256_set1_epi64x(std::int64_t{1} << 24));
}

POLY1305_AVX2 __m256i mul32(__m256i x, __m256i y) {
  return _mm256_mul_epu32(x, y);
}

POLY1305_AVX2 __m256i sum5(__m256i a, __m256i b, __m256i c, __m256i d,
                           __m256i e) {
  return _mm256_add_epi64(
      _mm256_add_epi64(_mm256_add_epi64(a, b), _mm256_add_epi64(c, d)), e);
}

// d = h * r per lane, unreduced; s[j] = 5 * r[j] (s[0] unused).
POLY1305_AVX2 void mul(__m256i d[5], const __m256i h[5], const __m256i r[5],
                       const __m256i s[5]) {
  d[0] = sum5(mul32(h[0], r[0]), mul32(h[1], s[4]), mul32(h[2], s[3]),
              mul32(h[3], s[2]), mul32(h[4], s[1]));
  d[1] = sum5(mul32(h[0], r[1]), mul32(h[1], r[0]), mul32(h[2], s[4]),
              mul32(h[3], s[3]), mul32(h[4], s[2]));
  d[2] = sum5(mul32(h[0], r[2]), mul32(h[1], r[1]), mul32(h[2], r[0]),
              mul32(h[3], s[4]), mul32(h[4], s[3]));
  d[3] = sum5(mul32(h[0], r[3]), mul32(h[1], r[2]), mul32(h[2], r[1]),
              mul32(h[3], r[0]), mul32(h[4], s[4]));
  d[4] = sum5(mul32(h[0], r[4]), mul32(h[1], r[3]), mul32(h[2], r[2]),
              mul32(h[3], r[1]), mul32(h[4], r[0]));
}

// Moves the bits of `from` above 26 into `to`, times 5 if `times5`.
POLY1305_AVX2 void carry_step(__m256i& from, __m256i& to, bool times5) {
  __m256i c = _mm256_srli_epi64(from, 26);
  if (times5) c = _mm256_add_epi64(c, _mm256_slli_epi64(c, 2));
  to = _mm256_add_epi64(to, c);
  from = _mm256_and_si256(from, _mm256_set1_epi64x(kMask26));
}

// The lazy carry pass: two interleaved chains, 0->1->2->3 and 3->4->0->1
// (limb 4 folds into limb 0 times 5), leaving the limb bound stated at the
// top of this file.
POLY1305_AVX2 void carry(__m256i d[5]) {
  carry_step(d[0], d[1], false);
  carry_step(d[3], d[4], false);
  carry_step(d[1], d[2], false);
  carry_step(d[4], d[0], true);
  carry_step(d[2], d[3], false);
  carry_step(d[0], d[1], false);
  carry_step(d[3], d[4], false);
}

#undef POLY1305_AVX2

}  // namespace

__attribute__((target("avx2"))) void poly1305_blocks_avx2(
    std::uint64_t h[3], const std::uint64_t r[3], const std::uint8_t* data,
    std::size_t nblocks) {
  const std::size_t groups = nblocks / 4;
  if (groups > 0) {
    // r, r^2, r^3, r^4 in 26-bit limbs.
    const poly1305_detail::MulKey key(r);
    std::uint64_t pow44[4][3] = {{r[0], r[1], r[2]}};
    for (int k = 1; k < 4; ++k) {
      std::uint64_t h0 = pow44[k - 1][0], h1 = pow44[k - 1][1],
                    h2 = pow44[k - 1][2];
      poly1305_detail::mul_r(h0, h1, h2, key);
      pow44[k][0] = h0;
      pow44[k][1] = h1;
      pow44[k][2] = h2;
    }
    std::uint64_t pow[4][5], h26[5];
    for (int k = 0; k < 4; ++k) limbs26_from_44(pow44[k], pow[k]);
    limbs26_from_44(h, h26);

    // Each step's multiplier is r^4 in every lane; the last step's is
    // r^4, r^2, r^3, r for the lanes' blocks 0, 2, 1, 3.
    __m256i r4[5], s4[5], rlast[5], slast[5], acc[5], d[5];
    for (int j = 0; j < 5; ++j) {
      r4[j] = _mm256_set1_epi64x(static_cast<std::int64_t>(pow[3][j]));
      rlast[j] = _mm256_set_epi64x(static_cast<std::int64_t>(pow[0][j]),
                                   static_cast<std::int64_t>(pow[2][j]),
                                   static_cast<std::int64_t>(pow[1][j]),
                                   static_cast<std::int64_t>(pow[3][j]));
      s4[j] = _mm256_add_epi64(r4[j], _mm256_slli_epi64(r4[j], 2));
      slast[j] = _mm256_add_epi64(rlast[j], _mm256_slli_epi64(rlast[j], 2));
    }

    load_blocks(data, acc);
    for (int j = 0; j < 5; ++j)
      acc[j] = _mm256_add_epi64(
          acc[j],
          _mm256_set_epi64x(0, 0, 0, static_cast<std::int64_t>(h26[j])));
    data += 64;
    for (std::size_t g = 1; g < groups; ++g, data += 64) {
      mul(d, acc, r4, s4);
      carry(d);
      load_blocks(data, acc);
      for (int j = 0; j < 5; ++j) acc[j] = _mm256_add_epi64(acc[j], d[j]);
    }
    mul(d, acc, rlast, slast);

    std::uint64_t sum[5];
    for (int j = 0; j < 5; ++j) {
      alignas(32) std::uint64_t lanes[4];
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), d[j]);
      sum[j] = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    }
    limbs44_from_26(sum, h);
  }
  poly1305_blocks_portable(h, r, data, nblocks % 4);
}

}  // namespace enclaves::crypto

#else  // no AVX2 on this architecture; cpu_has_avx2() says so

namespace enclaves::crypto {

void poly1305_blocks_avx2(std::uint64_t h[3], const std::uint64_t r[3],
                          const std::uint8_t* data, std::size_t nblocks) {
  poly1305_blocks_portable(h, r, data, nblocks);
}

}  // namespace enclaves::crypto

#endif
