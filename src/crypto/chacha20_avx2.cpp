// ChaCha20 keystream on AVX2: eight blocks per batch.
//
// Only this function is compiled for AVX2 (target attribute), so the rest
// of the library keeps the baseline ISA and chacha20_xor_batches() calls
// here only after cpu_has_avx2() found it. Each of the 16 state words is an
// 8-lane vector whose lane i belongs to block counter+i; the rounds are the
// shared twenty_rounds. The result is transposed in registers: a 4x4
// transpose of 32-bit words inside each 128-bit half (unpacklo/hi), then
// the 16-byte halves are regrouped so each 32-byte store covers half of one
// block. No branch or index depends on the key, nonce or data.
#include "crypto/chacha20_kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <cstring>

namespace enclaves::crypto {

namespace {

using u32x8 = std::uint32_t __attribute__((vector_size(32)));

}  // namespace

__attribute__((target("avx2"))) void chacha20_xor_batches_avx2(
    std::uint32_t state[16], std::uint8_t* data, std::size_t nbatches) {
  u32x8 start[16];
  for (int i = 0; i < 16; ++i) start[i] = u32x8{} + state[i];
  start[12] += u32x8{0, 1, 2, 3, 4, 5, 6, 7};

  for (; nbatches > 0; --nbatches, data += kChaCha20WideBatch) {
    u32x8 x[16];
    for (int i = 0; i < 16; ++i) x[i] = start[i];
    chacha20_detail::twenty_rounds(x);
    for (int i = 0; i < 16; ++i) x[i] += start[i];
    start[12] += 8;

    // Per 128-bit half, transpose words 4g..4g+3 of four blocks: t[g][k]
    // holds those words of block k in its low half, of block k+4 in its
    // high half.
    u32x8 t[4][4];
    for (int g = 0; g < 4; ++g) {
      const u32x8 a = x[4 * g], b = x[4 * g + 1], c = x[4 * g + 2],
                  d = x[4 * g + 3];
      const u32x8 ab_lo =
          __builtin_shufflevector(a, b, 0, 8, 1, 9, 4, 12, 5, 13);
      const u32x8 ab_hi =
          __builtin_shufflevector(a, b, 2, 10, 3, 11, 6, 14, 7, 15);
      const u32x8 cd_lo =
          __builtin_shufflevector(c, d, 0, 8, 1, 9, 4, 12, 5, 13);
      const u32x8 cd_hi =
          __builtin_shufflevector(c, d, 2, 10, 3, 11, 6, 14, 7, 15);
      t[g][0] =
          __builtin_shufflevector(ab_lo, cd_lo, 0, 1, 8, 9, 4, 5, 12, 13);
      t[g][1] =
          __builtin_shufflevector(ab_lo, cd_lo, 2, 3, 10, 11, 6, 7, 14, 15);
      t[g][2] =
          __builtin_shufflevector(ab_hi, cd_hi, 0, 1, 8, 9, 4, 5, 12, 13);
      t[g][3] =
          __builtin_shufflevector(ab_hi, cd_hi, 2, 3, 10, 11, 6, 7, 14, 15);
    }

    // Block k's bytes [32h, 32h + 32) are the low halves of t[2h][k] and
    // t[2h+1][k]; block k+4's are their high halves.
    for (int k = 0; k < 4; ++k) {
      for (int h = 0; h < 2; ++h) {
        const u32x8 lo = t[2 * h][k], hi = t[2 * h + 1][k];
        const u32x8 ks[2] = {
            __builtin_shufflevector(lo, hi, 0, 1, 2, 3, 8, 9, 10, 11),
            __builtin_shufflevector(lo, hi, 4, 5, 6, 7, 12, 13, 14, 15)};
        for (int half = 0; half < 2; ++half) {
          std::uint8_t* out = data + 64 * (k + 4 * half) + 32 * h;
          u32x8 v;
          std::memcpy(&v, out, sizeof v);
          v ^= ks[half];
          std::memcpy(out, &v, sizeof v);
        }
      }
    }
  }
  state[12] = start[12][0];
}

}  // namespace enclaves::crypto

#else  // no AVX2 on this architecture; cpu_has_avx2() says so

namespace enclaves::crypto {

void chacha20_xor_batches_avx2(std::uint32_t state[16], std::uint8_t* data,
                               std::size_t nbatches) {
  chacha20_xor_batches_portable(state, data, nbatches);
}

}  // namespace enclaves::crypto

#endif
