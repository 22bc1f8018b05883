// ChaCha20 keystream on AVX2: the four-block batch and the eight-block
// wide kernel.
//
// Only these functions are compiled for AVX2 (target attribute), so the
// rest of the library keeps the baseline ISA and chacha20_batch4() /
// chacha20_xor_batches() call here only after cpu_has_avx2() found it. No
// branch or index depends on the key, nonce or data.
#include "crypto/chacha20_kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <cstring>

namespace enclaves::crypto {

namespace {

using u32x4 = std::uint32_t __attribute__((vector_size(16)));
using u32x8 = std::uint32_t __attribute__((vector_size(32)));

// Rotates the four words of each 128-bit half left by N lanes: lane i takes
// lane (i + N) % 4 of its own half.
template <int N>
[[gnu::always_inline]] inline void rotate_lanes(u32x8& v) {
  v = __builtin_shufflevector(v, v, N % 4, (N + 1) % 4, (N + 2) % 4,
                              (N + 3) % 4, 4 + N % 4, 4 + (N + 1) % 4,
                              4 + (N + 2) % 4, 4 + (N + 3) % 4);
}

// One double round on one chain: the column round, then the diagonal
// round with rows b, c and d rotated by 1, 2 and 3 lanes so that each
// diagonal lines up in a column, and rotated back.
[[gnu::always_inline]] inline void double_round(u32x8& a, u32x8& b, u32x8& c,
                                                u32x8& d) {
  chacha20_detail::quarter_round(a, b, c, d);
  rotate_lanes<1>(b);
  rotate_lanes<2>(c);
  rotate_lanes<3>(d);
  chacha20_detail::quarter_round(a, b, c, d);
  rotate_lanes<3>(b);
  rotate_lanes<2>(c);
  rotate_lanes<1>(d);
}

// Stores the 32 bytes `ks` at `out`, or XORs them into `out` if `xor_into`.
[[gnu::always_inline]] inline void put32(std::uint8_t* out, const u32x8& ks,
                                         bool xor_into) {
  u32x8 v = ks;
  if (xor_into) {
    u32x8 d;
    std::memcpy(&d, out, sizeof d);
    v ^= d;
  }
  std::memcpy(out, &v, sizeof v);
}

}  // namespace

// Row layout: vector r holds row r of the state (words 4r..4r+3) in both
// 128-bit halves, the low half for one block and the high half for the
// next. Chain j (two sets of four rows) computes blocks counter+2j and
// counter+2j+1; the two chains have no dependency on each other, so their
// instructions interleave. The quarter round runs on whole rows, and the
// lane rotations between the column and the diagonal round are in-lane
// shuffles (vpshufd). A block is then rows 0-3 of one half, so the output
// needs only regrouping of 16-byte halves, no word transpose.
__attribute__((target("avx2"))) void chacha20_batch4_avx2(
    const std::uint32_t state[16], std::uint8_t* out, bool xor_into) {
  u32x8 row[4];
  for (int r = 0; r < 4; ++r) {
    u32x4 v;
    std::memcpy(&v, state + 4 * r, sizeof v);
    row[r] = __builtin_shufflevector(v, v, 0, 1, 2, 3, 0, 1, 2, 3);
  }
  // Word 12, the block counter, is lane 0 of row 3; it wraps modulo 2^32
  // inside its own lane.
  const u32x8 d_start[2] = {row[3] + u32x8{0, 0, 0, 0, 1, 0, 0, 0},
                            row[3] + u32x8{2, 0, 0, 0, 3, 0, 0, 0}};

  u32x8 a0 = row[0], b0 = row[1], c0 = row[2], d0 = d_start[0];
  u32x8 a1 = row[0], b1 = row[1], c1 = row[2], d1 = d_start[1];
  for (int i = 0; i < 10; ++i) {
    double_round(a0, b0, c0, d0);
    double_round(a1, b1, c1, d1);
  }
  const u32x8 chain[2][4] = {
      {a0 + row[0], b0 + row[1], c0 + row[2], d0 + d_start[0]},
      {a1 + row[0], b1 + row[1], c1 + row[2], d1 + d_start[1]}};

  // Block 2j + h is the half h of rows 0-3 of chain j: its bytes [0, 32)
  // are rows 0 and 1, its bytes [32, 64) rows 2 and 3.
  for (int j = 0; j < 2; ++j) {
    const u32x8 a = chain[j][0], b = chain[j][1], c = chain[j][2],
                d = chain[j][3];
    std::uint8_t* o = out + 128 * j;
    put32(o, __builtin_shufflevector(a, b, 0, 1, 2, 3, 8, 9, 10, 11),
          xor_into);
    put32(o + 32, __builtin_shufflevector(c, d, 0, 1, 2, 3, 8, 9, 10, 11),
          xor_into);
    put32(o + 64, __builtin_shufflevector(a, b, 4, 5, 6, 7, 12, 13, 14, 15),
          xor_into);
    put32(o + 96, __builtin_shufflevector(c, d, 4, 5, 6, 7, 12, 13, 14, 15),
          xor_into);
  }
}

// Eight blocks per batch: each of the 16 state words is an 8-lane vector
// whose lane i belongs to block counter+i; the rounds are the shared
// twenty_rounds. The result is transposed in registers: a 4x4 transpose of
// 32-bit words inside each 128-bit half (unpacklo/hi), then the 16-byte
// halves are regrouped so each 32-byte store covers half of one block.
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

void chacha20_batch4_avx2(const std::uint32_t state[16], std::uint8_t* out,
                          bool xor_into) {
  chacha20_batch4_portable(state, out, xor_into);
}

void chacha20_xor_batches_avx2(std::uint32_t state[16], std::uint8_t* data,
                               std::size_t nbatches) {
  chacha20_xor_batches_portable(state, data, nbatches);
}

}  // namespace enclaves::crypto

#endif
