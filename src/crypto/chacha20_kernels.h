// Internal: the ChaCha20 round function and the keystream kernels behind
// ChaCha20::apply (not a public API).
//
// One round schedule serves every width: W is std::uint32_t (one block),
// u32x4 (four blocks) or u32x8 (eight blocks), lane i of word w being word
// w of block counter+i. There are two kernel families, each with a portable
// oracle, one AVX2 variant that must agree with it bit for bit (tests/
// crypto_openssl_cross_test.cpp) and one dispatch point that picks by
// cpu_has_avx2():
//   - the four-block batch, chacha20_batch4(): blocks state[12] ..
//     state[12]+3 (256 bytes) stored or XORed at `out`; the state is not
//     advanced. The AVX2 variant keeps the rows of the state in 256-bit
//     vectors, two blocks per vector and two independent chains of two
//     blocks, and turns columns into diagonals by lane shuffles.
//   - the wide kernel, chacha20_xor_batches(): `nbatches` 512-byte batches
//     (eight blocks each) XORed into `data`, state[12] advanced by 8 per
//     batch. The portable one runs two four-block batches per 512 bytes.
// Block counters wrap modulo 2^32 inside word 12, as in RFC 8439.
#pragma once

#include <cstddef>
#include <cstdint>

namespace enclaves::crypto {

namespace chacha20_detail {

// Forced inline so the 16 state words stay in registers, and so that the
// AVX2 kernels, the only callers with W = u32x8, compile them for AVX2. No
// vector passes by value: a u32x8 argument would change the baseline ABI.
// On a 256-bit vector a rotation by 16 or 8 moves whole bytes within each
// 32-bit lane, one byte shuffle (vpshufb) instead of two shifts and an or.
template <int N, class W>
[[gnu::always_inline]] inline void rotl(W& x) {
  if constexpr (sizeof(W) == 32 && N == 16) {
    using u8x32 = std::uint8_t __attribute__((vector_size(32)));
    const u8x32 b = (u8x32)x;  // a same-size vector cast is a bitcast
    x = (W)(__builtin_shufflevector(
        b, b, 2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, 18, 19,
        16, 17, 22, 23, 20, 21, 26, 27, 24, 25, 30, 31, 28, 29));
  } else if constexpr (sizeof(W) == 32 && N == 8) {
    using u8x32 = std::uint8_t __attribute__((vector_size(32)));
    const u8x32 b = (u8x32)x;  // a same-size vector cast is a bitcast
    x = (W)(__builtin_shufflevector(
        b, b, 3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, 19, 16,
        17, 18, 23, 20, 21, 22, 27, 24, 25, 26, 31, 28, 29, 30));
  } else {
    x = (x << N) | (x >> (32 - N));
  }
}

template <class W>
[[gnu::always_inline]] inline void quarter_round(W& a, W& b, W& c, W& d) {
  a += b; d ^= a; rotl<16>(d);
  c += d; b ^= c; rotl<12>(b);
  a += b; d ^= a; rotl<8>(d);
  c += d; b ^= c; rotl<7>(b);
}

template <class W>
[[gnu::always_inline]] inline void twenty_rounds(W (&x)[16]) {
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
}

}  // namespace chacha20_detail

inline constexpr std::size_t kChaCha20Batch4 = 256;
inline constexpr std::size_t kChaCha20WideBatch = 512;

/// Four blocks in 4-lane vectors (SSE2 on x86-64): writes them to
/// out[0, 256), or XORs them into it if `xor_into`.
void chacha20_batch4_portable(const std::uint32_t state[16],
                              std::uint8_t* out, bool xor_into);

/// The same four blocks in row layout on AVX2. Precondition:
/// cpu_has_avx2().
void chacha20_batch4_avx2(const std::uint32_t state[16], std::uint8_t* out,
                          bool xor_into);

/// The four-block batch this CPU runs: AVX2 when the probe found it, else
/// portable.
void chacha20_batch4(const std::uint32_t state[16], std::uint8_t* out,
                     bool xor_into);

/// Two four-block batches per 512 bytes in plain C++ (SSE2 on x86-64).
void chacha20_xor_batches_portable(std::uint32_t state[16], std::uint8_t* data,
                                   std::size_t nbatches);

/// One eight-block batch per 512 bytes on AVX2. Precondition:
/// cpu_has_avx2().
void chacha20_xor_batches_avx2(std::uint32_t state[16], std::uint8_t* data,
                               std::size_t nbatches);

/// The kernel this CPU runs: AVX2 when the probe found it, else portable.
void chacha20_xor_batches(std::uint32_t state[16], std::uint8_t* data,
                          std::size_t nbatches);

/// "avx2" or "portable": which kernels chacha20_batch4() and
/// chacha20_xor_batches() run here.
const char* chacha20_kernel_name();

}  // namespace enclaves::crypto
