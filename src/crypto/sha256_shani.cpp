// SHA-256 block function on the x86 SHA extensions (SHA-NI).
//
// Only this function is compiled for the extensions (target attribute), so
// the rest of the library keeps the baseline ISA and sha256_blocks() calls
// here only after cpu_has_sha_ni() found them. The state is kept in the
// ABEF/CDGH register layout that sha256rnds2 expects; each loop step does
// four rounds, and the message schedule runs three steps ahead with
// sha256msg1/sha256msg2. No branch or index depends on the data.
#include "crypto/sha256_kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace enclaves::crypto {

__attribute__((target("sha,sse4.1"))) void sha256_blocks_shani(
    std::uint32_t state[8], const std::uint8_t* data, std::size_t nblocks) {
  // Byte-swaps each 32-bit word: the message is big-endian.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; nblocks > 0; --nblocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];  // message words 4i..4i+3, rotating

#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      if (i < 4)
        w[i] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
            bswap);
      __m128i msg = _mm_add_epi32(
          w[i % 4],
          _mm_load_si128(reinterpret_cast<const __m128i*>(kSha256K + 4 * i)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      // Finish words 4(i+1).. from their msg1 part and the last two groups.
      if (i >= 3 && i <= 14) {
        __m128i& next = w[(i + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(w[i % 4], w[(i + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, w[i % 4]);
      }
      msg = _mm_shuffle_epi32(msg, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
      // Start words 4(i+3).. from the group before this one.
      if (i >= 1 && i <= 12)
        w[(i + 3) % 4] = _mm_sha256msg1_epu32(w[(i + 3) % 4], w[i % 4]);
    }

    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

}  // namespace enclaves::crypto

#else  // no SHA extensions on this architecture; cpu_has_sha_ni() says so

namespace enclaves::crypto {

void sha256_blocks_shani(std::uint32_t state[8], const std::uint8_t* data,
                         std::size_t nblocks) {
  sha256_blocks_portable(state, data, nblocks);
}

}  // namespace enclaves::crypto

#endif
