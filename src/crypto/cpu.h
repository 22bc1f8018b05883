// The crypto layer's one CPU feature probe.
//
// Every ISA-specific kernel is chosen from here and nowhere else: SHA-256
// on the SHA extensions (cpu_has_sha_ni); ChaCha20's 4-block and 8-block
// batches and Poly1305's 4-lane Horner loop on AVX2 (cpu_has_avx2). Each
// kernel has one such variant, and its portable kernel stays as the oracle
// and the fallback. The probe runs once, on first use; the result sits in a
// function-local static, so no caller can read it during static
// initialisation before it is filled.
#pragma once

namespace enclaves::crypto {

/// True when the CPU has the SHA-256 extensions and the SSE4.1 they lean on.
inline bool cpu_has_sha_ni() {
  static const bool has = [] {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
#else
    return false;
#endif
  }();
  return has;
}

/// True when the CPU has AVX2 (256-bit integer vectors) and the OS saves
/// the YMM registers; __builtin_cpu_supports checks both for "avx2".
inline bool cpu_has_avx2() {
  static const bool has = [] {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
  }();
  return has;
}

}  // namespace enclaves::crypto
