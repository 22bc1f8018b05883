// The crypto layer's one CPU feature probe.
//
// Every ISA-specific kernel is chosen from here and nowhere else. The probe
// runs once, on first use; the result sits in a function-local static, so
// no caller can read it during static initialisation before it is filled.
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

}  // namespace enclaves::crypto
