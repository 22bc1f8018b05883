// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Incremental interface plus a one-shot helper. Verified in tests against
// the NIST CAVP short-message vectors and cross-checked against OpenSSL.
//
// Dispatch rule (crypto/sha256_kernels.h): the block function has one
// portable kernel and at most one ISA variant (SHA-NI). One probe,
// crypto/cpu.h, picks between them once per process; there is no build flag
// or environment switch. The portable kernel is the oracle: the tests run
// it on every host and diff the SHA-NI kernel against it where the CPU has
// the extensions.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace enclaves::crypto {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256();

  /// Absorbs `data`; may be called any number of times.
  void update(BytesView data);

  /// Finalizes and returns the digest. The object must not be reused
  /// afterwards except via reset().
  Digest finish();

  /// Restores the initial state.
  void reset();

  /// One-shot convenience.
  static Digest hash(BytesView data);

 private:
  std::array<std::uint32_t, 8> h_;
  std::array<std::uint8_t, kBlockSize> buf_;
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace enclaves::crypto
