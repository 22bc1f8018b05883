// ChaCha20 stream cipher (RFC 8439 §2.4), implemented from scratch.
//
// While at least 512 bytes remain, apply() XORs whole 512-byte runs with
// chacha20_xor_batches() (crypto/chacha20_kernels.h): eight blocks per
// batch on AVX2 where crypto/cpu.h finds it, else two of the four-block
// batches below. The rest is computed four blocks at a time: each of the
// 16 state words is a 4-lane vector whose lane i belongs to block
// counter+i, so one batch is 256 bytes; GCC vector extensions lower this
// to baseline SSE2. A tail shorter than a batch still gets a whole batch;
// what it leaves unused is kept for the next apply(). A message under 512
// bytes therefore runs the same code on every CPU.
// The 32-bit block counter wraps modulo 2^32, as in RFC 8439.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace enclaves::crypto {

class ChaCha20 {
 public:
  static constexpr std::size_t kKeySize = 32;
  static constexpr std::size_t kNonceSize = 12;
  static constexpr std::size_t kBlockSize = 64;

  /// Precondition: key.size()==32, nonce.size()==12.
  ChaCha20(BytesView key, BytesView nonce, std::uint32_t initial_counter = 0);

  /// XORs the keystream into `data` in place (encrypt == decrypt). May be
  /// called in chunks: unused keystream carries over to the next call.
  void apply(std::uint8_t* data, std::size_t len);

  /// Convenience: returns the transformed copy.
  Bytes transform(BytesView data);

  /// Emits one 64-byte keystream block for the given counter (the RFC 8439
  /// §2.3 block function, computed by the scalar path).
  static std::array<std::uint8_t, kBlockSize> block(BytesView key,
                                                    BytesView nonce,
                                                    std::uint32_t counter);

 private:
  static constexpr std::size_t kBatchSize = 4 * kBlockSize;

  std::array<std::uint32_t, 16> state_;
  // Keystream computed but not yet used: bytes [ks_pos_, ks_end_).
  std::array<std::uint8_t, kBatchSize> keystream_;
  std::size_t ks_pos_ = 0;
  std::size_t ks_end_ = 0;
};

}  // namespace enclaves::crypto
