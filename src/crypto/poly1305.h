// Poly1305 one-time authenticator (RFC 8439 §2.5), implemented from scratch.
// r and the accumulator h are held in three limbs of 44, 44 and 42 bits and
// multiplied with 64x64->128-bit products (unsigned __int128), the
// "donna-64" schedule.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace enclaves::crypto {

class Poly1305 {
 public:
  static constexpr std::size_t kKeySize = 32;
  static constexpr std::size_t kTagSize = 16;
  using Tag = std::array<std::uint8_t, kTagSize>;

  /// Precondition: key.size()==32. The key must be used for ONE message only.
  explicit Poly1305(BytesView key);

  void update(BytesView data);
  Tag finish();

  static Tag mac(BytesView key, BytesView data);

 private:
  void blocks(const std::uint8_t* data, std::size_t len, bool final_partial);

  std::uint64_t r_[3];  // clamped r, 44/44/42-bit limbs
  std::uint64_t h_[3];  // accumulator, same limbs
  std::uint64_t pad_[2];
  std::array<std::uint8_t, 16> buf_;
  std::size_t buf_len_ = 0;
};

}  // namespace enclaves::crypto
