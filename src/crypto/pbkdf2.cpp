#include "crypto/pbkdf2.h"

#include <cassert>

#include "crypto/hmac.h"

namespace enclaves::crypto {

Bytes pbkdf2_hmac_sha256(BytesView password, BytesView salt,
                         std::uint32_t iterations, std::size_t length) {
  assert(iterations >= 1);
  // Keyed once: each iteration copies the password's HMAC midstates, so it
  // costs two compressions instead of four.
  HmacSha256 h(password);
  Bytes out;
  out.reserve(length);
  std::uint32_t block_index = 1;
  while (out.size() < length) {
    std::uint8_t idx_be[4] = {
        static_cast<std::uint8_t>(block_index >> 24),
        static_cast<std::uint8_t>(block_index >> 16),
        static_cast<std::uint8_t>(block_index >> 8),
        static_cast<std::uint8_t>(block_index)};

    h.reset();
    h.update(salt);
    h.update({idx_be, 4});
    auto u = h.finish();
    auto acc = u;
    for (std::uint32_t i = 1; i < iterations; ++i) {
      h.reset();
      h.update(u);
      u = h.finish();
      for (std::size_t j = 0; j < acc.size(); ++j) acc[j] ^= u[j];
    }
    std::size_t take = std::min(acc.size(), length - out.size());
    out.insert(out.end(), acc.begin(), acc.begin() + take);
    ++block_index;
  }
  return out;
}

}  // namespace enclaves::crypto
