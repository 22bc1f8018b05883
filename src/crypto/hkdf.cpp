#include "crypto/hkdf.h"

#include <cassert>

namespace enclaves::crypto {

namespace {

Bytes extract(HmacSha256 keyed_salt, BytesView ikm) {
  keyed_salt.update(ikm);
  auto tag = keyed_salt.finish();
  return Bytes(tag.begin(), tag.end());
}

}  // namespace

Bytes hkdf_extract(BytesView salt, BytesView ikm) {
  return extract(HmacSha256(salt), ikm);
}

Bytes hkdf_expand(BytesView prk, BytesView info, std::size_t length) {
  assert(length <= 255 * HmacSha256::kTagSize);
  Bytes okm;
  okm.reserve(length);
  Bytes block;  // T(i-1)
  std::uint8_t counter = 1;
  HmacSha256 h(prk);  // keyed once; reset() starts each T(i)
  while (okm.size() < length) {
    h.reset();
    h.update(block);
    h.update(info);
    h.update({&counter, 1});
    auto t = h.finish();
    block.assign(t.begin(), t.end());
    std::size_t take = std::min(block.size(), length - okm.size());
    okm.insert(okm.end(), block.begin(), block.begin() + take);
    ++counter;
  }
  return okm;
}

Bytes hkdf(BytesView salt, BytesView ikm, BytesView info, std::size_t length) {
  return hkdf(HmacSha256(salt), ikm, info, length);
}

Bytes hkdf(const HmacSha256& keyed_salt, BytesView ikm, BytesView info,
           std::size_t length) {
  return hkdf_expand(extract(keyed_salt, ikm), info, length);
}

}  // namespace enclaves::crypto
