#include "crypto/hmac.h"

#include <cstring>

#include "crypto/ct.h"

namespace enclaves::crypto {

HmacSha256::HmacSha256(BytesView key) {
  std::array<std::uint8_t, Sha256::kBlockSize> k{};
  if (key.size() > Sha256::kBlockSize) {
    auto d = Sha256::hash(key);
    std::memcpy(k.data(), d.data(), d.size());
  } else if (!key.empty()) {  // an empty key's data() may be null
    std::memcpy(k.data(), key.data(), key.size());
  }
  std::array<std::uint8_t, Sha256::kBlockSize> pad;
  for (std::size_t i = 0; i < k.size(); ++i) pad[i] = k[i] ^ 0x36;
  keyed_inner_.update(pad);
  for (std::size_t i = 0; i < k.size(); ++i) pad[i] = k[i] ^ 0x5c;
  keyed_outer_.update(pad);
  inner_ = keyed_inner_;
}

void HmacSha256::reset() { inner_ = keyed_inner_; }

void HmacSha256::update(BytesView data) { inner_.update(data); }

HmacSha256::Tag HmacSha256::finish() {
  auto inner_digest = inner_.finish();
  Sha256 outer = keyed_outer_;
  outer.update(inner_digest);
  return outer.finish();
}

HmacSha256::Tag HmacSha256::mac(BytesView key, BytesView data) {
  HmacSha256 h(key);
  h.update(data);
  return h.finish();
}

bool hmac_verify(BytesView key, BytesView data, BytesView expected_tag) {
  auto tag = HmacSha256::mac(key, data);
  return expected_tag.size() == tag.size() && ct_equal(tag, expected_tag);
}

}  // namespace enclaves::crypto
