// HMAC-SHA256 (RFC 2104), built on the local SHA-256.
//
// The key is absorbed once: the constructor keeps the SHA-256 states after
// the ipad and opad blocks (the keyed midstates), so reset() and finish()
// copy a state instead of compressing a pad again. A keyed object is a
// value: copy it to reuse one key for many MACs (HKDF with a fixed salt,
// PBKDF2). SHA-256 underneath follows sha256.h's dispatch rule (one probe,
// at most one ISA variant, the portable kernel always tested); HMAC adds
// no kernel of its own.
#pragma once

#include "crypto/sha256.h"
#include "util/bytes.h"

namespace enclaves::crypto {

class HmacSha256 {
 public:
  static constexpr std::size_t kTagSize = Sha256::kDigestSize;
  using Tag = Sha256::Digest;

  explicit HmacSha256(BytesView key);

  void update(BytesView data);
  Tag finish();

  /// Starts a fresh computation under the same key (no pad recompression).
  void reset();

  /// One-shot convenience.
  static Tag mac(BytesView key, BytesView data);

 private:
  Sha256 keyed_inner_;  // state after the ipad block
  Sha256 keyed_outer_;  // state after the opad block
  Sha256 inner_;
};

/// Constant-time tag verification.
bool hmac_verify(BytesView key, BytesView data, BytesView expected_tag);

}  // namespace enclaves::crypto
