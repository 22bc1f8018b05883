// HKDF-SHA256 (RFC 5869): extract-and-expand key derivation.
//
// Used to derive distinct subkeys (e.g., the group data key and the admin
// channel key) from a single distributed secret, and to derive AEAD nonces
// deterministically where a counter discipline is used.
#pragma once

#include "crypto/hmac.h"
#include "util/bytes.h"

namespace enclaves::crypto {

/// HKDF-Extract: PRK = HMAC(salt, ikm).
Bytes hkdf_extract(BytesView salt, BytesView ikm);

/// HKDF-Expand: OKM of `length` bytes (length <= 255*32).
Bytes hkdf_expand(BytesView prk, BytesView info, std::size_t length);

/// Combined extract+expand.
Bytes hkdf(BytesView salt, BytesView ikm, BytesView info, std::size_t length);

/// The same, extracting under an HMAC already keyed with the salt. A caller
/// with a fixed salt keeps one keyed object (e.g. a function-local static)
/// and skips the salt's two pad compressions on every call.
Bytes hkdf(const HmacSha256& keyed_salt, BytesView ikm, BytesView info,
           std::size_t length);

}  // namespace enclaves::crypto
