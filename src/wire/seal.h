// Envelope-bound AEAD sealing convention.
//
// Every encrypted body in both protocols is:
//     body = aead_nonce(12) || ciphertext || tag(16)
// with associated data = label || sender || recipient (length-separated), so
// a ciphertext cannot be replayed under a different label or addressing
// without failing authentication. Note that this binding does NOT provide
// freshness — replaying the *whole* envelope verbatim still verifies. The
// improved protocol gets freshness from the nonce chain inside the plaintext
// (Section 3.2); the legacy protocol deliberately lacks it, which is exactly
// the Section 2.3 vulnerability the attack harness demonstrates.
//
// Stored blobs (the leader snapshot, the op log) are not encrypted, only
// authenticated: blob = encode(t) || HMAC-SHA256(key, encode(t)). One MAC
// covers the whole encoding, nested records included.
#pragma once

#include "crypto/aead.h"
#include "crypto/hmac.h"
#include "util/rng.h"
#include "wire/codec.h"
#include "wire/envelope.h"

namespace enclaves::wire {

/// Bytes a sealed body adds to its plaintext: the AEAD nonce and tag.
constexpr std::size_t kSealOverhead =
    crypto::Aead::kNonceSize + crypto::Aead::kTagSize;

/// AAD derived from the envelope header fields.
Bytes envelope_aad(Label label, std::string_view sender,
                   std::string_view recipient);

/// Seals `plaintext` into an envelope body with a fresh random AEAD nonce.
Bytes seal_body(const crypto::Aead& aead, BytesView key, Rng& rng,
                Label label, std::string_view sender,
                std::string_view recipient, BytesView plaintext);

/// Opens an envelope body produced by seal_body. Errc::auth_failed when the
/// key is wrong, the content was tampered with, or the envelope header was
/// altered.
Result<Bytes> open_body(const crypto::Aead& aead, BytesView key,
                        Label label, std::string_view sender,
                        std::string_view recipient, BytesView body);

/// open_body for a caller that builds the AAD once (envelope_aad) and owns
/// the plaintext buffer: `out` must hold body.size() - kSealOverhead bytes
/// (a shorter body is Errc::truncated). Allocates nothing itself.
Status open_body_into(const crypto::Aead& aead, BytesView key, BytesView aad,
                      BytesView body, std::span<std::uint8_t> out);

/// Convenience overloads working on a whole Envelope.
Envelope make_sealed(const crypto::Aead& aead, BytesView key, Rng& rng,
                     Label label, std::string_view sender,
                     std::string_view recipient, BytesView plaintext);
Result<Bytes> open_sealed(const crypto::Aead& aead, BytesView key,
                          const Envelope& e);

/// Appends HMAC-SHA256(key, body) to `body`.
Bytes append_mac(Bytes body, BytesView key);

/// The bytes a blob's trailing MAC covers. Errc::auth_failed when the MAC
/// does not verify under `key`: wrong key, or a byte changed, cut off or
/// appended.
Result<BytesView> verify_mac(BytesView blob, BytesView key);

/// encode(t) with its HMAC under `key` appended.
template <detail::Shape T>
Bytes mac_encode(const T& t, BytesView key) {
  Writer w(encoded_size(t) + crypto::HmacSha256::kTagSize);
  write(w, t);
  return append_mac(std::move(w).take(), key);
}

/// Verifies the MAC first, then decode<T> of what it covers: a body that
/// authenticates but is not exactly one T is refused as decode refuses it.
template <detail::Shape T>
Result<T> mac_decode(BytesView blob, BytesView key) {
  auto body = verify_mac(blob, key);
  if (!body) return body.error();
  return decode<T>(*body);
}

}  // namespace enclaves::wire
