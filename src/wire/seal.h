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
#pragma once

#include "crypto/aead.h"
#include "util/rng.h"
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

}  // namespace enclaves::wire
