// Authenticated encryption with associated data.
//
// The paper writes {X}_K for encryption that also implies integrity and
// origin within the set of key holders; AEAD is the modern realization. Two
// interchangeable providers implement this interface:
//   - ChaCha20Poly1305 (from scratch, RFC 8439)
//   - AesGcm (OpenSSL EVP, AES-256-GCM)
// Protocol code binds the message label and addressing into the associated
// data so a ciphertext cannot be transplanted onto a different message type.
#pragma once

#include <algorithm>
#include <memory>
#include <span>

#include "util/bytes.h"
#include "util/result.h"

namespace enclaves::crypto {

class Aead {
 public:
  static constexpr std::size_t kKeySize = 32;
  static constexpr std::size_t kNonceSize = 12;
  static constexpr std::size_t kTagSize = 16;

  virtual ~Aead() = default;

  /// Identifies the algorithm ("chacha20poly1305" / "aes256gcm").
  virtual const char* name() const = 0;

  /// Encrypts `plaintext`; returns ciphertext || tag.
  /// Preconditions: key.size()==32, nonce.size()==12.
  virtual Bytes seal(BytesView key, BytesView nonce, BytesView aad,
                     BytesView plaintext) const = 0;

  /// Decrypts and verifies; Errc::auth_failed if the tag does not match.
  virtual Result<Bytes> open(BytesView key, BytesView nonce, BytesView aad,
                             BytesView ciphertext_and_tag) const = 0;

  /// seal(), appending ciphertext || tag to `out` instead of returning a
  /// fresh buffer. `nonce` may point into `out`: it is read before `out`
  /// grows. The default forwards to seal(), so a decorator that overrides
  /// only seal() and open() still sees every call.
  virtual void seal_into(BytesView key, BytesView nonce, BytesView aad,
                         BytesView plaintext, Bytes& out) const {
    append(out, seal(key, nonce, aad, plaintext));
  }

  /// open(), writing the plaintext into `out`, which must hold exactly
  /// ciphertext_and_tag.size() - kTagSize bytes. On failure `out` holds
  /// no plaintext. The default forwards to open().
  virtual Status open_into(BytesView key, BytesView nonce, BytesView aad,
                           BytesView ciphertext_and_tag,
                           std::span<std::uint8_t> out) const {
    auto plain = open(key, nonce, aad, ciphertext_and_tag);
    if (!plain) return plain.error();
    std::copy(plain->begin(), plain->end(), out.begin());
    return {};
  }
};

/// From-scratch RFC 8439 implementation.
const Aead& chacha20poly1305();

/// OpenSSL AES-256-GCM implementation.
const Aead& aes256gcm();

/// The library default (ChaCha20-Poly1305).
const Aead& default_aead();

}  // namespace enclaves::crypto
