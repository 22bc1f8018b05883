#include "wire/seal.h"

#include "wire/codec.h"

namespace enclaves::wire {

Bytes envelope_aad(Label label, std::string_view sender,
                   std::string_view recipient) {
  Writer w(1 + 4 + sender.size() + 4 + recipient.size());
  w.u8(static_cast<std::uint8_t>(label));
  w.str(sender);
  w.str(recipient);
  return std::move(w).take();
}

Bytes seal_body(const crypto::Aead& aead, BytesView key, Rng& rng,
                Label label, std::string_view sender,
                std::string_view recipient, BytesView plaintext) {
  constexpr std::size_t kNonceSize = crypto::Aead::kNonceSize;
  Bytes body;
  body.reserve(kSealOverhead + plaintext.size());
  body.resize(kNonceSize);
  rng.fill(body);
  const Bytes aad = envelope_aad(label, sender, recipient);
  aead.seal_into(key, BytesView{body}.first(kNonceSize), aad, plaintext,
                 body);
  return body;
}

Result<Bytes> open_body(const crypto::Aead& aead, BytesView key,
                        Label label, std::string_view sender,
                        std::string_view recipient, BytesView body) {
  if (body.size() < kSealOverhead)
    return make_error(Errc::truncated, "sealed body too short");
  BytesView nonce = body.subspan(0, crypto::Aead::kNonceSize);
  BytesView ct = body.subspan(crypto::Aead::kNonceSize);
  Bytes aad = envelope_aad(label, sender, recipient);
  return aead.open(key, nonce, aad, ct);
}

Status open_body_into(const crypto::Aead& aead, BytesView key, BytesView aad,
                      BytesView body, std::span<std::uint8_t> out) {
  if (body.size() < kSealOverhead)
    return make_error(Errc::truncated, "sealed body too short");
  return aead.open_into(key, body.first(crypto::Aead::kNonceSize), aad,
                        body.subspan(crypto::Aead::kNonceSize), out);
}

Envelope make_sealed(const crypto::Aead& aead, BytesView key, Rng& rng,
                     Label label, std::string_view sender,
                     std::string_view recipient, BytesView plaintext) {
  Envelope e;
  e.label = label;
  e.sender = std::string(sender);
  e.recipient = std::string(recipient);
  e.body = seal_body(aead, key, rng, label, sender, recipient, plaintext);
  return e;
}

Bytes append_mac(Bytes body, BytesView key) {
  const auto tag = crypto::HmacSha256::mac(key, body);
  body.insert(body.end(), tag.begin(), tag.end());
  return body;
}

Result<BytesView> verify_mac(BytesView blob, BytesView key) {
  constexpr std::size_t kTag = crypto::HmacSha256::kTagSize;
  if (blob.size() < kTag ||
      !crypto::hmac_verify(key, blob.first(blob.size() - kTag),
                           blob.last(kTag)))
    return make_error(Errc::auth_failed, "blob MAC mismatch");
  return blob.first(blob.size() - kTag);
}

Result<Bytes> open_sealed(const crypto::Aead& aead, BytesView key,
                          const Envelope& e) {
  return open_body(aead, key, e.label, e.sender, e.recipient, e.body);
}

}  // namespace enclaves::wire
