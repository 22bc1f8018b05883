// ChaCha20-Poly1305 AEAD construction (RFC 8439 §2.8).
#include <cassert>
#include <cstring>

#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/ct.h"
#include "crypto/poly1305.h"
#include "obs/event.h"
#include "obs/prof.h"

namespace enclaves::crypto {

namespace {

void store_le64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

// Keystream block 0, whose first 32 bytes key Poly1305. Blocks 1.. encrypt;
// the batch that yields block 0 keeps blocks 1-3 for the first data bytes.
std::array<std::uint8_t, ChaCha20::kBlockSize> poly1305_key_block(
    ChaCha20& cipher) {
  std::array<std::uint8_t, ChaCha20::kBlockSize> block0{};
  cipher.apply(block0.data(), block0.size());
  return block0;
}

// Tag over aad || pad || ciphertext || pad || lengths under the one-time
// key `otk`, the first 32 bytes of keystream block 0.
Poly1305::Tag compute_tag(BytesView otk, BytesView aad, BytesView ciphertext) {
  Poly1305 mac(otk.first(Poly1305::kKeySize));

  static constexpr std::uint8_t kZeros[15] = {};
  mac.update(aad);
  if (aad.size() % 16 != 0) mac.update({kZeros, 16 - aad.size() % 16});
  mac.update(ciphertext);
  if (ciphertext.size() % 16 != 0)
    mac.update({kZeros, 16 - ciphertext.size() % 16});

  std::uint8_t lengths[16];
  store_le64(lengths, aad.size());
  store_le64(lengths + 8, ciphertext.size());
  mac.update({lengths, 16});
  return mac.finish();
}

constexpr char kName[] = "chacha20poly1305";
constinit obs::Counter g_seals{"crypto", kName, "seals_total"};
constinit obs::Counter g_sealed_bytes{"crypto", kName, "sealed_bytes_total"};
constinit obs::Counter g_opens{"crypto", kName, "opens_total"};
constinit obs::Counter g_opened_bytes{"crypto", kName, "opened_bytes_total"};

class ChaCha20Poly1305 final : public Aead {
 public:
  const char* name() const override { return kName; }

  Bytes seal(BytesView key, BytesView nonce, BytesView aad,
             BytesView plaintext) const override {
    assert(key.size() == kKeySize && nonce.size() == kNonceSize);
    PROF_SCOPE("crypto/seal");
    obs::prof_bytes(plaintext.size());
    g_seals.add();
    g_sealed_bytes.add(plaintext.size());
    ChaCha20 cipher(key, nonce, 0);
    const auto block0 = poly1305_key_block(cipher);
    const std::size_t n = plaintext.size();
    Bytes out;
    out.reserve(n + kTagSize);
    out.assign(plaintext.begin(), plaintext.end());
    cipher.apply(out.data(), n);
    const auto tag = compute_tag(block0, aad, {out.data(), n});
    out.insert(out.end(), tag.begin(), tag.end());
    return out;
  }

  Result<Bytes> open(BytesView key, BytesView nonce, BytesView aad,
                     BytesView ct) const override {
    assert(key.size() == kKeySize && nonce.size() == kNonceSize);
    PROF_SCOPE("crypto/open");
    obs::prof_bytes(ct.size());
    g_opens.add();
    g_opened_bytes.add(ct.size());
    if (ct.size() < kTagSize)
      return make_error(Errc::truncated, "aead ciphertext shorter than tag");
    BytesView body = ct.subspan(0, ct.size() - kTagSize);
    BytesView tag = ct.subspan(ct.size() - kTagSize);
    ChaCha20 cipher(key, nonce, 0);
    const auto expect = compute_tag(poly1305_key_block(cipher), aad, body);
    if (!ct_equal({expect.data(), expect.size()}, tag)) {
      obs::emit(obs::thread_event_counters(), obs::Event::aead_open_failure,
                0, "crypto", name(), {}, "poly1305 tag mismatch");
      return make_error(Errc::auth_failed, "poly1305 tag mismatch");
    }
    return cipher.transform(body);
  }
};

}  // namespace

const Aead& chacha20poly1305() {
  static ChaCha20Poly1305 instance;
  return instance;
}

const Aead& default_aead() { return chacha20poly1305(); }

}  // namespace enclaves::crypto
