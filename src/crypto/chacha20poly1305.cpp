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

// The Poly1305 one-time key: the first 32 bytes of keystream block 0.
// Blocks 1.. encrypt; the batch that yields block 0 keeps blocks 1-3 for
// the first data bytes.
std::array<std::uint8_t, Poly1305::kKeySize> poly1305_key(ChaCha20& cipher) {
  std::array<std::uint8_t, ChaCha20::kBlockSize> block0{};
  cipher.apply(block0.data(), block0.size());
  std::array<std::uint8_t, Poly1305::kKeySize> otk;
  std::memcpy(otk.data(), block0.data(), otk.size());
  return otk;
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
    Bytes out;
    out.reserve(plaintext.size() + kTagSize);
    seal_into(key, nonce, aad, plaintext, out);
    return out;
  }

  void seal_into(BytesView key, BytesView nonce, BytesView aad,
                 BytesView plaintext, Bytes& out) const override {
    assert(key.size() == kKeySize && nonce.size() == kNonceSize);
    PROF_SCOPE("crypto/seal");
    obs::prof_bytes(plaintext.size());
    g_seals.add();
    g_sealed_bytes.add(plaintext.size());
    ChaCha20 cipher(key, nonce, 0);  // the last read of `nonce`
    const auto otk = poly1305_key(cipher);
    const std::size_t at = out.size();
    const std::size_t n = plaintext.size();
    out.insert(out.end(), plaintext.begin(), plaintext.end());
    cipher.apply(out.data() + at, n);
    const auto tag = poly1305_aead_tag(otk, aad, {out.data() + at, n});
    out.insert(out.end(), tag.begin(), tag.end());
  }

  Result<Bytes> open(BytesView key, BytesView nonce, BytesView aad,
                     BytesView ct) const override {
    assert(key.size() == kKeySize && nonce.size() == kNonceSize);
    PROF_SCOPE("crypto/open");
    ChaCha20 cipher(key, nonce, 0);
    if (auto st = verify(cipher, aad, ct); !st) return st.error();
    return cipher.transform(ct.first(ct.size() - kTagSize));
  }

  Status open_into(BytesView key, BytesView nonce, BytesView aad, BytesView ct,
                   std::span<std::uint8_t> out) const override {
    assert(key.size() == kKeySize && nonce.size() == kNonceSize);
    PROF_SCOPE("crypto/open");
    ChaCha20 cipher(key, nonce, 0);
    if (auto st = verify(cipher, aad, ct); !st) return st;
    const std::size_t n = ct.size() - kTagSize;
    assert(out.size() == n);
    if (n > 0) std::memcpy(out.data(), ct.data(), n);
    cipher.apply(out.data(), n);
    return {};
  }

 private:
  // Counts one open and checks the tag of ct = body || tag; on success
  // `cipher` stands at the first data block.
  Status verify(ChaCha20& cipher, BytesView aad, BytesView ct) const {
    obs::prof_bytes(ct.size());
    g_opens.add();
    g_opened_bytes.add(ct.size());
    if (ct.size() < kTagSize)
      return make_error(Errc::truncated, "aead ciphertext shorter than tag");
    BytesView body = ct.first(ct.size() - kTagSize);
    BytesView tag = ct.last(kTagSize);
    const auto expect = poly1305_aead_tag(poly1305_key(cipher), aad, body);
    if (!ct_equal({expect.data(), expect.size()}, tag)) {
      obs::emit(obs::thread_event_counters(), obs::Event::aead_open_failure,
                0, "crypto", name(), {}, "poly1305 tag mismatch");
      return make_error(Errc::auth_failed, "poly1305 tag mismatch");
    }
    return {};
  }
};

}  // namespace

const Aead& chacha20poly1305() {
  static ChaCha20Poly1305 instance;
  return instance;
}

const Aead& default_aead() { return chacha20poly1305(); }

}  // namespace enclaves::crypto
