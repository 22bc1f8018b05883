// AES-256-GCM via OpenSSL EVP, behind the Aead interface.
#include <openssl/evp.h>

#include <algorithm>
#include <array>
#include <cassert>
#include <memory>
#include <stdexcept>

#include "crypto/aead.h"
#include "obs/event.h"
#include "obs/prof.h"
#include "util/result.h"

namespace enclaves::crypto {

namespace {

struct CtxDeleter {
  void operator()(EVP_CIPHER_CTX* ctx) const { EVP_CIPHER_CTX_free(ctx); }
};
using CtxPtr = std::unique_ptr<EVP_CIPHER_CTX, CtxDeleter>;

constexpr char kName[] = "aes256gcm";
constinit obs::Counter g_seals{"crypto", kName, "seals_total"};
constinit obs::Counter g_sealed_bytes{"crypto", kName, "sealed_bytes_total"};
constinit obs::Counter g_opens{"crypto", kName, "opens_total"};
constinit obs::Counter g_opened_bytes{"crypto", kName, "opened_bytes_total"};

class AesGcm final : public Aead {
 public:
  const char* name() const override { return kName; }

  Bytes seal(BytesView key, BytesView nonce, BytesView aad,
             BytesView plaintext) const override {
    Bytes out;
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
    CtxPtr ctx(EVP_CIPHER_CTX_new());
    if (!ctx) throw std::bad_alloc();
    if (EVP_EncryptInit_ex(ctx.get(), EVP_aes_256_gcm(), nullptr, key.data(),
                           nonce.data()) != 1)  // the last read of `nonce`
      throw std::runtime_error("EVP_EncryptInit_ex failed");

    int len = 0;
    if (!aad.empty() &&
        EVP_EncryptUpdate(ctx.get(), nullptr, &len, aad.data(),
                          static_cast<int>(aad.size())) != 1)
      throw std::runtime_error("EVP_EncryptUpdate(aad) failed");

    const std::size_t at = out.size();
    out.resize(at + plaintext.size() + kTagSize);
    std::uint8_t* ct = out.data() + at;
    if (!plaintext.empty() &&
        EVP_EncryptUpdate(ctx.get(), ct, &len, plaintext.data(),
                          static_cast<int>(plaintext.size())) != 1)
      throw std::runtime_error("EVP_EncryptUpdate failed");

    int fin = 0;
    if (EVP_EncryptFinal_ex(ctx.get(), ct + len, &fin) != 1)
      throw std::runtime_error("EVP_EncryptFinal_ex failed");

    if (EVP_CIPHER_CTX_ctrl(ctx.get(), EVP_CTRL_GCM_GET_TAG,
                            static_cast<int>(kTagSize),
                            ct + plaintext.size()) != 1)
      throw std::runtime_error("GCM get tag failed");
  }

  Result<Bytes> open(BytesView key, BytesView nonce, BytesView aad,
                     BytesView ct) const override {
    Bytes out(ct.size() < kTagSize ? 0 : ct.size() - kTagSize);
    if (auto st = open_into(key, nonce, aad, ct, out); !st) return st.error();
    return out;
  }

  Status open_into(BytesView key, BytesView nonce, BytesView aad, BytesView ct,
                   std::span<std::uint8_t> out) const override {
    assert(key.size() == kKeySize && nonce.size() == kNonceSize);
    PROF_SCOPE("crypto/open");
    obs::prof_bytes(ct.size());
    g_opens.add();
    g_opened_bytes.add(ct.size());
    if (ct.size() < kTagSize)
      return make_error(Errc::truncated, "aead ciphertext shorter than tag");
    const std::size_t body_len = ct.size() - kTagSize;
    assert(out.size() == body_len);

    CtxPtr ctx(EVP_CIPHER_CTX_new());
    if (!ctx) throw std::bad_alloc();
    if (EVP_DecryptInit_ex(ctx.get(), EVP_aes_256_gcm(), nullptr, key.data(),
                           nonce.data()) != 1)
      throw std::runtime_error("EVP_DecryptInit_ex failed");

    int len = 0;
    if (!aad.empty() &&
        EVP_DecryptUpdate(ctx.get(), nullptr, &len, aad.data(),
                          static_cast<int>(aad.size())) != 1)
      throw std::runtime_error("EVP_DecryptUpdate(aad) failed");

    if (body_len > 0 &&
        EVP_DecryptUpdate(ctx.get(), out.data(), &len, ct.data(),
                          static_cast<int>(body_len)) != 1)
      throw std::runtime_error("EVP_DecryptUpdate failed");

    std::array<std::uint8_t, kTagSize> tag;
    std::copy(ct.begin() + static_cast<std::ptrdiff_t>(body_len), ct.end(),
              tag.begin());
    if (EVP_CIPHER_CTX_ctrl(ctx.get(), EVP_CTRL_GCM_SET_TAG,
                            static_cast<int>(kTagSize), tag.data()) != 1)
      throw std::runtime_error("GCM set tag failed");

    int fin = 0;
    if (EVP_DecryptFinal_ex(ctx.get(), out.data() + len, &fin) != 1) {
      // GCM decrypts before it verifies: wipe the unauthenticated output.
      std::fill(out.begin(), out.end(), std::uint8_t{0});
      obs::emit(obs::thread_event_counters(), obs::Event::aead_open_failure,
                0, "crypto", name(), {}, "gcm tag mismatch");
      return make_error(Errc::auth_failed, "gcm tag mismatch");
    }
    return {};
  }
};

}  // namespace

const Aead& aes256gcm() {
  static AesGcm instance;
  return instance;
}

}  // namespace enclaves::crypto
