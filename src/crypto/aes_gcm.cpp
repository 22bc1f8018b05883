// AES-256-GCM via OpenSSL EVP, behind the Aead interface.
#include <openssl/evp.h>

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
    assert(key.size() == kKeySize && nonce.size() == kNonceSize);
    PROF_SCOPE("crypto/seal");
    obs::prof_bytes(plaintext.size());
    g_seals.add();
    g_sealed_bytes.add(plaintext.size());
    CtxPtr ctx(EVP_CIPHER_CTX_new());
    if (!ctx) throw std::bad_alloc();
    if (EVP_EncryptInit_ex(ctx.get(), EVP_aes_256_gcm(), nullptr, key.data(),
                           nonce.data()) != 1)
      throw std::runtime_error("EVP_EncryptInit_ex failed");

    int len = 0;
    if (!aad.empty() &&
        EVP_EncryptUpdate(ctx.get(), nullptr, &len, aad.data(),
                          static_cast<int>(aad.size())) != 1)
      throw std::runtime_error("EVP_EncryptUpdate(aad) failed");

    Bytes out(plaintext.size() + kTagSize);
    if (!plaintext.empty() &&
        EVP_EncryptUpdate(ctx.get(), out.data(), &len, plaintext.data(),
                          static_cast<int>(plaintext.size())) != 1)
      throw std::runtime_error("EVP_EncryptUpdate failed");

    int fin = 0;
    if (EVP_EncryptFinal_ex(ctx.get(), out.data() + len, &fin) != 1)
      throw std::runtime_error("EVP_EncryptFinal_ex failed");

    if (EVP_CIPHER_CTX_ctrl(ctx.get(), EVP_CTRL_GCM_GET_TAG,
                            static_cast<int>(kTagSize),
                            out.data() + plaintext.size()) != 1)
      throw std::runtime_error("GCM get tag failed");
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
    const std::size_t body_len = ct.size() - kTagSize;

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

    Bytes out(body_len);
    if (body_len > 0 &&
        EVP_DecryptUpdate(ctx.get(), out.data(), &len, ct.data(),
                          static_cast<int>(body_len)) != 1)
      throw std::runtime_error("EVP_DecryptUpdate failed");

    Bytes tag(ct.begin() + static_cast<std::ptrdiff_t>(body_len), ct.end());
    if (EVP_CIPHER_CTX_ctrl(ctx.get(), EVP_CTRL_GCM_SET_TAG,
                            static_cast<int>(kTagSize), tag.data()) != 1)
      throw std::runtime_error("GCM set tag failed");

    int fin = 0;
    if (EVP_DecryptFinal_ex(ctx.get(), out.data() + len, &fin) != 1) {
      obs::emit(obs::thread_event_counters(), obs::Event::aead_open_failure,
                0, "crypto", name(), {}, "gcm tag mismatch");
      return make_error(Errc::auth_failed, "gcm tag mismatch");
    }
    return out;
  }
};

}  // namespace

const Aead& aes256gcm() {
  static AesGcm instance;
  return instance;
}

}  // namespace enclaves::crypto
