// E13 — crypto substrate cost: throughput of every primitive the protocol
// rests on, for both AEAD providers. Run: build/bench/bench_crypto
#include <benchmark/benchmark.h>

#include "crypto/aead.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "crypto/pbkdf2.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"
#include "crypto/x25519.h"
#include "util/rng.h"

namespace {

using namespace enclaves;
using namespace enclaves::crypto;

Bytes make_data(std::size_t n) {
  DeterministicRng rng(1);
  return rng.bytes(n);
}

void BM_Sha256(benchmark::State& state) {
  Bytes data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto d = Sha256::hash(data);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384)->Arg(1 << 20);

// One 64-byte block per call, the shape of the short HMAC/HKDF inputs that
// dominate key-tree churn. Both rows run in the same process, so their ratio
// is this CPU's SHA-NI gain ("dispatched" is the portable kernel again on a
// CPU without SHA-NI; the blob's "sha256_kernel" says which).
void BM_Sha256Compress(benchmark::State& state, decltype(&sha256_blocks) kernel) {
  Bytes block = make_data(Sha256::kBlockSize);
  std::uint32_t h[8] = {};
  for (auto _ : state) {
    kernel(h, block.data(), 1);
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(Sha256::kBlockSize));
}
BENCHMARK_CAPTURE(BM_Sha256Compress, portable, &sha256_blocks_portable);
BENCHMARK_CAPTURE(BM_Sha256Compress, dispatched, &sha256_blocks);

void BM_HmacSha256(benchmark::State& state) {
  Bytes key = make_data(32);
  Bytes data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto t = HmacSha256::mac(key, data);
    benchmark::DoNotOptimize(t);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Hkdf(benchmark::State& state) {
  Bytes ikm = make_data(32), salt = make_data(16), info = make_data(16);
  for (auto _ : state) {
    Bytes okm = hkdf(salt, ikm, info, 64);
    benchmark::DoNotOptimize(okm);
  }
}
BENCHMARK(BM_Hkdf);

void BM_Pbkdf2(benchmark::State& state) {
  Bytes pw = make_data(16), salt = make_data(16);
  const auto iters = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    Bytes dk = pbkdf2_hmac_sha256(pw, salt, iters, 32);
    benchmark::DoNotOptimize(dk);
  }
}
BENCHMARK(BM_Pbkdf2)->Arg(16)->Arg(1024)->Arg(4096);

void BM_AeadSeal(benchmark::State& state) {
  const Aead& aead = state.range(0) == 0 ? chacha20poly1305() : aes256gcm();
  Bytes key = make_data(32), nonce = make_data(12), aad = make_data(32);
  Bytes msg = make_data(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    Bytes ct = aead.seal(key, nonce, aad, msg);
    benchmark::DoNotOptimize(ct);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(1));
  state.SetLabel(aead.name());
}
BENCHMARK(BM_AeadSeal)
    ->Args({0, 64})->Args({0, 1024})->Args({0, 16384})->Args({0, 1 << 20})
    ->Args({1, 64})->Args({1, 1024})->Args({1, 16384})->Args({1, 1 << 20});

void BM_AeadOpen(benchmark::State& state) {
  const Aead& aead = state.range(0) == 0 ? chacha20poly1305() : aes256gcm();
  Bytes key = make_data(32), nonce = make_data(12), aad = make_data(32);
  Bytes ct =
      aead.seal(key, nonce, aad,
                make_data(static_cast<std::size_t>(state.range(1))));
  for (auto _ : state) {
    auto p = aead.open(key, nonce, aad, ct);
    benchmark::DoNotOptimize(p);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(1));
  state.SetLabel(aead.name());
}
BENCHMARK(BM_AeadOpen)
    ->Args({0, 64})->Args({0, 1024})->Args({0, 16384})
    ->Args({1, 64})->Args({1, 1024})->Args({1, 16384});

void BM_X25519KeyGen(benchmark::State& state) {
  for (auto _ : state) {
    auto kp = X25519KeyPair::generate();
    benchmark::DoNotOptimize(kp);
  }
}
BENCHMARK(BM_X25519KeyGen);

void BM_X25519DerivePa(benchmark::State& state) {
  auto a = X25519KeyPair::generate();
  auto b = X25519KeyPair::generate();
  for (auto _ : state) {
    auto pa = derive_long_term_key_x25519(a->private_key, b->public_key,
                                          "alice", "L");
    benchmark::DoNotOptimize(pa);
  }
}
BENCHMARK(BM_X25519DerivePa);

void BM_AeadRejectForgery(benchmark::State& state) {
  // Cost of REJECTING a forged message — the hot path under attack.
  const Aead& aead = chacha20poly1305();
  Bytes key = make_data(32), nonce = make_data(12);
  Bytes ct = aead.seal(key, nonce, {}, make_data(1024));
  ct[5] ^= 1;
  for (auto _ : state) {
    auto p = aead.open(key, nonce, {}, ct);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_AeadRejectForgery);

}  // namespace

#include "bench_json.h"

int main(int argc, char** argv) {
  return enclaves::benchjson::run_bench_main(
      "crypto", argc, argv,
      {{"sha256_kernel", enclaves::crypto::sha256_kernel_name()}});
}
