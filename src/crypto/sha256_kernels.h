// Internal: the SHA-256 block functions behind Sha256 (not a public API).
//
// Each kernel folds `nblocks` consecutive 64-byte blocks into `state`, the
// eight working words h0..h7. The portable kernel is the oracle; the SHA-NI
// kernel must agree with it bit for bit (tests/crypto_sha256_test.cpp).
// sha256_blocks() is the single dispatch point; it picks by cpu_has_sha_ni().
#pragma once

#include <cstddef>
#include <cstdint>

namespace enclaves::crypto {

alignas(16) inline constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

/// FIPS 180-4 compression in plain C++; runs anywhere.
void sha256_blocks_portable(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t nblocks);

/// The same function on the x86 SHA extensions. Precondition:
/// cpu_has_sha_ni().
void sha256_blocks_shani(std::uint32_t state[8], const std::uint8_t* data,
                         std::size_t nblocks);

/// The kernel this CPU runs: SHA-NI when the probe found it, else portable.
void sha256_blocks(std::uint32_t state[8], const std::uint8_t* data,
                   std::size_t nblocks);

/// "shani" or "portable": which kernel sha256_blocks() runs here.
const char* sha256_kernel_name();

}  // namespace enclaves::crypto
