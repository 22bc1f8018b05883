#include "crypto/sha256.h"

#include <cstring>

#include "crypto/cpu.h"
#include "crypto/sha256_kernels.h"

namespace enclaves::crypto {

namespace {

constexpr std::array<std::uint32_t, 8> kInit = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

}  // namespace

void sha256_blocks_portable(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += Sha256::kBlockSize) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(data + 4 * i);
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t t1 = h + s1 + ch + kSha256K[i] + w[i];
      std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
  }
}

void sha256_blocks(std::uint32_t state[8], const std::uint8_t* data,
                   std::size_t nblocks) {
  if (cpu_has_sha_ni())
    sha256_blocks_shani(state, data, nblocks);
  else
    sha256_blocks_portable(state, data, nblocks);
}

const char* sha256_kernel_name() {
  return cpu_has_sha_ni() ? "shani" : "portable";
}

Sha256::Sha256() { reset(); }

void Sha256::reset() {
  h_ = kInit;
  buf_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(BytesView data) {
  if (data.empty()) return;  // an empty view's data() may be null
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    std::size_t take = std::min(kBlockSize - buf_len_, data.size());
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off = take;
    if (buf_len_ < kBlockSize) return;
    sha256_blocks(h_.data(), buf_.data(), 1);
    buf_len_ = 0;
  }
  const std::size_t whole = (data.size() - off) / kBlockSize;
  if (whole > 0) {
    sha256_blocks(h_.data(), data.data() + off, whole);
    off += whole * kBlockSize;
  }
  if (off < data.size()) {
    std::memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

Sha256::Digest Sha256::finish() {
  // Pads in place: 0x80, zeros up to byte 56, the 64-bit big-endian bit
  // length. A tail past byte 55 leaves no room for the length, so it takes
  // a block of its own.
  const std::uint64_t bit_len = total_len_ * 8;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > kBlockSize - 8) {
    std::memset(buf_.data() + buf_len_, 0, kBlockSize - buf_len_);
    sha256_blocks(h_.data(), buf_.data(), 1);
    buf_len_ = 0;
  }
  std::memset(buf_.data() + buf_len_, 0, kBlockSize - 8 - buf_len_);
  store_be32(buf_.data() + 56, static_cast<std::uint32_t>(bit_len >> 32));
  store_be32(buf_.data() + 60, static_cast<std::uint32_t>(bit_len));
  sha256_blocks(h_.data(), buf_.data(), 1);

  Digest out;
  for (int i = 0; i < 8; ++i) store_be32(out.data() + 4 * i, h_[i]);
  return out;
}

Sha256::Digest Sha256::hash(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace enclaves::crypto
