// The host-speed reference: a fixed piece of work that uses no library code.
//
// On a shared VM the speed of a core drifts with the load of other tenants,
// by 2x and more over minutes. The workloads time one reference pass after
// every round, on the same thread, and report their gated times as
// multiples of it, so a slow host phase slows both and cancels out.
//
// The work resembles the library's: a string-keyed ordered map of small byte
// vectors (allocation, pointer chasing, compares) and an ARX block function
// (the ChaCha20 double round). The map allocates from an arena of its own,
// touched by an untimed first pass on each thread, so a timed pass neither
// depends on the state the workload left the heap in nor takes page faults. It must never
// change: every figure gated against it would move.
#include <cstddef>
#include <cstring>
#include <map>
#include <memory>
#include <memory_resource>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

constexpr int kKeys = 1500;
constexpr int kBlocks = 1500;
constexpr std::size_t kArenaBytes = 4 << 20;  // a pass uses about 1 MB

inline std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

inline void quarter(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                    std::uint32_t& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

const std::vector<std::string>& keys() {
  static const std::vector<std::string> k = [] {
    std::vector<std::string> out;
    std::uint64_t x = 1;
    for (int i = 0; i < kKeys; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      out.push_back("member-" + std::to_string(x >> 40) + "-session");
    }
    return out;
  }();
  return k;
}

// One arena per thread: relay_tcp times passes on two threads at once.
std::byte* arena() {
  thread_local const std::unique_ptr<std::byte[]> bytes = [] {
    auto p = std::make_unique<std::byte[]>(kArenaBytes);
    std::memset(p.get(), 1, kArenaBytes);
    return p;
  }();
  return bytes.get();
}

volatile std::uint64_t sink;

std::uint64_t pass() {
  const auto& k = keys();
  std::pmr::monotonic_buffer_resource pool(arena(), kArenaBytes,
                                           std::pmr::null_memory_resource());
  std::pmr::map<std::pmr::string, std::pmr::vector<std::uint8_t>> m(&pool);
  for (int round = 0; round < 2; ++round)
    for (const auto& key : k)
      m[std::pmr::string(key, &pool)].assign(
          48 + (key.size() * 7 + round) % 200,
          static_cast<std::uint8_t>(round));
  std::uint64_t acc = 0;
  for (const auto& key : k)
    acc += m.find(std::pmr::string(key, &pool))->second.size();
  for (std::size_t i = 0; i < k.size(); i += 2)
    m.erase(std::pmr::string(k[i], &pool));

  std::uint32_t state[16];
  for (int i = 0; i < 16; ++i)
    state[i] = static_cast<std::uint32_t>(i * 0x9E3779B9u + acc);
  for (int b = 0; b < kBlocks; ++b) {
    std::uint32_t x[16];
    std::memcpy(x, state, sizeof x);
    for (int r = 0; r < 10; ++r) {
      quarter(x[0], x[4], x[8], x[12]);
      quarter(x[1], x[5], x[9], x[13]);
      quarter(x[2], x[6], x[10], x[14]);
      quarter(x[3], x[7], x[11], x[15]);
      quarter(x[0], x[5], x[10], x[15]);
      quarter(x[1], x[6], x[11], x[12]);
      quarter(x[2], x[7], x[8], x[13]);
      quarter(x[3], x[4], x[9], x[14]);
    }
    for (int i = 0; i < 16; ++i) acc += x[i];
    ++state[12];
  }
  return acc + m.size();
}

}  // namespace

double reference_ns() {
  thread_local const std::uint64_t first = pass();  // touches the arena
  const std::uint64_t t0 = now_ns();
  sink = pass() + first;
  return static_cast<double>(now_ns() - t0);
}

}  // namespace perfbench
