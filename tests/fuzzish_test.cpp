// Decoder robustness sweep: every decoder in the system is fed random byte
// soup, truncated real messages, and bit-flipped real messages. None may
// crash; every failure must be a clean Result error. This is the
// deterministic stand-in for a fuzzing campaign. The decoders come from
// wire::AllPayloads and wire_samples::BlobPayloads, so a new payload type is
// swept as soon as it is listed there.
#include <gtest/gtest.h>

#include <concepts>
#include <tuple>
#include <type_traits>
#include <typeinfo>

#include "tests/alloc_hook.h"
#include "tests/wire_samples.h"
#include "util/hex.h"
#include "util/rng.h"
#include "wire/all_payloads.h"

namespace enclaves {
namespace {

// Every type wire::decode<T> takes: all payloads, the AdminMsg X field, the
// envelope, then the stored blobs and app payloads.
using Decodable = decltype(std::tuple_cat(
    std::declval<wire::AllPayloads>(),
    std::declval<std::tuple<wire::AdminBody, wire::Envelope>>(),
    std::declval<wire_samples::BlobPayloads>()));

// wire_samples.h holds one instance of each, in the same order.
auto samples() {
  return std::tuple_cat(wire_samples::payloads(), wire_samples::blobs());
}
static_assert(std::is_same_v<decltype(samples()), Decodable>);

template <class... T, class F>
void for_each_type(std::tuple<T...>*, F&& f) {
  (f(std::type_identity<T>{}), ...);
}

// Runs every decoder on the given bytes; result values are irrelevant, the
// point is no crash/UB and clean error paths. KeyTreeUpdateView shares its
// type octet with KeyTreeUpdatePayload, and StateMessage dispatches to
// listed alternatives, so both are swept here by name rather than listed.
void sweep_all_decoders(BytesView soup) {
  for_each_type(static_cast<Decodable*>(nullptr), [soup](auto type) {
    (void)wire::decode<typename decltype(type)::type>(soup);
  });
  (void)wire::decode<wire::KeyTreeUpdateView>(soup);
  (void)wire::decode<app::StateMessage>(soup);
}

class FuzzishSoup : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzishSoup, RandomBytesNeverCrashAnyDecoder) {
  DeterministicRng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    Bytes soup = rng.bytes(rng.below(300));
    sweep_all_decoders(soup);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzishSoup, ::testing::Range<std::uint64_t>(1, 9));

TEST(FuzzishStructured, MutatedRealMessagesNeverCrash) {
  DeterministicRng rng(99);
  // One real instance of every message type, then mutate heavily.
  std::vector<Bytes> corpus;
  std::apply(
      [&corpus](const auto&... sample) {
        (corpus.push_back(wire::encode(sample)), ...);
      },
      samples());
  std::apply(
      [&corpus](const auto&... body) {
        (corpus.push_back(wire::encode(wire::AdminBody(body))), ...);
      },
      wire_samples::admin_bodies());

  for (const Bytes& base : corpus) {
    // Every truncation.
    for (std::size_t len = 0; len <= base.size(); ++len)
      sweep_all_decoders({base.data(), len});
    // Many random single- and multi-byte corruptions.
    for (int round = 0; round < 100; ++round) {
      Bytes bad = base;
      std::size_t flips = 1 + rng.below(4);
      for (std::size_t f = 0; f < flips && !bad.empty(); ++f)
        bad[rng.below(bad.size())] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
      sweep_all_decoders(bad);
    }
  }
  SUCCEED();
}

// PROTOCOL.md §4: no two payload types cross-decode. Every sample
// round-trips through its own decoder and fails every other one.
TEST(FuzzishStructured, NoTypeDecodesAsAnother) {
  std::size_t pairs = 0;
  const auto row = [&pairs](const auto& sample) {
    using T = std::decay_t<decltype(sample)>;
    const Bytes raw = wire::encode(sample);
    auto back = wire::decode<T>(raw);
    ASSERT_TRUE(back.ok()) << typeid(T).name();
    if constexpr (std::equality_comparable<T>) {
      EXPECT_TRUE(*back == sample) << typeid(T).name();
    } else {  // OpLog: a decoded log is unkeyed; its encoding must match
      EXPECT_EQ(wire::encode(*back), raw) << typeid(T).name();
    }
    for_each_type(static_cast<Decodable*>(nullptr), [&](auto type) {
      using U = typename decltype(type)::type;
      if constexpr (!std::is_same_v<T, U>) {
        EXPECT_FALSE(wire::decode<U>(raw).ok())
            << typeid(T).name() << " decoded as " << typeid(U).name();
        ++pairs;
      }
    });
  };
  std::apply([&row](const auto&... sample) { (row(sample), ...); },
             samples());
  constexpr std::size_t n = std::tuple_size_v<Decodable>;
  EXPECT_EQ(pairs, n * (n - 1));
}

TEST(FuzzishStructured, HugeLengthClaimsBounded) {
  // Length prefixes claiming enormous sizes must fail fast without large
  // allocations (kMaxFieldLen guard).
  Bytes evil;
  evil.push_back(0x04);  // label AdminMsg
  for (int i = 0; i < 4; ++i) evil.push_back(0xFF);  // sender len = 4 GiB
  auto r = wire::decode<wire::Envelope>(evil);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::oversized);

  // The stored blobs and app payloads: the first count or length claims
  // 4G, and the refusal allocates nothing near it.
  using namespace testing_support;
  const auto bounded = [](auto type, std::string_view hex) {
    using T = typename decltype(type)::type;
    const Bytes raw = must_from_hex(hex);
    g_largest_allocation = 0;
    g_count_allocations = true;
    auto r = wire::decode<T>(raw);
    g_count_allocations = false;
    ASSERT_FALSE(r.ok()) << typeid(T).name();
    EXPECT_EQ(r.code(), Errc::oversized) << typeid(T).name();
    EXPECT_LT(g_largest_allocation, 1024u) << typeid(T).name();
  };
  using std::type_identity;
  bounded(type_identity<core::LeaderSnapshot>{}, "910000000000000009ffffffff");
  bounded(type_identity<core::OpLog>{}, "92ffffffff");
  bounded(type_identity<app::ChatMessage>{}, "c401ffffffff");
  bounded(type_identity<app::StateUpdate>{}, "d1ffffffff");
  bounded(type_identity<app::SnapshotReply>{}, "d3ffffffff");
}

}  // namespace
}  // namespace enclaves
