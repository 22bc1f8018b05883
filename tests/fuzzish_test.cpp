// Decoder robustness sweep: every decoder in the system is fed random byte
// soup, truncated real messages, and bit-flipped real messages. None may
// crash; every failure must be a clean Result error. This is the
// deterministic stand-in for a fuzzing campaign. The wire decoders come
// from wire::AllPayloads, so a new payload type is swept as soon as it is
// listed there.
#include <gtest/gtest.h>

#include <tuple>
#include <type_traits>
#include <typeinfo>

#include "app/group_chat.h"
#include "core/registry.h"
#include "tests/wire_samples.h"
#include "util/rng.h"
#include "wire/all_payloads.h"

namespace enclaves {
namespace {

// Every type wire::decode<T> takes: all payloads, the AdminMsg X field and
// the envelope.
using Decodable = decltype(std::tuple_cat(
    std::declval<wire::AllPayloads>(),
    std::declval<std::tuple<wire::AdminBody, wire::Envelope>>()));

// wire_samples.h holds one instance of each, in the same order.
static_assert(std::is_same_v<decltype(wire_samples::payloads()), Decodable>);

template <class... T, class F>
void for_each_type(std::tuple<T...>*, F&& f) {
  (f(std::type_identity<T>{}), ...);
}

// Runs every decoder on the given bytes; result values are irrelevant, the
// point is no crash/UB and clean error paths.
void sweep_all_decoders(BytesView soup) {
  for_each_type(static_cast<Decodable*>(nullptr), [soup](auto type) {
    (void)wire::decode<typename decltype(type)::type>(soup);
  });
  (void)app::decode_chat_message(soup);
  (void)core::Registry::deserialize(soup, to_bytes("k"));
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
      wire_samples::payloads());
  std::apply(
      [&corpus](const auto&... body) {
        (corpus.push_back(wire::encode(wire::AdminBody(body))), ...);
      },
      wire_samples::admin_bodies());
  corpus.push_back(
      app::encode(app::ChatMessage{app::ChatKind::text, "a", "hi", 1}));
  {
    core::Registry reg;
    (void)reg.add(core::Credential{"alice",
                                   crypto::LongTermKey::random(rng), "t"});
    corpus.push_back(reg.serialize(to_bytes("k")));
  }

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
    EXPECT_TRUE(*back == sample) << typeid(T).name();
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
             wire_samples::payloads());
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
}

}  // namespace
}  // namespace enclaves
