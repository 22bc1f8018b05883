// Writer/Reader: round trips, bounds checks, hostile-input rejection.
#include <gtest/gtest.h>

#include <tuple>

#include "tests/wire_samples.h"
#include "util/hex.h"
#include "util/rng.h"
#include "wire/codec.h"
#include "wire/keytree.h"

namespace enclaves::wire {
namespace {

TEST(Codec, IntegersRoundTripBigEndian) {
  Writer w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  EXPECT_EQ(to_hex(w.bytes()), "ab1234deadbeef0123456789abcdef");

  Reader r(w.bytes());
  EXPECT_EQ(*r.u8(), 0xAB);
  EXPECT_EQ(*r.u16(), 0x1234);
  EXPECT_EQ(*r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.expect_end().ok());
}

TEST(Codec, VarBytesRoundTrip) {
  Writer w;
  w.var_bytes(to_bytes("hello"));
  w.var_bytes({});
  w.str("world");
  Reader r(w.bytes());
  EXPECT_EQ(*r.var_bytes(), to_bytes("hello"));
  EXPECT_EQ(*r.var_bytes(), Bytes{});
  EXPECT_EQ(*r.str(), "world");
  EXPECT_TRUE(r.at_end());
}

TEST(Codec, RawFixedWidth) {
  Writer w;
  w.raw(to_bytes("abc"));
  Reader r(w.bytes());
  EXPECT_EQ(*r.raw(3), to_bytes("abc"));
  EXPECT_FALSE(r.raw(1).ok());
}

TEST(Codec, TruncatedIntegerRejected) {
  Bytes b = {0x01, 0x02};
  Reader r(b);
  auto v = r.u32();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.code(), Errc::truncated);
}

TEST(Codec, LengthPrefixBeyondInputRejected) {
  Writer w;
  w.u32(100);  // claims 100 bytes follow
  w.raw(to_bytes("short"));
  Reader r(w.bytes());
  auto v = r.var_bytes();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.code(), Errc::truncated);
}

TEST(Codec, OversizedLengthPrefixRejected) {
  Writer w;
  w.u32(kMaxFieldLen + 1);
  Reader r(w.bytes());
  auto v = r.var_bytes();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.code(), Errc::oversized);
}

TEST(Codec, TrailingBytesDetected) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r(w.bytes());
  ASSERT_TRUE(r.u8().ok());
  auto end = r.expect_end();
  ASSERT_FALSE(end.ok());
  EXPECT_EQ(end.code(), Errc::malformed);
}

TEST(Codec, EmptyInput) {
  Reader r(BytesView{});
  EXPECT_TRUE(r.at_end());
  EXPECT_FALSE(r.u8().ok());
  EXPECT_TRUE(r.expect_end().ok());
}

TEST(Codec, RemainingTracksPosition) {
  Writer w;
  w.u32(7);
  Reader r(w.bytes());
  EXPECT_EQ(r.remaining(), 4u);
  ASSERT_TRUE(r.u16().ok());
  EXPECT_EQ(r.remaining(), 2u);
}

class CodecFuzzish : public ::testing::TestWithParam<int> {};

// Reading arbitrary byte soup as structured data must never crash and must
// either succeed (consuming bounded input) or produce a clean error.
TEST_P(CodecFuzzish, ArbitraryBytesNeverCrash) {
  enclaves::DeterministicRng rng(static_cast<std::uint64_t>(GetParam()));
  Bytes soup = rng.bytes(rng.below(200));
  Reader r(soup);
  while (!r.at_end()) {
    auto v = r.var_bytes();
    if (!v.ok()) break;
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzzish, ::testing::Range(0, 20));

// The BytesView field kind: decode<KeyTreeUpdateView> accepts exactly what
// decode<KeyTreeUpdatePayload> accepts, refuses the rest with the same
// error code, yields equal fields, and points its blobs into the input.
void expect_view_matches_payload(BytesView raw) {
  const auto owned = decode<KeyTreeUpdatePayload>(raw);
  const auto view = decode<KeyTreeUpdateView>(raw);
  ASSERT_EQ(view.ok(), owned.ok()) << to_hex(raw);
  if (!owned.ok()) {
    EXPECT_EQ(view.code(), owned.code()) << to_hex(raw);
    return;
  }
  EXPECT_EQ(view->l, owned->l);
  EXPECT_EQ(view->epoch, owned->epoch);
  EXPECT_EQ(view->reason, owned->reason);
  EXPECT_EQ(view->depth, owned->depth);
  EXPECT_EQ(view->confirm, owned->confirm);
  ASSERT_EQ(view->entries.size(), owned->entries.size());
  for (std::size_t i = 0; i < owned->entries.size(); ++i) {
    const auto& v = view->entries[i];
    const auto& o = owned->entries[i];
    EXPECT_EQ(v.node, o.node);
    EXPECT_EQ(v.carrier, o.carrier);
    EXPECT_EQ(Bytes(v.sealed.begin(), v.sealed.end()), o.sealed);
    EXPECT_GE(v.sealed.data(), raw.data());
    EXPECT_LE(v.sealed.data() + v.sealed.size(), raw.data() + raw.size());
  }
  EXPECT_EQ(encode(*view), Bytes(raw.begin(), raw.end()));
}

Bytes update_bytes(std::uint32_t depth, std::uint32_t count,
                   std::uint32_t sealed_len, std::size_t sealed_present) {
  Writer w;
  w.u8(KeyTreeUpdatePayload::kType);
  w.str("L");
  w.u64(9);
  w.u8(static_cast<std::uint8_t>(KeyTreeReason::join));
  w.u32(depth);
  w.u32(count);
  w.u32(2);
  w.u32(4);
  w.u32(sealed_len);
  w.raw(Bytes(sealed_present, 0x5a));
  w.raw(Bytes(crypto::HmacSha256::kTagSize, 0x11));
  return std::move(w).take();
}

TEST(CodecBytesView, KeyTreeUpdateViewDecodesExactlyLikeThePayload) {
  const Bytes sample =
      encode(std::get<KeyTreeUpdatePayload>(wire_samples::payloads()));
  expect_view_matches_payload(sample);
  // Every truncation.
  for (std::size_t len = 0; len < sample.size(); ++len)
    expect_view_matches_payload({sample.data(), len});
  // The fuzz sweep's corruptions: one to four flipped bits.
  DeterministicRng rng(99);
  for (int round = 0; round < 400; ++round) {
    Bytes bad = sample;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f)
      bad[rng.below(bad.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    expect_view_matches_payload(bad);
  }
  // Random soup behind the right type octet.
  for (int round = 0; round < 200; ++round) {
    Bytes soup = rng.bytes(rng.below(120));
    soup.insert(soup.begin(), KeyTreeUpdatePayload::kType);
    expect_view_matches_payload(soup);
  }
  // Well-formed, then oversized and short counts and lengths.
  const Bytes ok = update_bytes(3, 1, 5, 5);
  ASSERT_TRUE(decode<KeyTreeUpdateView>(ok).ok());
  expect_view_matches_payload(ok);
  expect_view_matches_payload(update_bytes(3, 1, 0, 0));
  for (const Bytes& raw :
       {update_bytes(kMaxKeyTreeDepth + 1, 1, 5, 5),
        update_bytes(3, kMaxKeyTreeEntries + 1, 5, 5),
        update_bytes(3, 0xffffffff, 5, 5), update_bytes(3, 1000, 5, 5),
        update_bytes(3, 1, kMaxFieldLen + 1, 5),
        update_bytes(3, 1, 0xffffffff, 5), update_bytes(3, 1, 6, 5)}) {
    EXPECT_FALSE(decode<KeyTreeUpdateView>(raw).ok()) << to_hex(raw);
    expect_view_matches_payload(raw);
  }
  EXPECT_EQ(decode<KeyTreeUpdateView>(
                update_bytes(3, kMaxKeyTreeEntries + 1, 5, 5))
                .code(),
            Errc::oversized);
  EXPECT_EQ(decode<KeyTreeUpdateView>(update_bytes(3, 1, kMaxFieldLen + 1, 5))
                .code(),
            Errc::oversized);
}

}  // namespace
}  // namespace enclaves::wire
