// Envelope-bound sealing (the {X}_K realization) and TCP stream framing.
#include <gtest/gtest.h>

#include <vector>

#include "tests/alloc_hook.h"
#include "util/rng.h"
#include "wire/envelope.h"
#include "wire/frame.h"
#include "wire/seal.h"

namespace enclaves::wire {
namespace {

// The AAD is sized before it is written: one allocation, whatever the
// lengths of the sender and recipient names.
TEST(Seal, EnvelopeAadAllocatesOnce) {
  const std::string long_name(300, 'm');
  for (std::string_view recipient : {"", "alice", long_name.c_str()}) {
    testing_support::g_allocations = 0;
    testing_support::g_count_allocations = true;
    const Bytes aad = envelope_aad(Label::AdminMsg, "L", recipient);
    testing_support::g_count_allocations = false;
    const std::size_t allocations = testing_support::g_allocations;
    EXPECT_EQ(allocations, 1u) << "recipient length " << recipient.size();
    EXPECT_EQ(aad.size(), 1 + 4 + 1 + 4 + recipient.size());
  }
}

// A seal appends ciphertext and tag straight after the nonce: the body and
// the AAD are the only allocations, with either AEAD.
TEST(Seal, SealBodyAllocatesBodyAndAadOnly) {
  DeterministicRng rng(3);
  const Bytes key = rng.bytes(32);
  const Bytes plaintext = rng.bytes(73);
  for (const crypto::Aead* aead :
       {&crypto::chacha20poly1305(), &crypto::aes256gcm()}) {
    testing_support::g_allocations = 0;
    testing_support::g_count_allocations = true;
    const Bytes body = seal_body(*aead, key, rng, Label::AdminMsg, "L",
                                 "member-042", plaintext);
    testing_support::g_count_allocations = false;
    EXPECT_EQ(testing_support::g_allocations, 2u) << aead->name();
    EXPECT_EQ(body.size(), kSealOverhead + plaintext.size());
    auto opened = open_body(*aead, key, Label::AdminMsg, "L", "member-042",
                            body);
    ASSERT_TRUE(opened.ok()) << aead->name();
    EXPECT_EQ(*opened, plaintext);
  }
}

TEST(Seal, RoundTrip) {
  DeterministicRng rng(1);
  Bytes key = rng.bytes(32);
  auto env = make_sealed(crypto::default_aead(), key, rng, Label::AdminMsg,
                         "L", "alice", to_bytes("secret"));
  EXPECT_EQ(env.label, Label::AdminMsg);
  auto plain = open_sealed(crypto::default_aead(), key, env);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(*plain, to_bytes("secret"));
}

TEST(Seal, HeaderTamperingBreaksAuthentication) {
  DeterministicRng rng(2);
  Bytes key = rng.bytes(32);
  auto env = make_sealed(crypto::default_aead(), key, rng, Label::AdminMsg,
                         "L", "alice", to_bytes("secret"));
  // Re-label the ciphertext: the AAD binding must reject it.
  auto relabeled = env;
  relabeled.label = Label::Ack;
  EXPECT_FALSE(open_sealed(crypto::default_aead(), key, relabeled).ok());
  // Re-address it.
  auto readdressed = env;
  readdressed.recipient = "bob";
  EXPECT_FALSE(open_sealed(crypto::default_aead(), key, readdressed).ok());
  auto respoofed = env;
  respoofed.sender = "mallory";
  EXPECT_FALSE(open_sealed(crypto::default_aead(), key, respoofed).ok());
}

TEST(Seal, VerbatimReplayStillOpens) {
  // Sealing binds addressing but NOT freshness: the protocol layer provides
  // that. This test documents the boundary.
  DeterministicRng rng(3);
  Bytes key = rng.bytes(32);
  auto env = make_sealed(crypto::default_aead(), key, rng, Label::AdminMsg,
                         "L", "alice", to_bytes("x"));
  EXPECT_TRUE(open_sealed(crypto::default_aead(), key, env).ok());
  EXPECT_TRUE(open_sealed(crypto::default_aead(), key, env).ok());
}

TEST(Seal, WrongKeyRejected) {
  DeterministicRng rng(4);
  Bytes key = rng.bytes(32), other = rng.bytes(32);
  auto env = make_sealed(crypto::default_aead(), key, rng, Label::Ack, "a",
                         "l", to_bytes("x"));
  auto r = open_sealed(crypto::default_aead(), other, env);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::auth_failed);
}

TEST(Seal, TooShortBodyRejected) {
  Bytes key(32, 1);
  Envelope env{Label::Ack, "a", "l", Bytes(10, 0)};
  auto r = open_sealed(crypto::default_aead(), key, env);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::truncated);
}

TEST(Seal, FreshNoncePerSeal) {
  DeterministicRng rng(5);
  Bytes key = rng.bytes(32);
  auto e1 = make_sealed(crypto::default_aead(), key, rng, Label::Ack, "a",
                        "l", to_bytes("x"));
  auto e2 = make_sealed(crypto::default_aead(), key, rng, Label::Ack, "a",
                        "l", to_bytes("x"));
  EXPECT_NE(e1.body, e2.body);  // random nonce => distinct ciphertexts
}

TEST(Frame, RoundTripSingle) {
  FrameDecoder d;
  ASSERT_TRUE(d.feed(frame(to_bytes("hello"))).ok());
  auto f = d.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(*f, to_bytes("hello"));
  EXPECT_FALSE(d.next().has_value());
}

TEST(Frame, EmptyPayload) {
  FrameDecoder d;
  ASSERT_TRUE(d.feed(frame({})).ok());
  auto f = d.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_TRUE(f->empty());
}

TEST(Frame, MultipleFramesOneChunk) {
  Bytes stream = frame(to_bytes("one"));
  append(stream, frame(to_bytes("two")));
  append(stream, frame(to_bytes("three")));
  FrameDecoder d;
  ASSERT_TRUE(d.feed(stream).ok());
  EXPECT_EQ(*d.next(), to_bytes("one"));
  EXPECT_EQ(*d.next(), to_bytes("two"));
  EXPECT_EQ(*d.next(), to_bytes("three"));
  EXPECT_FALSE(d.next().has_value());
}

class FrameChunked : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FrameChunked, ByteAtATimeReassembly) {
  const std::size_t chunk = GetParam();
  Bytes stream = frame(to_bytes("alpha"));
  append(stream, frame(Bytes(300, 0x7F)));
  append(stream, frame(to_bytes("omega")));

  FrameDecoder d;
  for (std::size_t off = 0; off < stream.size(); off += chunk) {
    std::size_t n = std::min(chunk, stream.size() - off);
    ASSERT_TRUE(d.feed({stream.data() + off, n}).ok());
  }
  EXPECT_EQ(*d.next(), to_bytes("alpha"));
  EXPECT_EQ(*d.next(), Bytes(300, 0x7F));
  EXPECT_EQ(*d.next(), to_bytes("omega"));
  EXPECT_FALSE(d.next().has_value());
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, FrameChunked,
                         ::testing::Values<std::size_t>(1, 2, 3, 5, 7, 64,
                                                        1000));

// 1 000 small frames of varying length and content, as one stream.
std::vector<Bytes> many_small_frames(Bytes& stream) {
  std::vector<Bytes> bodies;
  for (std::size_t i = 0; i < 1000; ++i) {
    Bytes body(i % 23, static_cast<std::uint8_t>(i));
    if (!body.empty()) body.back() = static_cast<std::uint8_t>(i >> 8);
    append(stream, frame(body));
    bodies.push_back(std::move(body));
  }
  return bodies;
}

TEST(Frame, ThousandFramesOneChunkInOrder) {
  Bytes stream;
  const auto bodies = many_small_frames(stream);
  FrameDecoder d;
  ASSERT_TRUE(d.feed(stream).ok());
  EXPECT_EQ(d.pending_bytes(), 0u);
  for (const auto& body : bodies) {
    auto f = d.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(*f, body);
  }
  EXPECT_FALSE(d.next().has_value());
}

TEST(Frame, ThousandFramesByteByByteInOrder) {
  Bytes stream;
  const auto bodies = many_small_frames(stream);
  FrameDecoder d;
  for (std::uint8_t b : stream) ASSERT_TRUE(d.feed({&b, 1}).ok());
  EXPECT_EQ(d.pending_bytes(), 0u);
  for (const auto& body : bodies) {
    auto f = d.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(*f, body);
  }
  EXPECT_FALSE(d.next().has_value());
}

TEST(Frame, FramesBeforeAnOversizedHeaderAreKept) {
  Bytes stream = frame(to_bytes("ok"));
  append(stream, Bytes{0xFF, 0xFF, 0xFF, 0xFF});
  FrameDecoder d;
  auto s = d.feed(stream);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Errc::oversized);
  EXPECT_EQ(*d.next(), to_bytes("ok"));
  EXPECT_EQ(d.pending_bytes(), 4u);
}

TEST(Frame, EncodeFramedEqualsFrameOfEncode) {
  for (std::size_t size : {std::size_t{0}, std::size_t{64}, std::size_t{16384}}) {
    DeterministicRng rng(size + 1);
    const Envelope e{Label::GroupData, "alice", kGroupRecipient,
                     rng.bytes(size)};
    EXPECT_EQ(encode_framed(e), frame(encode(e))) << "body " << size;
  }
}

TEST(Frame, OversizedHeaderRejected) {
  Bytes evil = {0xFF, 0xFF, 0xFF, 0xFF};  // 4 GiB announcement
  FrameDecoder d;
  auto s = d.feed(evil);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Errc::oversized);
}

TEST(Frame, PendingBytesReported) {
  FrameDecoder d;
  Bytes partial = frame(Bytes(100, 1));
  ASSERT_TRUE(d.feed({partial.data(), 50}).ok());
  EXPECT_EQ(d.pending_bytes(), 50u);
  EXPECT_FALSE(d.next().has_value());
}

}  // namespace
}  // namespace enclaves::wire
