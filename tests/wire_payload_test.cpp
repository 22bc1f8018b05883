// Envelope, admin-body, improved-protocol and legacy payload encoders:
// round trips, type confusion resistance, malformed-input rejection.
#include <gtest/gtest.h>

#include "util/rng.h"
#include "wire/admin_body.h"
#include "wire/envelope.h"
#include "wire/legacy_payloads.h"
#include "wire/payloads.h"

namespace enclaves::wire {
namespace {

DeterministicRng& rng() {
  static DeterministicRng r(1234);
  return r;
}

crypto::ProtocolNonce nonce() { return crypto::ProtocolNonce::random(rng()); }
crypto::SessionKey skey() { return crypto::SessionKey::random(rng()); }
crypto::GroupKey gkey() { return crypto::GroupKey::random(rng()); }

TEST(Envelope, RoundTrip) {
  Envelope e{Label::AdminMsg, "L", "alice", to_bytes("payload")};
  auto back = decode<Envelope>(encode(e));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, e);
}

TEST(Envelope, EmptyFieldsRoundTrip) {
  Envelope e{Label::ReqClose, "", "", {}};
  auto back = decode<Envelope>(encode(e));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, e);
}

TEST(Envelope, UnknownLabelRejected) {
  Envelope e{Label::AuthInitReq, "a", "b", {}};
  Bytes raw = encode(e);
  raw[0] = 0xEE;  // not a defined label
  auto back = decode<Envelope>(raw);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.code(), Errc::malformed);
}

TEST(Envelope, TrailingGarbageRejected) {
  Bytes raw = encode(Envelope{Label::Ack, "a", "b", to_bytes("x")});
  raw.push_back(0x00);
  EXPECT_FALSE(decode<Envelope>(raw).ok());
}

TEST(Envelope, TruncationAnywhereRejectedCleanly) {
  Bytes raw = encode(Envelope{Label::AuthKeyDist, "leader", "member",
                              to_bytes("some body bytes")});
  for (std::size_t len = 0; len < raw.size(); ++len) {
    auto r = decode<Envelope>({raw.data(), len});
    EXPECT_FALSE(r.ok()) << "len=" << len;
  }
}

TEST(Envelope, DescribeMentionsParties) {
  std::string d = describe(Envelope{Label::AdminMsg, "L", "bob", {1, 2, 3}});
  EXPECT_NE(d.find("AdminMsg"), std::string::npos);
  EXPECT_NE(d.find("L->bob"), std::string::npos);
}

TEST(Envelope, AllLabelsHaveNames) {
  for (std::uint8_t raw = 0; raw < 255; ++raw) {
    if (!is_known<Label>(raw)) continue;
    EXPECT_STRNE(enum_name(static_cast<Label>(raw)), "?");
  }
}

TEST(AdminBody, AllVariantsRoundTrip) {
  std::vector<AdminBody> bodies = {
      NewGroupKey{gkey(), 42},
      MemberJoined{"alice"},
      MemberLeft{"bob"},
      MemberList{{"a", "b", "c"}},
      Notice{"hello group"},
      Expelled{"policy violation"},
  };
  for (const auto& b : bodies) {
    auto back = decode<AdminBody>(encode(b));
    ASSERT_TRUE(back.ok()) << describe(b);
    EXPECT_EQ(*back, b) << describe(b);
  }
}

TEST(AdminBody, EmptyMemberListRoundTrip) {
  AdminBody b = MemberList{{}};
  auto back = decode<AdminBody>(encode(b));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, b);
}

TEST(AdminBody, UnknownTagRejected) {
  Bytes raw = {0x77};
  EXPECT_FALSE(decode<AdminBody>(raw).ok());
}

TEST(AdminBody, HugeMemberCountRejected) {
  Bytes raw = {0x04, 0xFF, 0xFF, 0xFF, 0xFF};  // member_list, count=2^32-1
  auto r = decode<AdminBody>(raw);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::oversized);
}

TEST(AdminBody, DescribeIsInformative) {
  EXPECT_EQ(describe(AdminBody(MemberJoined{"zoe"})), "MemberJoined(zoe)");
  EXPECT_EQ(describe(AdminBody(NewGroupKey{gkey(), 7})),
            "NewGroupKey(epoch=7)");
  EXPECT_EQ(describe(AdminBody(Expelled{"spam"})), "Expelled(spam)");
}

TEST(Payloads, AuthInitRoundTrip) {
  AuthInitPayload p{"alice", "L", nonce()};
  auto back = decode<AuthInitPayload>(encode(p));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

TEST(Payloads, AuthKeyDistRoundTrip) {
  AuthKeyDistPayload p{"L", "alice", nonce(), nonce(), skey()};
  auto back = decode<AuthKeyDistPayload>(encode(p));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

TEST(Payloads, AuthAckRoundTrip) {
  AuthAckPayload p{nonce(), nonce()};
  auto back = decode<AuthAckPayload>(encode(p));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

TEST(Payloads, AdminRoundTripAllBodies) {
  std::vector<AdminBody> bodies = {NewGroupKey{gkey(), 1},
                                   MemberJoined{"x"}, Notice{"n"}};
  for (const auto& b : bodies) {
    AdminPayload p{"L", "alice", nonce(), nonce(), b};
    auto back = decode<AdminPayload>(encode(p));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, p);
  }
}

TEST(Payloads, AckRoundTrip) {
  AckPayload p{"alice", "L", nonce(), nonce()};
  auto back = decode<AckPayload>(encode(p));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

TEST(Payloads, ReqCloseRoundTrip) {
  ReqClosePayload p{"alice", "L"};
  auto back = decode<ReqClosePayload>(encode(p));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

TEST(Payloads, GroupDataRoundTrip) {
  GroupDataPayload p{"alice", 3, 17, to_bytes("chat line")};
  auto back = decode<GroupDataPayload>(encode(p));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

// Cross-decoding: a payload of one type must never decode as another, even
// though both could be sealed under the same key.
TEST(Payloads, CrossTypeDecodingRejected) {
  Bytes init = encode(AuthInitPayload{"a", "l", nonce()});
  EXPECT_FALSE(decode<AuthKeyDistPayload>(init).ok());
  EXPECT_FALSE(decode<AuthAckPayload>(init).ok());
  EXPECT_FALSE(decode<AdminPayload>(init).ok());
  EXPECT_FALSE(decode<AckPayload>(init).ok());
  EXPECT_FALSE(decode<ReqClosePayload>(init).ok());
  EXPECT_FALSE(decode<GroupDataPayload>(init).ok());

  Bytes ack = encode(AckPayload{"a", "l", nonce(), nonce()});
  EXPECT_FALSE(decode<AuthAckPayload>(ack).ok());
  EXPECT_FALSE(decode<ReqClosePayload>(ack).ok());
}

TEST(Payloads, TruncationRejected) {
  Bytes raw = encode(AuthKeyDistPayload{"L", "alice", nonce(), nonce(),
                                        skey()});
  for (std::size_t len = 0; len < raw.size(); ++len) {
    EXPECT_FALSE(decode<AuthKeyDistPayload>({raw.data(), len}).ok())
        << "len=" << len;
  }
}

TEST(LegacyPayloads, AuthInitRoundTrip) {
  LegacyAuthInitPayload p{"alice", "L", nonce()};
  auto back = decode<LegacyAuthInitPayload>(encode(p));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

TEST(LegacyPayloads, AuthReplyRoundTrip) {
  LegacyAuthReplyPayload p{"L",    "alice",         nonce(), nonce(),
                           skey(), rng().bytes(16), gkey(),  5};
  auto back = decode<LegacyAuthReplyPayload>(encode(p));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

TEST(LegacyPayloads, AuthReplyBadIvLengthRejected) {
  LegacyAuthReplyPayload p{"L",    "alice",        nonce(), nonce(),
                           skey(), rng().bytes(8), gkey(),  5};
  EXPECT_FALSE(decode<LegacyAuthReplyPayload>(encode(p)).ok());
}

TEST(LegacyPayloads, NewKeyRoundTrip) {
  LegacyNewKeyPayload p{gkey(), rng().bytes(16), 9};
  auto back = decode<LegacyNewKeyPayload>(encode(p));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

TEST(LegacyPayloads, NewKeyAckRoundTrip) {
  LegacyNewKeyAckPayload p{gkey()};
  auto back = decode<LegacyNewKeyAckPayload>(encode(p));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

TEST(LegacyPayloads, MembershipRoundTrip) {
  LegacyMembershipPayload p{"mallory"};
  auto back = decode<LegacyMembershipPayload>(encode(p));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

TEST(LegacyPayloads, CrossTypeDecodingRejected) {
  Bytes nk = encode(LegacyNewKeyPayload{gkey(), rng().bytes(16), 1});
  EXPECT_FALSE(decode<LegacyMembershipPayload>(nk).ok());
  EXPECT_FALSE(decode<LegacyAuthAckPayload>(nk).ok());
  // And improved-protocol decoders reject legacy payloads outright.
  EXPECT_FALSE(decode<AdminPayload>(nk).ok());
}

}  // namespace
}  // namespace enclaves::wire
