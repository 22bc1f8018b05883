// Pinned encodings: one fixed instance of every wire shape (wire_samples.h)
// must encode to exactly these bytes. A codec change that moves a single
// octet of any payload, AdminBody alternative or the envelope fails here.
#include <gtest/gtest.h>

#include <string_view>

#include "app/group_chat.h"
#include "app/shared_state.h"
#include "core/oplog.h"
#include "tests/wire_samples.h"
#include "util/hex.h"

namespace enclaves {
namespace {

struct Pinned {
  std::string_view name;
  std::string_view hex;
};

// In wire_samples::payloads() order.
constexpr Pinned kPayloads[] = {
    {"AuthInitPayload",
     "a100000005616c696365000000014c0102030405060708090a0b0c0d"
     "0e0f10"},
    {"AuthKeyDistPayload",
     "a2000000014c00000005616c6963650102030405060708090a0b0c0d"
     "0e0f101112131415161718191a1b1c1d1e1f20212223242526272829"
     "2a2b2c2d2e2f303132333435363738393a3b3c3d3e3f40"},
    {"AuthAckPayload",
     "a31112131415161718191a1b1c1d1e1f203132333435363738393a3b"
     "3c3d3e3f40"},
    {"AdminPayload",
     "a4000000014c00000005616c6963653132333435363738393a3b3c3d"
     "3e3f404142434445464748494a4b4c4d4e4f50000000080200000003"
     "626f62"},
    {"AckPayload",
     "a500000005616c696365000000014c4142434445464748494a4b4c4d"
     "4e4f505152535455565758595a5b5c5d5e5f60"},
    {"ReqClosePayload",
     "a600000005616c696365000000014c"},
    {"GroupDataPayload",
     "a700000005616c696365000000000000000400000000000000020000"
     "00056162636465"},
    {"KeyTreeNodeKek",
     "60000000030000000000000005707172737475767778797a7b7c7d7e"
     "7f808182838485868788898a8b8c8d8e8f"},
    {"KeyTreeUpdatePayload",
     "61000000014c00000000000000060200000002000000020000000200"
     "000004000000038081820000000100000002000000029091a0a1a2a3"
     "a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf"},
    {"KeyTreeRecoverPayload",
     "6200000005616c696365000000014c02030405060708090a0b0c0d0e"
     "0f10110000000000000005"},
    {"KeyTreePathPayload",
     "63000000014c00000005616c69636502030405060708090a0b0c0d0e"
     "0f101100000000000000050000000400000002000000020000000000"
     "00000512131415161718191a1b1c1d1e1f202122232425262728292a"
     "2b2c2d2e2f303100000001000000000000000532333435363738393a"
     "3b3c3d3e3f404142434445464748494a4b4c4d4e4f50515253545556"
     "5758595a5b5c5d5e5f606162636465666768696a6b6c6d6e6f7071"},
    {"LegacyAuthInitPayload",
     "b100000005616c696365000000014c030405060708090a0b0c0d0e0f"
     "101112"},
    {"LegacyAuthReplyPayload",
     "b2000000014c00000005616c696365030405060708090a0b0c0d0e0f"
     "101112131415161718191a1b1c1d1e1f202122232425262728292a2b"
     "2c2d2e2f303132333435363738393a3b3c3d3e3f4041420000001043"
     "4445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f"
     "606162636465666768696a6b6c6d6e6f7071720000000000000001"},
    {"LegacyAuthAckPayload",
     "b3131415161718191a1b1c1d1e1f202122"},
    {"LegacyNewKeyPayload",
     "b4636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d"
     "7e7f80818200000010838485868788898a8b8c8d8e8f909192000000"
     "0000000002"},
    {"LegacyNewKeyAckPayload",
     "b5636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d"
     "7e7f808182"},
    {"LegacyMembershipPayload",
     "b600000003626f62"},
    {"FedRedirectPayload",
     "f100000001670000000473312f670000000473322f67000000000000"
     "0003"},
    {"FedMigrateOfferPayload",
     "f20000000167000000027331000000027332000000000000000b0000"
     "00000000000c000000000000000d0000000404050607"},
    {"FedMigrateAckPayload",
     "f30000000167000000000000000b0100000000000003f4"},
    {"FedMigrateCommitPayload",
     "f40000000167000000000000000b000000000000000e"},
    {"FedDirSyncPayload",
     "f50000000167000000027332000000000000000e"},
    {"ReplDeltaPayload",
     "e1000000000000000800000000000000150000000200000001000000"
     "046461766505060708090a0b0c0d0e0f101112131415161718191a1b"
     "1c1d1e1f202122232400000008736e617073686f7400000001000000"
     "046572696e0000000100000004646176650000000500000000000000"
     "01000000056672616e6b25262728292a2b2c2d2e2f30313233343536"
     "3738393a3b3c3d3e3f40414243440000000000000003000000010000"
     "0003677573"},
    {"ReplSnapshotPayload",
     "e2000000000000000800000000000000150000000425262728"},
    {"ReplAckPayload",
     "e3000000000000001500000000000000080001"},
    {"ReplHeartbeatPayload",
     "e400000000000000080000000000000016"},
    {"ReconcileOfferPayload",
     "c100000005616c696365000000014c060708090a0b0c0d0e0f101112"
     "13141500000000000000030000000000000002161718191a1b1c1d1e"
     "1f202122232425262728292a2b2c2d2e2f303132333435"},
    {"ReconcileVerdictPayload",
     "c2000000014c00000005616c696365060708090a0b0c0d0e0f101112"
     "1314150100000000000000040000000000000001"},
    {"OpReplayPayload",
     "c300000005616c696365000000000000000100000000000000033637"
     "38393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f50515253"
     "545500000003565758"},
    {"AdminBody",
     "040000000200000005616c69636500000003626f62"},
    {"Envelope",
     "04000000014c00000005616c696365000000060708090a0b0c"},
};

// In wire_samples::admin_bodies() order.
constexpr Pinned kAdminBodies[] = {
    {"NewGroupKey",
     "01404142434445464748494a4b4c4d4e4f505152535455565758595a"
     "5b5c5d5e5f0000000000000007"},
    {"MemberJoined",
     "0200000003626f62"},
    {"MemberLeft",
     "03000000056361726f6c"},
    {"MemberList",
     "040000000200000005616c69636500000003626f62"},
    {"Notice",
     "05000000026869"},
    {"Expelled",
     "06000000046f6f7073"},
    {"KeyTreeAssign",
     "070000000900000003"},
};

template <class Tuple>
void expect_pinned(const Tuple& samples, const Pinned* pinned, std::size_t n,
                   auto to_encode) {
  ASSERT_EQ(std::tuple_size_v<Tuple>, n);
  std::size_t i = 0;
  const auto check = [&](const auto& sample) {
    EXPECT_EQ(to_hex(wire::encode(to_encode(sample))), pinned[i].hex)
        << pinned[i].name;
    ++i;
  };
  std::apply([&](const auto&... sample) { (check(sample), ...); }, samples);
}

TEST(WireBytes, EveryPayloadEncodesToItsPinnedBytes) {
  expect_pinned(wire_samples::payloads(), kPayloads, std::size(kPayloads),
                [](const auto& s) -> const auto& { return s; });
}

TEST(WireBytes, EveryAdminBodyAlternativeEncodesToItsPinnedBytes) {
  expect_pinned(wire_samples::admin_bodies(), kAdminBodies,
                std::size(kAdminBodies),
                [](const auto& s) { return wire::AdminBody(s); });
}

// The application payloads ride the sealed data plane between members of
// different builds, so their bytes are pinned like the wire payloads': one
// chat message of each kind and every shared-state alternative.
TEST(WireBytes, AppPayloadsEncodeToTheirPinnedBytes) {
  using namespace app;
  const Pinned pinned[] = {
      {"ChatMessage/text",
       "c40100000005616c6963650000000000000007000000026869"},
      {"ChatMessage/presence",
       "c40200000003626f6201020304050607080000000461776179"},
      {"StateUpdate",
       "d100000005636f6c6f7200000004626c756500000000000000070000"
       "0005616c69636500"},
      {"SnapshotRequest", "d2"},
      {"SnapshotReply",
       "d3000000020000000161000000013100000000000000010000000178"
       "000000000162000000000000000000000002000000017901"},
  };
  const Bytes encoded[] = {
      wire::encode(ChatMessage{ChatKind::text, "alice", "hi", 7}),
      wire::encode(ChatMessage{ChatKind::presence, "bob", "away",
                               0x0102030405060708}),
      wire::encode(
          StateUpdate{"color", Entry{"blue", Version{7, "alice"}, false}}),
      wire::encode(SnapshotRequest{}),
      wire::encode(SnapshotReply{{{"a", Entry{"1", Version{1, "x"}, false}},
                                  {"b", Entry{"", Version{2, "y"}, true}}}}),
  };
  for (std::size_t i = 0; i < std::size(pinned); ++i)
    EXPECT_EQ(to_hex(encoded[i]), pinned[i].hex) << pinned[i].name;
}

// The two stored blobs (wire_samples::blobs()), before their MAC. These
// bytes name the storage format: a change here strands every blob stored
// before it.
TEST(WireBytes, StoredBlobsEncodeToTheirPinnedBytes) {
  const auto blobs = wire_samples::blobs();
  // Type octet, epoch, credentials, depth, slots, parole.
  EXPECT_EQ(to_hex(wire::encode(std::get<core::LeaderSnapshot>(blobs))),
            "9100000000000000090000000100000005616c69636508090a0b0c0d"
            "0e0f101112131415161718191a1b1c1d1e1f20212223242526270000"
            "00027077000000020000000100000005616c69636500000003000000"
            "0100000003626f6228292a2b2c2d2e2f303132333435363738393a3b"
            "3c3d3e3f40414243444546470000000000000004");
  // Type octet, count, then seq, epoch, chain MAC and payload per entry.
  EXPECT_EQ(to_hex(wire::encode(std::get<core::OpLog>(blobs))),
            "920000000100000000000000010000000000000002f8ccedb3bc5580"
            "0e9352652ca8d26e8c19517124dc10e26129b51bc14db2b318000000"
            "0368696a");
}

// The op-log chain link is recomputed by the leader from the replayed ops
// (PROTOCOL.md §12): a moved octet in its MAC input would break every
// chain head a partitioned member already holds.
TEST(WireBytes, OpLogChainLinkIsPinned) {
  using wire_samples::key;
  const auto link = core::OpLog::chain_next(
      key<crypto::SessionKey>(0x11).view(), wire_samples::tag(0x31), 2, 9,
      wire_samples::pattern(3, 0x51));
  EXPECT_EQ(to_hex({link.data(), link.size()}),
            "0fb8fd3efa8024753fb53193ec4287041384d3e80e0e6c8c0b6d852f"
            "322c6d63");
}

}  // namespace
}  // namespace enclaves
