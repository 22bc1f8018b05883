// Every payload type of every family, in one list: the codec's table of
// type octets. The static_assert holds the octets distinct across all
// families, so no payload sealed under one plane's key can decode as
// another's. The robustness tests sweep every decoder from this list.
#pragma once

#include <tuple>

#include "wire/fed.h"
#include "wire/keytree.h"
#include "wire/legacy_payloads.h"
#include "wire/payloads.h"
#include "wire/reconcile.h"
#include "wire/repl.h"

namespace enclaves::wire {

using AllPayloads = std::tuple<
    // Improved protocol, 0xA1-0xA7 (payloads.h).
    AuthInitPayload, AuthKeyDistPayload, AuthAckPayload, AdminPayload,
    AckPayload, ReqClosePayload, GroupDataPayload,
    // Key tree, 0x60-0x63 (keytree.h).
    KeyTreeNodeKek, KeyTreeUpdatePayload, KeyTreeRecoverPayload,
    KeyTreePathPayload,
    // Legacy protocol, 0xB1-0xB6 (legacy_payloads.h).
    LegacyAuthInitPayload, LegacyAuthReplyPayload, LegacyAuthAckPayload,
    LegacyNewKeyPayload, LegacyNewKeyAckPayload, LegacyMembershipPayload,
    // Federation, 0xF1-0xF5 (fed.h).
    FedRedirectPayload, FedMigrateOfferPayload, FedMigrateAckPayload,
    FedMigrateCommitPayload, FedDirSyncPayload,
    // Replication, 0xE1-0xE4 (repl.h).
    ReplDeltaPayload, ReplSnapshotPayload, ReplAckPayload,
    ReplHeartbeatPayload,
    // Reconciliation, 0xC1-0xC3 (reconcile.h).
    ReconcileOfferPayload, ReconcileVerdictPayload, OpReplayPayload>;

static_assert(kDistinctTypeOctets<AllPayloads>,
              "two payload types share a type octet");

}  // namespace enclaves::wire
