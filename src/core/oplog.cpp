#include "core/oplog.h"

#include "wire/seal.h"

namespace enclaves::core {

namespace {

// The chain link's MAC input: prev_mac || seq || epoch || u32 len + payload.
struct ChainInput {
  crypto::HmacSha256::Tag prev;
  std::uint64_t seq = 0;
  std::uint64_t epoch = 0;
  BytesView payload;
  auto fields() { return std::tie(prev, seq, epoch, payload); }
};

}  // namespace

crypto::HmacSha256::Tag OpLog::chain_next(BytesView chain_key,
                                          const crypto::HmacSha256::Tag& prev,
                                          std::uint64_t seq,
                                          std::uint64_t epoch,
                                          BytesView payload) {
  return crypto::HmacSha256::mac(
      chain_key, wire::encode(ChainInput{prev, seq, epoch, payload}));
}

Status OpLog::append(std::uint64_t epoch, BytesView payload) {
  if (!keyed_)
    return make_error(Errc::denied, "op-log has no chain key");
  if (entries_.size() >= kMaxEntries)
    return make_error(Errc::oversized, "op-log full");
  Entry e;
  e.seq = entries_.size() + 1;
  e.epoch = epoch;
  e.payload.assign(payload.begin(), payload.end());
  e.mac = chain_next(chain_key_.view(), head(), e.seq, epoch, payload);
  entries_.push_back(std::move(e));
  return Status::success();
}

Bytes OpLog::serialize(BytesView storage_key) const {
  return wire::mac_encode(*this, storage_key);
}

Result<OpLog> OpLog::deserialize(BytesView data, BytesView storage_key) {
  auto log = wire::mac_decode<OpLog>(data, storage_key);
  if (!log) return log;
  for (std::size_t i = 0; i < log->entries_.size(); ++i) {
    if (log->entries_[i].seq != i + 1)
      return make_error(Errc::malformed, "op-log seq not contiguous");
  }
  return log;
}

}  // namespace enclaves::core
