// Stream framing for the TCP transport: u32 length prefix + payload.
//
// FrameDecoder is an incremental reassembler: feed() arbitrary chunks (as
// delivered by the socket), poll next() for complete frames.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "util/bytes.h"
#include "util/result.h"
#include "wire/codec.h"

namespace enclaves::wire {

/// Upper bound on a frame body; a peer announcing more is faulty/hostile.
constexpr std::uint32_t kMaxFrameLen = 4u << 20;  // 4 MiB

/// Writes the frame header (the big-endian u32 length) of a `len`-byte
/// body; the body follows it.
void write_frame_header(Writer& w, std::size_t len);

/// Length-prefixes `payload`.
Bytes frame(BytesView payload);

class FrameDecoder {
 public:
  /// Appends raw stream bytes. Returns Errc::oversized if a frame header
  /// announces more than kMaxFrameLen (the connection should be dropped).
  Status feed(BytesView chunk);

  /// Pops the next complete frame, if any.
  std::optional<Bytes> next();

  /// Bytes buffered but not yet forming a complete frame.
  std::size_t pending_bytes() const { return buf_.size(); }

 private:
  Bytes buf_;
  std::deque<Bytes> ready_;
};

}  // namespace enclaves::wire
