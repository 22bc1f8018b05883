#include "wire/frame.h"

namespace enclaves::wire {

void write_frame_header(Writer& w, std::size_t len) {
  w.u32(static_cast<std::uint32_t>(len));
}

Bytes frame(BytesView payload) {
  Writer w(4 + payload.size());
  write_frame_header(w, payload.size());
  w.raw(payload);
  return std::move(w).take();
}

Status FrameDecoder::feed(BytesView chunk) {
  // Frames are cut at an advancing offset, and the consumed prefix is
  // dropped once at the end, so a chunk of k frames costs O(chunk), not
  // O(k * chunk).
  append(buf_, chunk);
  const BytesView in{buf_};
  Status status = Status::success();
  std::size_t off = 0;
  while (in.size() - off >= 4) {
    std::uint32_t n = 0;
    for (std::size_t i = 0; i < 4; ++i) n = (n << 8) | in[off + i];
    if (n > kMaxFrameLen) {
      status = make_error(Errc::oversized, "frame length");
      break;
    }
    if (in.size() - off - 4 < n) break;
    const auto body = in.subspan(off + 4, n);
    ready_.emplace_back(body.begin(), body.end());
    off += 4 + static_cast<std::size_t>(n);
  }
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(off));
  return status;
}

std::optional<Bytes> FrameDecoder::next() {
  if (ready_.empty()) return std::nullopt;
  Bytes f = std::move(ready_.front());
  ready_.pop_front();
  return f;
}

}  // namespace enclaves::wire
