#include "wire/codec.h"

// Compiles the distinct-type-octet check over every payload family.
#include "wire/all_payloads.h"

namespace enclaves::wire {

void Writer::u8(std::uint8_t v) { out_.push_back(v); }

void Writer::u16(std::uint16_t v) {
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
  out_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::u32(std::uint32_t v) {
  for (int i = 3; i >= 0; --i)
    out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 7; i >= 0; --i)
    out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::raw(BytesView b) { out_.insert(out_.end(), b.begin(), b.end()); }

void Writer::var_bytes(BytesView b) {
  u32(static_cast<std::uint32_t>(b.size()));
  raw(b);
}

void Writer::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_.insert(out_.end(), s.begin(), s.end());
}

Result<std::uint8_t> Reader::u8() {
  if (remaining() < 1) return make_error(Errc::truncated, "u8");
  return in_[pos_++];
}

Result<std::uint16_t> Reader::u16() {
  if (remaining() < 2) return make_error(Errc::truncated, "u16");
  std::uint16_t v = static_cast<std::uint16_t>(
      (std::uint16_t{in_[pos_]} << 8) | in_[pos_ + 1]);
  pos_ += 2;
  return v;
}

Result<std::uint32_t> Reader::u32() {
  if (remaining() < 4) return make_error(Errc::truncated, "u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | in_[pos_ + i];
  pos_ += 4;
  return v;
}

Result<std::uint64_t> Reader::u64() {
  if (remaining() < 8) return make_error(Errc::truncated, "u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | in_[pos_ + i];
  pos_ += 8;
  return v;
}

Result<BytesView> Reader::view(std::size_t n) {
  if (remaining() < n) return make_error(Errc::truncated, "raw");
  BytesView out = in_.subspan(pos_, n);
  pos_ += n;
  return out;
}

Result<BytesView> Reader::var_view() {
  auto len = u32();
  if (!len) return len.error();
  if (*len > kMaxFieldLen) return make_error(Errc::oversized, "var_bytes");
  return view(*len);
}

Result<Bytes> Reader::raw(std::size_t n) {
  auto b = view(n);
  if (!b) return b.error();
  return Bytes(b->begin(), b->end());
}

Result<Bytes> Reader::var_bytes() {
  auto b = var_view();
  if (!b) return b.error();
  return Bytes(b->begin(), b->end());
}

Result<std::string> Reader::str() {
  auto b = var_view();
  if (!b) return b.error();
  return std::string(b->begin(), b->end());
}

Status Reader::expect_end() const {
  if (!at_end()) return make_error(Errc::malformed, "trailing bytes");
  return Status::success();
}

}  // namespace enclaves::wire
