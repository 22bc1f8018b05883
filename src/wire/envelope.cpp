#include "wire/envelope.h"

#include "wire/frame.h"

namespace enclaves::wire {

Bytes encode_framed(const Envelope& e) {
  const std::size_t n = encoded_size(e);
  Writer w(4 + n);
  write_frame_header(w, n);
  write(w, e);
  return std::move(w).take();
}

std::string describe(const Envelope& e) {
  std::string s = enum_name(e.label);
  s += " ";
  s += e.sender;
  s += "->";
  s += e.recipient;
  s += " (";
  s += std::to_string(e.body.size());
  s += "B)";
  return s;
}

}  // namespace enclaves::wire
