#include "net/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

#include "obs/metrics.h"
#include "obs/prof.h"
#include "util/logging.h"

namespace enclaves::net {

namespace {

constinit obs::Counter g_envelopes_sent{"net", "tcp", "envelopes_sent_total"};
constinit obs::Counter g_bytes_sent{"net", "tcp", "bytes_sent_total"};
constinit obs::Counter g_bytes_received{"net", "tcp", "bytes_received_total"};
constinit obs::Counter g_envelopes_received{"net", "tcp",
                                            "envelopes_received_total"};

Status set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    return make_error(Errc::io_error, "fcntl O_NONBLOCK");
  return Status::success();
}

}  // namespace

TcpNode::~TcpNode() {
  for (auto& [fd, conn] : conns_) ::close(fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Result<std::uint16_t> TcpNode::listen(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return make_error(Errc::io_error, "socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return make_error(Errc::io_error, std::string("bind: ") + strerror(errno));
  }
  if (::listen(fd, 64) < 0) {
    ::close(fd);
    return make_error(Errc::io_error, "listen");
  }
  if (auto s = set_nonblocking(fd); !s) {
    ::close(fd);
    return s.error();
  }

  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    return make_error(Errc::io_error, "getsockname");
  }
  listen_fd_ = fd;
  return static_cast<std::uint16_t>(ntohs(addr.sin_port));
}

Result<ConnId> TcpNode::connect(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return make_error(Errc::io_error, "socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  // Blocking connect (loopback: effectively immediate), then non-blocking IO.
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return make_error(Errc::io_error,
                      std::string("connect: ") + strerror(errno));
  }
  if (auto s = set_nonblocking(fd); !s) {
    ::close(fd);
    return s.error();
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  conns_.emplace(fd, Conn{});
  return fd;
}

Status TcpNode::send(ConnId conn, const wire::Envelope& envelope) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) return make_error(Errc::closed, "no such connection");
  PROF_SCOPE("net/tcp/send");
  Bytes framed = wire::encode_framed(envelope);
  obs::prof_bytes(framed.size());
  g_envelopes_sent.add();
  g_bytes_sent.add(framed.size());
  Bytes& out = it->second.out;
  if (out.empty())
    out = std::move(framed);  // nothing queued: flush this buffer as is
  else
    append(out, framed);
  if (!flush(conn)) return make_error(Errc::io_error, "send failed");
  return Status::success();
}

void TcpNode::close_conn(ConnId conn) {
  if (conns_.count(conn)) drop(conn);
}

void TcpNode::accept_pending() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) break;  // EAGAIN or error: nothing more to accept
    if (auto s = set_nonblocking(fd); !s) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    conns_.emplace(fd, Conn{});
    if (cb_.on_connect) cb_.on_connect(fd);
  }
}

bool TcpNode::read_from(ConnId fd) {
  PROF_SCOPE("net/tcp/recv");
  auto it = conns_.find(fd);
  if (it == conns_.end()) return false;
  std::uint8_t buf[16384];
  while (true) {
    ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n > 0) {
      obs::prof_bytes(static_cast<std::uint64_t>(n));
      g_bytes_received.add(static_cast<std::uint64_t>(n));
      if (auto s = it->second.decoder.feed({buf, static_cast<std::size_t>(n)});
          !s) {
        ENCLAVES_LOG(warn) << "oversized frame from fd " << fd << "; dropping";
        drop(fd);
        return true;
      }
      continue;
    }
    if (n == 0) {  // orderly shutdown
      drop(fd);
      return true;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    drop(fd);
    return true;
  }

  // Dispatch complete frames. The connection may be dropped by a callback,
  // so re-look-up each round.
  while (true) {
    auto again = conns_.find(fd);
    if (again == conns_.end()) break;
    auto f = again->second.decoder.next();
    if (!f) break;
    auto env = wire::decode_envelope(*f);
    if (!env) {
      ENCLAVES_LOG(warn) << "undecodable envelope from fd " << fd
                         << " (" << env.error().to_string() << ")";
      continue;  // hostile bytes are ignored, not fatal
    }
    g_envelopes_received.add();
    if (cb_.on_envelope) cb_.on_envelope(fd, *env);
  }
  return true;
}

bool TcpNode::flush(ConnId fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return false;
  Bytes& out = it->second.out;
  std::size_t off = 0;
  while (off < out.size()) {
    ssize_t n = ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    drop(fd);
    return false;
  }
  out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(off));
  return true;
}

void TcpNode::drop(ConnId fd) {
  conns_.erase(fd);
  ::close(fd);
  if (cb_.on_disconnect) cb_.on_disconnect(fd);
}

std::size_t TcpNode::poll_once(int timeout_ms) {
  std::vector<pollfd> fds;
  if (listen_fd_ >= 0) fds.push_back({listen_fd_, POLLIN, 0});
  for (const auto& [fd, conn] : conns_) {
    short events = POLLIN;
    if (!conn.out.empty()) events |= POLLOUT;
    fds.push_back({fd, events, 0});
  }
  if (fds.empty()) return 0;

  int rc = ::poll(fds.data(), fds.size(), timeout_ms);
  if (rc <= 0) return 0;

  std::size_t handled = 0;
  for (const auto& p : fds) {
    if (p.revents == 0) continue;
    ++handled;
    if (p.fd == listen_fd_) {
      accept_pending();
      continue;
    }
    if (p.revents & (POLLERR | POLLHUP)) {
      if (conns_.count(p.fd)) drop(p.fd);
      continue;
    }
    if (p.revents & POLLIN) read_from(p.fd);
    if ((p.revents & POLLOUT) && conns_.count(p.fd)) flush(p.fd);
  }
  return handled;
}

void TcpNode::run_for(int deadline_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - std::chrono::steady_clock::now())
                    .count();
    poll_once(static_cast<int>(std::max<long long>(1, left)));
  }
}

}  // namespace enclaves::net
