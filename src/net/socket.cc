#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstdint>
#include <utility>

#include "base/string_util.h"

namespace tmdb {

namespace {

Status Errno(const char* what) {
  return Status::IoError(StrCat(what, ": ", std::strerror(errno)));
}

/// Resolves host:port into an IPv4/IPv6 sockaddr via getaddrinfo.
Status Resolve(const std::string& host, int port, struct addrinfo** out,
               bool passive) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  if (passive) hints.ai_flags = AI_PASSIVE;
  const std::string port_str = StrCat(port);
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               port_str.c_str(), &hints, out);
  if (rc != 0) {
    return Status::IoError(StrCat("getaddrinfo(", host, ":", port,
                                  "): ", gai_strerror(rc)));
  }
  return Status::OK();
}

}  // namespace

Result<Socket> Socket::ConnectTcp(const std::string& host, int port) {
  struct addrinfo* info = nullptr;
  TMDB_RETURN_IF_ERROR(Resolve(host, port, &info, /*passive=*/false));
  Status last = Status::IoError("connect: no addresses resolved");
  for (struct addrinfo* ai = info; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      ::freeaddrinfo(info);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    last = Errno("connect");
    ::close(fd);
  }
  ::freeaddrinfo(info);
  return last;
}

Result<Socket> Socket::ListenTcp(const std::string& host, int port,
                                 int backlog, int* bound_port) {
  struct addrinfo* info = nullptr;
  TMDB_RETURN_IF_ERROR(Resolve(host, port, &info, /*passive=*/true));
  Status last = Status::IoError("listen: no addresses resolved");
  for (struct addrinfo* ai = info; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 ||
        ::listen(fd, backlog) != 0) {
      last = Errno("bind/listen");
      ::close(fd);
      continue;
    }
    if (bound_port != nullptr) {
      struct sockaddr_storage addr;
      socklen_t addr_len = sizeof(addr);
      if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr),
                        &addr_len) != 0) {
        last = Errno("getsockname");
        ::close(fd);
        continue;
      }
      if (addr.ss_family == AF_INET) {
        *bound_port = ntohs(
            reinterpret_cast<struct sockaddr_in*>(&addr)->sin_port);
      } else {
        *bound_port = ntohs(
            reinterpret_cast<struct sockaddr_in6*>(&addr)->sin6_port);
      }
    }
    ::freeaddrinfo(info);
    return Socket(fd);
  }
  ::freeaddrinfo(info);
  return last;
}

Result<Socket> Socket::Accept() {
  if (!valid()) return Status::IoError("accept: listener closed");
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return Errno("accept");
  }
}

Status Socket::SendAll(const void* data, size_t len) {
  if (!valid()) return Status::IoError("send: socket closed");
  const char* p = static_cast<const char*>(data);
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd_, p + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Errno("send");
  }
  return Status::OK();
}

Status Socket::RecvAll(void* data, size_t len, bool* eof) {
  *eof = false;
  if (!valid()) return Status::IoError("recv: socket closed");
  char* p = static_cast<char*>(data);
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd_, p + got, len - got, 0);
    if (n > 0) {
      got += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      if (got == 0) {
        *eof = true;
        return Status::OK();
      }
      return Status::IoError("recv: connection closed mid-frame");
    }
    if (errno == EINTR) continue;
    return Errno("recv");
  }
  return Status::OK();
}

Result<WakeFd> WakeFd::Open() {
  WakeFd wake;
  wake.fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake.fd_ < 0) return Errno("eventfd");
  return wake;
}

void WakeFd::Notify() {
  if (!valid()) return;
  const uint64_t one = 1;
  // Only EINTR can stop the write: the counter cannot reach its
  // 2^64 - 2 ceiling between drains.
  while (::write(fd_, &one, sizeof(one)) < 0 && errno == EINTR) {
  }
}

void WakeFd::Drain() {
  if (!valid()) return;
  uint64_t count = 0;
  // Non-blocking: EAGAIN means nothing was pending.
  while (::read(fd_, &count, sizeof(count)) < 0 && errno == EINTR) {
  }
}

bool WakeFd::Wait(int timeout_ms) const {
  if (!valid()) return false;
  struct pollfd pfd;
  pfd.fd = fd_;
  pfd.events = POLLIN;
  pfd.revents = 0;
  return ::poll(&pfd, 1, timeout_ms) > 0;
}

void WakeFd::Close() {
  if (valid()) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket::PollState Socket::Poll(const WakeFd& wake, int timeout_ms) {
  if (!valid() || !wake.valid()) return PollState::kClosed;
  struct pollfd pfds[2];
  pfds[0].fd = wake.fd();
  pfds[0].events = POLLIN;
  pfds[0].revents = 0;
  pfds[1].fd = fd_;
  pfds[1].events = POLLIN;
  pfds[1].revents = 0;
  const int rc = ::poll(pfds, 2, timeout_ms);
  if (rc < 0) return errno == EINTR ? PollState::kTimeout : PollState::kClosed;
  if (rc == 0) return PollState::kTimeout;
  if (pfds[0].revents != 0) return PollState::kWoken;
  return PollState::kReadable;
}

Status Socket::SetRecvTimeout(int timeout_ms) {
  if (!valid()) return Status::IoError("setsockopt: socket closed");
  struct timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Errno("setsockopt(SO_RCVTIMEO)");
  }
  return Status::OK();
}

void Socket::ShutdownBoth() {
  if (valid()) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (valid()) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status WriteFrame(Socket* socket, FaultInjector* injector,
                  const Frame& frame) {
  std::string bytes;
  bytes.reserve(kWireHeaderBytes + frame.payload.size());
  EncodeFrame(frame, &bytes);
  const WireFaultKind fault =
      injector != nullptr ? injector->ShouldFailSend() : WireFaultKind::kNone;
  switch (fault) {
    case WireFaultKind::kShortWrite: {
      // Model a send that died partway: the peer holds a torn frame and
      // this side learns immediately.
      const Status sent = socket->SendAll(bytes.data(), bytes.size() / 2);
      socket->ShutdownBoth();
      (void)sent;
      return Status::IoError("injected short write on wire");
    }
    case WireFaultKind::kTornFrame: {
      // Model a connection that died in flight *after* the send call
      // returned: this call reports success, the peer holds a torn frame,
      // and this side's next send fails for real.
      const Status sent = socket->SendAll(bytes.data(), bytes.size() / 2);
      socket->ShutdownBoth();
      (void)sent;
      return Status::OK();
    }
    case WireFaultKind::kCorruptCrc: {
      // Flip one bit of the CRC field (byte 20): the frame arrives whole
      // but fails verification at the peer.
      bytes[20] = static_cast<char>(bytes[20] ^ 0x01);
      return socket->SendAll(bytes.data(), bytes.size());
    }
    case WireFaultKind::kDisconnect:
      socket->ShutdownBoth();
      return Status::IoError("injected disconnect on wire");
    default:
      break;
  }
  return socket->SendAll(bytes.data(), bytes.size());
}

Status ReadFrame(Socket* socket, FaultInjector* injector, Frame* frame,
                 bool* eof) {
  *eof = false;
  if (injector != nullptr && injector->ShouldFailRecv()) {
    socket->ShutdownBoth();
    return Status::IoError("injected short read on wire (torn frame)");
  }
  char header_bytes[kWireHeaderBytes];
  TMDB_RETURN_IF_ERROR(socket->RecvAll(header_bytes, sizeof(header_bytes),
                                       eof));
  if (*eof) return Status::OK();
  FrameHeader header;
  TMDB_RETURN_IF_ERROR(DecodeFrameHeader(header_bytes, &header));
  frame->payload.resize(header.payload_len);
  if (header.payload_len > 0) {
    bool payload_eof = false;
    TMDB_RETURN_IF_ERROR(socket->RecvAll(frame->payload.data(),
                                         header.payload_len, &payload_eof));
    if (payload_eof) {
      return Status::IoError("recv: connection closed mid-frame");
    }
  }
  TMDB_RETURN_IF_ERROR(ValidateFramePayload(header, frame->payload));
  frame->type = static_cast<FrameType>(header.type);
  frame->request_id = header.request_id;
  return Status::OK();
}

}  // namespace tmdb
