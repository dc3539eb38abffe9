#ifndef TMDB_NET_SOCKET_H_
#define TMDB_NET_SOCKET_H_

#include <string>

#include "base/fault_injector.h"
#include "base/result.h"
#include "base/status.h"
#include "net/wire.h"

namespace tmdb {

/// A completion fd: an eventfd one thread notifies to wake another out of
/// Socket::Poll at once, instead of the poller finding out on a timer.
/// Notifications accumulate until Drain. Move-only; Open may fail (fd
/// exhaustion), and every operation on an invalid WakeFd is a no-op.
class WakeFd {
 public:
  WakeFd() = default;
  ~WakeFd() { Close(); }
  WakeFd(const WakeFd&) = delete;
  WakeFd& operator=(const WakeFd&) = delete;
  WakeFd(WakeFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  WakeFd& operator=(WakeFd&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  static Result<WakeFd> Open();

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Wakes the poller (callable from any thread).
  void Notify();
  /// Waits up to `timeout_ms` (< 0: no timeout) for a notification; true
  /// when one is pending. Does not drain.
  bool Wait(int timeout_ms) const;
  /// Consumes every pending notification, so the next Poll blocks again.
  void Drain();

 private:
  void Close();

  int fd_ = -1;
};

/// Move-only RAII wrapper over one TCP socket fd. All operations return
/// Status — the engine is exception-free and so is the wire. Sends use
/// MSG_NOSIGNAL, so a vanished peer surfaces as kIoError, never SIGPIPE.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  /// Connects to host:port (numeric or resolvable host).
  static Result<Socket> ConnectTcp(const std::string& host, int port);

  /// Binds and listens on host:port. Port 0 binds an ephemeral port —
  /// the actual port is reported through `bound_port` — so parallel test
  /// jobs never collide.
  static Result<Socket> ListenTcp(const std::string& host, int port,
                                  int backlog, int* bound_port);

  /// Accepts one connection (blocking). kIoError when the listener was
  /// shut down or accept failed.
  Result<Socket> Accept();

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Sends exactly `len` bytes or fails with kIoError.
  Status SendAll(const void* data, size_t len);

  /// Receives exactly `len` bytes. A clean peer close before the first
  /// byte sets *eof and returns OK; a close mid-buffer is kIoError (the
  /// caller was mid-frame — that is a torn frame).
  Status RecvAll(void* data, size_t len, bool* eof);

  enum class PollState { kReadable, kWoken, kTimeout, kClosed };

  /// Waits until the socket becomes readable (data or EOF/hangup — both
  /// report kReadable so the caller's read sees which) or `wake` is
  /// notified (kWoken, reported ahead of kReadable when both are ready;
  /// `wake` is not drained). `timeout_ms` < 0 waits with no timeout.
  /// kClosed on poll errors or an invalid socket or WakeFd.
  PollState Poll(const WakeFd& wake, int timeout_ms);

  /// Sets SO_RCVTIMEO so blocked reads fail with kIoError after
  /// `timeout_ms` instead of hanging forever on a torn stream. 0 disables.
  Status SetRecvTimeout(int timeout_ms);

  /// shutdown(SHUT_RDWR): unblocks this socket's blocking reads (they see
  /// EOF) and the peer's (they see a closed connection). The fd stays
  /// valid until Close, so a racing reader never touches a reused fd.
  void ShutdownBoth();

  void Close();

 private:
  int fd_ = -1;
};

/// Writes one frame, consulting `injector`'s wire send channel at the
/// frame boundary (null injector = plain send). Injected faults behave as
/// the real-world failure they model:
///   kShortWrite  part of the frame is sent, then kIoError — the caller
///                treats the connection as dead, the peer sees a torn
///                frame;
///   kTornFrame   part of the frame is sent, the socket is then shut down,
///                and the call "succeeds" — the failure surfaces at the
///                peer (torn frame) and at this side's next send;
///   kCorruptCrc  the frame goes out with one CRC byte flipped — the
///                peer's checksum rejects it;
///   kDisconnect  nothing is sent and the socket is shut down — the peer
///                sees a clean close mid-stream.
Status WriteFrame(Socket* socket, FaultInjector* injector,
                  const Frame& frame);

/// Reads one frame, consulting `injector`'s wire recv channel at the frame
/// boundary. An injected kShortRead shuts the socket down and reports the
/// torn-frame kIoError a half-received frame produces. A clean peer close
/// between frames sets *eof with an empty frame and returns OK.
Status ReadFrame(Socket* socket, FaultInjector* injector, Frame* frame,
                 bool* eof);

}  // namespace tmdb

#endif  // TMDB_NET_SOCKET_H_
