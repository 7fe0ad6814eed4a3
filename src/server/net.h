#ifndef DIALITE_SERVER_NET_H_
#define DIALITE_SERVER_NET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>

#include "common/fd_util.h"
#include "common/status.h"

// The serving system's only socket layer. Raw BSD sockets and the raw
// accept/driver thread are confined to net.{h,cc} — dialite_analyze's
// naked-thread and raw-socket checks ban both everywhere else (policy.txt
// exempts only this layer), so every other serving file works in terms of
// TcpConn/TcpListener/NetThread and stays testable without touching the
// socket API.

namespace dialite {

/// One connected TCP stream, move-only RAII over its fd. All I/O is
/// blocking; SetRecvTimeout turns blocked reads into kDeadlineExceeded so
/// callers can poll shutdown flags between requests.
class TcpConn {
 public:
  TcpConn() = default;
  explicit TcpConn(UniqueFd fd) : fd_(std::move(fd)) {}

  [[nodiscard]] bool valid() const { return fd_.valid(); }

  /// Reads up to `len` bytes. Returns 0 on clean EOF (peer closed),
  /// kDeadlineExceeded when the receive timeout expired with no data, or a
  /// kInternal Status for socket errors. Retries EINTR internally.
  Result<size_t> ReadSome(char* buf, size_t len);

  /// Writes all of `data` (send with MSG_NOSIGNAL; a closed peer surfaces
  /// as a Status, never as SIGPIPE). Retries EINTR and short writes.
  Status WriteAll(std::string_view data);

  /// Bounds every subsequent ReadSome; zero restores blocking reads.
  Status SetRecvTimeout(std::chrono::milliseconds timeout);

  /// Half-closes the write side so the peer sees EOF after our response.
  void ShutdownWrite();

  void Close() { fd_.reset(); }

 private:
  UniqueFd fd_;
};

/// A listening TCP socket bound to the loopback interface. Accept() blocks;
/// Close() is safe to call from another thread and wakes the blocked
/// Accept() with kUnavailable — the graceful-shutdown handshake.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener() { Close(); }
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned; see port()) with
  /// SO_REUSEADDR and starts listening.
  Status Listen(uint16_t port, int backlog = 128);

  /// The bound port — the ephemeral one when Listen() was given 0.
  uint16_t port() const { return port_; }

  /// Blocks for the next connection. After Close() (or on a fatal socket
  /// error) returns kUnavailable.
  Result<TcpConn> Accept();

  /// Stops accepting: shuts the socket down (waking a blocked Accept())
  /// and closes the fd. Idempotent; callable concurrently with Accept().
  void Close();

 private:
  UniqueFd fd_;
  uint16_t port_ = 0;
  std::atomic<bool> closed_{false};
};

/// Connects to 127.0.0.1:`port` (the client side of the smoke driver),
/// waiting at most `timeout` for the connection to be accepted.
Result<TcpConn> TcpConnect(uint16_t port,
                           std::chrono::milliseconds timeout =
                               std::chrono::milliseconds(5000));

/// The one sanctioned raw thread outside ThreadPool: the daemon's accept
/// loop must block in Accept() indefinitely, which would wedge a pooled
/// worker, so it runs on its own joinable thread. Joins on destruction —
/// the function must have an external stop signal (TcpListener::Close).
class NetThread {
 public:
  explicit NetThread(std::function<void()> fn) : thread_(std::move(fn)) {}
  ~NetThread() { Join(); }
  NetThread(const NetThread&) = delete;
  NetThread& operator=(const NetThread&) = delete;

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::thread thread_;
};

}  // namespace dialite

#endif  // DIALITE_SERVER_NET_H_
