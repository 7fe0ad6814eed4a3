#ifndef DIALITE_SERVER_SERVER_H_
#define DIALITE_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/cancel.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/observability.h"
#include "server/http.h"
#include "server/net.h"
#include "server/service.h"

namespace dialite {

/// Tuning knobs for dialited.
struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 = kernel-assigned (tests), read back via
  /// DialiteServer::port().
  uint16_t port = 8080;
  /// Request worker threads; 0 = hardware concurrency.
  size_t num_workers = 0;
  /// Admission bound: connections admitted (queued + executing) before the
  /// accept thread starts answering 503 inline. Bounds memory and queue
  /// latency under overload — ThreadPool's queue itself is unbounded.
  size_t max_admitted = 128;
  /// Default per-request deadline when the client sends no deadline_ms
  /// query parameter; 0 = no deadline. Exceeding it returns 504.
  uint64_t default_deadline_ms = 30'000;
  /// Largest accepted request body (the CSV query table). Larger = 413.
  size_t max_body_bytes = 8u << 20;
  /// Keep-alive connections idle longer than this are closed; also the
  /// granularity at which parked connections notice a drain.
  uint64_t idle_timeout_ms = 5'000;
  /// Registers GET /_test/sleep (deterministic in-flight work for drain
  /// and epoch-swap tests). Never enable in production.
  bool enable_test_endpoints = false;
};

/// dialited's core: a blocking accept loop on a dedicated NetThread feeding
/// admitted connections to a ThreadPool of request workers, serving the
/// DIALITE pipeline over a LakeService epoch handle.
///
/// Endpoints:
///   GET  /status                          liveness + epoch + lake shape
///   GET  /metrics                         ObservabilityContext::ToJson()
///   POST /discover?algorithm=&k=&column=  body: CSV query table -> hits JSON
///   POST /align?tables=a,b[&matcher=]     [body: CSV extra table] -> clusters
///   POST /integrate?tables=a,b[&op=]      [body: CSV extra table] -> CSV
///   POST /reload[?snapshot=path]          swap to the next epoch
///
/// Every data-plane request accepts deadline_ms=N; past the deadline the
/// discovery cascade cancels cooperatively and the request answers 504. A
/// deadline past the clock's range saturates. Numeric parameters (k,
/// column, deadline_ms) take decimal digits only; anything else answers
/// 400. Each request is timed under "server.request.<endpoint>", and every
/// path that is not an endpoint under "server.request.unknown".
///
/// Lifecycle: construct -> Start() -> (serve) -> Shutdown(). Shutdown
/// refuses new connections, lets in-flight requests finish (bounded by
/// their deadlines), drains parked keep-alive connections, and joins every
/// thread; it is idempotent and also run by the destructor.
class DialiteServer {
 public:
  explicit DialiteServer(const ServerOptions& options,
                         ObservabilityContext* obs = nullptr);
  ~DialiteServer();
  DialiteServer(const DialiteServer&) = delete;
  DialiteServer& operator=(const DialiteServer&) = delete;

  /// Opens the snapshot (epoch 1), binds the port, spawns workers and the
  /// accept thread. On any failure nothing keeps running.
  Status Start(const std::string& snapshot_path);

  /// Graceful drain; see class comment. Safe to call from any thread
  /// except the pool's own workers.
  void Shutdown();

  /// The bound port (valid after Start).
  uint16_t port() const { return listener_.port(); }

  LakeService& lake_service() { return service_; }

  /// Connections currently admitted (queued or executing).
  size_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

  /// Pure request dispatch — everything above the socket. Exposed so unit
  /// tests drive endpoints without a network. `cancel` may be null.
  /// Thread-safe; non-const only because /reload mutates the epoch handle.
  HttpResponse Handle(const HttpRequest& req, const CancelToken* cancel);

 private:
  void AcceptLoop();
  void ServeConnection(TcpConn conn);

  HttpResponse HandleStatus() const;
  HttpResponse HandleMetrics() const;
  HttpResponse HandleDiscover(const HttpRequest& req,
                              const CancelToken* cancel) const;
  HttpResponse HandleAlign(const HttpRequest& req, const CancelToken* cancel,
                           bool integrate) const;
  HttpResponse HandleReload(const HttpRequest& req);
  HttpResponse HandleTestSleep(const HttpRequest& req,
                               const CancelToken* cancel) const;

  ServerOptions options_;
  ObservabilityContext* obs_;
  LakeService service_;
  TcpListener listener_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<NetThread> accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<size_t> in_flight_{0};
  bool started_ = false;
};

/// Maps a pipeline Status onto the HTTP code dialited answers with.
int HttpStatusForCode(StatusCode code);

/// {"error":"..."} body for a failed request.
HttpResponse ErrorResponse(int http_status, std::string_view message);

}  // namespace dialite

#endif  // DIALITE_SERVER_SERVER_H_
