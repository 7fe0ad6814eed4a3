#ifndef SERVEBENCH_REPLAY_H_
#define SERVEBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "align/alite_matcher.h"
#include "client.h"
#include "core/dialite.h"
#include "integrate/full_disjunction.h"
#include "obs/observability.h"
#include "server/server.h"
#include "spans.h"
#include "workload.h"

namespace servebench {

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One request the closed loop sent, with what came back.
struct RecordedRequest {
  OpRequest op;
  Response response;
  double latency_us = 0.0;
};

/// Replays sampled requests on one thread through the public functions
/// the handler calls, in the handler's order, and compares each answer with
/// the one the server gave. The library under test is the snapshot opened
/// with Dialite::OpenSnapshot and an ObservabilityContext installed; work
/// counts come only from that context's existing counters.
///
/// Traced, each call also runs under a span, with its allocations counted,
/// a second time with no CancelToken (the deadline overhead), and the whole
/// request once more through DialiteServer::Handle on an in-process server
/// over the same snapshot.
class Replayer {
 public:
  Replayer(const std::string& snapshot_path, bool traced);
  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  /// False when the snapshot could not be opened.
  bool ok() const { return system_.dialite != nullptr; }
  /// Wall time of the Dialite::OpenSnapshot call.
  double open_s() const { return open_s_; }

  /// Replays `rr`; false when the served answer differs from the
  /// library's. `client_latency_us` (traced) is the traced closed loop's
  /// latency of the same request, for the wire time.
  bool Replay(const RecordedRequest& rr, double client_latency_us,
              SpanLog* log, uint64_t parent);

  /// Per-layer metrics over everything replayed (traced runs).
  std::vector<Metric> LayerMetrics() const;

 private:
  /// Per-call totals of one layer function.
  struct Layer {
    uint64_t calls = 0;
    double armed_us = 0.0;    ///< with the server's default deadline armed
    double unarmed_us = 0.0;  ///< with no CancelToken
    uint64_t allocs = 0;
    std::map<std::string, uint64_t> counters;
  };

  const bool traced_;
  dialite::ObservabilityContext obs_;
  dialite::SnapshotSystem system_;
  double open_s_ = 0.0;
  dialite::AliteMatcher matcher_;
  dialite::FullDisjunction fd_;
  /// Traced only: an in-process server (never started) for Handle.
  dialite::ObservabilityContext handle_obs_;
  std::unique_ptr<dialite::DialiteServer> handle_server_;

  std::map<std::string, Layer> layers_;
  uint64_t requests_ = 0;
  double request_bytes_ = 0.0;
  double response_bytes_ = 0.0;
  /// Per traced request: Handle minus its child calls, and the client's
  /// time minus Handle.
  std::vector<double> handle_self_us_;
  std::vector<double> wire_us_;
};

}  // namespace servebench

#endif  // SERVEBENCH_REPLAY_H_
