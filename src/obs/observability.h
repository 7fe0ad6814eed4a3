#ifndef DIALITE_OBS_OBSERVABILITY_H_
#define DIALITE_OBS_OBSERVABILITY_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace dialite {

/// One observability session: the metrics registry and span tracer every
/// instrumented layer (discovery builders, matcher, integration, thread
/// pool, CSV ingest) writes into, exportable as one JSON
/// document or a human-readable report.
///
/// Usage:
///   ObservabilityContext obs;
///   dialite.set_observability(&obs);
///   dialite.BuildIndexes();
///   dialite.Run(query, options);
///   std::cout << obs.ToJson();        // machines (BENCH_*.json trajectories)
///   std::cout << obs.ToTreeString();  // humans
///
/// Disabled fast path: every instrumentation site takes a nullable
/// ObservabilityContext* and costs exactly one pointer test when it is
/// null — no locks, no clock reads, no allocation. All members are
/// thread-safe when enabled.
class ObservabilityContext {
 public:
  ObservabilityContext() = default;
  ObservabilityContext(const ObservabilityContext&) = delete;
  ObservabilityContext& operator=(const ObservabilityContext&) = delete;

  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  /// {"counters":{...},"histograms":{...},"spans":[...]}
  std::string ToJson() const;

  /// Indented span tree followed by counter/histogram listings.
  std::string ToTreeString() const;

 private:
  Metrics metrics_;
  Tracer tracer_;
};

// ------------------------------------------------------- null-safe helpers

/// Bumps a named counter; no-op on a null context.
inline void ObsAdd(ObservabilityContext* obs, std::string_view name,
                   uint64_t delta = 1) {
  if (obs != nullptr) obs->metrics().Add(name, delta);
}

/// Overwrites a named counter (gauge semantics); no-op on a null context.
inline void ObsSet(ObservabilityContext* obs, std::string_view name,
                   uint64_t value) {
  if (obs != nullptr) obs->metrics().Set(name, value);
}

/// Records a histogram sample; no-op on a null context.
inline void ObsRecord(ObservabilityContext* obs, std::string_view name,
                      uint64_t value) {
  if (obs != nullptr) obs->metrics().Record(name, value);
}

/// Counter pointer for hot loops (cache it, Add without lookups); null on a
/// null context.
inline Counter* ObsCounter(ObservabilityContext* obs, std::string_view name) {
  return obs != nullptr ? obs->metrics().counter(name) : nullptr;
}

/// RAII span over a nullable context: inert (one branch, no clocks) when
/// the context is null.
class ObsSpan {
 public:
  ObsSpan(ObservabilityContext* obs, std::string_view name)
      : span_(obs != nullptr ? &obs->tracer() : nullptr, name) {}

 private:
  ScopedSpan span_;
};

/// RAII per-request scope: on destruction records elapsed wall time into
/// histogram "<prefix>.ns" and bumps counter "<prefix>.count". The serving
/// layer opens one per request ("server.request.<endpoint>"); ElapsedNs()
/// lets the handler also report the latency inline in its response. Inert
/// (no clock reads) on a null context.
class ObsTimer {
 public:
  ObsTimer(ObservabilityContext* obs, std::string prefix)
      : obs_(obs), prefix_(std::move(prefix)) {
    if (obs_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ObsTimer(const ObsTimer&) = delete;
  ObsTimer& operator=(const ObsTimer&) = delete;

  ~ObsTimer() {
    if (obs_ == nullptr) return;
    obs_->metrics().Record(prefix_ + ".ns", ElapsedNs());
    obs_->metrics().Add(prefix_ + ".count", 1);
  }

  /// Nanoseconds since construction (0 on a null context).
  uint64_t ElapsedNs() const {
    if (obs_ == nullptr) return 0;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  ObservabilityContext* obs_;
  std::string prefix_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dialite

#endif  // DIALITE_OBS_OBSERVABILITY_H_
