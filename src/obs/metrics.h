#ifndef DIALITE_OBS_METRICS_H_
#define DIALITE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/sync.h"

namespace dialite {

// Memory-ordering audit (all atomics in this header):
// every counter/histogram cell is an independent statistic — no load of one
// atomic is ever used to justify reading *other* non-atomic memory, and
// readers tolerate torn cross-field views (a snapshot may see n_ updated
// before sum_). That absence of inter-variable ordering requirements is
// exactly what memory_order_relaxed provides, so relaxed is the weakest
// correct ordering at every site below; each site's comment states the
// invariant it does need. Publication of the instruments themselves
// (Counter*/Histogram* handed out by the registry) is ordered by the
// registry's mutex, not by these atomics.

/// One named event counter. Add/Set are lock-free; hot paths should look
/// the counter up once (Metrics::counter) and keep the pointer.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    // Invariant: the final value is the sum of all deltas. fetch_add is
    // atomic read-modify-write under any ordering, so no increments are
    // lost; nothing else is published by this store → relaxed.
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Overwrites the value (for gauges mirrored from an external tally,
  /// e.g. an index's column or token count).
  void Set(uint64_t value) {
    // Invariant: readers eventually see the latest gauge value. A plain
    // atomic store suffices; the store orders nothing else → relaxed.
    v_.store(value, std::memory_order_relaxed);
  }
  uint64_t value() const {
    // Invariant: reads return some value the counter actually held; no
    // other memory is read on the strength of this load → relaxed.
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Lock-free histogram over uint64 samples (latencies in ns, sizes in rows
/// or cells). Buckets are powers of two: bucket 0 counts value 0, bucket i
/// counts [2^(i-1), 2^i). Count/sum/min/max are exact; the distribution is
/// bucket-resolution.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;

  void Record(uint64_t value);

  // Reader invariant (count/sum/min/max/bucket_counts): each load returns
  // a value its cell actually held, but a concurrent Record may be half
  // applied across cells (e.g. n_ bumped, sum_ not yet). Snapshots are
  // intentionally statistical, never used to synchronize → relaxed.
  uint64_t count() const { return n_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// 0 when the histogram is empty.
  uint64_t min() const;
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const;
  /// Per-bucket counts with trailing empty buckets trimmed.
  std::vector<uint64_t> bucket_counts() const;

 private:
  std::atomic<uint64_t> counts_[kBuckets] = {};
  std::atomic<uint64_t> n_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~uint64_t{0}};
  std::atomic<uint64_t> max_{0};
};

/// Immutable snapshot of one histogram (for export and tests).
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double mean = 0.0;
  std::vector<uint64_t> buckets;
};

/// Thread-safe registry of named counters and histograms. Instruments are
/// created on first use and never removed, so pointers returned by
/// counter()/histogram() stay valid for the registry's lifetime and may be
/// cached across calls. Lookup of an existing instrument takes a shared
/// (reader) lock; only first-use creation takes the exclusive lock. Hot
/// loops should still tally locally and Add once, or cache the Counter*.
class Metrics {
 public:
  Metrics() = default;
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  Counter* counter(std::string_view name) DIALITE_EXCLUDES(mu_);
  Histogram* histogram(std::string_view name) DIALITE_EXCLUDES(mu_);

  void Add(std::string_view name, uint64_t delta = 1) {
    counter(name)->Add(delta);
  }
  void Set(std::string_view name, uint64_t value) { counter(name)->Set(value); }
  void Record(std::string_view name, uint64_t value) {
    histogram(name)->Record(value);
  }

  /// Value of a counter, or 0 if it was never touched.
  uint64_t CounterValue(std::string_view name) const DIALITE_EXCLUDES(mu_);
  /// True if the named histogram exists (was recorded to at least once).
  [[nodiscard]] bool HasHistogram(std::string_view name) const
      DIALITE_EXCLUDES(mu_);

  std::map<std::string, uint64_t> CounterSnapshot() const
      DIALITE_EXCLUDES(mu_);
  std::map<std::string, HistogramSnapshot> HistogramSnapshots() const
      DIALITE_EXCLUDES(mu_);

  /// Appends `"counters":{...},"histograms":{...}` (no surrounding braces)
  /// to `out` — the fragment ObservabilityContext::ToJson composes.
  void AppendJson(std::string* out) const;

  /// Appends an indented human-readable listing.
  void AppendTree(std::string* out) const;

 private:
  mutable SharedMutex mu_{"Metrics::mu_"};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      DIALITE_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      DIALITE_GUARDED_BY(mu_);
};

}  // namespace dialite

#endif  // DIALITE_OBS_METRICS_H_
